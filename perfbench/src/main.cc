/**
 * @file
 * casim_perf: the casim benchmark program.
 *
 *   casim_perf --workload=study-cold|sweep-warm|daemon-mixed --seed=N
 *              --seconds=S --trace=0|1 --run-dir=DIR --casimd=PATH
 *              [--trace-out=FILE] [--smoke] [--commit=SHA]
 *              [--source-digest=HEX]
 *
 * Prints provenance, per-workload detail and every metric by name with
 * its unit; the last line of standard output is one JSON object with
 * the keys correct, attempted, failed and metrics (end-to-end metrics
 * untraced, per-layer metrics with --trace=1).  Exits 1 when any output
 * check failed and 2 when it refuses to run (sanitizer, paranoid or
 * code-path-switching builds and environments: both sides of an A/B
 * must measure the same program).  perfbench/run.py builds and runs
 * this binary.
 */

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "common/simd.hh"
#include "util.hh"

extern char **environ;

namespace {

using perfbench::Settings;

/** Value of `--key=value` among the arguments, or `fallback`. */
std::string
argValue(int argc, char **argv, const std::string &key,
         const std::string &fallback)
{
    const std::string prefix = "--" + key + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
        if (arg == "--" + key)
            return "1";
    }
    return fallback;
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

std::string
cpuModel()
{
    std::istringstream info(perfbench::readTextFile("/proc/cpuinfo"));
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Every CASIM_* variable of the environment, as NAME=VALUE. */
std::vector<std::string>
casimEnvironment()
{
    std::vector<std::string> vars;
    for (char **entry = environ; *entry != nullptr; ++entry) {
        const std::string var = *entry;
        if (var.rfind("CASIM_", 0) == 0)
            vars.push_back(var);
    }
    return vars;
}

/**
 * Why this build or environment must not be measured, or empty.  The
 * knobs swap code paths (scalar tag scan, the legacy replay loop, the
 * resident bundle reader, scanning labelers, sharded replay, another
 * pool width, an implicit capture store), so a number measured under
 * one would not describe the program.
 */
std::string
refusal()
{
#if defined(CASIM_PARANOID)
    return "built with CASIM_PARANOID";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) ||   \
    defined(PERFBENCH_SANITIZED)
    return "built with a sanitizer";
#elif defined(CASIM_NO_SIMD) || defined(CASIM_NO_MMAP)
    return "built with a code-path switch (CASIM_NO_SIMD/CASIM_NO_MMAP)";
#else
    for (const char *knob :
         {"CASIM_NO_SIMD", "CASIM_BATCH_WINDOW", "CASIM_NO_MMAP",
          "CASIM_NO_LABEL_PLANES", "CASIM_SHARDS", "CASIM_JOBS",
          "CASIM_CAPTURE_DIR"}) {
        if (std::getenv(knob) != nullptr)
            return std::string(knob) +
                   " is set; it switches code paths, unset it";
    }
    return "";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    Settings settings;
    settings.workload = argValue(argc, argv, "workload", "");
    settings.seed = std::stoull(argValue(argc, argv, "seed", "1"));
    settings.seconds = std::stod(argValue(argc, argv, "seconds", "10"));
    settings.trace = argValue(argc, argv, "trace", "0") == "1";
    settings.smoke = argValue(argc, argv, "smoke", "0") == "1";
    settings.runDir = argValue(argc, argv, "run-dir", "");
    settings.casimd = argValue(argc, argv, "casimd", "");
    settings.traceOut = argValue(argc, argv, "trace-out",
                                 settings.runDir + "/trace.json");
    settings.jobs = usableCpus();

    if (settings.runDir.empty() || settings.casimd.empty()) {
        std::cerr << "casim_perf: --run-dir and --casimd are required\n";
        return 2;
    }
    const std::string refused = refusal();
    if (!refused.empty()) {
        std::cerr << "casim_perf: refusing to measure: " << refused << "\n";
        return 2;
    }

    auto &prov = settings.provenance;
    prov["workload"] = settings.workload;
    prov["seed"] = std::to_string(settings.seed);
    prov["git_commit"] = argValue(argc, argv, "commit", "unknown");
    prov["source_digest"] = argValue(argc, argv, "source-digest", "unknown");
    prov["build_type"] = PERFBENCH_BUILD_TYPE;
    prov["nproc"] = std::to_string(settings.jobs);
    prov["cpu_model"] = cpuModel();
    prov["simd_isa"] = casim::simd::tagScanIsa();
    std::string env;
    for (const std::string &var : casimEnvironment())
        env += (env.empty() ? "" : " ") + var;
    prov["casim_env"] = env.empty() ? "(none)" : env;
    for (const auto &[key, value] : prov)
        std::cout << "provenance " << key << ": " << value << "\n";

    perfbench::Report report;
    perfbench::Checks checks;
    try {
        if (settings.workload == "study-cold")
            perfbench::runStudyCold(settings, report, checks);
        else if (settings.workload == "sweep-warm")
            perfbench::runSweepWarm(settings, report, checks);
        else if (settings.workload == "daemon-mixed")
            perfbench::runDaemonMixed(settings, report, checks);
        else {
            std::cerr << "casim_perf: unknown --workload '"
                      << settings.workload
                      << "' (known: study-cold, sweep-warm, daemon-mixed)\n";
            return 2;
        }
    } catch (const std::exception &error) {
        std::cerr << "casim_perf: " << error.what() << "\n";
        return 1;
    }
    report.finish(checks);
    return checks.failed() == 0 ? 0 : 1;
}
