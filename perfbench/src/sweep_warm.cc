/**
 * @file
 * sweep-warm: captures warm-started from bundles the benchmark wrote
 * before timing, then repeated in-process batches of every builtin
 * policy plus opt and lru+oracle at two replay capacities: one every
 * capture fits in (hit-dominated) and one most captures overflow
 * (eviction-dominated, so the policy columns differ).  Replay (tag
 * scan, victim selection, OPT next-use lookups, oracle label lookups)
 * does nearly all the work; capture does none.
 */

#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "mem/repl/factory.hh"
#include "sim/experiment.hh"
#include "stats_math.hh"
#include "trace/next_use.hh"
#include "util.hh"
#include "warm.hh"

namespace perfbench {

using casim::CaptureCache;
using casim::ExperimentQueue;
using casim::ExperimentRequest;
using casim::ExperimentResult;
using casim::ParallelRunner;
using casim::StudyConfig;

StudyConfig
warmConfig(const Settings &settings)
{
    const Sizes sizes = sizesFor(settings);
    StudyConfig config = studyConfig(sizes.warmScale, settings.seed,
                                     sizes.evictBytes, sizes.fitBytes);
    config.captureDir = settings.runDir + "/bundles";
    return config;
}

void
writeBundles(const Settings &settings, SpanRecorder *recorder,
             const StudyConfig &config, Checks &checks)
{
    std::filesystem::create_directories(config.captureDir);
    const std::vector<std::string> names = workloadNames();
    CaptureCache cache;
    ParallelRunner runner(settings.jobs);
    if (recorder != nullptr)
        recorder->setPhase("prep");
    runner.run(names.size(), [&](std::size_t i) {
        auto workload = captureCold(recorder, names[i], config);
        warmIndex(recorder, *workload, casim::studyOracleWindows(config));
        checks.attempt();
        if (!saveBundle(recorder, cache, names[i], config, *workload))
            checks.fail("cannot write bundle of " + names[i]);
    });
}

WarmStart::WarmStart(const StudyConfig &config, unsigned jobs)
    : runner(jobs), queue(cache, runner)
{
    const std::vector<std::string> names = workloadNames();
    std::vector<std::shared_ptr<const casim::CapturedWorkload>> warmed(
        names.size());
    runner.run(names.size(), [&](std::size_t i) {
        warmed[i] = cache.capture(names[i], config);
        const casim::NextUseIndex &index = warmed[i]->nextUse();
        for (const auto &[window, near] : casim::studyOracleWindows(config))
            index.labelPlane(window, near);
    });
    for (const auto &workload : warmed)
        demandRefs += static_cast<double>(workload->demandAccesses);
}

void
checkWarmStart(const WarmStart &warm, Checks &checks)
{
    checks.attempt();
    const std::size_t n = workloadNames().size();
    const CaptureCache &cache = warm.cache;
    if (cache.counter("hits") != n || cache.counter("cold_misses") != 0)
        checks.fail("warm start did not load every bundle (hits " +
                    std::to_string(cache.counter("hits")) + ", cold " +
                    std::to_string(cache.counter("cold_misses")) + ")");
}

CaptureSet
loadAll(const Settings &settings, SpanRecorder *recorder,
        const StudyConfig &config, CaptureCache &cache, Checks &checks)
{
    const std::vector<std::string> names = workloadNames();
    CaptureSet loaded;
    std::mutex mutex;
    ParallelRunner runner(settings.jobs);
    runner.run(names.size(), [&](std::size_t i) {
        std::string why;
        checks.attempt();
        auto workload = loadBundle(recorder, cache, names[i], config, &why);
        if (workload == nullptr) {
            checks.fail("cannot load bundle of " + names[i] + ": " + why);
            return;
        }
        warmIndex(recorder, *workload, casim::studyOracleWindows(config));
        std::lock_guard<std::mutex> lock(mutex);
        loaded[names[i]] = std::move(workload);
    });
    return loaded;
}

void
reportCapacityChecks(const std::vector<ExperimentRequest> &cells,
                     const ResultBook &book, const Sizes &sizes,
                     Report &report, Checks &checks)
{
    const auto [differ, total] =
        workloadsWherePoliciesDiffer(cells, book, sizes.evictBytes);
    report.line("eviction-dominated " + bytesLabel(sizes.evictBytes) + ": " +
                std::to_string(differ) + " of " + std::to_string(total) +
                " workloads have a policy whose misses differ from lru's");
    checks.attempt();
    if (2 * differ <= total)
        checks.fail("at " + bytesLabel(sizes.evictBytes) +
                    " policies differ from lru on only " +
                    std::to_string(differ) + " of " + std::to_string(total) +
                    " workloads");
    for (const auto &[cap, paper] :
         {std::pair<std::uint64_t, const char *>{sizes.evictBytes,
                                                 "6% at 4 MB"},
          {sizes.fitBytes, "10% at 8 MB"}}) {
        char text[240];
        std::snprintf(text, sizeof(text),
                      "model (unvalidated, no error figure): mean "
                      "lru+oracle miss reduction over lru at %s = %.2f%% "
                      "(paper: %s)",
                      bytesLabel(cap).c_str(),
                      100.0 * meanOracleReduction(cells, book, cap), paper);
        report.line(text);
    }
}

namespace {

std::vector<ExperimentRequest>
sweepCells(const StudyConfig &config, const Sizes &sizes)
{
    std::vector<std::string> policies = casim::builtinPolicyNames();
    policies.push_back("opt");
    policies.push_back("lru+oracle");
    std::vector<ExperimentRequest> cells;
    for (const std::string &name : workloadNames())
        for (const std::uint64_t cap : {sizes.evictBytes, sizes.fitBytes})
            for (const std::string &policy : policies)
                cells.push_back(makeCell("replay", name, policy, cap, config));
    return cells;
}

double
replayedRefs(const std::vector<ExperimentRequest> &cells,
             const ResultBook &book)
{
    double refs = 0.0;
    for (const ExperimentRequest &cell : cells)
        if (const ExperimentResult *result = book.find(cell))
            refs += static_cast<double>(result->streamRefs);
    return refs;
}

} // namespace

void
runSweepWarm(const Settings &settings, Report &report, Checks &checks)
{
    const Sizes sizes = sizesFor(settings);
    const StudyConfig config = warmConfig(settings);
    const std::vector<ExperimentRequest> cells = sweepCells(config, sizes);
    ResultBook book;
    report.line("sweep-warm: " + std::to_string(cells.size()) +
                " cells, scale " + std::to_string(sizes.warmScale) +
                ", capacities " + bytesLabel(sizes.evictBytes) + " and " +
                bytesLabel(sizes.fitBytes) + ", jobs " +
                std::to_string(settings.jobs));

    std::unique_ptr<SpanRecorder> recorder;
    if (settings.trace) {
        recorder = std::make_unique<SpanRecorder>();
        recorder->nameTrack("main");
    }
    writeBundles(settings, recorder.get(), config, checks);
    resetPeakRss();

    // Set-up: warm-start every capture from its bundle through a fresh
    // CaptureCache.  The first one serves the batches; more are taken
    // between the timed batches, so the median spans the run.
    std::vector<double> setups;
    const auto warmStart = [&] {
        const double t0 = monoSeconds();
        auto state = std::make_unique<WarmStart>(config, settings.jobs);
        setups.push_back(monoSeconds() - t0);
        checkWarmStart(*state, checks);
        return state;
    };
    const std::unique_ptr<WarmStart> warm = warmStart();

    const auto queueBatch = [&] {
        const std::vector<ExperimentRequest> requests = cells;
        const double t0 = monoSeconds();
        const auto results = warm->queue.runBatch(requests);
        const double wall = monoSeconds() - t0;
        book.recordBatch(cells, results, "queue", checks);
        return wall;
    };
    queueBatch(); // warm-up: reference results, first touch of the maps

    if (!settings.trace) {
        std::vector<double> batches;
        const double start = monoSeconds();
        while (batches.empty() || monoSeconds() - start < settings.seconds) {
            batches.push_back(queueBatch());
            for (int rep = 0; rep < 4; ++rep)
                warmStart();
        }
        const double timed_wall = monoSeconds() - start;
        book.checkOptBound(cells, checks);
        reportCapacityChecks(cells, book, sizes, report, checks);
        reportInProcess(report, setups, batches, warm->demandRefs,
                        replayedRefs(cells, book), timed_wall, checks);
        return;
    }

    LayerCounts counts;
    counts.jobs = settings.jobs;
    counts.minCap = sizes.evictBytes;
    counts.maxCap = sizes.fitBytes;

    recorder->setPhase("setup");
    CaptureCache traced_cache;
    CaptureSet captures =
        loadAll(settings, recorder.get(), config, traced_cache, checks);
    counts.bytesMapped =
        static_cast<double>(traced_cache.counter("bytes_mapped"));

    ParallelRunner runner(settings.jobs);
    std::vector<double> untraced;
    std::vector<double> traced;
    const double start = monoSeconds();
    while (traced.empty() || monoSeconds() - start < settings.seconds) {
        untraced.push_back(queueBatch());
        recorder->setPhase("timed");
        const double builds = casim::labelPlaneCounter("builds");
        const double hits = casim::labelPlaneCounter("memo_hits");
        const double t0 = monoSeconds();
        const auto results =
            pipelineBatch(recorder.get(), runner, cells, captures);
        traced.push_back(monoSeconds() - t0);
        counts.planeBuilds += casim::labelPlaneCounter("builds") - builds;
        counts.planeMemoHits +=
            casim::labelPlaneCounter("memo_hits") - hits;
        book.recordBatch(cells, results, "traced pipeline", checks);
    }
    counts.timedIterations = static_cast<unsigned>(traced.size());
    counts.planeBuilds /= static_cast<double>(traced.size());
    counts.planeMemoHits /= static_cast<double>(traced.size());
    counts.planesFrom = "label_plane counters around each traced batch";
    counts.traceOverhead = median(traced) / median(untraced) - 1.0;
    report.timing("untraced batch", untraced, "ms", 1e3);
    report.timing("traced batch", traced, "ms", 1e3);

    readQueueCounters(warm->queue, warm->cache, counts);

    recorder->setPhase("check");
    daemonCrossCheck(settings, recorder.get(), config, cells, book, checks,
                     counts);
    book.checkOptBound(cells, checks);
    reportCapacityChecks(cells, book, sizes, report, checks);
    reportLayers(recorder->spans(), counts, report);
    writeTrace(settings, *recorder, report);
    reportFailures(report, checks);
}

} // namespace perfbench
