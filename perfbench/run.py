#!/usr/bin/env python3
"""Build and run the casim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the simulator, casimd and the benchmark program
casim_perf from source into .bench_build/ (Release), runs one workload
for the given seconds and relays its report; the last line of standard
output is the JSON result. --trace 1 makes the traced run instead: it
reports the per-layer metrics and writes a Chrome trace to
.bench_build/traces/. --smoke runs the self-tests and every workload,
traced and untraced, at tiny scale in seconds.

Build output goes to standard error. The exit code is casim_perf's
(1 when an output check failed, 2 when it refused to run), or 1 when
the metrics it printed are not the ones BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ("study-cold", "sweep-warm", "daemon-mixed")

# A run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170

_child = None


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("casim sources (src/) not found next to perfbench/; run from "
             "a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run casim_perf once; returns (exit code, parsed JSON or None)."""
    global _child
    run_dir = os.path.join(".bench_build", "runs",
                           "%s-%d" % (workload, os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "casim_perf"),
        "--workload=" + workload,
        "--seed=%d" % seed,
        "--seconds=%g" % seconds,
        "--trace=%d" % trace,
        # Relative: the casimd socket path must stay short.
        "--run-dir=" + run_dir,
        "--casimd=" + os.path.join(BUILD_DIR, "casim", "casimd"),
        "--trace-out=" + os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (workload, seed)),
        "--commit=" + git_commit(),
        "--source-digest=" + source_digest(),
    ]
    if smoke:
        command.append("--smoke")
    last = ""
    _child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, _child.kill)
    watchdog.start()
    try:
        for line in _child.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line
        code = _child.wait()
    finally:
        watchdog.cancel()
        _child = None
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if code < 0:
        print("run.py: casim_perf killed (signal %d)" % -code, file=sys.stderr)
        return 1, None
    sys.stdout.flush()
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return code, result


def check_metrics(result, trace):
    """Names of BENCHMARK.json metrics missing from a result."""
    if result is None:
        return ["(no JSON result line)"]
    return sorted(expected_metrics(trace) - set(result.get("metrics", {})))


def smoke():
    build()
    done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("self-tests failed", 1)
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(workload, 1, 1, trace, smoke=True)
            missing = check_metrics(result, trace)
            if code != 0 or missing or not result["correct"]:
                bad.append("%s trace=%d: exit %d, missing %s" %
                           (workload, trace, code, missing))
    for line in bad:
        print("smoke FAILED: " + line, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if bad else "ok"), file=sys.stderr)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-tests plus every workload at tiny scale")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    code, result = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    missing = check_metrics(result, args.trace)
    if code == 0 and missing:
        print("run.py: metrics missing from the result: %s" % missing,
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
