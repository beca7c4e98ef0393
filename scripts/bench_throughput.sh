#!/usr/bin/env bash
# Measure the replay engine's throughput and write a JSON report:
# microbenchmark rates for the tag-lookup / fill-evict / index-build hot
# paths, plus a timed full bench binary with the capture cache disabled,
# cold, and warm.  The numbers are absolute and box-specific; a speedup
# claim compares two revisions on one box with scripts/bench_ab.sh.
#
# Usage: scripts/bench_throughput.sh [--smoke] [build-dir] [out-json]
#   --smoke    CI mode: tiny scale, one repetition.  Exercises every
#              binary and check at minimal cost.
#   build-dir  defaults to "build" (must already be built)
#   out-json   where the report goes; defaults to a new temp file
#              (its path is printed at the end)
# Environment:
#   BENCH_SCALE  workload scale of the timed full run (default 0.2)
#   BENCH_REPS   microbenchmark repetitions (default 3)
set -euo pipefail

cd "$(dirname "$0")/.."
smoke=0
if [ "${1:-}" = "--smoke" ]; then
    smoke=1
    shift
fi
build="${1:-build}"
out="${2:-$(mktemp "${TMPDIR:-/tmp}/bench_replay.XXXXXX.json")}"
scale="${BENCH_SCALE:-0.2}"
reps="${BENCH_REPS:-3}"
if [ "$smoke" -eq 1 ]; then
    scale="${BENCH_SCALE:-0.02}"
    reps=1
fi

micro="${build}/bench/microbench_sim"
fullbench="${build}/bench/fig5_policy_comparison"
warm_bench="${build}/bench/warm_start_bench"
[ -x "$micro" ] || { echo "missing $micro (build first)" >&2; exit 1; }
[ -x "$fullbench" ] || { echo "missing $fullbench" >&2; exit 1; }
[ -x "$warm_bench" ] || { echo "missing $warm_bench" >&2; exit 1; }

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== microbenchmarks (${reps} repetitions) =="
micro_args=(
    --benchmark_filter='TagLookup|FillEvict|StreamSimPolicy/lru|StreamSimCell/lru|StreamSimSharded|StreamSimOpt|NextUseIndexBuild|LabelPlaneBuild|OracleLabel|HierarchyRun'
    --benchmark_repetitions="$reps"
    --benchmark_out="$tmpdir/micro.json"
    --benchmark_out_format=json
)
# With a single repetition there are no aggregates to report.
[ "$reps" -gt 1 ] && micro_args+=(--benchmark_report_aggregates_only=true)
[ "$smoke" -eq 1 ] && micro_args+=(--benchmark_min_time=0.05)
"$micro" "${micro_args[@]}"

echo "== warm-start: map vs read latency =="
warm_args=(
    --benchmark_filter='BM_WarmStart'
    --benchmark_repetitions="$reps"
    --benchmark_out="$tmpdir/warm.json"
    --benchmark_out_format=json
)
[ "$reps" -gt 1 ] && warm_args+=(--benchmark_report_aggregates_only=true)
[ "$smoke" -eq 1 ] && warm_args+=(--benchmark_min_time=0.05)
"$warm_bench" "${warm_args[@]}"

echo "== warm-start: out-of-core replay max RSS =="
# The flat-memory guarantee: a mapped trace several times the budget
# replays through the streaming pager without growing RSS.  The replay
# mode exits nonzero on a budget violation.
trace_mb=256; rss_budget_mb=64
[ "$smoke" -eq 1 ] && { trace_mb=64; rss_budget_mb=32; }
"$warm_bench" --write --out="$tmpdir/warm_start.ccap" --mb="$trace_mb"
"$warm_bench" --replay --in="$tmpdir/warm_start.ccap" \
    --budget-mb="$rss_budget_mb" > "$tmpdir/warm_rss.json"
cat "$tmpdir/warm_rss.json"

ms_now() { date +%s%N; }
elapsed_ms() { echo $(( ($2 - $1) / 1000000 )); }

echo "== full bench: capture cache off =="
t0=$(ms_now)
"$fullbench" --scale="$scale" --jobs=1 > "$tmpdir/off.txt"
t1=$(ms_now); off_ms=$(elapsed_ms "$t0" "$t1")

echo "== full bench: capture cache cold =="
t0=$(ms_now)
"$fullbench" --scale="$scale" --jobs=1 \
    --capture-dir="$tmpdir/cache" > "$tmpdir/cold.txt"
t1=$(ms_now); cold_ms=$(elapsed_ms "$t0" "$t1")

echo "== full bench: capture cache warm =="
t0=$(ms_now)
"$fullbench" --scale="$scale" --jobs=1 \
    --capture-dir="$tmpdir/cache" > "$tmpdir/warm.txt"
t1=$(ms_now); warm_ms=$(elapsed_ms "$t0" "$t1")

cmp -s "$tmpdir/off.txt" "$tmpdir/cold.txt" || {
    echo "FATAL: cold-cache output differs from uncached" >&2; exit 1; }
cmp -s "$tmpdir/off.txt" "$tmpdir/warm.txt" || {
    echo "FATAL: warm-cache output differs from uncached" >&2; exit 1; }
echo "capture-cache outputs byte-identical (off/cold/warm)"

# Provenance: which code, on which machine, with which kernels.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cpu_model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo \
             2>/dev/null || echo unknown)"
simd_isa="$("$micro" --print-simd-isa)"
echo "commit=${commit} simd=${simd_isa} cpu=${cpu_model}"

python3 - "$tmpdir/micro.json" "$out" "$scale" \
         "$off_ms" "$cold_ms" "$warm_ms" "$smoke" \
         "$commit" "$cpu_model" "$simd_isa" \
         "$tmpdir/warm.json" "$tmpdir/warm_rss.json" <<'EOF'
import json, sys

(micro_path, out_path, scale, off_ms, cold_ms, warm_ms, smoke,
 commit, cpu_model, simd_isa, warm_path, warm_rss_path) = sys.argv[1:13]
with open(micro_path) as f:
    micro = json.load(f)


def median_rates(doc):
    # Keep the median aggregate of each benchmark's repetitions; with a
    # single repetition (smoke mode) there are no aggregates, so fall
    # back to the lone iteration run.
    rates = {}
    for run in doc["benchmarks"]:
        is_median = run.get("aggregate_name") == "median"
        is_plain = "aggregate_name" not in run
        if not (is_median or is_plain):
            continue
        name = run["run_name"]
        if name in rates and not is_median:
            continue
        rates[name] = {
            "items_per_second": run.get("items_per_second"),
            "cpu_time_ns": run.get("cpu_time"),
        }
    return rates


rates = median_rates(micro)
with open(warm_path) as f:
    warm_rates = median_rates(json.load(f))
with open(warm_rss_path) as f:
    warm_rss = json.load(f)

report = {
    "schema": "casim-bench-replay-v1",
    "smoke": smoke == "1",
    "provenance": {
        "git_commit": commit,
        "cpu_model": cpu_model,
        "simd_isa": simd_isa,
    },
    "microbench": rates,
    "full_bench": {
        "binary": "fig5_policy_comparison",
        "scale": float(scale),
        "jobs": 1,
        "capture_cache_off_ms": int(off_ms),
        "capture_cache_cold_ms": int(cold_ms),
        "capture_cache_warm_ms": int(warm_ms),
    },
    "warm_start": {
        "bench": warm_rates,
        "replay": warm_rss,
    },
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")

mapped_ns = warm_rates.get("BM_WarmStartMapped", {}).get("cpu_time_ns")
read_ns = warm_rates.get("BM_WarmStartRead", {}).get("cpu_time_ns")
if mapped_ns and read_ns:
    print(f"warm start: {mapped_ns / 1e3:.1f}us mapped vs "
          f"{read_ns / 1e6:.1f}ms read "
          f"({read_ns / mapped_ns:.0f}x)")
print(f"out-of-core max RSS: {warm_rss['max_rss_bytes'] >> 20}MB over "
      f"{warm_rss['bytes_mapped'] >> 20}MB mapped "
      f"(budget {warm_rss['budget_bytes'] >> 20}MB)")
EOF
