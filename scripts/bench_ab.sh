#!/usr/bin/env bash
# A/B-compare two revisions on one machine with the perfbench workloads.
#
# Both revisions are exported with `git archive` into plain directories
# under the work dir (the repository's own tree and index are not
# touched), built, and smoke-tested with `python3 perfbench/run.py
# --smoke`.  Then every workload runs in alternating pairs with the
# same seed on both sides and BENCHMARK.json's run_seconds per run:
# pair i runs BASE first when i is even and HEAD first when it is odd,
# so drift on a busy box does not always favour one side.  For each
# end-to-end metric of BENCHMARK.json the report prints each side's
# median and quartiles, the median ratio HEAD/BASE, the pairs HEAD won
# (by the metric's "better" direction; a tie is not a win), whether the
# medians differ by more than BASE's quartile spread, and REGRESSION
# when HEAD's median is worse than BASE's by more than the metric's
# bound.
#
# Usage: scripts/bench_ab.sh [options] BASE HEAD
#   BASE, HEAD       git revisions (anything `git rev-parse` accepts)
#   --pairs=N        alternating pairs per workload (default 10, the
#                    count a gain claim needs; min 5)
#   --seed=N         workload seed, the same on both sides (default 1)
#   --workloads=A,B  workloads to run (default: all in BENCHMARK.json)
#   --work-dir=DIR   where the snapshots are built and the raw results
#                    (results.jsonl) are kept (default: a new temp dir).
#                    A snapshot already there for the same commit is
#                    reused, so repeated comparisons skip the build.
#
# Exits 1 when a run failed (non-zero exit, an output check failed or
# no result line), 0 otherwise; REGRESSION lines are reported, not
# fatal.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}

cd "$(dirname "$0")/.."
repo="$(pwd)"
pairs=10
seed=1
workloads=""
work=""
revs=()
for arg in "$@"; do
    case "$arg" in
        --pairs=*) pairs="${arg#*=}" ;;
        --seed=*) seed="${arg#*=}" ;;
        --workloads=*) workloads="${arg#*=}" ;;
        --work-dir=*) work="${arg#*=}" ;;
        -h|--help) usage ;;
        -*) echo "bench_ab.sh: unknown option ${arg}" >&2; usage ;;
        *) revs+=("$arg") ;;
    esac
done
[ "${#revs[@]}" -eq 2 ] || usage
if ! [[ "$pairs" =~ ^[0-9]+$ ]] || [ "$pairs" -lt 5 ]; then
    echo "bench_ab.sh: --pairs must be an integer >= 5" >&2
    exit 2
fi
spec() {
    python3 -c "import json, sys
spec = json.load(open(sys.argv[1]))
print(spec['run_seconds'] if sys.argv[2] == 'seconds' else
      ','.join(w['name'] for w in spec['workloads']))" \
        "${repo}/BENCHMARK.json" "$1"
}
seconds="$(spec seconds)"
[ -n "$workloads" ] || workloads="$(spec workloads)"
[ -n "$work" ] || work="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# Export one revision into $work/<side>, reusing a snapshot of the same
# commit, then build it and run perfbench's smoke test there.
prepare() {
    local side="$1" rev="$2" commit dir
    commit="$(git -C "$repo" rev-parse --verify "${rev}^{commit}")"
    dir="${work}/${side}"
    if [ "$(cat "${dir}/.commit" 2>/dev/null)" != "$commit" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$repo" archive "$commit" | tar -x -C "$dir"
        echo "$commit" > "${dir}/.commit"
    fi
    echo "== ${side}: ${rev} (${commit:0:12}), build + smoke ==" >&2
    (cd "$dir" && python3 perfbench/run.py --smoke) > "${dir}/smoke.log" 2>&1 || {
        echo "bench_ab.sh: ${side} smoke run failed, see ${dir}/smoke.log" >&2
        exit 1
    }
}
prepare base "${revs[0]}"
prepare head "${revs[1]}"

results="${work}/results.jsonl"
: > "$results"
failed=0
run_side() {
    local side="$1" workload="$2" pair="$3" line code=0
    line="$(cd "${work}/${side}" && python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 2>>"${work}/${side}/runs.log" | tail -n 1)" || code=$?
    echo "${workload} pair ${pair} ${side}: exit ${code}" >&2
    python3 -c "import json, sys
side, workload, pair, code, line = sys.argv[1:6]
try:
    result = json.loads(line)
except ValueError:
    result = None
print(json.dumps({'side': side, 'workload': workload, 'pair': int(pair),
                  'exit': int(code), 'result': result}))" \
        "$side" "$workload" "$pair" "$code" "$line" >> "$results"
    [ "$code" -eq 0 ] || failed=1
}
IFS=',' read -r -a workload_list <<< "$workloads"
for workload in "${workload_list[@]}"; do
    for ((pair = 0; pair < pairs; ++pair)); do
        if ((pair % 2 == 0)); then
            run_side base "$workload" "$pair"
            run_side head "$workload" "$pair"
        else
            run_side head "$workload" "$pair"
            run_side base "$workload" "$pair"
        fi
    done
done

python3 - "${repo}/BENCHMARK.json" "$results" "${revs[0]}" "${revs[1]}" \
    "$seed" "$seconds" <<'EOF' || failed=1
import json
import statistics
import sys

spec_path, results_path, base_rev, head_rev, seed, seconds = sys.argv[1:7]
with open(spec_path) as handle:
    metrics = json.load(handle)["end_to_end"]
runs = {}
bad = []
with open(results_path) as handle:
    for line in handle:
        run = json.loads(line)
        result = run["result"]
        if run["exit"] != 0 or not result or not result.get("correct"):
            bad.append("%s pair %d %s" % (run["workload"], run["pair"],
                                          run["side"]))
            continue
        runs.setdefault(run["workload"], {}).setdefault(
            run["pair"], {})[run["side"]] = result["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


print("A/B %s (base) vs %s (head): seed %s, %s s per run" %
      (base_rev, head_rev, seed, seconds))
for workload, by_pair in runs.items():
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    print("\n%s: %d complete pairs" % (workload, len(pairs)))
    rows = [("metric", "base median [q1, q3]", "head median [q1, q3]",
             "ratio", "wins", ">IQR", "")]
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        values = {side: [by_pair[p][side][name]["value"] for p in pairs
                         if name in by_pair[p][side]]
                  for side in ("base", "head")}
        if not values["base"] or len(values["base"]) != len(values["head"]):
            continue
        med = {s: statistics.median(v) for s, v in values.items()}
        quart = {s: quartiles(v) for s, v in values.items()}
        wins = sum((h < b) if lower else (h > b)
                   for b, h in zip(values["base"], values["head"]))
        spread = quart["base"][1] - quart["base"][0]
        beyond = abs(med["head"] - med["base"]) > spread
        ratio = med["head"] / med["base"] if med["base"] else float("nan")
        worse = (med["head"] - med["base"]) if lower else \
            (med["base"] - med["head"])
        regression = med["base"] and worse / abs(med["base"]) > metric["bound"]
        cell = {s: "%.4g [%.4g, %.4g]" % (med[s], *quart[s])
                for s in ("base", "head")}
        rows.append((name, cell["base"], cell["head"], "%.3f" % ratio,
                     "%d/%d" % (wins, len(values["base"])),
                     "yes" if beyond else "no",
                     "REGRESSION" if regression else ""))
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(text.ljust(width)
                               for text, width in zip(row, widths)).rstrip())
for run in bad:
    print("FAILED run: " + run)
sys.exit(1 if bad else 0)
EOF
echo "raw results: ${results}" >&2
exit "$failed"
