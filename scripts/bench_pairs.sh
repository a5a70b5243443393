#!/usr/bin/env bash
# Alternating benchmark pairs: a base revision (HEAD's parent unless BASE
# names another) against HEAD on one workload.
# Each pair runs perfbench/run.py once on each side, with the same workload,
# seed and run length; odd pairs run the base first and even pairs HEAD
# first. For each end-to-end metric of BENCHMARK.json the script prints each
# side's median and quartiles over the pairs, and the pairs that HEAD won
# (ties count for neither side), then the runs that were not correct. Each
# pair's values go to stderr as it completes.
# The base is unpacked with git archive into a temporary directory, removed
# on exit, as scripts/compare_hashes.sh does. The script refuses to run while
# src/, perfbench/ or scripts/ differ from HEAD, since the result would not
# be HEAD's.
# Run from anywhere:
#   bash scripts/bench_pairs.sh WORKLOAD SEED PAIRS [SECONDS [BASE]]
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: bench_pairs.sh WORKLOAD SEED PAIRS [SECONDS [BASE]]" >&2
    exit 2
fi
WORKLOAD="$1"
SEED="$2"
PAIRS="$3"
RUN_SECONDS="${4:-55}"
BASE="${5:-HEAD^}"
case "$PAIRS" in
    '' | *[!0-9]* | 0)
        echo "bench_pairs: PAIRS must be a positive integer, got '$PAIRS'" >&2
        exit 2
        ;;
esac

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
. scripts/lib.sh
require_clean bench_pairs
require_commit bench_pairs "$BASE"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
BASE_TREE="$WORK/base-tree"
mkdir -p "$WORK/results"
unpack "$BASE" "$BASE_TREE"

# run SIDE TREE PAIR: one benchmark run of TREE, its result line kept as
# results/PAIR-SIDE.json
run() {
    local side="$1" tree="$2" pair="$3"
    python3 "$tree/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0 | tail -n 1 > "$WORK/results/$pair-$side.json"
}

for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) = 1 ]; then
        run base "$BASE_TREE" "$pair"
        run head "$ROOT" "$pair"
    else
        run head "$ROOT" "$pair"
        run base "$BASE_TREE" "$pair"
    fi
    python3 - "$WORK/results" "$pair" <<'EOF' >&2
import json
import os
import sys

results, pair = sys.argv[1:]
sides = []
for side in ("base", "head"):
    with open(os.path.join(results, f"{pair}-{side}.json"), encoding="utf-8") as f:
        metrics = json.load(f)["metrics"]
    sides.append(" ".join(f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())))
print(f"bench_pairs: pair {pair}: base {sides[0]}")
print(f"bench_pairs: pair {pair}: HEAD {sides[1]}")
EOF
done

python3 - "$WORK/results" "$PAIRS" "$ROOT/BENCHMARK.json" \
    "$WORKLOAD" "$SEED" "$RUN_SECONDS" \
    "$(git rev-parse --short=7 "$BASE")" "$(git rev-parse --short=7 HEAD)" <<'EOF'
import json
import os
import statistics
import sys

results, pairs, declared, workload, seed, seconds, base_sha, head_sha = sys.argv[1:]
pairs = int(pairs)
with open(declared, encoding="utf-8") as f:
    end_to_end = json.load(f)["end_to_end"]
runs = {}
for side in ("base", "head"):
    runs[side] = []
    for pair in range(1, pairs + 1):
        with open(os.path.join(results, f"{pair}-{side}.json"), encoding="utf-8") as f:
            runs[side].append(json.load(f))


def spread(values):
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


print(
    f"bench_pairs: {workload} seed {seed}, {pairs} pairs of {seconds} s runs, "
    f"base {base_sha} against HEAD {head_sha}"
)
print(f"{'metric':<12} {'unit':<6} {'base median [q1, q3]':<28} "
      f"{'HEAD median [q1, q3]':<28} HEAD won")
for metric in end_to_end:
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    values = {
        side: [run["metrics"].get(name, {}).get("value") for run in runs[side]]
        for side in runs
    }
    if None in values["base"] or None in values["head"]:
        print(f"{name:<12} not measured in every run")
        continue
    won = sum(
        sign * (h - b) < 0 for b, h in zip(values["base"], values["head"])
    )
    cells = []
    for side in ("base", "head"):
        median, q1, q3 = spread(values[side])
        cells.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}]")
    print(f"{name:<12} {metric['unit']:<6} {cells[0]:<28} {cells[1]:<28} {won}/{pairs}")
for side in ("base", "head"):
    bad = [i + 1 for i, run in enumerate(runs[side]) if not run["correct"]]
    failed = sum(run["failed"] for run in runs[side])
    attempted = sum(run["attempted"] for run in runs[side])
    print(
        f"{side}: {failed} of {attempted} operations failed; "
        f"runs not correct: {bad or 'none'}"
    )
EOF
