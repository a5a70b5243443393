#!/usr/bin/env bash
# Benchmark history: run both perfbench workloads on this checkout and record
# what they printed in BENCH_<date>-<sha7>.json at the repository root, where
# <sha7> names the commit measured (HEAD). Each workload's entry holds the
# `perfbench env` line, the result line, and the spread of the raw samples
# that each end-to-end median was taken over.
# The file is named after HEAD, so the script refuses to run while src/,
# perfbench/ or scripts/ differ from HEAD.
# Only files taken back to back compare: perfbench scales its times by a
# calibration loop, and that scaling does not carry across host speeds (one
# commit measured 55 minutes apart read train_s 1.05 and 1.30). With --pair
# the script takes such a pair itself: it measures HEAD's parent, unpacked
# with git archive into a temporary directory as scripts/compare_hashes.sh
# does, then HEAD, and writes both files; the directory is removed on exit.
# For a claim, alternate many pairs with scripts/bench_pairs.sh instead.
# Run from anywhere:  bash scripts/bench_history.sh [--pair] [seed] [seconds]
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
PAIR=0
if [ "${1:-}" = "--pair" ]; then
    PAIR=1
    shift
fi
. scripts/lib.sh
require_clean bench_history
SEED="${1:-11}"
RUN_SECONDS="${2:-55}"
LOGS="$(mktemp -d)"
trap 'rm -rf "$LOGS"' EXIT

# measure TREE SHA: both workloads on the program at TREE, recorded at the
# root of this repository under the name of commit SHA
measure() {
    local tree="$1" sha="$2"
    for W in clients-4x-ldp cold-4x-sparse; do
        python3 "$tree/perfbench/run.py" --workload "$W" --seed "$SEED" \
            --seconds "$RUN_SECONDS" --trace 0 > "$LOGS/$W.out"
        cp "$tree/.perfbench_work/$W/result.json" "$LOGS/$W.json"
    done
    python3 - "$LOGS" "$sha" "$ROOT/BENCH_$(date -u +%Y-%m-%d)-${sha}.json" <<'EOF'
import json
import os
import statistics
import sys

logs, sha, out = sys.argv[1:]
record = {"git_sha7": sha, "workloads": {}}
for name in ("clients-4x-ldp", "cold-4x-sparse"):
    with open(os.path.join(logs, f"{name}.out"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    env = json.loads(lines[-2].removeprefix("perfbench env "))
    result = json.loads(lines[-1])
    with open(os.path.join(logs, f"{name}.json"), encoding="utf-8") as f:
        samples = json.load(f)["samples"]
    spread = {}
    for metric, values in sorted(samples.items()):
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0] if values else None
        spread[metric] = {"n": len(values), "q1": q1, "median": median, "q3": q3}
    record["workloads"][name] = {
        "env_line": env,
        "result_line": result,
        "raw_sample_spread": spread,
    }
with open(out, "w", encoding="utf-8") as f:
    json.dump(record, f, indent=1, sort_keys=True)
    f.write("\n")
print(os.path.basename(out))
EOF
}

if [ "$PAIR" = 1 ]; then
    PARENT_TREE="$LOGS/parent"
    unpack HEAD^ "$PARENT_TREE"
    measure "$PARENT_TREE" "$(git rev-parse --short=7 HEAD^)"
fi
measure "$ROOT" "$(git rev-parse --short=7 HEAD)"
