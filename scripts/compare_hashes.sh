#!/usr/bin/env bash
# Byte-identity check: run the same experiments on a base revision (HEAD's
# parent unless BASE names another) and on this checkout, and print every
# `sha256:` or `best_round` manifest line, and every id-map hash, that differs
# between the two. Exits 1 if one differs, 0 if none does.
# The experiments, each from a fresh output directory:
#   - scripts/benchmark.cfg at seed 1: gen-data, whose manifest hashes the
#     written data/interactions.csv;
#   - scripts/benchmark.cfg at seeds 1-3: train, infer, eval and
#     attack --mode stochastic;
#   - both perfbench workload configs at seed 11, with their stages; the
#     configs and input CSVs are written by importing perfbench/spec.py, which
#     is only read (no bytecode is written next to it);
#   - a clients-4x-ldp variant with rounds = 2 and client_sample_ratio = 0.5,
#     with the same stages: about 31.5 MB of examples a round, so two client
#     chunks of federation.ROUND_BUFFER_BYTES, under sampling and upload
#     noise that compounds over the rounds;
#   - a 2-round copy of scripts/benchmark.cfg: sweep --param ldp --values 0,1;
#   - a 4-round copy of scripts/benchmark.cfg at seed 1: train --light, eval
#     and attack --mode stochastic, so rounds 2 and 4 skip the denoiser;
#   - a text-encoder run at seed 1: interactions and item texts that a fixed
#     seed draws, read with encoder = hashed_tokens and normalize = l2, with
#     train, infer, eval and attack --mode stochastic.
# The id maps that loading writes beside the cold-4x-sparse and text-encoder
# inputs are removed before each tree's run and hashed after it.
# Both trees run the configs and the perfbench spec of this checkout, so only
# the program differs. It also prints each tree's `wc -l src/fedcold/*.py`
# total, the size of the program compared. The base is unpacked with git archive into a
# temporary directory, removed on exit. The script refuses to run while src/,
# perfbench/ or scripts/ differ from HEAD, since the result would not be
# HEAD's.
# Run from anywhere:  bash scripts/compare_hashes.sh [BASE]
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: compare_hashes.sh [BASE]" >&2
    exit 2
fi
BASE="${1:-HEAD^}"
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
. scripts/lib.sh
require_clean compare_hashes
require_commit compare_hashes "$BASE"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

BASE_TREE="$WORK/base-tree"
unpack "$BASE" "$BASE_TREE" src

# inputs shared by both trees
INPUTS="$WORK/inputs"
mkdir -p "$INPUTS"
BENCH_CFG="$ROOT/scripts/benchmark.cfg"
sed 's/^rounds = .*/rounds = 2/' "$BENCH_CFG" > "$INPUTS/sweep.cfg"
sed 's/^rounds = .*/rounds = 4/' "$BENCH_CFG" > "$INPUTS/light.cfg"
for W in clients-4x-ldp cold-4x-sparse; do
    mkdir -p "$INPUTS/$W"
    python3 -B - "$ROOT/perfbench" "$W" "$INPUTS/$W" <<'EOF'
import os
import sys

perfbench, name, directory = sys.argv[1:]
sys.path.insert(0, perfbench)
from spec import WORKLOADS

workload = WORKLOADS[name]
with open(os.path.join(directory, "workload.cfg"), "w", encoding="utf-8") as handle:
    handle.write(workload.config_text())
if workload.inputs is not None:
    workload.inputs.write(directory, 11)
with open(os.path.join(directory, "stages.txt"), "w", encoding="utf-8") as handle:
    handle.writelines(" ".join(stage) + "\n" for stage in workload.stages)
EOF
done
# the sampled variant: the clients-4x-ldp config and stages, two sampled rounds
W=clients-4x-ldp-sampled
mkdir -p "$INPUTS/$W"
sed -e 's/^rounds = .*/rounds = 2/' -e '$a client_sample_ratio = 0.5' \
    "$INPUTS/clients-4x-ldp/workload.cfg" > "$INPUTS/$W/workload.cfg"
cp "$INPUTS/clients-4x-ldp/stages.txt" "$INPUTS/$W/stages.txt"
# the text-encoder input: 80 users and 60 items in 4 clusters; each item's
# text is drawn mostly from its cluster's words, and each user has 5 items of
# its cluster and 1 of the next
mkdir -p "$INPUTS/texts"
python3 - "$INPUTS/texts" <<'EOF'
import os
import random
import sys

directory = sys.argv[1]
rng = random.Random(7)
words = [[f"w{c}_{j}" for j in range(12)] for c in range(4)]
items = [[i for i in range(60) if i % 4 == c] for c in range(4)]
with open(os.path.join(directory, "interactions.csv"), "w", encoding="utf-8") as handle:
    handle.write("user_id,item_id\n")
    for u in range(80):
        chosen = rng.sample(items[u % 4], 5) + [rng.choice(items[(u + 1) % 4])]
        handle.writelines(f"u{u},i{i}\n" for i in chosen)
with open(os.path.join(directory, "texts.tsv"), "w", encoding="utf-8") as handle:
    for i in range(60):
        tokens = rng.choices(words[i % 4], k=5) + rng.choices(sum(words, []), k=2)
        handle.write(f"i{i}\t{' '.join(tokens)}\n")
with open(os.path.join(directory, "texts.cfg"), "w", encoding="utf-8") as handle:
    handle.write(
        "interactions_path = interactions.csv\n"
        "texts_path = texts.tsv\n"
        "encoder = hashed_tokens\n"
        "hash_dim = 16\n"
        "normalize = l2\n"
        "dim = 16\n"
        "rounds = 3\n"
        "steps = 10\n"
        "server_epochs = 2\n"
        "k_list = 5,10\n"
        "val_k = 2\n"
        "attack_epochs = 50\n"
        "mapper_epochs = 50\n"
        "mi_draws = 4\n"
        "struct_sample_n = 3\n"
    )
EOF
# the id maps that loading the cold-4x-sparse and text-encoder inputs writes
# beside them
ID_MAPS=(
    "$INPUTS/cold-4x-sparse/interactions.users_idmap.csv"
    "$INPUTS/cold-4x-sparse/interactions.items_idmap.csv"
    "$INPUTS/texts/interactions.users_idmap.csv"
    "$INPUTS/texts/interactions.items_idmap.csv"
)

# fedcold TREE ARGS...: the command-line tool of TREE's program
fedcold() {
    local tree="$1"
    shift
    PYTHONPATH="$tree/src" python3 -m fedcold.cli "$@" > /dev/null
}

# run_all TREE OUT: every experiment with the program of TREE, outputs under OUT
# and the id maps' hashes in OUT/id_maps.sha256
run_all() {
    local tree="$1" out="$2" seed stage
    rm -f "${ID_MAPS[@]}"
    fedcold "$tree" gen-data --config "$BENCH_CFG" --seed 1 --out "$out/gen-data"
    for seed in 1 2 3; do
        for stage in train infer eval "attack --mode stochastic"; do
            # shellcheck disable=SC2086  # stage carries its own flags
            fedcold "$tree" $stage --config "$BENCH_CFG" --seed "$seed" \
                --out "$out/benchmark_seed$seed"
        done
    done
    for W in clients-4x-ldp clients-4x-ldp-sampled cold-4x-sparse; do
        while read -r stage; do
            # shellcheck disable=SC2086
            fedcold "$tree" $stage --config "$INPUTS/$W/workload.cfg" --seed 11 \
                --out "$out/$W"
        done < "$INPUTS/$W/stages.txt"
    done
    fedcold "$tree" sweep --config "$INPUTS/sweep.cfg" --out "$out/ldp_sweep" \
        --param ldp --values 0,1
    for stage in "train --light" eval "attack --mode stochastic"; do
        # shellcheck disable=SC2086
        fedcold "$tree" $stage --config "$INPUTS/light.cfg" --seed 1 \
            --out "$out/light"
    done
    for stage in train infer eval "attack --mode stochastic"; do
        # shellcheck disable=SC2086
        fedcold "$tree" $stage --config "$INPUTS/texts/texts.cfg" --seed 1 \
            --out "$out/texts"
    done
    (cd "$INPUTS" && sha256sum "${ID_MAPS[@]#"$INPUTS/"}") > "$out/id_maps.sha256"
}

# src_lines TREE: the total line count of TREE's src/fedcold/*.py
src_lines() {
    cat "$1"/src/fedcold/*.py | wc -l
}
echo "compare_hashes: src/fedcold/*.py lines: base $(src_lines "$BASE_TREE")," \
    "HEAD $(src_lines "$ROOT")"

echo "compare_hashes: running $(git rev-parse --short=7 "$BASE") (base)" >&2
run_all "$BASE_TREE" "$WORK/base"
echo "compare_hashes: running $(git rev-parse --short=7 HEAD) (HEAD)" >&2
run_all "$ROOT" "$WORK/head"

python3 - "$WORK/base" "$WORK/head" <<'EOF'
import csv
import os
import sys


def hash_lines(root):
    """{"<manifest path> <key>": value} for the sha256: and best_round rows,
    and {"<id map path>": hash} for the id maps."""
    with open(os.path.join(root, "id_maps.sha256"), encoding="utf-8") as handle:
        found = {name: digest for digest, name in (line.split() for line in handle)}
    for directory, _, files in os.walk(root):
        for name in files:
            if not (name.startswith("manifest_") and name.endswith(".csv")):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8", newline="") as handle:
                for row in csv.reader(handle):
                    if row and (row[0].startswith("sha256:") or row[0] == "best_round"):
                        key = f"{os.path.relpath(path, root)} {row[0]}"
                        found[key] = ",".join(row[1:])
    return found


base, head = (hash_lines(root) for root in sys.argv[1:])
if not base or not head:
    sys.exit("compare_hashes: no manifest lines found")
keys = sorted(base.keys() | head.keys())
differing = [key for key in keys if base.get(key) != head.get(key)]
for key in differing:
    print(f"{key}: base {base.get(key)} HEAD {head.get(key)}")
print(f"compare_hashes: {len(differing)} of {len(keys)} lines differ")
sys.exit(1 if differing else 0)
EOF
