#!/usr/bin/env bash
# End-to-end benchmark drive: data -> training -> generation -> ranking ->
# inversion attack, then the conditioning ablations and an upload-noise sweep.
# Run from the repository root:  bash scripts/run_benchmark.sh [seed]
set -euo pipefail

cd "$(dirname "$0")/.."
CFG=scripts/benchmark.cfg
SEED="${1:-1}"
OUT="runs/benchmark_seed${SEED}"
RUN="python3 -m fedcold.cli"

$RUN gen-data --config "$CFG" --seed "$SEED" --out "$OUT"
$RUN train    --config "$CFG" --seed "$SEED" --out "$OUT"
$RUN infer    --config "$CFG" --seed "$SEED" --out "$OUT"
$RUN eval     --config "$CFG" --seed "$SEED" --out "$OUT"
$RUN attack   --config "$CFG" --seed "$SEED" --out "$OUT" --mode stochastic

# conditioning ablations: what the generator is worth without real features.
# eval reads checkpoints and the train manifest (which it checks the config
# against) from its own --out, so each ablation dir gets a copy of both
for COND in zero random none; do
    ABL="$OUT/ablation_${COND}"
    mkdir -p "$ABL"
    cp "$OUT"/*.ckpt "$OUT/manifest_train.csv" "$ABL/"
    $RUN eval --config "$CFG" --seed "$SEED" --out "$ABL" --condition "$COND"
done

# upload-noise sweep: recall@10 as Laplace scale grows
$RUN sweep --config "$CFG" --seed "$SEED" --out "$OUT/ldp_sweep" \
    --param ldp --values 0,1,10,20,50

echo "artifacts under $OUT"
