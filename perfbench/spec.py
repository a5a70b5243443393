"""Workload definitions, metric tables and the BENCHMARK.json grammar.

The benchmark's names are the API of every later performance change, so they
live in one place: ``BENCHMARK.json`` at the repository root declares them
(name, unit, direction, bound) and this module says how each one is produced.
``check_declared`` fails the run when the two drift apart.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
MAX_WORKLOADS = 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

# Frozen copy of scripts/benchmark.cfg (the acceptance-gate config) as it was
# when this benchmark was defined.  The benchmark keeps its own copy so that a
# later edit of the reference config cannot move the yardstick; seed and
# out_dir are passed on the command line instead.
BASE_CONFIG = {
    "synthetic": "true",
    "synthetic_users": "200",
    "synthetic_items": "130",
    "synthetic_clusters": "4",
    "synthetic_p_in": "0.3",
    "synthetic_p_out": "0.01",
    "synthetic_feature_dim": "8",
    "synthetic_feature_noise": "0.1",
    "dim": "64",
    "rounds": "50",
    "local_lr": "0.1",
    "negatives_per_positive": "5",
    "steps": "40",
    "noise_scale": "1.0",
    "noise_min": "0.1",
    "noise_max": "0.9",
    "heads": "4",
    "server_epochs": "5",
    "server_lr": "0.001",
    "k_list": "10, 20, 50",
    "val_k": "20",
    "leak_fraction": "0.2",
    "mapper_epochs": "2000",
    "mapper_lr": "0.05",
    "mi_draws": "16",
}

ATTACK = ("attack", "--mode", "stochastic")


@dataclass(frozen=True)
class SparseInputs:
    """Clustered interactions the benchmark writes itself (plain decimal CSV)."""

    users: int
    items: int
    clusters: int
    p_in: float
    p_out: float
    feature_dim: int
    feature_noise: float

    def write(self, directory: str, seed: int) -> None:
        """interactions.csv and features.csv, a deterministic function of seed.

        Users and items fall into clusters round-robin; a pair interacts with
        probability p_in inside a cluster and p_out across.  A user left with
        no interaction gets one in-cluster item, so every user is in the file.
        Features are the one-hot cluster centroid plus Gaussian noise, written
        as plain decimal floats.
        """
        rng = np.random.Generator(np.random.PCG64(seed))
        user_cluster = np.arange(self.users) % self.clusters
        item_cluster = np.arange(self.items) % self.clusters
        same = user_cluster[:, None] == item_cluster[None, :]
        hits = rng.random((self.users, self.items)) < np.where(same, self.p_in, self.p_out)
        for u in np.flatnonzero(~hits.any(axis=1)):
            hits[u, rng.choice(np.flatnonzero(item_cluster == user_cluster[u]))] = True
        features = np.eye(self.feature_dim)[item_cluster] + self.feature_noise * (
            rng.standard_normal((self.items, self.feature_dim))
        )
        with open(os.path.join(directory, "interactions.csv"), "w", encoding="utf-8") as f:
            f.write("user_id,item_id\n")
            f.writelines(f"u{u},i{i}\n" for u, i in zip(*np.nonzero(hits)))
        with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8") as f:
            f.write(",".join(["item_id"] + [f"f{j}" for j in range(self.feature_dim)]) + "\n")
            for i, row in enumerate(features):
                f.write(f"i{i}," + ",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[tuple[str, ...], ...]
    overrides: dict = field(default_factory=dict)
    drop_keys: tuple[str, ...] = ()
    inputs: SparseInputs | None = None

    def config_text(self) -> str:
        keys = {k: v for k, v in BASE_CONFIG.items() if k not in self.drop_keys}
        keys.update(self.overrides)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


# Every workload runs train, eval and attack so that every end-to-end metric
# exists on every workload.  Why each workload exists is recorded in
# BENCHMARK.json.  One pass over the stages takes a few seconds, so that a run
# holds several passes spread over its whole length: the shared host's speed
# swings by a quarter within seconds, and only a median over many passes
# averages that out.  The reference config itself (50 rounds, about 13 s of
# train per pass) is therefore not a workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clients-4x-ldp",
            stages=(("train",), ("eval",), ATTACK),
            overrides={
                "synthetic_users": "800",
                "synthetic_items": "520",
                "rounds": "1",
                "ldp_scale": "10",
                # attack is here only so that attack_s exists; the program's
                # default mapper_epochs and mi_draws keep it short
                "mapper_epochs": "500",
                "mi_draws": "8",
            },
        ),
        Workload(
            name="cold-4x-sparse",
            stages=(("train",), ("infer",), ("eval",), ATTACK),
            overrides={
                "rounds": "4",
                "interactions_path": "interactions.csv",
                "features_path": "features.csv",
            },
            drop_keys=tuple(k for k in BASE_CONFIG if k.startswith("synthetic")),
            inputs=SparseInputs(
                users=800,
                items=520,
                clusters=4,
                p_in=0.03,
                p_out=0.001,
                feature_dim=8,
                feature_noise=0.1,
            ),
        ),
    )
}

# name -> (unit, better, how it is produced)
END_TO_END = {
    "setup_s": ("s", "lower", "spawn until fedcold is imported and the config loaded"),
    "train_s": ("s", "lower", "wall time of the train stage"),
    "score_s": ("s", "lower", "wall time of the infer and eval stages together"),
    "attack_s": ("s", "lower", "wall time of attack, mapper.ckpt absent so it trains"),
    "total_s": ("s", "lower", "spawn until the last stage returns"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
    "cold_auc": ("ratio", "higher", "mean per-user AUC of test items in the cold ranking"),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric this layer metric should move
    on: str  # the workloads on which it should move it


MODULES = (
    "numerics",
    "data",
    "modality",
    "federation",
    "diffusion",
    "mlp",
    "evaluation",
    "privacy",
    "checkpoint",
    "pipeline",
    "cli",
)

ALL = "all workloads"
L = LayerMetric
# ``.s`` is time inside the function's spans summed over calls (children
# included); ``.self_s`` subtracts the spans of traced callees.  Work counts
# (calls, examples, rows, bytes, steps, epochs, users) are properties of the
# workload: a pure speed-up leaves them unchanged.
LAYER_METRICS = (
    L("federation.client_local_train.s", "s", "lower", "train_s", "clients-4x-ldp"),
    L("federation.client_local_train.calls", "count", "lower", "train_s", "clients-4x-ldp"),
    L("federation.examples", "count", "higher", "train_s", "clients-4x-ldp"),
    L("federation.us_per_example", "us", "lower", "train_s", "clients-4x-ldp"),
    L("numerics.sigmoid.calls", "count", "lower", "train_s", "clients-4x-ldp"),
    L("federation.apply_ldp.s", "s", "lower", "train_s", "clients-4x-ldp"),
    L("federation.aggregate.s", "s", "lower", "train_s", "clients-4x-ldp"),
    L("federation.aggregate.calls", "count", "lower", "train_s", "clients-4x-ldp"),
    L("federation.aggregate.useful_ratio", "ratio", "higher", "train_s", "clients-4x-ldp"),
    L("federation.upload_rows", "count", "lower", "train_s", "clients-4x-ldp"),
    L("federation.upload_bytes", "B", "lower", "train_s", "clients-4x-ldp"),
    L("federation.distinct_items", "count", "lower", "train_s", "clients-4x-ldp"),
    L("federation.init_simulation.s", "s", "lower", "train_s", "clients-4x-ldp"),
    L("numerics.stream_rng.calls", "count", "lower", "train_s, attack_s", "cold-4x-sparse"),
    L("numerics.stream_rng.s", "s", "lower", "train_s, attack_s", "cold-4x-sparse"),
    L("diffusion.train_epochs.s", "s", "lower", "train_s", "cold-4x-sparse"),
    L("diffusion.train_steps", "count", "higher", "train_s", "cold-4x-sparse"),
    L("diffusion.ms_per_train_step", "ms", "lower", "train_s", "cold-4x-sparse"),
    L("diffusion.generate.deterministic.s", "s", "lower", "train_s, score_s", ALL),
    L("diffusion.deterministic.us_per_item_step", "us", "lower", "train_s, score_s", ALL),
    L("diffusion.generate.stochastic.s", "s", "lower", "attack_s", "cold-4x-sparse"),
    L("diffusion.stochastic.us_per_item_step", "us", "lower", "attack_s", "cold-4x-sparse"),
    L("evaluation.evaluate_cold.s", "s", "lower", "train_s, score_s", ALL),
    L("evaluation.users_ranked", "count", "higher", "train_s, score_s", ALL),
    L("evaluation.us_per_user", "us", "lower", "train_s, score_s", ALL),
    L("mlp.sgd_train.s", "s", "lower", "attack_s", ALL),
    L("mlp.epochs", "count", "higher", "attack_s", ALL),
    L("mlp.us_per_epoch", "us", "lower", "attack_s", ALL),
    L("privacy.compare_pipelines.self_s", "s", "lower", "attack_s", ALL),
    L("privacy.mi_gaussian_estimate.s", "s", "lower", "attack_s", ALL),
    L("pipeline.prepare_data.s", "s", "lower", "score_s, total_s", "cold-4x-sparse"),
    L("pipeline.prepare_data.calls", "count", "lower", "score_s, total_s", "cold-4x-sparse"),
    L("data.load_interactions.s", "s", "lower", "score_s, total_s", "cold-4x-sparse"),
    L("modality.load_features.s", "s", "lower", "score_s, total_s", "cold-4x-sparse"),
    L("checkpoint.save_checkpoint.s", "s", "lower", "score_s, total_s", ALL),
    L("checkpoint.bytes_written", "B", "lower", "score_s, total_s", ALL),
    L("checkpoint.load_checkpoint.s", "s", "lower", "score_s, total_s", ALL),
    L("cli.write_csv.s", "s", "lower", "score_s, total_s", ALL),
    L("cli.csv_bytes", "B", "lower", "score_s, total_s", ALL),
    L("cli.write_manifest.s", "s", "lower", "score_s, total_s", ALL),
    L("pipeline.run_training.self_s", "s", "lower", "train_s", "cold-4x-sparse"),
    L("trace.total_s", "s", "lower", "total_s", ALL),
    L("trace.overhead_s", "s", "lower", "total_s", ALL),
    *(L(f"{m}.self_s", "s", "lower", "total_s", ALL) for m in MODULES),
    *(L(f"{m}.train_share", "ratio", "lower", "train_s", ALL) for m in MODULES),
)


def validate_benchmark(doc: dict) -> list[str]:
    """Problems with a BENCHMARK.json document; empty when it is well formed."""
    problems: list[str] = []
    if set(doc) != TOP_KEYS:
        problems.append(f"top-level keys must be exactly {sorted(TOP_KEYS)}")
        return problems
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
    elif not all(isinstance(c, str) and len(c) <= 200 for c in command):
        problems.append("command entries must be strings of at most 200 characters")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
    else:
        for p in paths:
            if not (isinstance(p, str) and PATH_RE.fullmatch(p)) or ".." in p.split("/"):
                problems.append(f"bad path {p!r}")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    sections = (
        ("workloads", 2, MAX_WORKLOADS, {"name", "why"}),
        ("end_to_end", 1, MAX_END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, MAX_PER_LAYER, {"name", "unit", "better"}),
    )
    seen: set[str] = set()
    for key, lo, hi, fields in sections:
        entries = doc[key]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            problems.append(f"{key} must hold {lo} to {hi} entries")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != fields:
                problems.append(f"{key} entry {entry!r} must have keys {sorted(fields)}")
                continue
            name = entry["name"]
            if not (isinstance(name, str) and NAME_RE.fullmatch(name)):
                problems.append(f"bad name {name!r}")
            elif name in seen:
                problems.append(f"name {name!r} used twice")
            seen.add(name)
            if key == "workloads":
                why = entry["why"]
                if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
                    problems.append(f"workload {name!r}: why must be one line of at most 200 characters")
                continue
            if not (isinstance(entry["unit"], str) and UNIT_RE.fullmatch(entry["unit"])):
                problems.append(f"{name}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("higher", "lower"):
                problems.append(f"{name}: better must be 'higher' or 'lower'")
            if key == "end_to_end":
                bound = entry["bound"]
                if not (
                    isinstance(bound, (int, float))
                    and not isinstance(bound, bool)
                    and math.isfinite(bound)
                    and 0 < bound <= MAX_BOUND
                ):
                    problems.append(f"{name}: bound must lie in (0, {MAX_BOUND}]")
    setup = [e for e in doc["end_to_end"] if isinstance(e, dict) and e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    return problems


def load_declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_declared(doc: dict) -> list[str]:
    """Problems, including drift between BENCHMARK.json and the tables above."""
    problems = validate_benchmark(doc)
    if problems:
        return problems
    declared = {w["name"] for w in doc["workloads"]}
    if declared != set(WORKLOADS):
        problems.append(f"workloads {sorted(declared)} != defined {sorted(WORKLOADS)}")
    e2e = {e["name"]: (e["unit"], e["better"]) for e in doc["end_to_end"]}
    if e2e != {k: v[:2] for k, v in END_TO_END.items()}:
        problems.append("end_to_end in BENCHMARK.json differs from spec.END_TO_END")
    layer = {e["name"]: (e["unit"], e["better"]) for e in doc["per_layer"]}
    if layer != {m.name: (m.unit, m.better) for m in LAYER_METRICS}:
        problems.append("per_layer in BENCHMARK.json differs from spec.LAYER_METRICS")
    return problems
