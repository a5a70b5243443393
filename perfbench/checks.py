"""Output checks of one workload run.

Each check returns a list of problems; an empty list means the output is
correct.  The checks only ever compare runs of the same code: a vectorized
kernel may move bits by 1e-12 against its parent, so nothing here compares a
run against another commit.
"""

from __future__ import annotations

import csv
import glob
import math
import os

import numpy as np


def metrics_csv_problems(path: str) -> list[str]:
    """metrics.csv exists, and every value in it is finite and within [0, 1]."""
    if not os.path.exists(path):
        return [f"{path}: missing"]
    problems = []
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        problems.append(f"{path}: no rows")
    for row in rows:
        for column in ("recall", "precision", "ndcg"):
            try:
                value = float(row[column])
            except (KeyError, TypeError, ValueError):
                problems.append(f"{path}: k={row.get('k')} {column} unreadable")
                continue
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{path}: k={row.get('k')} {column}={value} outside [0, 1]")
    return problems


def checkpoint_problems(out_dir: str, names: list[str], load) -> list[str]:
    """The named checkpoints exist and hold only finite values."""
    problems = []
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        for tensor, values in load(path).items():
            if not np.all(np.isfinite(values)):
                problems.append(f"{name}: non-finite values in {tensor}")
    return problems


def checkpoint_names(out_dir: str) -> list[str]:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(out_dir, "*.ckpt")))


def manifest_hashes(out_dir: str) -> dict[str, str]:
    """``(manifest, artifact) -> sha256`` over every manifest in a run.

    The program masks the wall-clock column of rounds.csv before hashing, so
    equal hashes mean equal artifacts.
    """
    hashes = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "manifest_*.csv"))):
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if row["key"].startswith("sha256:"):
                    hashes[f"{os.path.basename(path)}:{row['key'][7:]}"] = row["value"]
    return hashes


def determinism_problems(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Artifacts whose hash differs between two runs of one commit and seed."""
    if not reference:
        return ["no manifest hashes in the reference run"]
    problems = []
    for key in sorted(set(reference) | set(other)):
        if reference.get(key) != other.get(key):
            problems.append(f"{key}: {reference.get(key)} != {other.get(key)}")
    return problems


def cold_auc(
    users: np.ndarray,
    cold_ids: list[int],
    cold_rows: np.ndarray,
    test_by_user: dict[int, set[int]],
) -> float:
    """Mean over users of the AUC of their cold test items in the cold ranking.

    Each user with at least one cold test item and one cold non-test item
    scores every cold item by dot product, the ranking the program evaluates;
    ties count one half.  Unlike recall at a small cutoff, the AUC uses the
    whole ranking, so it varies little from one data seed to the next.
    """
    ids = np.asarray(cold_ids)
    scores = cold_rows @ users.T  # (cold items, users)
    aucs = []
    for user in sorted(test_by_user):
        relevant = np.isin(ids, list(test_by_user[user]))
        n_pos = int(relevant.sum())
        n_neg = relevant.size - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        s = scores[:, user]
        pos, neg = np.sort(s[relevant]), np.sort(s[~relevant])
        below = np.searchsorted(neg, pos, side="left")
        ties = np.searchsorted(neg, pos, side="right") - below
        aucs.append((below.sum() + 0.5 * ties.sum()) / (n_pos * n_neg))
    if not aucs:
        raise ValueError("no user has both cold test items and other cold items")
    return float(np.mean(aucs))
