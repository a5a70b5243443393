"""Inversion-attack harness comparing embedding pipelines.

An attacker who sees generated item embeddings and a leaked fraction of the
true modality features trains a small network to invert embeddings back to
features.  The harness runs the same attack against two pipelines, the
stochastic denoising generator and the deterministic feature-to-embedding
mapper, and reports reconstruction quality plus information-theoretic
summaries (Gaussian mutual-information estimates, entropy floors, and a Fano
lower bound on attacker error when the features carry a discrete label).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError, NumericsError
from .mlp import TwoLayerMLP
from .numerics import stream_rng

COV_RIDGE = 1e-6


@dataclass
class AttackReport:
    """Reconstruction quality of one inversion attack, averaged over items."""

    method: str
    mse: float
    mae: float
    cosine: float
    pearson: float


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    # Zero variance on either side leaves the correlation undefined; score 0.
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    r = np.mean((a - np.mean(a)) * (b - np.mean(b))) / (sa * sb)
    return float(np.clip(r, -1.0, 1.0))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def attack_and_score(
    attacker: TwoLayerMLP,
    embeddings: np.ndarray,
    features: np.ndarray,
    method: str,
) -> tuple[AttackReport, np.ndarray]:
    """Reconstruct features from embeddings; the averaged per-item metrics and
    the reconstruction they score."""
    recon = attacker.predict(embeddings)
    diff = recon - features
    mse = float(np.mean(np.mean(diff * diff, axis=1)))
    mae = float(np.mean(np.mean(np.abs(diff), axis=1)))
    cosines = [_cosine(recon[i], features[i]) for i in range(recon.shape[0])]
    pearsons = [_pearson(recon[i], features[i]) for i in range(recon.shape[0])]
    report = AttackReport(
        method=method,
        mse=mse,
        mae=mae,
        cosine=float(np.mean(cosines)),
        pearson=float(np.mean(pearsons)),
    )
    return report, recon


def _cosine_matrix(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / np.maximum(norms, 1e-300)
    return unit @ unit.T


def structural_similarity_difference(
    true_features: np.ndarray,
    recon_features: np.ndarray,
    sample_n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Difference of pairwise cosine-similarity matrices on a sampled item subset.

    A faithful reconstruction preserves which items look alike, so the
    difference matrix stays near zero even when absolute errors are large.
    """
    n = true_features.shape[0]
    if n < sample_n:
        raise ConfigError(f"need at least {sample_n} items, got {n}")
    if n == sample_n:
        idx = np.arange(n)
    else:
        idx = np.sort(rng.choice(n, size=sample_n, replace=False))
    return _cosine_matrix(true_features[idx]) - _cosine_matrix(recon_features[idx])


def fano_bound(mi_nats: float, n_categories: int) -> float:
    """Lower bound on any attacker's category-error probability, in [0, 1],
    for non-negative ``mi_nats`` and at least 2 categories."""
    return max(0.0, 1.0 - (mi_nats + math.log(2.0)) / math.log(n_categories))


def _ridged_logdet(cov: np.ndarray) -> float:
    cov = np.atleast_2d(cov)
    cov = cov + COV_RIDGE * np.eye(cov.shape[0])
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NumericsError("covariance is singular even after ridge regularization")
    return float(logdet)


def gaussian_entropy(rows: np.ndarray) -> float:
    """Differential entropy (nats) under a Gaussian fit with ridged covariance."""
    n, d = rows.shape
    if n < d + 2:
        raise ConfigError(f"need at least {d + 2} rows for {d} dims, got {n}")
    logdet = _ridged_logdet(np.cov(rows, rowvar=False))
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet)


def mi_gaussian_estimate(x: np.ndarray, y: np.ndarray) -> float:
    """Mutual information (nats) between row-paired samples under a joint-Gaussian fit."""
    n = x.shape[0]
    dims = x.shape[1] + y.shape[1]
    if n < dims + 2:
        raise ConfigError(f"need at least {dims + 2} rows for {dims} joint dims, got {n}")
    logdet_x = _ridged_logdet(np.cov(x, rowvar=False))
    logdet_y = _ridged_logdet(np.cov(y, rowvar=False))
    logdet_xy = _ridged_logdet(np.cov(np.hstack([x, y]), rowvar=False))
    return 0.5 * (logdet_x + logdet_y - logdet_xy)


def _split_leak(
    n: int, leak: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n_leak = max(1, round(leak * n))
    if n_leak >= n:
        raise ConfigError(f"leak fraction {leak} leaves no target items out of {n}")
    perm = rng.permutation(n)
    return np.sort(perm[:n_leak]), np.sort(perm[n_leak:])


@dataclass
class PipelineSide:
    """One pipeline's attack results: the inversion attack on its rows, the
    information its regenerations carry about the features, and how well the
    reconstruction keeps which items look alike."""

    report: AttackReport
    mi: float
    entropy: float
    fano: float | None  # known only when the features carry a cluster label
    structural: np.ndarray  # see ``structural_similarity_difference``


def attack_side(
    cfg: RunConfig,
    method: str,
    features: np.ndarray,
    attacked: np.ndarray,
    regenerations: list[np.ndarray],
    n_clusters: int | None,
) -> PipelineSide:
    """The inversion attack, the MI estimate, the Fano bound and the
    structural matrix for one cold-item pipeline.

    ``features`` are the cold items' feature rows and ``attacked`` the
    pipeline's rows for the same items, in the same order; an attacker trains
    on the leaked items' rows and reconstructs the rest. ``regenerations``
    are repeated generations of the same rows, stacked so the MI sample count
    clears the joint-Gaussian row requirement. The leaked subset, the
    attacker's initialization and the structural sample come from streams
    keyed by ``cfg.seed`` alone, so both pipelines face the same attack and
    their structural matrices compare cell by cell. A Fano bound needs a
    label of at least 2 categories, so it is ``None`` unless
    ``n_clusters >= 2``.
    """
    n = features.shape[0]
    if n < 3:
        raise ConfigError(f"need at least 3 cold items, got {n}")
    leak_idx, target_idx = _split_leak(
        n, cfg.leak_fraction, stream_rng(cfg.seed, "privacy", "leak")
    )
    attacker = TwoLayerMLP.fit(
        attacked[leak_idx],
        features[leak_idx],
        cfg.attack_epochs,
        cfg.attack_lr,
        stream_rng(cfg.seed, "privacy", "attacker-init"),
    )
    target = features[target_idx]
    report, recon = attack_and_score(attacker, attacked[target_idx], target, method)
    rows = np.vstack(regenerations)
    feature_rep = np.vstack([features] * len(regenerations))
    mi = mi_gaussian_estimate(feature_rep, rows)
    has_label = n_clusters is not None and n_clusters >= 2
    return PipelineSide(
        report=report,
        mi=mi,
        entropy=gaussian_entropy(rows),
        fano=fano_bound(max(0.0, mi), n_clusters) if has_label else None,
        structural=structural_similarity_difference(
            target,
            recon,
            sample_n=cfg.struct_sample_n,
            rng=stream_rng(cfg.seed, "privacy", "struct"),
        ),
    )
