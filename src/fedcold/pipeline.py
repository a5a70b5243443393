"""End-to-end orchestration shared by the command-line entry points.

Everything here is pure compute over in-memory state; file reading and report
writing live in the CLI layer.  All randomness flows from the run seed through
named substreams, so a seed plus a resolved config reproduces every result.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import (
    SplitDataset,
    generate_synthetic,
    load_interactions,
    split_items,
)
from .diffusion import (
    DenoiserParams,
    DenoisingGenerator,
    build_schedule,
    init_denoiser,
)
from .errors import ConfigError
from .evaluation import (
    DistributionDiagnostics,
    MetricsReport,
    distribution_diagnostics,
    evaluate_cold,
)
from .federation import RoundReport, init_simulation, run_round
from .mlp import TwoLayerMLP
from .modality import encode_texts, l2_normalize_rows, load_features
from .numerics import assert_finite, stream_rng
from .privacy import PipelineSide, attack_side


@dataclass
class PreparedData:
    split: SplitDataset
    features: np.ndarray  # (n_items, feature dim) float64, by dense item id
    n_clusters: int | None  # known only for synthetic data


def prepare_data(cfg: RunConfig) -> PreparedData:
    """Load or generate interactions and features, then split items."""
    if cfg.synthetic:
        dataset, features = generate_synthetic(cfg)
        n_clusters = cfg.synthetic_clusters
    else:
        dataset = load_interactions(cfg.interactions_path)
        if cfg.encoder == "precomputed":
            features = load_features(cfg.features_path, dataset)
        else:
            features = encode_texts(cfg.texts_path, dataset, cfg.hash_dim, cfg.seed)
        if cfg.normalize == "l2":
            features = l2_normalize_rows(features)
        n_clusters = None
    split = split_items(
        dataset,
        ratios=(cfg.split_warm, cfg.split_val, cfg.split_cold),
        seed=cfg.seed,
    )
    return PreparedData(split=split, features=features, n_clusters=n_clusters)


def build_generator(
    cfg: RunConfig, cond_dim: int, tensors: dict[str, np.ndarray] | None = None
) -> DenoisingGenerator:
    """The run's denoising generator, holding checkpoint ``tensors`` if given.

    Without tensors the denoiser is Xavier-initialized from the run's own
    ``denoiser-init`` stream, so loading a checkpoint draws nothing.
    """
    if tensors is None:
        params = init_denoiser(
            cfg.dim, cfg.heads, cond_dim, stream_rng(cfg.seed, "denoiser-init")
        )
    else:
        params = DenoiserParams.from_tensors(cfg.dim, cfg.heads, cond_dim, tensors)
    schedule = build_schedule(cfg.steps, cfg.noise_scale, cfg.noise_min, cfg.noise_max)
    return DenoisingGenerator(params, schedule, cfg.server_lr)


def substituted_conditions(
    rows: np.ndarray, mode: str, seed: int
) -> np.ndarray | None:
    """Condition ablations: replace guidance at generation time. ``mode`` is
    one of ``config.CONDITION_MODES``; ``"none"`` drops the condition."""
    if mode == "none":
        return None
    if mode == "zero":
        return np.zeros_like(rows)
    if mode == "random":
        return stream_rng(seed, "condition-random").standard_normal(rows.shape)
    return rows


@dataclass
class TrainResult:
    rounds: list[RoundReport]
    best_round: int
    generator: DenoisingGenerator
    item_table: np.ndarray  # final, after the last aggregation
    user_table: np.ndarray  # final user embeddings in ascending user order
    best_item_table: np.ndarray
    best_user_table: np.ndarray
    best_denoiser: dict = field(default_factory=dict)


def run_training(
    cfg: RunConfig,
    data: PreparedData,
    on_round: Callable[[RoundReport], None] | None = None,
) -> TrainResult:
    """Federated rounds with per-round diagnostics and validation tracking.

    Each round first trains the denoiser on the warm rows of the current item
    table (on odd rounds only under ``light_mode``), from the round's
    ``diffusion`` stream, and then runs the clients (``run_round``). After
    each round the table, the user embeddings and the losses must be
    finite.  Cold and validation embeddings are generated in deterministic mode,
    in one chain per round whose cold rows draw from ``diag{round}`` streams
    and validation rows from ``val{round}`` streams, so running them does not
    perturb the training trajectory.  The best round is the latest maximum of validation recall at
    ``val_k``; until a round has an evaluable user, every round is the best so
    far.  ``on_round``, if given, is called with each round's completed
    report.
    """
    generator = build_generator(cfg, data.features.shape[1])
    table, users, clients = init_simulation(data.split, cfg)
    warm = np.array(data.split.warm_items, dtype=np.int64)
    cold = data.split.cold_items
    val_items = data.split.val_items
    val_by_user = data.split.val_items_by_user()
    # one chain per round over the cold items, then the validation items
    chain_items = cold + val_items
    chain_conditions = data.features[chain_items]
    warm_conditions = data.features[warm]

    rounds: list[RoundReport] = []
    best_round = 0
    best_recall = None
    best_item = None
    best_user = None
    best_denoiser: dict = {}

    for round_index in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        diffusion_loss = None
        # the light cadence trains the denoiser on odd rounds only
        if not cfg.light_mode or round_index % 2 == 1:
            diffusion_loss = generator.train_epochs(
                table[warm],
                warm_conditions,
                stream_rng(cfg.seed, "diffusion", round_index),
                epochs=cfg.server_epochs,
                batch_size=cfg.batch_size,
            )
        generator_seconds = time.perf_counter() - start
        report = run_round(table, users, clients, cfg, round_index)
        report.seconds = time.perf_counter() - start
        report.diffusion_loss = diffusion_loss
        report.generator_seconds = generator_seconds
        rounds.append(report)
        assert_finite(
            f"round {report.round} (item table, user embeddings or losses)",
            table,
            users,
            np.array([report.mean_client_loss, report.diffusion_loss or 0.0]),
        )

        chain_start = time.perf_counter()
        rows = generator.generate(
            chain_items,
            chain_conditions,
            cfg.seed,
            mode="deterministic_mean",
            stream_label=[f"diag{report.round}"] * len(cold)
            + [f"val{report.round}"] * len(val_items),
        )
        cold_rows, val_rows = rows[: len(cold)], rows[len(cold) :]
        val_start = time.perf_counter()
        report.chain_seconds = val_start - chain_start
        try:
            val_report = evaluate_cold(
                users, val_items, val_rows, val_by_user, [cfg.val_k]
            )
            recall = val_report.per_k[cfg.val_k].recall
        except ConfigError:
            recall = None
        report.val_seconds = time.perf_counter() - val_start
        report.val_recall = recall
        diag = distribution_diagnostics(table[warm], cold_rows)
        report.centroid_distance = diag.centroid_distance
        report.covariance_distance = diag.covariance_distance
        # ties go to the later round: with few validation items small K values
        # saturate, and the most-trained state is the right default then
        if best_recall is None or (recall is not None and recall >= best_recall):
            best_recall = recall
            best_round = report.round
            best_item = table.copy()
            best_user = users.copy()
            best_denoiser = {
                k: v.copy() for k, v in generator.params.tensors().items()
            }
        if on_round is not None:
            on_round(report)

    return TrainResult(
        rounds=rounds,
        best_round=best_round,
        generator=generator,
        item_table=table,
        user_table=users,
        best_item_table=best_item,
        best_user_table=best_user,
        best_denoiser=best_denoiser,
    )


def generate_cold(
    cfg: RunConfig,
    data: PreparedData,
    generator: DenoisingGenerator,
) -> np.ndarray:
    """Cold-item embeddings under the configured inference and condition modes,
    from the ``infer`` streams."""
    cold = data.split.cold_items
    conditions = substituted_conditions(
        data.features[cold], cfg.condition, cfg.seed
    )
    return generator.generate(cold, conditions, cfg.seed, mode=cfg.inference_mode)


@dataclass
class EvalResult:
    metrics: MetricsReport
    diagnostics: DistributionDiagnostics


def evaluate_run(
    cfg: RunConfig,
    data: PreparedData,
    user_table: np.ndarray,
    item_table: np.ndarray,
    cold_rows: np.ndarray,
) -> EvalResult:
    """Ranking metrics over test interactions plus final distribution diagnostics."""
    metrics = evaluate_cold(
        user_table,
        data.split.cold_items,
        cold_rows,
        data.split.test_items_by_user(),
        list(cfg.k_list),
    )
    warm = np.array(data.split.warm_items, dtype=np.int64)
    diag = distribution_diagnostics(item_table[warm], cold_rows)
    return EvalResult(metrics=metrics, diagnostics=diag)


def train_mapper(
    cfg: RunConfig, data: PreparedData, item_table: np.ndarray
) -> TwoLayerMLP:
    """The deterministic feature-to-embedding foil, fit on the warm rows."""
    warm = np.array(data.split.warm_items, dtype=np.int64)
    return TwoLayerMLP.fit(
        data.features[warm],
        item_table[warm],
        cfg.mapper_epochs,
        cfg.mapper_lr,
        stream_rng(cfg.seed, "mapper-init"),
    )


def diffusion_side(
    cfg: RunConfig, data: PreparedData, generator: DenoisingGenerator
) -> PipelineSide:
    """The generator's attack results. Its ``attack`` chain gives the rows
    the attacker sees and its ``mi_draws`` ``attack-mi-diffusion-{d}`` chains
    the regenerations; they run in stochastic mode, their per-step noise
    being the mechanism under test."""
    cold = data.split.cold_items
    features = data.features[cold]
    labels = ["attack"] + [f"attack-mi-diffusion-{d}" for d in range(cfg.mi_draws)]
    rows = [
        generator.generate(
            cold, features, cfg.seed, mode="stochastic", stream_label=label
        )
        for label in labels
    ]
    return attack_side(cfg, "diffusion", features, rows[0], rows[1:], data.n_clusters)


def mapper_side(cfg: RunConfig, data: PreparedData, mapper: TwoLayerMLP) -> PipelineSide:
    """The mapper's attack results. The mapper is deterministic, so each of
    its ``mi_draws`` regenerations repeats its rows verbatim."""
    features = data.features[data.split.cold_items]
    rows = mapper.predict(features)
    return attack_side(
        cfg, "mapper", features, rows, [rows] * cfg.mi_draws, data.n_clusters
    )
