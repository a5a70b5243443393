"""End-to-end orchestration shared by the command-line entry points.

Everything here is pure compute over in-memory state; file reading and report
writing live in the CLI layer.  All randomness flows from the run seed through
named substreams, so a seed plus a resolved config reproduces every result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import (
    SplitDataset,
    generate_synthetic,
    load_interactions,
    split_items,
)
from .diffusion import DenoisingGenerator, build_schedule
from .errors import ConfigError
from .evaluation import (
    DistributionDiagnostics,
    MetricsReport,
    distribution_diagnostics,
    evaluate_cold,
)
from .federation import (
    RoundReport,
    finalize_table,
    init_simulation,
    run_round,
    train_baseline_mapper,
)
from .mlp import TwoLayerMLP
from .modality import FeatureTable, encode_texts, l2_normalize_rows, load_features
from .numerics import assert_finite, stream_rng
from .privacy import PipelineComparison, compare_pipelines, structural_similarity_difference


@dataclass
class PreparedData:
    split: SplitDataset
    features: FeatureTable
    n_clusters: int | None  # known only for synthetic data


def prepare_data(cfg: RunConfig) -> PreparedData:
    """Load or generate interactions and features, then split items."""
    spec = cfg.synthetic_spec()
    if spec is not None:
        dataset, feature_rows = generate_synthetic(spec)
        features = FeatureTable(dim=spec.feature_dim, rows=feature_rows)
        n_clusters = spec.n_clusters
    else:
        dataset = load_interactions(cfg.interactions_path)
        if cfg.encoder == "precomputed":
            features = load_features(cfg.features_path, dataset)
        else:
            features = encode_texts(cfg.texts_path, dataset, cfg.hash_dim, cfg.seed)
        if cfg.normalize == "l2":
            features = FeatureTable(
                dim=features.dim, rows=l2_normalize_rows(features.rows)
            )
        n_clusters = None
    split = split_items(
        dataset,
        ratios=(cfg.split_warm, cfg.split_val, cfg.split_cold),
        seed=cfg.seed,
    )
    return PreparedData(split=split, features=features, n_clusters=n_clusters)


def substituted_conditions(
    rows: np.ndarray, mode: str, seed: int
) -> np.ndarray | None:
    """Condition ablations: replace guidance at generation time."""
    if mode == "full":
        return rows
    if mode == "zero":
        return np.zeros_like(rows)
    if mode == "random":
        return stream_rng(seed, "condition-random").standard_normal(rows.shape)
    if mode == "none":
        return None
    raise ConfigError(f"unknown condition mode {mode!r}")


@dataclass
class DiagnosticsRow:
    round: int
    centroid_distance: float
    covariance_distance: float


@dataclass
class TrainResult:
    rounds: list[RoundReport]
    diagnostics: list[DiagnosticsRow]
    val_recalls: list[float | None]  # per round; None when no user was evaluable
    best_round: int
    generator: DenoisingGenerator
    item_table: np.ndarray  # final, after the last aggregation
    user_table: np.ndarray  # final user embeddings in ascending user order
    best_item_table: np.ndarray
    best_user_table: np.ndarray
    best_denoiser: dict = field(default_factory=dict)


def _user_matrix(clients) -> np.ndarray:
    return np.stack([c.user_embedding for c in clients])


def run_training(cfg: RunConfig, data: PreparedData) -> TrainResult:
    """Federated rounds with per-round diagnostics and validation tracking.

    After each round the uploads are aggregated into the server table once,
    and the table, the user embeddings and the losses must be finite.  Cold and
    validation embeddings are generated in deterministic mode from per-round
    streams, so running them does not perturb the training trajectory.  The
    best round is the latest maximum of validation recall at ``val_k``.
    """
    fed_cfg = cfg.fed()
    schedule = build_schedule(cfg.steps, cfg.noise_scale, cfg.noise_min, cfg.noise_max)
    generator = DenoisingGenerator(
        width=cfg.dim,
        heads=cfg.heads,
        cond_dim=data.features.dim,
        schedule=schedule,
        server_lr=cfg.server_lr,
        rng=stream_rng(cfg.seed, "denoiser-init"),
    )
    server, clients = init_simulation(data.split, fed_cfg, cfg.seed)
    warm = np.array(data.split.warm_items, dtype=np.int64)
    cold = data.split.cold_items
    val_items = data.split.val_items
    val_by_user = data.split.val_items_by_user()
    cold_conditions = data.features.rows[cold]
    val_conditions = data.features.rows[val_items]

    rounds: list[RoundReport] = []
    diagnostics: list[DiagnosticsRow] = []
    val_recalls: list[float | None] = []
    best_round = 0
    best_recall = None
    best_item = None
    best_user = None
    best_denoiser: dict = {}

    for _ in range(fed_cfg.rounds):
        report = run_round(
            server, clients, generator, data.features, data.split, fed_cfg, cfg.seed
        )
        rounds.append(report)
        finalize_table(server)
        users = _user_matrix(clients)
        assert_finite(
            f"round {report.round} (item table, user embeddings or losses)",
            server.table.embeddings,
            users,
            np.array([report.mean_client_loss, report.diffusion_loss or 0.0]),
        )

        cold_rows = generator.generate(
            cold,
            cold_conditions,
            cfg.seed,
            mode="deterministic_mean",
            stream_label=f"diag{report.round}",
        )
        diag = distribution_diagnostics(server.table.embeddings[warm], cold_rows)
        diagnostics.append(
            DiagnosticsRow(
                round=report.round,
                centroid_distance=diag.centroid_distance,
                covariance_distance=diag.covariance_distance,
            )
        )

        val_rows = generator.generate(
            val_items,
            val_conditions,
            cfg.seed,
            mode="deterministic_mean",
            stream_label=f"val{report.round}",
        )
        try:
            val_report = evaluate_cold(
                users, val_items, val_rows, val_by_user, [cfg.val_k]
            )
            recall = val_report.per_k[cfg.val_k].recall
        except ConfigError:
            recall = None
        val_recalls.append(recall)
        # ties go to the later round: with few validation items small K values
        # saturate, and the most-trained state is the right default then
        if recall is not None and (best_recall is None or recall >= best_recall):
            best_recall = recall
            best_round = report.round
            best_item = server.table.embeddings.copy()
            best_user = users.copy()
            best_denoiser = {
                k: v.copy() for k, v in generator.params.tensors().items()
            }

    final_user = _user_matrix(clients)
    if best_item is None:  # no evaluable validation users in any round
        best_round = rounds[-1].round if rounds else 0
        best_item = server.table.embeddings.copy()
        best_user = final_user.copy()
        best_denoiser = {k: v.copy() for k, v in generator.params.tensors().items()}
    return TrainResult(
        rounds=rounds,
        diagnostics=diagnostics,
        val_recalls=val_recalls,
        best_round=best_round,
        generator=generator,
        item_table=server.table.embeddings,
        user_table=final_user,
        best_item_table=best_item,
        best_user_table=best_user,
        best_denoiser=best_denoiser,
    )


def generate_cold(
    cfg: RunConfig,
    data: PreparedData,
    generator: DenoisingGenerator,
    stream_label: str = "infer",
) -> np.ndarray:
    """Cold-item embeddings under the configured inference and condition modes."""
    cold = data.split.cold_items
    conditions = substituted_conditions(
        data.features.rows[cold], cfg.condition, cfg.seed
    )
    return generator.generate(
        cold, conditions, cfg.seed, mode=cfg.inference_mode, stream_label=stream_label
    )


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


@dataclass
class AttackResult:
    comparison: PipelineComparison
    structural_diffusion: np.ndarray
    structural_mapper: np.ndarray
    mapper: TwoLayerMLP


def run_attack(
    cfg: RunConfig,
    data: PreparedData,
    generator: DenoisingGenerator,
    item_table: np.ndarray,
    mapper: TwoLayerMLP | None = None,
) -> AttackResult:
    """Train the mapper foil if needed, then run the paired inversion attack.

    Both structural matrices sample the same item subset: the two sampling
    streams are keyed identically, so the entries are comparable cell by cell.
    """
    warm = np.array(data.split.warm_items, dtype=np.int64)
    if mapper is None:
        mapper = train_baseline_mapper(
            data.features.rows[warm],
            item_table[warm],
            epochs=cfg.mapper_epochs,
            lr=cfg.mapper_lr,
            rng=stream_rng(cfg.seed, "mapper-init"),
        )
    comparison = compare_pipelines(
        data.split,
        data.features,
        generator,
        mapper,
        seed=cfg.seed,
        leak=cfg.leak_fraction,
        attack_epochs=cfg.attack_epochs,
        attack_lr=cfg.attack_lr,
        mi_draws=cfg.mi_draws,
        n_clusters=data.n_clusters,
    )
    structural = {}
    for method, recon in (
        ("diffusion", comparison.recon_diffusion),
        ("mapper", comparison.recon_mapper),
    ):
        structural[method] = structural_similarity_difference(
            comparison.target_features,
            recon,
            sample_n=cfg.struct_sample_n,
            rng=stream_rng(cfg.seed, "privacy", "struct"),
        )
    return AttackResult(
        comparison=comparison,
        structural_diffusion=structural["diffusion"],
        structural_mapper=structural["mapper"],
        mapper=mapper,
    )
