"""Command-line entry points.

Subcommands cover the whole experiment lifecycle: ``gen-data`` materializes a
synthetic dataset, ``train`` runs the federated loop and writes checkpoints,
``infer`` generates cold-item embeddings, ``eval`` scores them, ``attack``
runs the inversion-attack comparison, and ``sweep`` repeats train+eval over a
parameter grid.  Every command writes a ``manifest_<command>.csv`` holding the
fully resolved config, the seed, and a SHA-256 per artifact; the ``seconds``
column of rounds.csv is masked before hashing because wall-clock timings are
the one intentionally non-reproducible output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CONDITION_MODES, RunConfig, config_help, load_config
from .data import save_interactions
from .diffusion import DenoiserParams, DenoisingGenerator, build_schedule
from .errors import ConfigError, FedcoldError
from .federation import train_baseline_mapper
from .mlp import TwoLayerMLP
from .numerics import stream_rng
from .pipeline import (
    PreparedData,
    evaluate_run,
    generate_cold,
    prepare_data,
    run_attack,
    run_training,
)

ROUNDS_CSV = "rounds.csv"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 scalars repr as "np.float64(...)"
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Atomic CSV write with repr-formatted floats and \\n line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _mask_seconds(text: str) -> str:
    lines = text.splitlines()
    masked = [lines[0]] if lines else []
    idx = lines[0].split(",").index("seconds") if lines else -1
    for line in lines[1:]:
        parts = line.split(",")
        if 0 <= idx < len(parts):
            parts[idx] = ""
        masked.append(",".join(parts))
    return "\n".join(masked) + "\n"


def artifact_sha256(path: str) -> str:
    """File hash; rounds.csv is hashed with its wall-clock column blanked."""
    with open(path, "rb") as handle:
        data = handle.read()
    if os.path.basename(path) == ROUNDS_CSV:
        data = _mask_seconds(data.decode("utf-8")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def write_manifest(
    out_dir: str,
    command: str,
    cfg: RunConfig,
    artifacts: list[str],
    extra: list[tuple[str, str]] | None = None,
) -> str:
    rows = [("command", command), ("version", __version__)]
    rows += sorted(cfg.resolved().items())
    rows += extra or []
    rows.append(("hash_note", f"{ROUNDS_CSV} seconds column masked before hashing"))
    for name in sorted(artifacts):
        rows.append((f"sha256:{name}", artifact_sha256(os.path.join(out_dir, name))))
    path = os.path.join(out_dir, f"manifest_{command}.csv")
    write_csv(path, ["key", "value"], rows)
    return path


def _ckpt(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"{name}.ckpt")


def _load_preferring_best(out_dir: str, name: str) -> dict[str, np.ndarray]:
    best = _ckpt(out_dir, f"{name}_best")
    path = best if os.path.exists(best) else _ckpt(out_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint: {path} (run `fedcold train` first)")
    return load_checkpoint(path)


def _load_generator(cfg: RunConfig, data: PreparedData, out_dir: str) -> DenoisingGenerator:
    schedule = build_schedule(cfg.steps, cfg.noise_scale, cfg.noise_min, cfg.noise_max)
    generator = DenoisingGenerator(
        width=cfg.dim,
        heads=cfg.heads,
        cond_dim=data.features.dim,
        schedule=schedule,
        server_lr=cfg.server_lr,
        rng=stream_rng(cfg.seed, "denoiser-init"),
    )
    tensors = _load_preferring_best(out_dir, "denoiser")
    generator.params = DenoiserParams.from_tensors(
        cfg.dim, cfg.heads, data.features.dim, tensors
    )
    return generator


def cmd_gen_data(cfg: RunConfig) -> list[str]:
    spec = cfg.synthetic_spec()
    if spec is None:
        raise ConfigError("gen-data requires synthetic=true in the config")
    data_dir = os.path.join(cfg.out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    data = prepare_data(cfg)
    ds = data.split.dataset
    save_interactions(ds, os.path.join(data_dir, "interactions.csv"))
    dim = data.features.dim
    write_csv(
        os.path.join(data_dir, "features.csv"),
        ["item_id"] + [f"f{j}" for j in range(dim)],
        ([ds.item_ids[i]] + list(data.features.rows[i]) for i in range(ds.n_items)),
    )
    write_csv(
        os.path.join(data_dir, "users_idmap.csv"),
        ["original_id", "dense_id"],
        ((ds.user_ids[u], u) for u in range(ds.n_users)),
    )
    write_csv(
        os.path.join(data_dir, "items_idmap.csv"),
        ["original_id", "dense_id"],
        ((ds.item_ids[i], i) for i in range(ds.n_items)),
    )
    names = [
        "data/interactions.csv",
        "data/features.csv",
        "data/users_idmap.csv",
        "data/items_idmap.csv",
    ]
    write_manifest(cfg.out_dir, "gen-data", cfg, names)
    return names


def cmd_train(cfg: RunConfig) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = prepare_data(cfg)
    result = run_training(cfg, data)
    save_checkpoint(
        _ckpt(cfg.out_dir, "item_embeddings"), {"item_embeddings": result.item_table}
    )
    save_checkpoint(
        _ckpt(cfg.out_dir, "user_embeddings"), {"user_embeddings": result.user_table}
    )
    save_checkpoint(
        _ckpt(cfg.out_dir, "denoiser"), result.generator.params.tensors()
    )
    save_checkpoint(
        _ckpt(cfg.out_dir, "item_embeddings_best"),
        {"item_embeddings": result.best_item_table},
    )
    save_checkpoint(
        _ckpt(cfg.out_dir, "user_embeddings_best"),
        {"user_embeddings": result.best_user_table},
    )
    save_checkpoint(_ckpt(cfg.out_dir, "denoiser_best"), result.best_denoiser)
    write_csv(
        os.path.join(cfg.out_dir, ROUNDS_CSV),
        ["round", "mean_client_loss", "diffusion_loss", "seconds"],
        (
            [r.round, r.mean_client_loss, r.diffusion_loss, r.seconds]
            for r in result.rounds
        ),
    )
    write_csv(
        os.path.join(cfg.out_dir, "diagnostics.csv"),
        ["round", "centroid_distance", "covariance_distance"],
        (
            [d.round, d.centroid_distance, d.covariance_distance]
            for d in result.diagnostics
        ),
    )
    write_csv(
        os.path.join(cfg.out_dir, "validation.csv"),
        ["round", "val_recall"],
        (
            [r.round, recall]
            for r, recall in zip(result.rounds, result.val_recalls)
        ),
    )
    names = [
        "item_embeddings.ckpt",
        "user_embeddings.ckpt",
        "denoiser.ckpt",
        "item_embeddings_best.ckpt",
        "user_embeddings_best.ckpt",
        "denoiser_best.ckpt",
        ROUNDS_CSV,
        "diagnostics.csv",
        "validation.csv",
    ]
    write_manifest(
        cfg.out_dir, "train", cfg, names, extra=[("best_round", str(result.best_round))]
    )
    return names


def cmd_infer(cfg: RunConfig) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = prepare_data(cfg)
    generator = _load_generator(cfg, data, cfg.out_dir)
    rows = generate_cold(cfg, data, generator)
    ds = data.split.dataset
    write_csv(
        os.path.join(cfg.out_dir, "cold_embeddings.csv"),
        ["item_id"] + [f"f{j}" for j in range(cfg.dim)],
        (
            [ds.item_ids[item]] + list(rows[pos])
            for pos, item in enumerate(data.split.cold_items)
        ),
    )
    write_manifest(cfg.out_dir, "infer", cfg, ["cold_embeddings.csv"])
    return ["cold_embeddings.csv"]


def cmd_eval(cfg: RunConfig) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = prepare_data(cfg)
    generator = _load_generator(cfg, data, cfg.out_dir)
    user_table = _load_preferring_best(cfg.out_dir, "user_embeddings")["user_embeddings"]
    item_table = _load_preferring_best(cfg.out_dir, "item_embeddings")["item_embeddings"]
    cold_rows = generate_cold(cfg, data, generator)
    result = evaluate_run(cfg, data, user_table, item_table, cold_rows)
    write_csv(
        os.path.join(cfg.out_dir, "metrics.csv"),
        ["k", "recall", "precision", "ndcg", "n_users"],
        (
            [k, m.recall, m.precision, m.ndcg, result.metrics.n_users]
            for k, m in sorted(result.metrics.per_k.items())
        ),
    )
    write_csv(
        os.path.join(cfg.out_dir, "diagnostics_final.csv"),
        ["centroid_distance", "covariance_distance"],
        [[result.diagnostics.centroid_distance, result.diagnostics.covariance_distance]],
    )
    ds = data.split.dataset
    cold_set = set(data.split.cold_items)
    cold_pos = {item: pos for pos, item in enumerate(data.split.cold_items)}

    def export_rows():
        for item in range(ds.n_items):
            row = cold_rows[cold_pos[item]] if item in cold_set else item_table[item]
            yield [ds.item_ids[item], int(item in cold_set)] + list(row)

    write_csv(
        os.path.join(cfg.out_dir, "embeddings_export.csv"),
        ["item_id", "is_cold"] + [f"f{j}" for j in range(cfg.dim)],
        export_rows(),
    )
    names = ["metrics.csv", "diagnostics_final.csv", "embeddings_export.csv"]
    write_manifest(cfg.out_dir, "eval", cfg, names)
    return names


def cmd_attack(cfg: RunConfig) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = prepare_data(cfg)
    generator = _load_generator(cfg, data, cfg.out_dir)
    item_table = _load_preferring_best(cfg.out_dir, "item_embeddings")["item_embeddings"]
    mapper_path = _ckpt(cfg.out_dir, "mapper")
    if not os.path.exists(mapper_path):
        warm = np.array(data.split.warm_items, dtype=np.int64)
        fresh = train_baseline_mapper(
            data.features.rows[warm],
            item_table[warm],
            epochs=cfg.mapper_epochs,
            lr=cfg.mapper_lr,
            rng=stream_rng(cfg.seed, "mapper-init"),
        )
        save_checkpoint(mapper_path, fresh.tensors())
    # use the float32 checkpoint weights so a rerun scores identically
    mapper = TwoLayerMLP.from_tensors(load_checkpoint(mapper_path))
    result = run_attack(cfg, data, generator, item_table, mapper=mapper)
    comparison = result.comparison

    def report_row(report, mi, fano):
        return [
            report.method,
            report.mse,
            report.mae,
            report.cosine,
            report.pearson,
            mi,
            fano,
        ]

    write_csv(
        os.path.join(cfg.out_dir, "attack_report.csv"),
        ["method", "mse", "mae", "cosine", "pearson", "mi_nats", "fano_lower_bound"],
        [
            report_row(
                comparison.diffusion, comparison.mi_diffusion, comparison.fano_diffusion
            ),
            report_row(comparison.mapper, comparison.mi_mapper, comparison.fano_mapper),
        ],
    )
    write_csv(
        os.path.join(cfg.out_dir, "attack_entropy.csv"),
        ["method", "entropy_nats"],
        [
            ["diffusion", comparison.entropy_diffusion],
            ["mapper", comparison.entropy_mapper],
        ],
    )
    n = cfg.struct_sample_n
    header = [f"c{j}" for j in range(n)]
    for method, matrix in (
        ("diffusion", result.structural_diffusion),
        ("mapper", result.structural_mapper),
    ):
        write_csv(
            os.path.join(cfg.out_dir, f"structural_diff_{method}.csv"),
            header,
            (list(matrix[i]) for i in range(n)),
        )
    names = [
        "attack_report.csv",
        "attack_entropy.csv",
        "structural_diff_diffusion.csv",
        "structural_diff_mapper.csv",
        "mapper.ckpt",
    ]
    write_manifest(cfg.out_dir, "attack", cfg, names)
    return names


SWEEP_PARAMS = ("dim", "ldp")


def cmd_sweep(cfg: RunConfig, param: str, values: list[str]) -> list[str]:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary = []
    primary_k = cfg.k_list[0]
    for raw in values:
        if param == "dim":
            value: float | int = int(raw)
            sub = dataclasses.replace(cfg, dim=value)
        else:
            value = float(raw)
            sub = dataclasses.replace(cfg, ldp_scale=value)
        sub = dataclasses.replace(
            sub, out_dir=os.path.join(cfg.out_dir, f"{param}_{raw}")
        )
        sub.validate()
        cmd_train(sub)
        cmd_eval(sub)
        data = prepare_data(sub)
        generator = _load_generator(sub, data, sub.out_dir)
        user_table = _load_preferring_best(sub.out_dir, "user_embeddings")[
            "user_embeddings"
        ]
        item_table = _load_preferring_best(sub.out_dir, "item_embeddings")[
            "item_embeddings"
        ]
        cold_rows = generate_cold(sub, data, generator)
        result = evaluate_run(sub, data, user_table, item_table, cold_rows)
        m = result.metrics.per_k[primary_k]
        summary.append(
            [param, raw, primary_k, m.recall, m.precision, m.ndcg, result.metrics.n_users]
        )
    write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        ["param", "value", "k", "recall", "precision", "ndcg", "n_users"],
        summary,
    )
    write_manifest(cfg.out_dir, "sweep", cfg, ["sweep.csv"])
    return ["sweep.csv"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to key = value config file")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--out", default=None, help="override config out_dir")
    sub.add_argument(
        "--mode",
        choices=("deterministic", "stochastic"),
        default=None,
        help="override inference mode",
    )
    sub.add_argument(
        "--condition",
        choices=CONDITION_MODES,
        default=None,
        help="override guidance substitution at generation time",
    )
    sub.add_argument(
        "--light", action="store_true", help="train the generator every second round"
    )
    sub.add_argument(
        "--ldp", type=float, default=None, help="override Laplace upload-noise scale"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcold",
        description="federated cold-start embedding generation experiments",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "infer", "eval", "attack"):
        _add_common(commands.add_parser(name))
    sweep = commands.add_parser("sweep")
    _add_common(sweep)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument(
        "--values", required=True, help="comma-separated sweep values"
    )
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.mode is not None:
        updates["inference_mode"] = (
            "deterministic_mean" if args.mode == "deterministic" else "stochastic"
        )
    if args.condition is not None:
        updates["condition"] = args.condition
    if args.light:
        updates["light_mode"] = True
    if args.ldp is not None:
        updates["ldp_scale"] = args.ldp
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        cfg.validate()
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "infer":
            cmd_infer(cfg)
        elif args.command == "eval":
            cmd_eval(cfg)
        elif args.command == "attack":
            cmd_attack(cfg)
        else:
            cmd_sweep(cfg, args.param, [v for v in args.values.split(",") if v])
    except (FedcoldError, OSError) as exc:
        print(f"fedcold {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
