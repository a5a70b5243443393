"""Command-line entry points.

Subcommands cover the whole experiment lifecycle: ``gen-data`` materializes a
synthetic dataset, ``train`` runs the federated loop and writes checkpoints,
``infer`` generates cold-item embeddings, ``eval`` scores them, ``attack``
runs the inversion-attack comparison, and ``sweep`` repeats train+eval over a
parameter grid.  Every command writes a ``manifest_<command>.csv`` holding the
fully resolved config, the seed, and a SHA-256 per artifact; the wall-clock
columns of rounds.csv are masked before hashing because timings are the one
intentionally non-reproducible output.  ``infer``, ``eval`` and ``attack``
refuse to run unless the identity keys of their config match those that
``train`` recorded in its manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, load_flat, save_checkpoint, write_atomic
from .config import CONDITION_MODES, IDENTITY_KEYS, RunConfig, config_help, load_config
from .data import save_interactions
from .diffusion import DenoisingGenerator
from .errors import ConfigError, FedcoldError
from .federation import RoundReport
from .mlp import TwoLayerMLP
from .pipeline import (
    EvalResult,
    PreparedData,
    build_generator,
    diffusion_side,
    evaluate_run,
    generate_cold,
    mapper_side,
    prepare_data,
    run_training,
    train_mapper,
)
from .privacy import PipelineSide

ROUNDS_CSV = "rounds.csv"
ROUNDS_HEADER = [
    "round",
    "mean_client_loss",
    "diffusion_loss",
    "seconds",
    "generator_seconds",
    "draw_seconds",
    "kernel_seconds",
    "noise_seconds",
    "aggregate_seconds",
    "chain_seconds",
    "val_seconds",
    "upload_rows",
    "distinct_items",
    "payload_bytes",
]
# the timings, blanked before hashing; every other rounds.csv column is deterministic
WALL_CLOCK_COLUMNS = tuple(
    name for name in ROUNDS_HEADER if name == "seconds" or name.endswith("_seconds")
)
TRAIN_MANIFEST = "manifest_train.csv"


def _fmt(value) -> str:
    """One CSV field; text holding a comma, a quote or a line break is quoted
    so that ``csv.reader`` reads it back. A 1-D numeric array stands for one
    field per element, written as ``repr`` of each Python number, the same
    bytes as the elements passed one by one. Numbers never need quoting, and
    ``csv.writer``, which scans every character of every field, made each
    ``infer`` + ``eval`` pass 20 ms slower on ``cold-4x-sparse``."""
    if value is None:
        return ""
    if isinstance(value, np.ndarray):
        return ",".join(map(repr, value.tolist()))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 scalars repr as "np.float64(...)"
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, header: list[str], rows) -> None:
    """Atomic CSV write with repr-formatted floats and \\n line endings.

    A field holding a comma, a quote or a line break is quoted, so an item id
    such as ``it,3`` keeps its row's columns in place; every other field is
    written as is. A row may end in a 1-D numeric array, such as an embedding
    row, which is written as one field per element.
    """
    lines = [",".join(_fmt(v) for v in header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _mask_wall_clock(text: str) -> str:
    """CSV ``text`` with its ``WALL_CLOCK_COLUMNS`` blanked below the header."""
    lines = text.splitlines()
    if not lines:
        return "\n"
    header = lines[0].split(",")
    idx = [header.index(name) for name in WALL_CLOCK_COLUMNS if name in header]
    masked = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        for i in idx:
            if i < len(parts):
                parts[i] = ""
        masked.append(",".join(parts))
    return "\n".join(masked) + "\n"


def artifact_sha256(path: str) -> str:
    """File hash; rounds.csv is hashed with its wall-clock columns blanked."""
    with open(path, "rb") as handle:
        data = handle.read()
    if os.path.basename(path) == ROUNDS_CSV:
        data = _mask_wall_clock(data.decode("utf-8")).encode("utf-8")
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
    masked = " ".join(WALL_CLOCK_COLUMNS)
    rows.append(("hash_note", f"{ROUNDS_CSV} columns {masked} masked before hashing"))
    for name in sorted(artifacts):
        rows.append((f"sha256:{name}", artifact_sha256(os.path.join(out_dir, name))))
    path = os.path.join(out_dir, f"manifest_{command}.csv")
    write_csv(path, ["key", "value"], rows)
    return path


def _ckpt(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"{name}.ckpt")


def _check_trained_identity(cfg: RunConfig) -> None:
    """Refuse a config whose identity keys differ from those ``train`` used.

    ``train`` records every resolved key in its manifest. A stage that loads
    its checkpoints under another seed, data source, split, encoder or
    generator shape would silently score the wrong run, so each differing key
    is named in one ``ConfigError``.
    """
    path = os.path.join(cfg.out_dir, TRAIN_MANIFEST)
    if not os.path.exists(path):
        raise ConfigError(f"missing train manifest: {path} (run `fedcold train` first)")
    recorded = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            # a manifest written before values were quoted splits k_list's
            # "10,20,50" over several fields; joining them restores it
            if row:
                recorded[row[0]] = ",".join(row[1:])
    current = cfg.resolved()
    differing = [
        f"{key} {current[key]!r} (trained with {recorded.get(key)!r})"
        for key in IDENTITY_KEYS
        if recorded.get(key) != current[key]
    ]
    if differing:
        raise ConfigError(
            f"config does not match the run in {cfg.out_dir}: " + ", ".join(differing)
        )


def _open_run(
    cfg: RunConfig,
) -> tuple[PreparedData, DenoisingGenerator, np.ndarray, np.ndarray]:
    """The run that ``train`` left in ``cfg.out_dir``: its data, its generator
    and its user and item tables, read from the ``*_best`` snapshots.

    The config's identity keys must be those ``train`` used. The tables are
    read through ``load_flat`` as ``(n_users, dim)`` and ``(n_items, dim)``,
    so a missing, misnamed or misshapen checkpoint is refused by name, as a
    denoiser checkpoint is.
    """
    _check_trained_identity(cfg)
    data = prepare_data(cfg)

    def best(name: str) -> dict[str, np.ndarray]:
        path = _ckpt(cfg.out_dir, f"{name}_best")
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint: {path} (run `fedcold train` first)")
        return load_checkpoint(path)

    generator = build_generator(cfg, data.features.shape[1], best("denoiser"))
    ds = data.split.dataset
    users, items = (
        load_flat({name: (n, cfg.dim)}, best(name), f"{name}_best")[1][name]
        for name, n in (("user_embeddings", ds.n_users), ("item_embeddings", ds.n_items))
    )
    return data, generator, users, items


def cmd_gen_data(cfg: RunConfig) -> list[str]:
    if not cfg.synthetic:
        raise ConfigError("gen-data requires synthetic=true in the config")
    data_dir = os.path.join(cfg.out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    data = prepare_data(cfg)
    ds = data.split.dataset
    save_interactions(ds, os.path.join(data_dir, "interactions.csv"))
    write_csv(
        os.path.join(data_dir, "features.csv"),
        ["item_id"] + [f"f{j}" for j in range(data.features.shape[1])],
        ([ds.item_ids[i], data.features[i]] for i in range(ds.n_items)),
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


def _print_progress(report: RoundReport, rounds: int) -> None:
    """One stderr line for a finished round; nothing it prints is an artifact."""
    recall = "n/a" if report.val_recall is None else f"{report.val_recall:.4f}"
    seconds = report.seconds + report.chain_seconds + report.val_seconds
    print(
        f"fedcold train: round {report.round}/{rounds} "
        f"loss {report.mean_client_loss:.4f} val_recall {recall} "
        f"seconds {seconds:.3f}",
        file=sys.stderr,
        flush=True,
    )


def cmd_train(cfg: RunConfig, progress: bool = False) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = prepare_data(cfg)
    # each round compares the warm rows with the generated cold rows
    n_warm, n_cold = len(data.split.warm_items), len(data.split.cold_items)
    if min(n_warm, n_cold) < 2:
        raise ConfigError(
            f"the split has {n_warm} warm and {n_cold} cold items; "
            "training needs at least 2 of each"
        )
    n_val = len(data.split.val_items)
    if cfg.val_k >= n_val:
        print(
            f"fedcold train: notice: val_k {cfg.val_k} >= {n_val} validation items, so "
            + ("validation recall saturates" if n_val else "no round can be scored")
            + " and the best round is the last",
            file=sys.stderr,
        )
    on_round = (lambda r: _print_progress(r, cfg.rounds)) if progress else None
    result = run_training(cfg, data, on_round)
    checkpoints = (
        ("item_embeddings", {"item_embeddings": result.item_table}),
        ("user_embeddings", {"user_embeddings": result.user_table}),
        ("denoiser", result.generator.params.tensors()),
        ("item_embeddings_best", {"item_embeddings": result.best_item_table}),
        ("user_embeddings_best", {"user_embeddings": result.best_user_table}),
        ("denoiser_best", result.best_denoiser),
    )
    for name, tensors in checkpoints:
        save_checkpoint(_ckpt(cfg.out_dir, name), tensors)
    tables = (
        (ROUNDS_CSV, ROUNDS_HEADER),
        ("diagnostics.csv", ["round", "centroid_distance", "covariance_distance"]),
        ("validation.csv", ["round", "val_recall"]),
    )
    for name, columns in tables:
        write_csv(
            os.path.join(cfg.out_dir, name),
            columns,
            ([getattr(r, c) for c in columns] for r in result.rounds),
        )
    names = [f"{name}.ckpt" for name, _ in checkpoints] + [name for name, _ in tables]
    write_manifest(
        cfg.out_dir, "train", cfg, names, extra=[("best_round", str(result.best_round))]
    )
    return names


def cmd_infer(cfg: RunConfig) -> list[str]:
    data, generator, _, _ = _open_run(cfg)
    rows = generate_cold(cfg, data, generator)
    ds = data.split.dataset
    write_csv(
        os.path.join(cfg.out_dir, "cold_embeddings.csv"),
        ["item_id"] + [f"f{j}" for j in range(cfg.dim)],
        (
            [ds.item_ids[item], rows[pos]]
            for pos, item in enumerate(data.split.cold_items)
        ),
    )
    write_manifest(cfg.out_dir, "infer", cfg, ["cold_embeddings.csv"])
    return ["cold_embeddings.csv"]


def cmd_eval(cfg: RunConfig) -> EvalResult:
    data, generator, users, items = _open_run(cfg)
    cold_rows = generate_cold(cfg, data, generator)
    result = evaluate_run(cfg, data, users, items, cold_rows)
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
    rows = items.copy()
    rows[data.split.cold_items] = cold_rows
    is_cold = np.zeros(ds.n_items, dtype=np.int64)
    is_cold[data.split.cold_items] = 1
    write_csv(
        os.path.join(cfg.out_dir, "embeddings_export.csv"),
        ["item_id", "is_cold"] + [f"f{j}" for j in range(cfg.dim)],
        ([ds.item_ids[i], is_cold[i], rows[i]] for i in range(ds.n_items)),
    )
    names = ["metrics.csv", "diagnostics_final.csv", "embeddings_export.csv"]
    write_manifest(cfg.out_dir, "eval", cfg, names)
    return result


def _fit_mapper_beside(
    cfg: RunConfig,
    data: PreparedData,
    generator: DenoisingGenerator,
    item_table: np.ndarray,
) -> tuple[TwoLayerMLP, PipelineSide]:
    """The baseline mapper, and the generator's side of the comparison, at once.

    The two share no data, and numpy releases the interpreter lock in BLAS
    and in its ufunc loops, so the mapper fit runs on a worker thread while
    this thread runs the reverse chains and then the attack on their rows;
    the stage waits only for the longer of the two. The mapper's side needs
    the mapper reloaded from its float32 checkpoint, so it follows the join.
    Keep the chains on this thread: a worker thread gets its own malloc
    arena, and chains run there stop reusing the heap that ``train`` freed
    (with the split reversed, ``cold-4x-sparse`` peak RSS rose 5 %). The
    worker is always joined, and an exception it raised is raised here.
    """
    # imported here, not with the module: only attack needs it, and a
    # module-level import raised the peak RSS of every process that imports
    # the cli, the perfbench workload's train stage among them
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="fedcold-mapper-fit") as pool:
        fit = pool.submit(train_mapper, cfg, data, item_table)
        diffusion = diffusion_side(cfg, data, generator)
    return fit.result(), diffusion


def _write_attack_report(out_dir: str, sides: list[PipelineSide]) -> list[str]:
    """The attack CSVs of ``sides``, one row or file per side, in order."""
    write_csv(
        os.path.join(out_dir, "attack_report.csv"),
        ["method", "mse", "mae", "cosine", "pearson", "mi_nats", "fano_lower_bound"],
        (
            [
                side.report.method,
                side.report.mse,
                side.report.mae,
                side.report.cosine,
                side.report.pearson,
                side.mi,
                side.fano,
            ]
            for side in sides
        ),
    )
    write_csv(
        os.path.join(out_dir, "attack_entropy.csv"),
        ["method", "entropy_nats"],
        ([side.report.method, side.entropy] for side in sides),
    )
    names = ["attack_report.csv", "attack_entropy.csv"]
    for side in sides:
        n = side.structural.shape[0]
        name = f"structural_diff_{side.report.method}.csv"
        write_csv(
            os.path.join(out_dir, name),
            [f"c{j}" for j in range(n)],
            ([row] for row in side.structural),
        )
        names.append(name)
    return names


def cmd_attack(cfg: RunConfig) -> list[str]:
    data, generator, _, items = _open_run(cfg)
    mapper, diffusion = _fit_mapper_beside(cfg, data, generator, items)
    mapper_path = _ckpt(cfg.out_dir, "mapper")
    save_checkpoint(mapper_path, mapper.tensors())
    # use the float32 checkpoint weights so a rerun scores identically
    mapper = TwoLayerMLP.from_tensors(load_checkpoint(mapper_path))
    names = _write_attack_report(
        cfg.out_dir, [diffusion, mapper_side(cfg, data, mapper)]
    )
    names.append("mapper.ckpt")
    write_manifest(cfg.out_dir, "attack", cfg, names)
    return names


SWEEP_PARAMS = ("dim", "ldp")


def cmd_sweep(cfg: RunConfig, param: str, values: list[str]) -> list[str]:
    if not values:
        raise ConfigError("sweep needs at least one value")
    key, parse = ("dim", int) if param == "dim" else ("ldp_scale", float)
    subs = []
    seen: dict[float, str] = {}
    for raw in values:
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"bad sweep value for {param}: {raw!r}") from None
        if value in seen:
            raise ConfigError(
                f"duplicate sweep value for {param}: {raw!r} is {seen[value]!r} again"
            )
        seen[value] = raw
        out_dir = os.path.join(cfg.out_dir, f"{param}_{raw}")
        sub = dataclasses.replace(cfg, **{key: value, "out_dir": out_dir})
        sub.validate()
        subs.append(sub)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary = []
    primary_k = cfg.k_list[0]
    for raw, sub in zip(values, subs):
        cmd_train(sub)
        result = cmd_eval(sub)
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
    sub.add_argument("--seed", type=int, help="override config seed")
    sub.add_argument("--out", help="override config out_dir")
    sub.add_argument(
        "--mode", choices=("deterministic", "stochastic"), help="override inference mode"
    )
    sub.add_argument(
        "--condition",
        choices=CONDITION_MODES,
        help="override guidance substitution at generation time",
    )
    sub.add_argument(
        "--light", action="store_true", help="train the generator every second round"
    )
    sub.add_argument("--ldp", type=float, help="override Laplace upload-noise scale")


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
    commands.choices["train"].add_argument(
        "--progress",
        action="store_true",
        help="print one stderr line per round: round, mean client loss, "
        "validation recall and seconds",
    )
    sweep = commands.add_parser("sweep")
    _add_common(sweep)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument(
        "--values", required=True, help="comma-separated sweep values"
    )
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    modes = {"deterministic": "deterministic_mean", "stochastic": "stochastic"}
    # each override flag and the config key it sets; None leaves the key as is
    updates = {
        "seed": args.seed,
        "out_dir": args.out,
        "inference_mode": modes.get(args.mode),
        "condition": args.condition,
        "light_mode": args.light or None,
        "ldp_scale": args.ldp,
    }
    return dataclasses.replace(
        cfg, **{key: value for key, value in updates.items() if value is not None}
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        cfg.validate()
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "train":
            cmd_train(cfg, progress=args.progress)
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
