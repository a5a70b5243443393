"""Run configuration.

Flat ``key = value`` text files with a typed key registry.  Unknown and
duplicate keys are rejected so a typo cannot silently fall back to a default,
and the resolved form of every key is written into each command's manifest.
Environment variables are never consulted.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .diffusion import INFERENCE_MODES, _validate_levels
from .errors import ConfigError, not_utf8

CONDITION_MODES = ("full", "zero", "random", "none")
_PATH_KEYS = ("interactions_path", "features_path", "texts_path")


@dataclass(frozen=True)
class RunConfig:
    # data source: exactly one of synthetic=true or interactions_path
    synthetic: bool = False
    synthetic_users: int = 200
    synthetic_items: int = 130
    synthetic_clusters: int = 4
    synthetic_p_in: float = 0.3
    synthetic_p_out: float = 0.01
    synthetic_feature_dim: int = 64
    synthetic_feature_noise: float = 0.1
    interactions_path: str = ""
    features_path: str = ""
    texts_path: str = ""
    encoder: str = "precomputed"
    hash_dim: int = 64
    normalize: str = "none"
    # item split
    split_warm: float = 0.6
    split_val: float = 0.1
    split_cold: float = 0.3
    # federated training
    rounds: int = 100
    local_lr: float = 0.1
    negatives_per_positive: int = 5
    batch_size: int = 256
    client_sample_ratio: float = 1.0
    server_epochs: int = 1
    ldp_scale: float = 0.0
    light_mode: bool = False
    dim: int = 64
    # denoising generator
    steps: int = 40
    noise_scale: float = 0.1
    noise_min: float = 0.001
    noise_max: float = 0.01
    heads: int = 4
    server_lr: float = 1e-3
    inference_mode: str = "deterministic_mean"
    # evaluation
    k_list: tuple[int, ...] = (20, 50, 100)
    val_k: int = 20
    condition: str = "full"
    # inversion-attack harness
    leak_fraction: float = 0.2
    attack_epochs: int = 500
    attack_lr: float = 0.01
    mi_draws: int = 8
    struct_sample_n: int = 20
    mapper_epochs: int = 500
    mapper_lr: float = 0.05
    # run identity
    seed: int = 0
    out_dir: str = "runs/out"

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.synthetic == bool(self.interactions_path):
            raise ConfigError(
                "exactly one data source required: synthetic=true or interactions_path"
            )
        if self.synthetic:
            if self.features_path or self.texts_path:
                raise ConfigError("synthetic data does not take feature or text files")
            if self.synthetic_users < 1 or self.synthetic_items < 1:
                raise ConfigError("synthetic spec needs at least one user and item")
            if not 1 <= self.synthetic_clusters <= min(
                self.synthetic_users, self.synthetic_items
            ):
                raise ConfigError(
                    f"n_clusters={self.synthetic_clusters} must lie in "
                    "[1, min(n_users, n_items)]"
                )
            if self.synthetic_clusters > self.synthetic_feature_dim:
                raise ConfigError(
                    "feature_dim must be >= n_clusters for orthogonal centroids"
                )
            for name, p in (
                ("p_in", self.synthetic_p_in),
                ("p_out", self.synthetic_p_out),
            ):
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"{name}={p} outside [0, 1]")
            if self.synthetic_feature_noise < 0:
                raise ConfigError("feature_noise must be non-negative")
        else:
            if self.encoder == "precomputed":
                if not self.features_path:
                    raise ConfigError("encoder=precomputed requires features_path")
                if self.texts_path:
                    raise ConfigError("encoder=precomputed does not take texts_path")
            elif self.encoder == "hashed_tokens":
                if not self.texts_path:
                    raise ConfigError("encoder=hashed_tokens requires texts_path")
                if self.features_path:
                    raise ConfigError(
                        "encoder=hashed_tokens does not take features_path"
                    )
            else:
                raise ConfigError(f"unknown encoder {self.encoder!r}")
            for key in _PATH_KEYS:
                path = getattr(self, key)
                if path and not os.path.exists(path):
                    raise ConfigError(f"{key} does not exist: {path}")
        if self.normalize not in ("none", "l2"):
            raise ConfigError(f"unknown normalize mode {self.normalize!r}")
        if self.hash_dim < 1:
            raise ConfigError(f"hash_dim must be >= 1, got {self.hash_dim}")
        ratios = (self.split_warm, self.split_val, self.split_cold)
        if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must be positive and sum to 1: {ratios}")
        if not self.k_list or min(self.k_list) < 1:
            raise ConfigError(f"k_list must be non-empty positive ints: {self.k_list}")
        if len(set(self.k_list)) != len(self.k_list):
            raise ConfigError(f"k_list has duplicates: {self.k_list}")
        if self.val_k < 1:
            raise ConfigError(f"val_k must be >= 1, got {self.val_k}")
        if self.condition not in CONDITION_MODES:
            raise ConfigError(f"unknown condition mode {self.condition!r}")
        if self.inference_mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")
        if not 0.0 < self.leak_fraction < 1.0:
            raise ConfigError(
                f"leak_fraction must be in (0, 1), got {self.leak_fraction}"
            )
        if min(self.attack_epochs, self.mapper_epochs) < 0:
            raise ConfigError("attack_epochs and mapper_epochs must be non-negative")
        if min(self.attack_lr, self.mapper_lr) <= 0:
            raise ConfigError("attack_lr and mapper_lr must be positive")
        if self.mi_draws < 1:
            raise ConfigError(f"mi_draws must be >= 1, got {self.mi_draws}")
        if self.struct_sample_n < 2:
            raise ConfigError(
                f"struct_sample_n must be >= 2, got {self.struct_sample_n}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_lr <= 0:
            raise ConfigError("local_lr must be positive")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 < self.client_sample_ratio <= 1.0):
            raise ConfigError(
                f"client_sample_ratio={self.client_sample_ratio} outside (0, 1]"
            )
        if self.server_epochs < 1:
            raise ConfigError("server_epochs must be >= 1")
        if self.ldp_scale < 0:
            raise ConfigError("ldp_scale must be non-negative")
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.dim % 2:
            raise ConfigError(f"embedding width must be even and >= 2, got {self.dim}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.dim % self.heads:
            raise ConfigError(f"width {self.dim} must be divisible by heads {self.heads}")
        if self.server_lr <= 0:
            raise ConfigError("server_lr must be positive")
        _validate_levels(self.steps, self.noise_scale, self.noise_min, self.noise_max)

    def resolved(self) -> dict[str, str]:
        """Every key rendered to canonical text, for manifests and --help."""
        out = {}
        for f in dataclasses.fields(self):
            out[f.name] = _render(getattr(self, f.name))
        return out


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


# (type, parser, name in --help) of each kind of default; bool comes before
# int, since a bool is an int too
_KINDS = (
    (bool, _parse_bool, "bool"),
    (int, int, "int"),
    (float, float, "float"),
    (tuple, _parse_int_tuple, "int list"),
    (str, str, "str"),
)


def _kind(value) -> tuple:
    """The row of ``_KINDS`` that the default ``value`` is of."""
    return next(kind for kind in _KINDS if isinstance(value, kind[0]))


_PARSERS = {f.name: _kind(f.default)[1] for f in dataclasses.fields(RunConfig)}


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse key = value lines; # starts a comment; later keys may not repeat."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            parsed = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if key in _PATH_KEYS and parsed and not os.path.isabs(parsed):
            parsed = os.path.normpath(os.path.join(base_dir, parsed))
        values[key] = parsed
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """The config at ``path``, read as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(not_utf8(path, exc)) from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def config_help() -> str:
    """One line per key: name, type, default."""
    lines = [
        f"  {f.name} ({_kind(f.default)[2]}, default {_render(f.default)})"
        for f in dataclasses.fields(RunConfig)
    ]
    return "config file keys, one `key = value` per line:\n" + "\n".join(lines)
