"""Run configuration.

Flat ``key = value`` text files with a typed key registry.  Unknown and
duplicate keys are rejected so a typo cannot silently fall back to a default,
and the resolved form of every key is written into each command's manifest.
Environment variables are never consulted.

Each key is declared once, on one line of ``RunConfig``: its default, its
range or choices, and whether it is an identity key, one that ``train`` fixes
and that ``infer``, ``eval`` and ``attack`` must repeat. ``validate`` and
``--help`` both read these declarations.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, not_utf8

CONDITION_MODES = ("full", "zero", "random", "none")
INFERENCE_MODES = ("deterministic_mean", "stochastic")
_PATH_KEYS = ("interactions_path", "features_path", "texts_path")


def _key(default, rule: str | tuple | None = None, identity: bool = False):
    """A ``RunConfig`` field: its default; its range (``"in [1, inf)"``, ``"in (0, inf)"``,
    ``"in (0, 1]"``, ``"non-empty"``; a list's range holds for each element)
    or its choices; and whether it is an identity key."""
    return field(default=default, metadata={"rule": rule, "identity": identity})


@dataclass(frozen=True)
class RunConfig:
    # data source: exactly one of synthetic=true or interactions_path
    synthetic: bool = _key(False, identity=True)
    synthetic_users: int = _key(200, "in [1, inf)", identity=True)
    synthetic_items: int = _key(130, "in [1, inf)", identity=True)
    synthetic_clusters: int = _key(4, "in [1, inf)", identity=True)
    synthetic_p_in: float = _key(0.3, "in [0, 1]", identity=True)
    synthetic_p_out: float = _key(0.01, "in [0, 1]", identity=True)
    synthetic_feature_dim: int = _key(64, "in [1, inf)", identity=True)
    synthetic_feature_noise: float = _key(0.1, "in [0, inf)", identity=True)
    interactions_path: str = _key("", identity=True)
    features_path: str = _key("", identity=True)
    texts_path: str = _key("", identity=True)
    encoder: str = _key("precomputed", ("precomputed", "hashed_tokens"), identity=True)
    hash_dim: int = _key(64, "in [1, inf)", identity=True)
    normalize: str = _key("none", ("none", "l2"), identity=True)
    # item split
    split_warm: float = _key(0.6, "in (0, 1)", identity=True)
    split_val: float = _key(0.1, "in (0, 1)", identity=True)
    split_cold: float = _key(0.3, "in (0, 1)", identity=True)
    # federated training
    rounds: int = _key(100, "in [1, inf)")
    local_lr: float = _key(0.1, "in (0, inf)")
    negatives_per_positive: int = _key(5, "in [1, inf)")
    batch_size: int = _key(256, "in [1, inf)")
    client_sample_ratio: float = _key(1.0, "in (0, 1]")
    server_epochs: int = _key(1, "in [1, inf)")
    ldp_scale: float = _key(0.0, "in [0, inf)")
    light_mode: bool = _key(False)
    dim: int = _key(64, "in [2, inf)", identity=True)
    # denoising generator
    steps: int = _key(40, "in [2, inf)", identity=True)
    noise_scale: float = _key(0.1, "in (0, inf)", identity=True)
    noise_min: float = _key(0.001, "in (0, inf)", identity=True)
    noise_max: float = _key(0.01, "in (0, inf)", identity=True)
    heads: int = _key(4, "in [1, inf)", identity=True)
    server_lr: float = _key(1e-3, "in (0, inf)")
    inference_mode: str = _key("deterministic_mean", INFERENCE_MODES)
    # evaluation
    k_list: tuple[int, ...] = _key((20, 50, 100), "in [1, inf)")
    val_k: int = _key(20, "in [1, inf)")
    condition: str = _key("full", CONDITION_MODES)
    # inversion-attack harness
    leak_fraction: float = _key(0.2, "in (0, 1)")
    attack_epochs: int = _key(500, "in [0, inf)")
    attack_lr: float = _key(0.01, "in (0, inf)")
    mi_draws: int = _key(8, "in [1, inf)")
    struct_sample_n: int = _key(20, "in [2, inf)")
    mapper_epochs: int = _key(500, "in [0, inf)")
    mapper_lr: float = _key(0.05, "in (0, inf)")
    # run identity
    seed: int = _key(0, "in [0, 2**64)", identity=True)
    out_dir: str = _key("runs/out", "non-empty")

    def validate(self) -> None:
        """Refuse a value out of its key's range, then break a rule that
        ties two or more keys together, in one ``ConfigError``."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.metadata["rule"] is not None and not _holds(f, value):
                raise ConfigError(f"{f.name} must be {_describe(f)}, got {value!r}")
        if self.synthetic == bool(self.interactions_path):
            raise ConfigError(
                "exactly one data source required: synthetic=true or interactions_path"
            )
        if self.synthetic:
            if self.features_path or self.texts_path:
                raise ConfigError("synthetic data does not take feature or text files")
            if self.synthetic_clusters > min(
                self.synthetic_users, self.synthetic_items, self.synthetic_feature_dim
            ):
                raise ConfigError(
                    "synthetic_clusters must be <= synthetic_users, synthetic_items "
                    f"and synthetic_feature_dim, got {self.synthetic_clusters}"
                )
        else:
            wanted, unwanted = "features_path", "texts_path"
            if self.encoder == "hashed_tokens":
                wanted, unwanted = unwanted, wanted
            if not getattr(self, wanted):
                raise ConfigError(f"encoder={self.encoder} requires {wanted}")
            if getattr(self, unwanted):
                raise ConfigError(f"encoder={self.encoder} does not take {unwanted}")
            for key in _PATH_KEYS:
                path = getattr(self, key)
                if path and not os.path.exists(path):
                    raise ConfigError(f"{key} does not exist: {path}")
        ratios = (self.split_warm, self.split_val, self.split_cold)
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {ratios}")
        if len(set(self.k_list)) != len(self.k_list):
            raise ConfigError(f"k_list has duplicates: {self.k_list}")
        if self.dim % 2 or self.dim % self.heads:
            raise ConfigError(f"dim must be even and divisible by heads, got {self.dim}")
        if self.noise_min >= self.noise_max:
            raise ConfigError(f"noise_min must be < noise_max, got {self.noise_min}")
        if self.noise_scale * self.noise_max >= 1:
            level = self.noise_scale * self.noise_max
            raise ConfigError(f"noise_scale * noise_max must be < 1, got {level}")

    def resolved(self) -> dict[str, str]:
        """Every key rendered to canonical text, for manifests and --help."""
        return {f.name: _render(getattr(self, f.name)) for f in dataclasses.fields(self)}


IDENTITY_KEYS = tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.metadata["identity"]
)


def _bound(text: str) -> float:
    """A range's bound: a number, or ``base**exponent``."""
    base, _, exponent = text.strip().partition("**")
    return float(base) ** int(exponent or 1)


def _holds(f: dataclasses.Field, value) -> bool:
    """Whether ``value`` lies in the range, or among the choices, of key ``f``."""
    rule = f.metadata["rule"]
    if isinstance(rule, tuple):
        return value in rule
    if isinstance(value, tuple):
        return value != () and all(_holds(f, v) for v in value)
    if rule == "non-empty":
        return value != ""
    low, high = rule[4:-1].split(",")  # "in [low, high)" and the like
    above = value >= _bound(low) if rule[3] == "[" else value > _bound(low)
    below = value <= _bound(high) if rule[-1] == "]" else value < _bound(high)
    return above and below


def _describe(f: dataclasses.Field) -> str:
    """The range or choices of key ``f``, as the words after "must be"."""
    rule = f.metadata["rule"]
    if isinstance(rule, tuple):
        return "one of " + ", ".join(rule)
    if isinstance(f.default, tuple):
        return f"non-empty, each {rule}"
    return rule


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
    """One line per key: name, type, default, and its range or choices; a
    ``*`` marks an identity key."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        mark = "*" if f.metadata["identity"] else " "
        rule = "" if f.metadata["rule"] is None else f": {_describe(f)}"
        lines.append(
            f"{mark} {f.name} ({_kind(f.default)[2]}, default {_render(f.default)}){rule}"
        )
    return (
        "config file keys, one `key = value` per line; * marks an identity key,\n"
        "which train fixes and infer, eval and attack must repeat:\n" + "\n".join(lines)
    )
