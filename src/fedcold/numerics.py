"""Dense linear algebra, seeded RNG streams, and a finite-difference gradient checker.

All math runs on float64 numpy arrays; checkpoints quantize to float32 on save
only. There is no autodiff engine: every learnable layer in this package ships
a hand-written backward pass, and this module provides the central-difference
oracle used to validate those gradients.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError

GRAD_CHECK_H_MIN = 1e-6
GRAD_CHECK_H_MAX = 1e-4


def stream_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Independent reproducible RNG stream keyed by ``(seed, path)``.

    Philox is counter-based, so generators built from distinct keys yield
    statistically independent streams regardless of how much each one is
    consumed. Subsystems (data, clients, diffusion, attack, ...) and
    per-client / per-item draws each get their own path, which makes every
    simulation a deterministic function of the root seed and keeps streams
    stable under reordering or parallel execution of unrelated work.

    The path components are folded into the second 64-bit key word with
    BLAKE2b, so any hashable mix of ints and strings is a valid path.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in path:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    sub = int.from_bytes(h.digest(), "little")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, sub], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compute ``x @ w + b`` with shape validation.

    ``x`` may be a single row (1-D) or a batch (2-D); the result keeps the
    input's dimensionality.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ConfigError("affine expects 1-D/2-D x, 2-D w, 1-D b")
    if x2.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ConfigError(
            f"affine shape mismatch: x{x2.shape} w{w.shape} b{b.shape}"
        )
    out = x2 @ w + b
    return out[0] if single else out


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, total on all finite inputs."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.max(m, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def assert_finite(name: str, *arrays: np.ndarray) -> None:
    """Raise NumericsError if any array contains NaN or infinity."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericsError(f"non-finite values in {name}")


@dataclass
class GradCheckReport:
    """Result of comparing analytic gradients against central differences."""

    max_rel_error: float
    n_checked: int
    tolerance: float
    passed: bool
    worst_param: str = ""
    worst_index: int = -1
    per_param: dict[str, float] = field(default_factory=dict)


def finite_diff_grad_check(
    loss_fn,
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Validate analytic gradients with central finite differences.

    ``loss_fn`` maps a parameter dict to ``(loss, grads)`` where ``grads``
    mirrors the dict structure. For a subsample of coordinates (all of them
    when ``max_coords_per_param`` is None) the analytic entry is compared to
    ``(f(p + h e_i) - f(p - h e_i)) / (2h)``. Relative error uses
    ``|a - n| / max(|a|, |n|, 1e-6)``.
    """
    if not (GRAD_CHECK_H_MIN <= h <= GRAD_CHECK_H_MAX):
        raise ConfigError(
            f"grad check step h={h} outside [{GRAD_CHECK_H_MIN}, {GRAD_CHECK_H_MAX}]"
        )
    if rng is None:
        rng = stream_rng(0, "gradcheck")
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss, grads = loss_fn(work)
    if not np.isfinite(loss):
        raise NumericsError(f"loss is not finite: {loss}")

    report = GradCheckReport(
        max_rel_error=0.0, n_checked=0, tolerance=tolerance, passed=True
    )
    for name in sorted(work):
        analytic = np.asarray(grads[name], dtype=np.float64).ravel()
        flat = work[name].ravel()
        n_coords = flat.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            idx = rng.choice(n_coords, size=max_coords_per_param, replace=False)
            idx = np.sort(idx)
        else:
            idx = np.arange(n_coords)
        worst_here = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_fn(work)
            flat[i] = orig - h
            down, _ = loss_fn(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            report.n_checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = int(i)
        report.per_param[name] = worst_here
    report.passed = report.max_rel_error < tolerance
    return report


class Adam:
    """Adam optimizer over a named parameter dict, updating in place.

    Used for the server-side denoiser; the federated client updates and the
    baseline mapper/attacker deliberately stay on plain SGD.
    """

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(params):
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(params[name]))
            v = self._v.setdefault(name, np.zeros_like(params[name]))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
