"""Conditional denoising diffusion over item embeddings.

The forward process corrupts a clean embedding with a linear low-noise
schedule; the denoiser predicts the clean embedding directly from the noisy
one, the timestep, and an item modality condition fused in through multi-head
attention. Reverse sampling walks the posterior means from pure noise down to
a generated embedding. All gradients are hand-written and checked against
central differences in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import require_tensors
from .errors import ConfigError
from .numerics import Adam, affine, rekey, softmax_rows

INFERENCE_MODES = ("deterministic_mean", "stochastic")


def _validate_levels(steps: int, scale: float, lo: float, hi: float) -> None:
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if scale <= 0:
        raise ConfigError(f"noise_scale must be positive, got {scale}")
    if lo <= 0:
        raise ConfigError(f"noise_min must be positive, got {lo}")
    if steps >= 2 and not lo < hi:
        raise ConfigError(f"noise_min={lo} must be < noise_max={hi}")
    if scale * hi >= 1:
        raise ConfigError(
            f"total corruption noise_scale*noise_max={scale * hi} must stay below 1"
        )


@dataclass
class NoiseSchedule:
    """Precomputed schedule arrays indexed by timestep 1..steps.

    Index 0 holds the boundary convention: no corruption before the chain
    starts, so ``alpha_bar[0] == 1`` and the step-1 posterior variance is
    exactly zero.
    """

    steps: int
    alpha_bar: np.ndarray  # cumulative signal fraction, length steps+1
    alpha: np.ndarray  # per-step signal fraction alpha_bar[t]/alpha_bar[t-1]
    beta: np.ndarray  # per-step noise fraction 1 - alpha
    sigma2: np.ndarray  # posterior variance per step, sigma2[1] == 0


def build_schedule(
    steps: int, noise_scale: float, noise_min: float, noise_max: float
) -> NoiseSchedule:
    """Linear corruption-level schedule.

    level(t) = noise_scale * (noise_min + (t-1)/(steps-1) * (noise_max -
    noise_min)) for t = 1..steps. ``steps == 1`` is permitted for minimal
    chains and uses the lower endpoint only.
    """
    _validate_levels(steps, noise_scale, noise_min, noise_max)
    t = np.arange(1, steps + 1, dtype=np.float64)
    if steps == 1:
        levels = np.array([noise_scale * noise_min])
    else:
        levels = noise_scale * (
            noise_min + (t - 1.0) / (steps - 1.0) * (noise_max - noise_min)
        )
    alpha_bar = np.empty(steps + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = 1.0 - levels
    if np.any(np.diff(alpha_bar) >= 0):
        raise ConfigError("schedule must be strictly decreasing in alpha_bar")
    alpha = np.empty(steps + 1)
    alpha[0] = 1.0
    alpha[1:] = alpha_bar[1:] / alpha_bar[:-1]
    beta = np.empty(steps + 1)
    beta[0] = 0.0
    beta[1:] = 1.0 - alpha[1:]
    sigma2 = np.empty(steps + 1)
    sigma2[0] = 0.0
    sigma2[1:] = beta[1:] * (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:])
    return NoiseSchedule(
        steps=steps, alpha_bar=alpha_bar, alpha=alpha, beta=beta, sigma2=sigma2
    )


@dataclass
class DenoiserParams:
    """Learnable tensors of the conditional denoiser.

    The time encoding and the raw condition are projected to the model width
    and stacked as the two attention key/value rows; queries come from the
    noisy embedding, one slice per head. The fused vector is concatenated
    with the noisy embedding and pushed through a two-hidden-layer tanh trunk
    back to the embedding width.
    """

    width: int
    heads: int
    cond_dim: int
    time_w: np.ndarray
    time_b: np.ndarray
    cond_w: np.ndarray
    cond_b: np.ndarray
    query_w: np.ndarray
    out_w: np.ndarray
    trunk1_w: np.ndarray
    trunk1_b: np.ndarray
    trunk2_w: np.ndarray
    trunk2_b: np.ndarray
    trunk3_w: np.ndarray
    trunk3_b: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "time_w": self.time_w,
            "time_b": self.time_b,
            "cond_w": self.cond_w,
            "cond_b": self.cond_b,
            "query_w": self.query_w,
            "out_w": self.out_w,
            "trunk1_w": self.trunk1_w,
            "trunk1_b": self.trunk1_b,
            "trunk2_w": self.trunk2_w,
            "trunk2_b": self.trunk2_b,
            "trunk3_w": self.trunk3_w,
            "trunk3_b": self.trunk3_b,
        }

    @classmethod
    def from_tensors(
        cls, width: int, heads: int, cond_dim: int, tensors: dict[str, np.ndarray]
    ) -> "DenoiserParams":
        """Parameters from checkpoint tensors; DataFormatError names any missing."""
        _check_dims(width, heads, cond_dim)
        # every field after width, heads and cond_dim is a tensor
        require_tensors(tensors, [f.name for f in fields(cls)[3:]], "denoiser")

        def mat(name: str) -> np.ndarray:
            return np.asarray(tensors[name], dtype=np.float64)

        def vec(name: str) -> np.ndarray:
            return np.asarray(tensors[name], dtype=np.float64).ravel()

        return cls(
            width=width,
            heads=heads,
            cond_dim=cond_dim,
            time_w=mat("time_w"),
            time_b=vec("time_b"),
            cond_w=mat("cond_w"),
            cond_b=vec("cond_b"),
            query_w=mat("query_w"),
            out_w=mat("out_w"),
            trunk1_w=mat("trunk1_w"),
            trunk1_b=vec("trunk1_b"),
            trunk2_w=mat("trunk2_w"),
            trunk2_b=vec("trunk2_b"),
            trunk3_w=mat("trunk3_w"),
            trunk3_b=vec("trunk3_b"),
        )


def _check_dims(width: int, heads: int, cond_dim: int) -> None:
    if width < 2 or width % 2 != 0:
        raise ConfigError(f"embedding width must be even and >= 2, got {width}")
    if heads < 1 or width % heads != 0:
        raise ConfigError(f"width {width} must be divisible by heads {heads}")
    if cond_dim < 1:
        raise ConfigError(f"condition dim must be positive, got {cond_dim}")


def init_denoiser(
    width: int, heads: int, cond_dim: int, rng: np.random.Generator
) -> DenoiserParams:
    _check_dims(width, heads, cond_dim)

    def xavier(rows: int, cols: int) -> np.ndarray:
        return np.sqrt(2.0 / (rows + cols)) * rng.standard_normal((rows, cols))

    return DenoiserParams(
        width=width,
        heads=heads,
        cond_dim=cond_dim,
        time_w=xavier(width, width),
        time_b=np.zeros(width),
        cond_w=xavier(cond_dim, width),
        cond_b=np.zeros(width),
        query_w=xavier(width, width),
        out_w=xavier(width, width),
        trunk1_w=xavier(2 * width, 2 * width),
        trunk1_b=np.zeros(2 * width),
        trunk2_w=xavier(2 * width, 2 * width),
        trunk2_b=np.zeros(2 * width),
        trunk3_w=xavier(2 * width, width),
        trunk3_b=np.zeros(width),
    )


def sinusoidal_encoding(t, width: int) -> np.ndarray:
    """Fixed sin/cos timestep encoding with geometric frequency spacing."""
    if width % 2 != 0:
        raise ConfigError(f"encoding width must be even, got {width}")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))[:, None]
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _as_batch(x: np.ndarray | None) -> tuple[np.ndarray | None, bool]:
    if x is None:
        return None, False
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _check_t(t: np.ndarray, steps: int, lowest: int = 1) -> None:
    if np.any(t < lowest) or np.any(t > steps):
        raise ConfigError(f"timestep out of range [{lowest}, {steps}]")


def _forward_workspace(
    n: int, p: DenoiserParams, cond_key: np.ndarray | None
) -> dict[str, np.ndarray]:
    """Every array a forward pass on ``n`` rows writes, with the condition
    key ``cond_key`` (``affine(m, cond_w, cond_b)``; None without a
    condition) already in row 1 of the key/value stack.

    A reverse chain, whose conditions do not change from step to step, makes
    one and passes it to every step.
    """
    d, h = p.width, p.heads
    r = 1 if cond_key is None else 2
    kv = np.empty((n, r, d))
    if cond_key is not None:
        kv[:, 1] = cond_key
    return {
        "kv": kv,
        "q": np.empty((n, d)),
        "scores": np.empty((n, h, r)),
        "heads": np.empty((n, h, d // h)),
        "x": np.empty((n, 2 * d)),
        "a1": np.empty((n, 2 * d)),
        "a2": np.empty((n, 2 * d)),
        "out": np.empty((n, d)),
    }


def _forward(
    e_t: np.ndarray,
    tenc: np.ndarray,
    m: np.ndarray | None,
    p: DenoiserParams,
    work: dict[str, np.ndarray] | None = None,
):
    """Denoiser forward pass: the clean-embedding estimate and the cache.

    ``tenc`` holds each row's timestep encoding. Every array is written into
    ``work`` (from ``_forward_workspace``; fresh when omitted), so the
    estimate and the cache are views of it.
    """
    n, d = e_t.shape
    h, dh = p.heads, p.width // p.heads
    if d != p.width:
        raise ConfigError(f"embedding width {d} does not match model width {p.width}")
    if m is not None and m.shape[1] != p.cond_dim:
        raise ConfigError(
            f"condition dim {m.shape[1]} does not match model cond_dim {p.cond_dim}"
        )
    if work is None:
        cond_key = None if m is None else affine(m, p.cond_w, p.cond_b)
        work = _forward_workspace(n, p, cond_key)
    kv, x, a1, a2, out = work["kv"], work["x"], work["a1"], work["a2"], work["out"]
    time_key = np.matmul(tenc, p.time_w, out=kv[:, 0])
    np.add(time_key, p.time_b, out=time_key)
    r = kv.shape[1]
    qh = np.matmul(e_t, p.query_w, out=work["q"]).reshape(n, h, dh)
    kvh = kv.reshape(n, r, h, dh)
    scale = 1.0 / math.sqrt(dh)
    scores = np.einsum("nhd,nrhd->nhr", qh, kvh, out=work["scores"])
    np.multiply(scores, scale, out=scores)
    attn = softmax_rows(scores)
    heads_out = np.einsum("nhr,nrhd->nhd", attn, kvh, out=work["heads"])
    concat = heads_out.reshape(n, d)
    x[:, :d] = e_t  # x = [e_t | fused]
    fused = np.matmul(concat, p.out_w, out=x[:, d:])
    np.matmul(x, p.trunk1_w, out=a1)
    np.add(a1, p.trunk1_b, out=a1)
    np.tanh(a1, out=a1)
    np.matmul(a1, p.trunk2_w, out=a2)
    np.add(a2, p.trunk2_b, out=a2)
    np.tanh(a2, out=a2)
    np.matmul(a2, p.trunk3_w, out=out)
    np.add(out, p.trunk3_b, out=out)
    cache = (e_t, tenc, m, qh, kvh, attn, concat, x, a1, a2, scale, r, fused)
    return out, cache


def _backward(d_out: np.ndarray, cache, p: DenoiserParams) -> dict[str, np.ndarray]:
    e_t, tenc, m, qh, kvh, attn, concat, x, a1, a2, scale, r, _ = cache
    n, d = e_t.shape
    h, dh = p.heads, p.width // p.heads
    grads: dict[str, np.ndarray] = {}
    grads["trunk3_w"] = a2.T @ d_out
    grads["trunk3_b"] = d_out.sum(axis=0)
    d_a2 = d_out @ p.trunk3_w.T
    d_z2 = d_a2 * (1.0 - a2 * a2)
    grads["trunk2_w"] = a1.T @ d_z2
    grads["trunk2_b"] = d_z2.sum(axis=0)
    d_a1 = d_z2 @ p.trunk2_w.T
    d_z1 = d_a1 * (1.0 - a1 * a1)
    grads["trunk1_w"] = x.T @ d_z1
    grads["trunk1_b"] = d_z1.sum(axis=0)
    d_x = d_z1 @ p.trunk1_w.T
    d_fused = d_x[:, d:]
    grads["out_w"] = concat.T @ d_fused
    d_heads = (d_fused @ p.out_w.T).reshape(n, h, dh)
    # value path (K == V) plus the softmax/key path
    d_attn = np.einsum("nhd,nrhd->nhr", d_heads, kvh)
    d_kvh = np.einsum("nhr,nhd->nrhd", attn, d_heads)
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
    d_qh = np.einsum("nhr,nrhd->nhd", d_scores, kvh) * scale
    d_kvh += np.einsum("nhr,nhd->nrhd", d_scores, qh) * scale
    grads["query_w"] = e_t.T @ d_qh.reshape(n, d)
    d_kv = d_kvh.reshape(n, r, d)
    grads["time_w"] = tenc.T @ d_kv[:, 0, :]
    grads["time_b"] = d_kv[:, 0, :].sum(axis=0)
    if m is not None:
        grads["cond_w"] = m.T @ d_kv[:, 1, :]
        grads["cond_b"] = d_kv[:, 1, :].sum(axis=0)
    else:
        grads["cond_w"] = np.zeros_like(p.cond_w)
        grads["cond_b"] = np.zeros_like(p.cond_b)
    return grads


def q_sample(
    e0: np.ndarray, t, eps: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Corrupt a clean embedding to timestep t with given noise."""
    e0 = np.asarray(e0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if e0.shape != eps.shape:
        raise ConfigError(f"e0 shape {e0.shape} != eps shape {eps.shape}")
    t_arr = np.atleast_1d(np.asarray(t))
    _check_t(t_arr, schedule.steps, lowest=0)
    ab = schedule.alpha_bar[t_arr]
    if e0.ndim == 2 and ab.size == e0.shape[0]:
        ab = ab[:, None]
    elif ab.size == 1:
        ab = ab[0]
    return np.sqrt(ab) * e0 + np.sqrt(1.0 - ab) * eps


def _posterior_coeffs(t, schedule: NoiseSchedule):
    """Shared coefficients of the exact posterior mean and of the model mean.

    Both the data posterior and the model posterior scale ``e_t`` and the
    clean estimate with these same two numbers, so the identity between them
    holds bitwise.
    """
    t_arr = np.atleast_1d(np.asarray(t))
    _check_t(t_arr, schedule.steps)
    one_minus_ab = 1.0 - schedule.alpha_bar[t_arr]
    c_noisy = (
        np.sqrt(schedule.alpha[t_arr])
        * (1.0 - schedule.alpha_bar[t_arr - 1])
        / one_minus_ab
    )
    c_clean = (
        np.sqrt(schedule.alpha_bar[t_arr - 1]) * schedule.beta[t_arr] / one_minus_ab
    )
    return c_noisy, c_clean


def elbo_loss_fixed(
    e0: np.ndarray,
    m: np.ndarray | None,
    t: np.ndarray,
    eps: np.ndarray,
    params: DenoiserParams,
    schedule: NoiseSchedule,
) -> tuple[float, dict[str, np.ndarray]]:
    """Reconstruction loss and gradients for fixed timesteps and noise.

    The training objective fixes the clean-embedding parameterization: the
    loss is the mean squared error between the denoiser output and the clean
    embedding, averaged over the batch.
    """
    e0, _ = _as_batch(e0)
    m, _ = _as_batch(m)
    eps, _ = _as_batch(eps)
    t_arr = np.atleast_1d(np.asarray(t))
    _check_t(t_arr, schedule.steps)
    e_t = q_sample(e0, t_arr, eps, schedule)
    pred, cache = _forward(e_t, sinusoidal_encoding(t_arr, params.width), m, params)
    diff = pred - e0
    loss = float(np.mean(diff * diff))
    d_out = 2.0 * diff / diff.size
    grads = _backward(d_out, cache, params)
    return loss, grads


def elbo_loss(
    e0: np.ndarray,
    m: np.ndarray | None,
    params: DenoiserParams,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """Monte Carlo training loss: one uniform timestep and noise per row."""
    e0, _ = _as_batch(e0)
    n = e0.shape[0]
    t = rng.integers(1, schedule.steps + 1, size=n)
    eps = rng.standard_normal(e0.shape)
    return elbo_loss_fixed(e0, m, t, eps, params, schedule)


class DenoisingGenerator:
    """Denoiser parameters, schedule, and server-side optimizer in one bundle."""

    def __init__(
        self, params: DenoiserParams, schedule: NoiseSchedule, server_lr: float
    ) -> None:
        self.params = params
        self.schedule = schedule
        self.opt = Adam(server_lr)

    def train_epochs(
        self,
        e0_rows: np.ndarray,
        conditions: np.ndarray,
        rng: np.random.Generator,
        epochs: int,
        batch_size: int,
    ) -> float:
        """Run SGD epochs over the given rows; returns the mean batch loss."""
        if epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        n = e0_rows.shape[0]
        if n == 0:
            raise ConfigError("cannot train the denoiser on zero rows")
        tensors = self.params.tensors()
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                loss, grads = elbo_loss(
                    e0_rows[batch], conditions[batch], self.params, self.schedule, rng
                )
                losses.append(loss)
                self.opt.step(tensors, grads)
        return float(np.mean(losses))

    def generate(
        self,
        item_ids,
        conditions: np.ndarray | None,
        seed: int,
        mode: str = "deterministic_mean",
        stream_label: str | Sequence[str] = "infer",
    ) -> np.ndarray:
        """Generate embeddings for a list of items, one RNG stream per item.

        Row ``i`` draws from stream ``(seed, label_i, item_i)``, where
        ``stream_label`` is one label for every row or one label per row.
        Per-row streams make each generated row independent of which other
        rows share the chain, so sets of items with their own labels run as
        one chain, while the denoiser itself runs vectorized across rows.
        What no step changes is computed once per chain: the condition key,
        the timestep encodings, the posterior coefficients, and each row's
        noise, drawn from its stream in one call (the same numbers, in the
        same order, as one draw per step), the streams taking turns in one
        re-keyed generator.  Every step runs in one forward workspace and
        updates ``x`` in place.
        """
        if mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {mode!r}")
        item_ids = list(item_ids)
        n = len(item_ids)
        labels = (
            [stream_label] * n if isinstance(stream_label, str) else list(stream_label)
        )
        if len(labels) != n:
            raise ConfigError(f"{n} items but {len(labels)} stream labels")
        p, steps = self.params, self.schedule.steps
        width = p.width
        if n == 0:
            return np.zeros((0, width))
        cond_key = None
        if conditions is not None:
            conditions = np.asarray(conditions, dtype=np.float64)
            if conditions.shape[0] != n:
                raise ConfigError(
                    f"{n} items but {conditions.shape[0]} condition rows"
                )
            cond_key = affine(conditions, p.cond_w, p.cond_b)
        work = _forward_workspace(n, p, cond_key)
        # row k of an item's draws: the start noise, then the step-t noise
        # at k = steps + 1 - t
        draws = 1 if mode == "deterministic_mean" else steps
        noise = np.empty((n, draws, width))
        rng = None
        for i, (label, item) in enumerate(zip(labels, item_ids)):
            rng = rekey(rng, seed, label, item)
            rng.standard_normal(out=noise[i])
        timesteps = np.arange(1, steps + 1)
        encodings = sinusoidal_encoding(timesteps, width)
        c_noisy, c_clean = _posterior_coeffs(timesteps, self.schedule)
        tenc = np.empty((n, width))  # the step's encoding on every row
        x = noise[:, 0].copy()
        for t in range(steps, 0, -1):
            tenc[:] = encodings[t - 1]
            pred, _ = _forward(x, tenc, conditions, p, work)
            # the posterior mean c_noisy·x + c_clean·pred, in place
            np.multiply(x, c_noisy[t - 1], out=x)
            np.multiply(pred, c_clean[t - 1], out=pred)
            np.add(x, pred, out=x)
            if mode == "stochastic" and t > 1:
                sd = math.sqrt(self.schedule.sigma2[t])
                np.multiply(noise[:, steps + 1 - t], sd, out=pred)
                np.add(x, pred, out=x)
        return x
