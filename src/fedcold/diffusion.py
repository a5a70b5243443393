"""Conditional denoising diffusion over item embeddings.

The forward process corrupts a clean embedding with a linear low-noise
schedule; the denoiser predicts the clean embedding directly from the noisy
one, the timestep, and an item modality condition fused in through multi-head
attention over a time key and a condition key, computed in closed form.
Reverse sampling walks the posterior means from pure noise down to a
generated embedding. All gradients are hand-written and checked against
central differences in the tests, and training runs through the same loss,
forward and backward pass, in one workspace per batch size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_flat
from .errors import ConfigError
from .numerics import Adam, flat_tensors, rekey

INFERENCE_MODES = ("deterministic_mean", "stochastic")


def _validate_levels(steps: int, scale: float, lo: float, hi: float) -> None:
    if steps < 2:
        raise ConfigError(f"diffusion steps must be >= 2, got {steps}")
    if scale <= 0:
        raise ConfigError(f"noise_scale must be positive, got {scale}")
    if lo <= 0:
        raise ConfigError(f"noise_min must be positive, got {lo}")
    if not lo < hi:
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
    noise_min)) for t = 1..steps, with at least two steps.
    """
    _validate_levels(steps, noise_scale, noise_min, noise_max)
    t = np.arange(1, steps + 1, dtype=np.float64)
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


def _shapes(width: int, cond_dim: int) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape, in the order the tensors lie in the flat buffer."""
    d, d2 = width, 2 * width
    return {
        "time_w": (d, d), "time_b": (d,), "cond_w": (cond_dim, d), "cond_b": (d,),
        "query_w": (d, d), "out_w": (d, d),
        "trunk1_w": (d2, d2), "trunk1_b": (d2,), "trunk2_w": (d2, d2), "trunk2_b": (d2,),
        "trunk3_w": (d2, d), "trunk3_b": (d,),
    }  # fmt: skip


_TENSORS = tuple(_shapes(2, 1))


@dataclass(eq=False)
class DenoiserParams:
    """Learnable tensors of the conditional denoiser.

    The time encoding and the raw condition are projected to the model width
    and stacked as the two attention key/value rows; queries come from the
    noisy embedding, one slice per head. The fused vector is concatenated
    with the noisy embedding and pushed through a two-hidden-layer tanh trunk
    back to the embedding width.

    Every tensor is a view of ``flat``, the one buffer the optimizer steps in
    place. Write into a tensor (``p.time_w[:] = w``); a tensor rebound to
    another array would no longer train, and the optimizer refuses it.
    """

    width: int
    heads: int
    cond_dim: int
    flat: np.ndarray = field(repr=False)
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

    @classmethod
    def zeros(cls, width: int, heads: int, cond_dim: int) -> "DenoiserParams":
        """All-zero parameters, every tensor a view of one new flat buffer."""
        flat, views = flat_tensors(_shapes(width, cond_dim))
        return cls(width, heads, cond_dim, flat, **views)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSORS}

    @classmethod
    def from_tensors(
        cls, width: int, heads: int, cond_dim: int, tensors: dict[str, np.ndarray]
    ) -> "DenoiserParams":
        """Parameters from checkpoint tensors, copied into a new flat buffer;
        DataFormatError names any missing or misshapen."""
        flat, views = load_flat(_shapes(width, cond_dim), tensors, "denoiser")
        return cls(width, heads, cond_dim, flat, **views)


def init_denoiser(
    width: int, heads: int, cond_dim: int, rng: np.random.Generator
) -> DenoiserParams:
    """Xavier-normal weights, drawn in place in ``_TENSORS`` order, and zero
    biases."""
    params = DenoiserParams.zeros(width, heads, cond_dim)
    for name, w in params.tensors().items():
        if w.ndim == 2:
            rng.standard_normal(out=w)
            w *= math.sqrt(2.0 / (w.shape[0] + w.shape[1]))
    return params


def sinusoidal_encoding(t, width: int) -> np.ndarray:
    """Fixed sin/cos timestep encoding with geometric frequency spacing; the
    width is even (``RunConfig.validate``)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))[:, None]
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def step_keys(p: DenoiserParams, encodings: np.ndarray, out: np.ndarray | None = None):
    """The time keys of every step, ``encodings @ time_w + time_b``.

    ``encodings`` holds the timestep encodings of steps 1..steps, so row
    ``t - 1`` is step ``t``'s key. A training step gathers its rows' keys from
    this table and a reverse-chain step broadcasts its step's row, in place of
    one projection per row.
    """
    out = np.matmul(encodings, p.time_w, out=out)
    np.add(out, p.time_b, out=out)
    return out


@dataclass(eq=False)
class _Workspace:
    """Every array a pass over ``n`` rows writes, allocated once and
    overwritten by every pass; ``_forward`` returns it as the cache that
    ``_backward`` reads.

    A reverse chain makes one with its condition key, which does not change
    from step to step, and runs every step in it. A training call makes one
    per batch size (``train=True``), with the arrays that a step's loss and
    backward pass write as well; its batch sizes share the arrays that do not
    depend on the row count. Without a condition, ``diff`` and ``a1`` stay
    zero and ``a0`` one.
    """

    cond_key: np.ndarray | None  # (n, d): the condition key k1
    diff: np.ndarray  # (n, d): k1 − k0
    q: np.ndarray  # (n, d): the heads' queries side by side
    a0: np.ndarray  # (n, heads): each head's weight on k0
    a1: np.ndarray  # (n, heads): each head's weight on k1
    heads: np.ndarray  # (n, d): the heads' outputs side by side
    x: np.ndarray  # [e_t | fused]
    h1: np.ndarray
    h2: np.ndarray
    out: np.ndarray
    e_t: np.ndarray | None = None  # the last forward's noisy rows
    m: np.ndarray | None = None  # and conditions
    # a training step's
    e0: np.ndarray | None = None
    time_key: np.ndarray | None = None
    encodings: np.ndarray | None = None  # of steps 1..steps
    tenc: np.ndarray | None = None  # of the rows
    keys: np.ndarray | None = None
    dz: np.ndarray | None = None
    grad: np.ndarray | None = None
    grads: dict[str, np.ndarray] | None = None  # views of grad
    scratch: np.ndarray | None = None  # Adam's


def _workspace(
    n: int,
    p: DenoiserParams,
    cond_key: np.ndarray | None,
    steps: int = 0,
    train: bool = False,
    share: _Workspace | None = None,
) -> _Workspace:
    """A workspace for ``n`` rows holding ``cond_key`` (``m @ cond_w +
    cond_b``; None without a condition). Every step of a training workspace,
    for a schedule of ``steps`` steps, writes its own condition key; pass any
    array of the key's shape. A training workspace takes its step encodings,
    step keys, flat gradient and Adam scratch from ``share``, another training
    workspace of the same model and schedule, when given."""
    d, h = p.width, p.heads
    work = _Workspace(
        cond_key=cond_key,
        diff=np.zeros((n, d)),
        q=np.empty((n, d)),
        a0=np.ones((n, h)),
        a1=np.zeros((n, h)),
        heads=np.empty((n, d)),
        x=np.empty((n, 2 * d)),
        h1=np.empty((n, 2 * d)),
        h2=np.empty((n, 2 * d)),
        out=np.empty((n, d)),
    )
    if train:
        work.e_t, work.e0, work.time_key, work.tenc = np.empty((4, n, d))
        work.m = np.empty((n, p.cond_dim))
        work.dz = np.empty((n, 2 * d))
        if share is None:
            work.encodings = sinusoidal_encoding(np.arange(1, steps + 1), d)
            work.keys = np.empty((steps, d))
            work.grad, work.grads = flat_tensors(_shapes(p.width, p.cond_dim))
            work.scratch = np.empty(p.flat.size)
        else:
            work.encodings, work.keys = share.encodings, share.keys
            work.grad, work.grads = share.grad, share.grads
            work.scratch = share.scratch
    return work


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two contiguous (n, d) arrays that an (n, 2d) array's memory holds."""
    first, second = a.reshape(2, -1)
    return first.reshape(a.shape[0], -1), second.reshape(a.shape[0], -1)


def _attention(
    q: np.ndarray,
    time_key: np.ndarray,
    cond_key: np.ndarray | None,
    scale: float,
    diff: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    heads: np.ndarray,
) -> None:
    """Each head's softmax attention over the time key k0 and the condition
    key k1, which are its values too, in closed form.

    A softmax over two scores is the logistic of their gap, so the weight on
    k1 is ``a1 = σ(scale·q·(k1 − k0))``, the weight on k0 is ``a0 = 1 − a1``
    and the output is ``k0 + a1·(k1 − k0)``. With ``z = exp(−|gap|)``, never
    above 1, the weights are 1 and z over 1 + z, the larger on the higher
    score: no ``exp`` overflows, and each weight keeps its relative
    precision however small. Writes ``diff = k1 − k0``, ``a0`` and ``a1``
    (n, heads) and ``heads``; ``time_key`` may be one row for every row.
    Without a condition (``cond_key`` None) ``diff`` and ``a1`` must hold
    zeros and ``a0`` ones: the one key takes all the weight, and ``heads``
    is the time key.
    """
    n, h = a1.shape
    if cond_key is not None:
        np.subtract(cond_key, time_key, out=diff)
        np.multiply(q, diff, out=heads)  # per-dimension products
        gap = np.sum(heads.reshape(n, h, -1), axis=-1)
        gap *= scale
        z = np.exp(-np.abs(gap))
        upper = gap >= 0
        np.divide(np.where(upper, 1.0, z), 1.0 + z, out=a1)
        np.divide(np.where(upper, z, 1.0), 1.0 + z, out=a0)
    np.multiply(diff.reshape(n, h, -1), a1[:, :, None], out=heads.reshape(n, h, -1))
    np.add(heads, time_key, out=heads)


def _attention_backward(
    d_heads: np.ndarray,
    q: np.ndarray,
    diff: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    scale: float,
    d_q: np.ndarray,
    d_k1: np.ndarray,
    d_k0: np.ndarray,
) -> None:
    """Gradients of ``_attention`` for the heads' gradient ``d_heads``,
    written into the contiguous (n, d) arrays ``d_q``, ``d_k1`` and ``d_k0``.

    With ``d_s = (d_heads·diff)·a0·a1·scale`` per head, the gap's gradient,
    ``d_q = d_s·diff``, ``d_k1 = a1·d_heads + d_s·q`` (through the weight
    and through the gap) and ``d_k0 = d_heads − d_k1``. Without a condition
    ``d_q`` and ``d_k1`` are zero and ``d_k0`` is ``d_heads``.
    """
    n, h = a1.shape
    np.multiply(d_heads, diff, out=d_q)  # per-dimension products
    d_s = np.sum(d_q.reshape(n, h, -1), axis=-1)
    d_s *= a0 * a1 * scale
    np.multiply(q.reshape(n, h, -1), d_s[:, :, None], out=d_k1.reshape(n, h, -1))
    np.multiply(d_heads.reshape(n, h, -1), a1[:, :, None], out=d_k0.reshape(n, h, -1))
    np.add(d_k1, d_k0, out=d_k1)
    np.multiply(diff.reshape(n, h, -1), d_s[:, :, None], out=d_q.reshape(n, h, -1))
    np.subtract(d_heads, d_k1, out=d_k0)


def _forward(
    e_t: np.ndarray,
    time_key: np.ndarray,
    m: np.ndarray | None,
    p: DenoiserParams,
    work: _Workspace,
) -> tuple[np.ndarray, _Workspace]:
    """Denoiser forward pass: the clean-embedding estimate and the cache.

    ``time_key`` holds each row's time key, or one key for every row: rows of
    ``step_keys``. Every array is written into ``work`` (from ``_workspace``,
    with the condition key of ``m`` in it), which is the cache, so the
    estimate is a view of it.
    """
    d = p.width
    work.e_t, work.m = e_t, m
    x, h1, h2, out = work.x, work.h1, work.h2, work.out
    q = np.matmul(e_t, p.query_w, out=work.q)
    scale = 1.0 / math.sqrt(p.width // p.heads)
    _attention(q, time_key, work.cond_key, scale, work.diff, work.a0, work.a1, work.heads)
    x[:, :d] = e_t  # x = [e_t | fused]
    np.matmul(work.heads, p.out_w, out=x[:, d:])
    np.matmul(x, p.trunk1_w, out=h1)
    np.add(h1, p.trunk1_b, out=h1)
    np.tanh(h1, out=h1)
    np.matmul(h1, p.trunk2_w, out=h2)
    np.add(h2, p.trunk2_b, out=h2)
    np.tanh(h2, out=h2)
    np.matmul(h2, p.trunk3_w, out=out)
    np.add(out, p.trunk3_b, out=out)
    return out, work


def _backward(
    d_out: np.ndarray, cache: _Workspace, tenc: np.ndarray, p: DenoiserParams
) -> dict[str, np.ndarray]:
    """Every tensor's gradient, given the output gradient ``d_out`` and the
    encodings ``tenc`` that the rows' time keys were projected from.

    ``cache`` is a training workspace, and the gradients are views of its
    flat gradient. The pass overwrites the cache's heads, ``x``, ``h1`` and
    ``h2`` once it has read them for the last time, so it runs once per
    forward.
    """
    x, h1, h2 = cache.x, cache.h1, cache.h2
    d = p.width
    grads, dz = cache.grads, cache.dz
    np.matmul(h2.T, d_out, out=grads["trunk3_w"])
    np.sum(d_out, axis=0, out=grads["trunk3_b"])
    np.matmul(d_out, p.trunk3_w.T, out=dz)  # d_h2
    np.multiply(h2, h2, out=h2)  # 1 - h2², over h2: its last reader was above
    np.subtract(1.0, h2, out=h2)
    np.multiply(dz, h2, out=dz)  # d_z2
    np.matmul(h1.T, dz, out=grads["trunk2_w"])
    np.sum(dz, axis=0, out=grads["trunk2_b"])
    np.matmul(dz, p.trunk2_w.T, out=h2)  # d_h1, over h2
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    np.multiply(h2, h1, out=h2)  # d_z1
    np.matmul(x.T, h2, out=grads["trunk1_w"])
    np.sum(h2, axis=0, out=grads["trunk1_b"])
    np.matmul(h2, p.trunk1_w.T, out=dz)  # d_x
    d_fused = dz[:, d:]
    np.matmul(cache.heads.T, d_fused, out=grads["out_w"])
    d_heads = np.matmul(d_fused, p.out_w.T, out=cache.heads)
    # x and h1 are free from here
    (d_q, d_k1), (d_k0, _) = _halves(h1), _halves(x)
    scale = 1.0 / math.sqrt(p.width // p.heads)
    _attention_backward(
        d_heads, cache.q, cache.diff, cache.a0, cache.a1, scale, d_q, d_k1, d_k0
    )
    np.matmul(cache.e_t.T, d_q, out=grads["query_w"])
    np.matmul(tenc.T, d_k0, out=grads["time_w"])
    np.sum(d_k0, axis=0, out=grads["time_b"])
    np.matmul(cache.m.T, d_k1, out=grads["cond_w"])
    np.sum(d_k1, axis=0, out=grads["cond_b"])
    return grads


def q_sample(
    e0: np.ndarray,
    t,
    eps: np.ndarray,
    schedule: NoiseSchedule,
    out=None,
    scratch=None,
) -> np.ndarray:
    """Corrupt a clean embedding to timestep t with given noise.

    ``t`` is one timestep for every row, or one per row of a 2-D ``e0``.
    With ``out`` (shaped like ``e0``; ``eps`` itself may be passed) the
    result is written there, and with ``scratch`` (shaped like ``e0``, apart
    from ``e0``, ``eps`` and ``out``) the scaled clean embedding too.
    """
    t_arr = np.atleast_1d(np.asarray(t))
    ab = schedule.alpha_bar[t_arr]
    if e0.ndim == 2 and ab.size == e0.shape[0]:
        ab = ab[:, None]
    # √(1 - ᾱ)·eps first, so that eps may be out: the sum is the same
    out = np.multiply(np.sqrt(1.0 - ab), eps, out=out)
    out += np.multiply(np.sqrt(ab), e0, out=scratch)
    return out


def _posterior_coeffs(t, schedule: NoiseSchedule):
    """Shared coefficients of the exact posterior mean and of the model mean.

    Both the data posterior and the model posterior scale ``e_t`` and the
    clean estimate with these same two numbers, so the identity between them
    holds bitwise.
    """
    t_arr = np.atleast_1d(np.asarray(t))
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
    m: np.ndarray,
    t: np.ndarray,
    eps: np.ndarray,
    params: DenoiserParams,
    schedule: NoiseSchedule,
    work: _Workspace,
) -> tuple[float, dict[str, np.ndarray]]:
    """Reconstruction loss and gradients for fixed timesteps and noise.

    The training objective fixes the clean-embedding parameterization: the
    loss is the mean squared error between the denoiser output and the clean
    embedding, averaged over the batch. Training always has a condition
    ``m``; only generation runs without one. Every array is written into
    ``work`` (from ``_workspace`` with ``train=True``, for ``schedule``'s
    steps and holding a condition key array), so the gradients are views of
    its flat gradient; ``eps`` may be its ``e_t``.
    """
    t_arr = np.atleast_1d(np.asarray(t))
    p = params
    # the heads are written before they are read in the forward pass
    e_t = q_sample(e0, t_arr, eps, schedule, out=work.e_t, scratch=work.heads)
    rows = t_arr - 1
    keys = step_keys(p, work.encodings, out=work.keys)
    np.take(keys, rows, axis=0, out=work.time_key, mode="clip")
    np.take(work.encodings, rows, axis=0, out=work.tenc, mode="clip")
    np.matmul(m, p.cond_w, out=work.cond_key)
    np.add(work.cond_key, p.cond_b, out=work.cond_key)
    pred, _ = _forward(e_t, work.time_key, m, p, work)
    diff = np.subtract(pred, e0, out=pred)
    square = _halves(work.dz)[0]
    np.multiply(diff, diff, out=square)
    loss = float(np.mean(square))
    # 2·diff/size: doubling and halving are exact, so dividing by size/2
    # rounds the same quotient
    d_out = np.divide(diff, diff.size / 2.0, out=diff)
    grads = _backward(d_out, work, work.tenc, p)
    return loss, grads


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
        """Run SGD epochs over the given rows; returns the mean batch loss.

        Each batch size (the full batches and the last, shorter one) trains
        in one workspace, which the call frees when it returns; the two share
        one flat gradient, one Adam scratch and the step-key table. A step
        gathers its rows into its workspace, draws each row's uniform
        timestep and then the rows' noise (into the workspace), and writes
        its gradient into the flat gradient, which one Adam step applies to
        the flat parameters.
        """
        n = e0_rows.shape[0]
        if n == 0:
            raise ConfigError("cannot train the denoiser on zero rows")
        p, steps = self.params, self.schedule.steps
        works: dict[int, _Workspace] = {}
        shared = None
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                work = works.get(batch.size)
                if work is None:
                    cond_key = np.empty((batch.size, p.width))
                    work = _workspace(
                        batch.size, p, cond_key, steps, train=True, share=shared
                    )
                    works[batch.size] = shared = work
                np.take(e0_rows, batch, axis=0, out=work.e0, mode="clip")
                np.take(conditions, batch, axis=0, out=work.m, mode="clip")
                t = rng.integers(1, steps + 1, size=batch.size)
                eps = rng.standard_normal(out=work.e_t)
                loss, _ = elbo_loss_fixed(
                    work.e0, work.m, t, eps, p, self.schedule, work
                )
                losses.append(loss)
                self.opt.step(p.flat, p.tensors(), work.grad, work.scratch)
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
        That independence is bitwise only from two rows up: numpy takes a
        one-row product through gemv, so a one-row chain matches its row in a
        larger chain to within rounding, not in every bit.
        What no step changes is computed once per chain: the condition key,
        the step-key table, the posterior coefficients, and each row's
        noise, drawn from its stream in one call (the same numbers, in the
        same order, as one draw per step), the streams taking turns in one
        re-keyed generator.  Every step runs in one workspace and
        updates ``x`` in place.
        """
        item_ids = list(item_ids)
        n = len(item_ids)
        labels = (
            [stream_label] * n if isinstance(stream_label, str) else list(stream_label)
        )
        p, steps = self.params, self.schedule.steps
        width = p.width
        if n == 0:
            return np.zeros((0, width))
        cond_key = None
        if conditions is not None:
            cond_key = conditions @ p.cond_w + p.cond_b
        work = _workspace(n, p, cond_key)
        # row k of an item's draws: the start noise, then the step-t noise
        # at k = steps + 1 - t
        draws = 1 if mode == "deterministic_mean" else steps
        noise = np.empty((n, draws, width))
        rng = None
        for i, (label, item) in enumerate(zip(labels, item_ids)):
            rng = rekey(rng, seed, label, item)
            rng.standard_normal(out=noise[i])
        timesteps = np.arange(1, steps + 1)
        keys = step_keys(p, sinusoidal_encoding(timesteps, width))
        c_noisy, c_clean = _posterior_coeffs(timesteps, self.schedule)
        x = noise[:, 0].copy()
        for t in range(steps, 0, -1):
            pred, _ = _forward(x, keys[t - 1], conditions, p, work)
            # the posterior mean c_noisy·x + c_clean·pred, in place
            np.multiply(x, c_noisy[t - 1], out=x)
            np.multiply(pred, c_clean[t - 1], out=pred)
            np.add(x, pred, out=x)
            if mode == "stochastic" and t > 1:
                sd = math.sqrt(self.schedule.sigma2[t])
                np.multiply(noise[:, steps + 1 - t], sd, out=pred)
                np.add(x, pred, out=x)
        return x
