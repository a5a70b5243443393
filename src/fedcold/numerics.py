"""Dense linear algebra, seeded RNG streams, a stable sigmoid, flat parameter
buffers and Adam.

All math runs on float64 numpy arrays; checkpoints quantize to float32 on save
only. There is no autodiff engine: every learnable layer in this package ships
a hand-written backward pass, which the tests check against central
differences.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ConfigError, NumericsError


def _stream_key(seed: int, path: tuple[int | str, ...]) -> np.ndarray:
    """The Philox key of stream ``(seed, path)``: the seed, then the path's
    BLAKE2b digest."""
    h = hashlib.blake2b(digest_size=8)
    for part in path:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    sub = int.from_bytes(h.digest(), "little")
    return np.array([seed, sub], dtype=np.uint64)


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
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, path)))


_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def rekey(
    rng: np.random.Generator | None, seed: int, *path: int | str
) -> np.random.Generator:
    """``rng`` set in place to a fresh ``stream_rng(seed, *path)``.

    Building a Philox generator costs about four times as much as setting
    the state of one that exists, so a caller that uses streams one after
    another keeps one generator and re-keys it. The whole state is set: the
    counter, the key, the output buffer and the cached half word, so what
    the generator drew before leaves no trace. ``None`` builds the generator.
    """
    if rng is None:
        return stream_rng(seed, *path)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _stream_key(seed, path)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With ``z = exp(-|x|)``, never above 1, it is ``1 / (1 + z)`` for
    ``x >= 0`` and ``z / (1 + z)`` below; both branches come from one ``exp``
    over the whole array.
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def flat_tensors(
    shapes: dict[str, tuple[int, ...]],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed flat float64 buffer and one view of it per name, laid out in
    ``shapes`` order and each shaped as given, so one call over the buffer
    updates every tensor."""
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return flat, views


def assert_finite(name: str, *arrays: np.ndarray) -> None:
    """Raise NumericsError if any array contains NaN or infinity."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericsError(f"non-finite values in {name}")


# Adam's moment decays and denominator offset (Kingma & Ba 2015's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over one flat parameter buffer, updating it in place.

    Used for the server-side denoiser; the federated client updates and the
    baseline mapper/attacker deliberately stay on plain SGD. Every update is
    elementwise, so one pass over the flat buffer rounds each weight exactly
    as a pass per tensor would. The moments are allocated at the first step.
    """

    def __init__(self, lr: float) -> None:
        self.lr = lr
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(
        self,
        weights: np.ndarray,
        views: dict[str, np.ndarray],
        grad: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """One step of ``weights`` against ``grad``, both flat.

        ``views`` names the tensors that the caller reads its model from; each
        must be a view of ``weights``. One rebound to a copy (``p.w = ...``
        where ``p.w[:] = ...`` was meant) would never see a step, so the step
        refuses it. ``grad`` and ``scratch``, shaped like ``weights``, are
        overwritten.
        """
        for name, view in views.items():
            if view.base is not weights:
                raise ConfigError(
                    f"parameter {name!r} is not a view of the optimizer's buffer; "
                    f"write into it with [...] = instead of rebinding it"
                )
        if self._m is None:
            self._m = np.zeros_like(weights)
            self._v = np.zeros_like(weights)
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v = self._m, self._v
        m *= b1
        np.multiply(grad, 1 - b1, out=scratch)
        m += scratch
        v *= b2
        np.multiply(grad, 1 - b2, out=scratch)  # (1 - b2)·g·g, in that order
        scratch *= grad
        v += scratch
        np.divide(v, 1 - b2**self.t, out=scratch)  # the denominator
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, 1 - b1**self.t, out=grad)  # the numerator, lr·m̂
        np.multiply(grad, self.lr, out=grad)
        np.divide(grad, scratch, out=grad)
        weights -= grad
