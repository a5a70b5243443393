"""Two-layer tanh MLP with a hand-written backward pass.

One implementation backs both the feature-to-embedding baseline mapper and
the embedding-to-feature inversion attacker: ``TwoLayerMLP.fit`` trains either
with plain full-batch SGD on mean squared error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import require_tensors
from .errors import ConfigError
from .numerics import affine

HIDDEN = 128  # one capacity for the mapper and for every inversion attacker


@dataclass
class TwoLayerMLP:
    hidden_w: np.ndarray  # (in_dim, hidden)
    hidden_b: np.ndarray  # (hidden,)
    out_w: np.ndarray  # (hidden, out_dim)
    out_b: np.ndarray  # (out_dim,)

    @classmethod
    def init(
        cls, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator
    ) -> "TwoLayerMLP":
        if min(in_dim, hidden, out_dim) < 1:
            raise ConfigError("MLP dimensions must be positive")
        s1 = np.sqrt(2.0 / (in_dim + hidden))
        s2 = np.sqrt(2.0 / (hidden + out_dim))
        return cls(
            hidden_w=s1 * rng.standard_normal((in_dim, hidden)),
            hidden_b=np.zeros(hidden),
            out_w=s2 * rng.standard_normal((hidden, out_dim)),
            out_b=np.zeros(out_dim),
        )

    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        lr: float,
        rng: np.random.Generator,
    ) -> "TwoLayerMLP":
        """A fresh ``HIDDEN``-wide MLP trained to map rows of ``x`` to rows of ``y``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x.shape[0] != y.shape[0]:
            raise ConfigError(f"{x.shape[0]} input rows but {y.shape[0]} target rows")
        if x.shape[0] == 0:
            raise ConfigError("cannot fit an MLP on zero rows")
        mlp = cls.init(x.shape[1], HIDDEN, y.shape[1], rng)
        mlp.sgd_train(x, y, epochs, lr, _trace=False)
        return mlp

    def predict(self, x: np.ndarray) -> np.ndarray:
        h = np.tanh(affine(x, self.hidden_w, self.hidden_b))
        return affine(h, self.out_w, self.out_b)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of the flat buffer ``flat``, one per tensor, in ``tensors()``
        order and shaped like the tensor."""
        views, start = {}, 0
        for name, w in self.tensors().items():
            views[name] = flat[start : start + w.size].reshape(w.shape)
            start += w.size
        return views

    def _workspace(self, n: int, trace: bool = True) -> dict:
        """Every array one SGD epoch on ``n`` rows writes: activations and
        gradients, allocated once per fit and overwritten by every epoch.

        The gradients share one flat buffer, ``grad``, laid out as
        ``_flatten`` lays out the weights, so one call updates them all.
        Without ``trace`` the epochs skip the two calls that form the loss.
        """
        hidden, out_dim = self.out_w.shape
        grad = np.empty(sum(w.size for w in self.tensors().values()))
        return {
            "h": np.empty((n, hidden)),
            "d_z": np.empty((n, hidden)),
            "diff": np.empty((n, out_dim)),
            "d_pred": np.empty((n, out_dim)),
            "grad": grad,
            "grads": self._views(grad),
            "trace": trace,
        }

    def _flatten(self) -> np.ndarray:
        """Copy the weights into one flat buffer and make each tensor a view
        of it; returns the buffer."""
        flat = np.concatenate([w.ravel() for w in self.tensors().values()])
        for name, view in self._views(flat).items():
            setattr(self, name, view)
        return flat

    def loss_and_grads(
        self,
        x: np.ndarray,
        y: np.ndarray,
        work: dict | None = None,
    ) -> tuple[float | None, dict[str, np.ndarray]]:
        """Mean squared error and its gradients for a batch.

        Every array is written into ``work`` (from ``_workspace``), so the
        returned gradients are views of it. Without ``work`` the inputs are
        coerced and a fresh workspace is made; the SGD loop passes its own,
        with inputs it coerced once per fit. The loss is None when ``work``
        keeps no trace.
        """
        if work is None:
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            y = np.atleast_2d(np.asarray(y, dtype=np.float64))
            work = self._workspace(x.shape[0])
        h, d_z = work["h"], work["d_z"]
        diff, d_pred = work["diff"], work["d_pred"]
        grads = work["grads"]
        np.matmul(x, self.hidden_w, out=h)
        np.add(h, self.hidden_b, out=h)
        np.tanh(h, out=h)
        np.matmul(h, self.out_w, out=diff)  # pred, then diff in place
        np.add(diff, self.out_b, out=diff)
        np.subtract(diff, y, out=diff)
        loss = None
        if work["trace"]:
            np.multiply(diff, diff, out=d_pred)
            loss = float(np.mean(d_pred))
        # 2·diff/size: doubling and halving are exact, so dividing by size/2
        # rounds the same quotient
        np.divide(diff, diff.size / 2.0, out=d_pred)
        np.matmul(h.T, d_pred, out=grads["out_w"])
        np.sum(d_pred, axis=0, out=grads["out_b"])
        np.matmul(d_pred, self.out_w.T, out=d_z)  # d_h, then d_z in place
        np.multiply(h, h, out=h)  # 1 - h², over h: its last reader is out_w's grad
        np.subtract(1.0, h, out=h)
        np.multiply(d_z, h, out=d_z)
        np.matmul(x.T, d_z, out=grads["hidden_w"])
        np.sum(d_z, axis=0, out=grads["hidden_b"])
        return loss, grads

    def sgd_train(
        self, x: np.ndarray, y: np.ndarray, epochs: int, lr: float, _trace: bool = True
    ) -> list[float]:
        """Full-batch SGD; returns the per-epoch loss trace.

        Every epoch runs in one workspace, so a fit allocates its arrays once,
        and the weights and gradients each lie in one flat buffer, so a step
        is two calls. ``fit``, which discards the trace, passes ``_trace=False``
        and gets an empty one: the loss is two of an epoch's 19 numpy calls,
        and beside the attack stage's reverse chains each call waits for the
        interpreter lock.
        """
        if epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {epochs}")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        weights = self._flatten()
        work = self._workspace(x.shape[0], _trace)
        grad = work["grad"]
        losses = []
        for _ in range(epochs):
            loss, _ = self.loss_and_grads(x, y, work)
            if _trace:
                losses.append(loss)
            np.multiply(grad, lr, out=grad)
            np.subtract(weights, grad, out=weights)
        return losses

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "hidden_w": self.hidden_w,
            "hidden_b": self.hidden_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "TwoLayerMLP":
        """Weights from checkpoint tensors; DataFormatError names any missing."""
        require_tensors(tensors, [f.name for f in fields(cls)], "MLP")

        def vec(name: str) -> np.ndarray:
            arr = np.asarray(tensors[name], dtype=np.float64)
            return arr.ravel()

        return cls(
            hidden_w=np.asarray(tensors["hidden_w"], dtype=np.float64),
            hidden_b=vec("hidden_b"),
            out_w=np.asarray(tensors["out_w"], dtype=np.float64),
            out_b=vec("out_b"),
        )
