"""Two-layer tanh MLP with a hand-written backward pass.

One implementation backs both the feature-to-embedding baseline mapper and
the embedding-to-feature inversion attacker: ``TwoLayerMLP.fit`` trains either
with plain full-batch SGD on mean squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import load_flat
from .numerics import flat_tensors

HIDDEN = 128  # one capacity for the mapper and for every inversion attacker


def _shapes(in_dim: int, hidden: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape, in the order the tensors lie in a flat buffer."""
    return {
        "hidden_w": (in_dim, hidden),
        "hidden_b": (hidden,),
        "out_w": (hidden, out_dim),
        "out_b": (out_dim,),
    }


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
        mlp = cls.init(x.shape[1], HIDDEN, y.shape[1], rng)
        mlp.sgd_train(x, y, epochs, lr)
        return mlp

    def predict(self, x: np.ndarray) -> np.ndarray:
        h = np.tanh(x @ self.hidden_w + self.hidden_b)
        return h @ self.out_w + self.out_b

    def _workspace(self, n: int) -> dict:
        """Every array one SGD epoch on ``n`` rows writes: activations and
        gradients, allocated once per fit and overwritten by every epoch.

        The gradients share one flat buffer, ``grad``, laid out as
        ``_flatten`` lays out the weights, so one call updates them all.
        """
        hidden, out_dim = self.out_w.shape
        grad, grads = flat_tensors(_shapes(*self.hidden_w.shape, out_dim))
        return {
            "h": np.empty((n, hidden)),
            "d_z": np.empty((n, hidden)),
            "diff": np.empty((n, out_dim)),
            "d_pred": np.empty((n, out_dim)),
            "grad": grad,
            "grads": grads,
        }

    def _flatten(self) -> np.ndarray:
        """Copy the weights into one flat buffer and make each tensor a view
        of it; returns the buffer.

        SGD steps the buffer, so it is made afresh by every ``sgd_train``: a
        model held over one buffer from construction would lose it to
        ``copy.deepcopy``, which copies each view into an array of its own.
        """
        flat, views = flat_tensors(_shapes(*self.hidden_w.shape, self.out_w.shape[1]))
        for name, view in views.items():
            view[...] = getattr(self, name)
            setattr(self, name, view)
        return flat

    def _gradients(self, x: np.ndarray, y: np.ndarray, work: dict) -> None:
        """The mean squared error's gradients for a batch, written into
        ``work`` (from ``_workspace``) with the residual ``work["diff"]``."""
        h, d_z = work["h"], work["d_z"]
        diff, d_pred = work["diff"], work["d_pred"]
        grads = work["grads"]
        np.matmul(x, self.hidden_w, out=h)
        np.add(h, self.hidden_b, out=h)
        np.tanh(h, out=h)
        np.matmul(h, self.out_w, out=diff)  # pred, then diff in place
        np.add(diff, self.out_b, out=diff)
        np.subtract(diff, y, out=diff)
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

    def sgd_train(self, x: np.ndarray, y: np.ndarray, epochs: int, lr: float) -> None:
        """Full-batch SGD.

        Every epoch runs in one workspace, so a fit allocates its arrays once,
        and the weights and gradients each lie in one flat buffer, so a step
        is two calls. No epoch forms the loss: beside the attack stage's
        reverse chains each numpy call waits for the interpreter lock.
        """
        weights = self._flatten()
        work = self._workspace(x.shape[0])
        grad = work["grad"]
        for _ in range(epochs):
            self._gradients(x, y, work)
            np.multiply(grad, lr, out=grad)
            np.subtract(weights, grad, out=weights)

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "hidden_w": self.hidden_w,
            "hidden_b": self.hidden_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "TwoLayerMLP":
        """Weights from checkpoint tensors, copied into one flat buffer;
        DataFormatError names any missing or misshapen.

        The dimensions are read from the two weight matrices; a tensor that
        is missing reads as empty here and is named by ``load_flat``.
        """
        in_dim, hidden = np.atleast_2d(tensors.get("hidden_w", ())).shape[:2]
        out_dim = np.atleast_2d(tensors.get("out_w", ())).shape[1]
        _, views = load_flat(_shapes(in_dim, hidden, out_dim), tensors, "MLP")
        return cls(**views)
