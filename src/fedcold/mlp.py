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
        mlp.sgd_train(x, y, epochs, lr)
        return mlp

    def predict(self, x: np.ndarray) -> np.ndarray:
        h = np.tanh(affine(x, self.hidden_w, self.hidden_b))
        return affine(h, self.out_w, self.out_b)

    def loss_and_grads(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared error and its gradients for a batch."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        h = np.tanh(x @ self.hidden_w + self.hidden_b)
        pred = h @ self.out_w + self.out_b
        diff = pred - y
        loss = float(np.mean(diff * diff))
        d_pred = 2.0 * diff / diff.size
        grads = {
            "out_w": h.T @ d_pred,
            "out_b": np.sum(d_pred, axis=0),
        }
        d_h = d_pred @ self.out_w.T
        d_z = d_h * (1.0 - h * h)
        grads["hidden_w"] = x.T @ d_z
        grads["hidden_b"] = np.sum(d_z, axis=0)
        return loss, grads

    def sgd_train(
        self, x: np.ndarray, y: np.ndarray, epochs: int, lr: float
    ) -> list[float]:
        """Full-batch SGD; returns the per-epoch loss trace."""
        if epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {epochs}")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        losses = []
        for _ in range(epochs):
            loss, grads = self.loss_and_grads(x, y)
            losses.append(loss)
            self.hidden_w -= lr * grads["hidden_w"]
            self.hidden_b -= lr * grads["hidden_b"]
            self.out_w -= lr * grads["out_w"]
            self.out_b -= lr * grads["out_b"]
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
