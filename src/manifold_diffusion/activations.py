"""Component-wise activations warping the latent hyperplane.

An activation is a scalar map applied entry-wise to F xi / sqrt(p): one of
linear, tanh, relu and sigmoid, each of at most polynomial growth, so that
all Gaussian expectations built on top of them exist.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    """Scalar activation phi with metadata used by the theory modules."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # phi(-x) = 2 phi(0) - phi(x): odd up to a constant shift, declared per
    # activation (not detected numerically); `collapse.psi_big` then needs
    # only half of its Gauss-Hermite grid
    point_symmetric: bool

    @property
    def is_odd(self) -> bool:
        """phi(-x) = -phi(x): point symmetric with phi(0) = 0."""
        return self.point_symmetric and float(self(0.0)) == 0.0

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))


def _sigmoid(y):
    # below y = -709.78 exp(-y) overflows, and 1 / (1 + inf) = 0 is the limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-y))


# (fn, point_symmetric) of each named activation; one function object per
# name, so that two activations of the same name compare and hash equal
_BUILTIN = {
    "linear": (lambda y: y, True),
    "tanh": (np.tanh, True),
    "relu": (lambda y: np.maximum(y, 0.0), False),
    "sigmoid": (_sigmoid, True),
}


def make_activation(kind: str) -> Activation:
    """Build one of the named activations."""
    if kind not in _BUILTIN:
        raise ValueError(f"unknown activation kind: {kind!r}")
    f, symmetric = _BUILTIN[kind]
    return Activation(kind=kind, fn=f, point_symmetric=symmetric)
