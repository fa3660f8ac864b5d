"""Component-wise activations warping the latent hyperplane.

An activation is a scalar map applied entry-wise to F xi / sqrt(p).  Only
measurable functions of at most polynomial growth are admitted, so that all
Gaussian expectations built on top of them exist.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_ODD_CHECK_GRID = np.linspace(-10.0, 10.0, 1000)
_GROWTH_GRID = np.linspace(-60.0, 60.0, 1201)
# generous polynomial envelope; anything growing faster than y^8 is suspect
_GROWTH_DEGREE = 8


@dataclass(frozen=True)
class Activation:
    """Scalar activation phi with metadata used by the theory modules."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    is_odd: bool

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))


def _check_growth(fn: Callable) -> None:
    vals = np.asarray(fn(_GROWTH_GRID), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("activation must be finite on the real line")
    envelope = 1.0 + np.abs(_GROWTH_GRID) ** _GROWTH_DEGREE
    ratio = np.abs(vals) / envelope
    if ratio.max() > 1e6:
        raise ValueError("activation exceeds polynomial growth bound")


def _check_odd(fn: Callable) -> None:
    y = _ODD_CHECK_GRID
    if np.abs(fn(y) + fn(-y)).max() > 1e-12:
        raise ValueError("activation declared odd but phi(-y) != -phi(y)")


# (fn, is_odd) of each named activation; one function object per name, so
# that two activations of the same name compare and hash equal
_BUILTIN = {
    "linear": (lambda y: y, True),
    "tanh": (np.tanh, True),
    "relu": (lambda y: np.maximum(y, 0.0), False),
    "sigmoid": (lambda y: 1.0 / (1.0 + np.exp(-y)), False),
}


def make_activation(kind: str, fn: Callable | None = None,
                    is_odd: bool | None = None) -> Activation:
    """Build one of the named activations, or register a custom one.

    Custom activations are checked for polynomial growth and, when flagged
    odd, for numerical oddness on a grid.
    """
    if kind in _BUILTIN:
        f, odd = _BUILTIN[kind]
        return Activation(kind=kind, fn=f, is_odd=odd)
    if kind != "custom":
        raise ValueError(f"unknown activation kind: {kind!r}")
    if fn is None:
        raise ValueError("custom activation requires a callable")
    _check_growth(fn)
    odd = bool(is_odd)
    if odd:
        _check_odd(fn)
    return Activation(kind="custom", fn=fn, is_odd=odd)
