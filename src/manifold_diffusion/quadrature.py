"""Gauss-Hermite quadrature for standard-normal expectations.

All Gaussian expectations in this package reduce to

    E_{u~N(0,1)}[f(u)] = (1/sqrt(pi)) * sum_i w_i f(sqrt(2) x_i),

with (x_i, w_i) the physicists' Gauss-Hermite nodes/weights.  The helpers
below return nodes already rescaled so that ``sum(w * f(z))`` approximates
the expectation directly, plus a tensor-grid variant for nested integrals.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite


@lru_cache(maxsize=64)
def _cached_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's Golub-Welsch/asymptotic routine stays stable at high orders
    x, w = roots_hermite(n)
    z = np.sqrt(2.0) * x
    w = w / np.sqrt(np.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def std_normal_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with sum(w * f(z)) ~= E_{u~N(0,1)} f(u)."""
    if n < 2:
        raise ValueError("quadrature order must be >= 2")
    return _cached_nodes(int(n))


def std_normal_grid(n: int, dims: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Tensor grid for a `dims`-dimensional standard-normal expectation.

    Returns flattened coordinate arrays ``[Z1, ..., Zdims]`` (each of length
    n**dims) and the matching product weights.
    """
    z, w = std_normal_nodes(n)
    grids = np.meshgrid(*([z] * dims), indexing="ij")
    weights = np.ones(1)
    for _ in range(dims):
        weights = np.multiply.outer(weights, w)
    return [g.ravel() for g in grids], weights.ravel()

