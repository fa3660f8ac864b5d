"""Gauss-Hermite quadrature for standard-normal expectations.

All Gaussian expectations in this package reduce to

    E_{u~N(0,1)}[f(u)] ~= sum_i w_i f(z_i),

with (z_i, w_i) the Gauss rule of the weight exp(-u^2 / 2) / sqrt(2 pi):
z_i the roots of the probabilists' Hermite polynomial He_n and w_i the
Christoffel numbers.  The helpers below return that rule, its tensor grid
for nested integrals, and the moments of f(mean + sqrt(var) u) on it.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .model import check_range

# Halley's iteration stops once its step is below 1e-8: its error is then
# cubic in the step, far under one ulp of the root
_HALLEY_STEP = 1e-8
_HALLEY_MAXIT = 10
# the recurrence is rescaled every this many steps; in between the pair
# grows by at most (|z| + n)^16, far from overflow at any feasible order
_RESCALE_EVERY = 16


def _initial_roots(n: int) -> np.ndarray:
    """Asymptotic guesses for the n // 2 positive roots of He_n, ascending.

    Tricomi's formula in the bulk and Gatteschi's near the largest root,
    as in Townsend, Trogdon & Olver 2016, "Fast computation of Gauss
    quadrature nodes and weights on the whole real line"; the Airy zeros
    a_j come from their large-j series (DLMF 9.9.6, 9.9.18), and the index
    where one formula hands over to the other is the linear fit that
    scipy's ``roots_hermite`` uses.  Both give the squared physicists'
    root x^2; z = sqrt(2) x.
    """
    m = n // 2
    k = np.arange(1, m + 1, dtype=float)
    nu = 2.0 * n + 1.0
    c = (4.0 * m - 4.0 * k + 3.0) * np.pi / nu
    tau = np.full(m, 0.5 * np.pi)
    for _ in range(6):  # tau - sin(tau) = c
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sig = np.cos(0.5 * tau) ** 2
    tricomi = nu * sig - (1.25 / (1.0 - sig) ** 2 - 1.0 / (1.0 - sig)
                          - 0.25) / (3.0 * nu)
    t = 0.375 * np.pi * (4.0 * (m + 1 - k) - 1.0)
    a = -t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 * t ** -2 - 5.0 / 36.0 * t ** -4)
    gatteschi = (nu + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0)
                 + 0.2 * 2.0 ** (4.0 / 3.0) * a ** 2 * nu ** (-1.0 / 3.0)
                 + (9.0 / 140.0 - 12.0 / 175.0 * a ** 3) / nu
                 + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4)
                 * 2.0 ** (2.0 / 3.0) * nu ** (-5.0 / 3.0)
                 - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a ** 2)
                 * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0))
    turnover = round(0.49082003 * n - 4.37859653)
    return np.sqrt(2.0 * np.where(k <= turnover + 1, tricomi, gatteschi))


def _hermite_pair(n: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """He_n(z) and He_{n-1}(z), both times 2^-exponent.

    He_{k+1} = z He_k - k He_{k-1}; He_n reaches exp(n) sqrt(n!) at the
    largest root, so every `_RESCALE_EVERY` steps both terms are divided by
    the power of two of the larger one, which is exact, and its exponent is
    added to ``exponent``.
    """
    prev, cur = np.zeros_like(z), np.ones_like(z)
    exponent = np.zeros(z.shape, dtype=int)
    for start in range(0, n, _RESCALE_EVERY):
        for k in range(start, min(start + _RESCALE_EVERY, n)):
            prev, cur = cur, z * cur - k * prev
        e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
        prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
        exponent += e
    return cur, prev, exponent


@lru_cache(maxsize=64)
def _cached_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Halley's method on the He recurrence from asymptotic guesses, for the
    # non-negative roots only (He_n is odd or even), then
    # w_i = 1 / (n p_{n-1}(z_i)^2) with p_k = He_k / sqrt(k!) orthonormal;
    # the constant sqrt((n-1)!) cancels when the weights are normalised
    z = _initial_roots(n)
    if n % 2:
        z = np.concatenate([[0.0], z])
    for _ in range(_HALLEY_MAXIT):
        he_n, he_m, _ = _hermite_pair(n, z)
        # He_n' = n He_{n-1} and He_n'' = z He_n' - n He_n, so with the
        # Newton step r = He_n / He_n' Halley's step is r / (1 - r (z - n r) / 2)
        r = he_n / (n * he_m)
        step = r / (1.0 - 0.5 * r * (z - n * r))
        z = z - step
        if np.abs(step).max() <= _HALLEY_STEP:
            break
    else:
        raise ArithmeticError(f"Gauss-Hermite roots of order {n} did not converge")
    _, he_m, exponent = _hermite_pair(n, z)
    w = np.ldexp(he_m ** -2.0, -2 * (exponent - exponent.min()))
    # mirror the negative roots, so that the rule is exactly symmetric
    half = n // 2
    z = np.concatenate([-z[::-1][:half], z])
    w = np.concatenate([w[::-1][:half], w])
    w /= w.sum()
    if not np.all(np.diff(z) > 0):
        raise ArithmeticError(f"Gauss-Hermite roots of order {n} are not distinct")
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def std_normal_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with sum(w * f(z)) ~= E_{u~N(0,1)} f(u); n is an int >= 2."""
    n = operator.index(n)
    check_range("n", n, 2, ends="[)", what="quadrature order n")
    return _cached_nodes(n)


def normal_moments(f, mean, var, n: int):
    """(E f(X), E f(X) U, E f(X)^2) with X = mean + sqrt(var) U, U ~ N(0, 1),
    on the n-node rule of `std_normal_nodes`, for each entry of the broadcast
    ``mean`` and ``var``; ``f`` maps an array entry-wise."""
    u, w = std_normal_nodes(n)
    vals = f(np.sqrt(var)[..., None] * u + np.asarray(mean, dtype=float)[..., None])
    return vals @ w, (vals * u) @ w, (vals * vals) @ w


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
