"""Speciation-time theory: Gamma functions, Gaussian-equivalence constants,
the reduced scalar potential, and the commitment SDE.

For odd activations and opposite centers, the early backward dynamics
reduces to a scalar coordinate q = sum_j x_j Gamma0(lambda_j), with
lambda_j = f_j^T mu / sqrt(p), rolling in the potential

    V(q, t) = q^2 / 2 - 2 S log cosh(e^{-t} q),      S = sum_j Gamma0(lambda_j)^2.

Speciation happens when the curvature of V at the origin changes sign:
t_S = log(2 S) / 2.  The commitment SDE for q is integrated by
Euler-Maruyama (``reduced_sde_simulate``), the one time-stepping loop of
the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .diffusion import check_time
from .model import ManifoldModel, _rng
from .quadrature import std_normal_nodes

_PROBE_GRID = np.linspace(-6.0, 6.0, 25)
# GammaFunctions' first node count, the change of the probe values below
# which it stops doubling, and its cap; the node count of gep_constants
_GAMMA_NODES, _GAMMA_TOL, _GAMMA_MAX_NODES, _GEP_NODES = 64, 1e-10, 2048, 256


class GammaFunctions:
    """Quadrature evaluator for Gamma0(y) = E_u[phi(sqrt(rho) u + y)],
    u ~ N(0,1), of an odd activation phi (the reduction to one coordinate q
    needs Gamma0 odd; another phi is rejected before any node is built).

    The node count doubles at construction, from 64 up to at most 2048,
    until the probe-grid values of Gamma0, Gamma1(y) = E_u[phi(...) u] and
    Gamma^(2)(y) = E_u[phi(...)^2] all move by less than 1e-10.
    """

    def __init__(self, activation: Activation, rho: float):
        if not activation.is_odd:
            raise ValueError(f"speciation analysis requires an odd activation, "
                             f"got {activation.kind!r}")
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.activation = activation
        self.rho = float(rho)
        n = _GAMMA_NODES
        # all three moments, not Gamma0 alone: on Gamma0 alone tanh at rho 2
        # and 3 stops at 128 nodes instead of 256, and at rho 3 Gamma0 then
        # moves by up to 5e-9 on y in [-6, 6] and t_S by 2e-9
        probe = self._raw(_PROBE_GRID, n)
        while n < _GAMMA_MAX_NODES:
            probe2 = self._raw(_PROBE_GRID, 2 * n)
            if max(np.abs(a - b).max() for a, b in zip(probe, probe2)) < _GAMMA_TOL:
                break
            n *= 2
            probe = probe2
        self.node_count = n

    def _raw(self, y: np.ndarray, n: int):
        """(Gamma0, Gamma1, Gamma^(2)) at the points y on n nodes."""
        u, w = std_normal_nodes(n)
        vals = self.activation(np.sqrt(self.rho) * u[None, :] + np.asarray(y, float)[:, None])
        return vals @ w, (vals * u[None, :]) @ w, (vals * vals) @ w

    def gamma0(self, y):
        u, w = std_normal_nodes(self.node_count)
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = self.activation(np.sqrt(self.rho) * u[None, :] + ys[:, None]) @ w
        return float(out[0]) if np.ndim(y) == 0 else out


@dataclass(frozen=True)
class GepConstants:
    """Gaussian-equivalence constants of Gamma0."""

    rho1: float
    rho_star_sq: float


def gep_constants(gf: GammaFunctions) -> GepConstants:
    """Outer standard-normal moments of Gamma0.

    rho1 = E[Gamma0(u) u] and rho_star^2 = E[Gamma0(u)^2] - rho1^2, clamped
    at zero when the quadrature leaves it within -1e-10 of zero.  Gamma0 is
    odd, so its mean E[Gamma0(u)] is zero and drops out.
    """
    u, w = std_normal_nodes(_GEP_NODES)
    g0 = gf.gamma0(u)
    rho1 = float(w @ (g0 * u))
    star = float(w @ (g0 * g0)) - rho1 ** 2
    if star < -1e-10:
        raise ArithmeticError(f"negative rho_star^2 = {star:.3e}: quadrature failure")
    return GepConstants(rho1=rho1, rho_star_sq=max(star, 0.0))


def lambdas(model: ManifoldModel) -> np.ndarray:
    """Center projections lambda_j = f_j^T mu / sqrt(p), j = 1..d."""
    return model.embedding.entries @ model.mu / np.sqrt(model.p)


def gamma0_rows(model: ManifoldModel, gf: GammaFunctions) -> np.ndarray:
    """(Gamma0(lambda_j))_j for the model's F and mu, on ``gf``, the
    quadrature of the model's activation and rho: the direction of q, with
    squared norm S.  S <= 1e-12 is rejected as quadrature noise, not a signal.
    """
    if (gf.activation, gf.rho) != (model.activation, model.rho):
        raise ValueError("GammaFunctions built for another activation or rho")
    g0 = gf.gamma0(lambdas(model))
    if g0 @ g0 <= 1e-12:
        raise ValueError("no speciation signal: sum_j Gamma0(lambda_j)^2 = 0")
    return g0


def speciation_time_finite(s: float) -> float:
    """t_S = log(2 S) / 2 at finite d, S = sum_j Gamma0(lambda_j)^2 (the
    squared norm of ``gamma0_rows``)."""
    return 0.5 * np.log(2.0 * s)


def speciation_time_asymptotic(beta: float, d: int, mu_tilde_norm_sq: float,
                               gep: GepConstants,
                               ensemble: str = "deterministic_isometry") -> float:
    """Large-p speciation time log(2 S_asy) / 2 for the embedding ensemble.

    S_asy approximates S = sum_j Gamma0(lambda_j)^2, lambda_j = f_j^T mu /
    sqrt(p).  Given mu, lambda_j is centred Gaussian with variance
    |f_j|^2 / p * |mu~|^2, so the row power |f_j|^2 / p sets the signal:

    - ``"deterministic_isometry"`` (F^T F / p = I_p): the rows have mean
      power beta and S_asy = rho1^2 beta d |mu~|^2 + rho*^2.  For a linear
      activation this is exact, since S = mu^T (F^T F / p) mu = p |mu~|^2.
    - ``"gaussian_iid"`` (N(0, 1) entries): the rows have power 1, and the
      Gaussian-equivalence expansion Gamma0(lambda_j) ~ rho1 lambda_j +
      rho* zeta_j with independent unit zeta_j, summed over the d rows,
      gives S_asy = d (rho1^2 |mu~|^2 + rho*^2).  At |mu~|^2 = 1 this is
      E[S] exactly, because E[Gamma0(u)] = 0 for an odd activation.

    The constants come from ``GammaFunctions(phi, rho)`` with unit-variance
    outer moments, i.e. they assume row power times |mu~|^2 near 1.
    Isometric rows have power beta, so for a nonlinear activation on the
    isometric ensemble neither rho1 nor the rho*^2 term is derived here;
    only the linear isometric case is checked.
    """
    if ensemble == "deterministic_isometry":
        arg = gep.rho1 ** 2 * beta * d * mu_tilde_norm_sq + gep.rho_star_sq
    elif ensemble == "gaussian_iid":
        arg = d * (gep.rho1 ** 2 * mu_tilde_norm_sq + gep.rho_star_sq)
    else:
        raise ValueError(f"unknown ensemble: {ensemble!r}")
    if arg <= 0:
        raise ValueError("no speciation signal: asymptotic argument <= 0")
    return 0.5 * np.log(2.0 * arg)


def potential(q, t: float, gamma0_sq_sum: float):
    """V(q, t) = q^2/2 - 2 S log cosh(e^{-t} q)."""
    check_time(t)
    q = np.asarray(q, dtype=float)
    # log cosh without overflow for large arguments
    z = np.exp(-t) * q
    log_cosh = np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)
    out = 0.5 * q * q - 2.0 * gamma0_sq_sum * log_cosh
    return float(out) if out.ndim == 0 else out


def potential_curvature_at_zero(t: float, gamma0_sq_sum: float) -> float:
    """d^2V/dq^2 at q = 0, i.e. 1 - 2 e^{-2t} S; zero exactly at t_S."""
    check_time(t)
    return 1.0 - 2.0 * np.exp(-2.0 * t) * gamma0_sq_sum


def reduced_sde_simulate(t_start: float, t_end: float, dt: float,
                         gamma0_sq_sum: float, n_traj: int, seed: int,
                         q0: float | np.ndarray = 0.0):
    """Backward Euler-Maruyama ensemble of the reduced scalar coordinate.

    -dq = [-q + 2 e^{-t} S tanh(e^{-t} q)] dt + dw~, where the rescaled
    Wiener increment has variance 2 S dt (the scalar coordinate is the image
    of the ambient sqrt(2) dW under x -> sum_j x_j Gamma0(lambda_j)).
    ``q0`` is one start value or an (n_traj,) array of them.  Steps of
    ``dt`` run from ``t_start`` down to ``t_end``, the last one shortened to
    land on ``t_end``.

    Returns (times, Q) with Q of shape (n_steps + 1, n_traj).
    """
    check_time([t_start, t_end])
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = float(gamma0_sq_sum)
    rng = _rng(seed)
    t = float(t_start)
    q = np.full(n_traj, q0, dtype=float)
    times, states = [t], [q]
    while t > t_end + 1e-12:
        step = min(dt, t - t_end)
        drift = -q + 2.0 * np.exp(-t) * s * np.tanh(np.exp(-t) * q)
        q = q + drift * step + np.sqrt(2.0 * s * step) * rng.standard_normal(q.shape)
        t -= step
        if not np.all(np.isfinite(q)):
            raise FloatingPointError(f"non-finite state at step {len(times)}, t = {t:.6g}")
        times.append(t)
        states.append(q)
    return np.array(times), np.array(states)
