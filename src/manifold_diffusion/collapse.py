"""Collapse-time theory.

The memorization onset t_C solves

    alpha + log(2 pi h_t) / 2 + beta * f_star(t) = -1/2,

where f_star is the Bayes-optimal free energy (per latent dimension) of the
Gaussian channel x = a_t phi(F xi / sqrt(p)) + sqrt(h_t) z with i.i.d.
Gaussian F:

    f_star(t) = sup_{q in [0, rho + m^2]} inf_{r >= 0} [ psi(r)
                + Psi(q) / beta - r q / 2 ].

psi has the closed form r (m^2 + rho)/2 - log(1 + r rho)/2, and so has its
inf over r; Psi is a nested Gaussian-channel log-evidence evaluated by
Gauss-Hermite quadrature (closed form for a linear activation).  The sup
over q refines the maximum of a 13-point grid with Brent's bounded method.
For data in a hyperplane two shortcuts are provided: a
deterministic-isometry closed form and a Marchenko-Pastur log-determinant
for random F.  Every route reads the data model through a
`model.TheoryParams` record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import _EXP_FLOOR, check_time
from .model import TheoryParams, check_range
from .quadrature import std_normal_grid, std_normal_nodes

# settings no caller changes: psi_quadrature_check's outer nodes per axis
# and inner nodes and the bounded minimizer's cap on evaluations (scipy's
# default)
_CHECK_OUTER, _CHECK_INNER = 48, 96
_MINIMIZE_MAXITER = 500

# ---------------------------------------------------------------------------
# scalar pieces of the replica functional

def psi(r: float, m: float, rho: float) -> float:
    """psi(r) = r (m^2 + rho) / 2 - log(1 + r rho) / 2."""
    check_range("r", r, 0.0, ends="[)")
    return 0.5 * r * (m * m + rho) - 0.5 * np.log1p(r * rho)


def psi_quadrature_check(r: float, m: float, rho: float) -> float:
    """psi from its integral definition (independent route).

    E_{X0 ~ N(m, rho), Z0 ~ N(0,1)} log E_{w ~ N(m, rho)}
        exp(r w X0 + sqrt(r) w Z0 - r w^2 / 2),
    evaluated with nested Gauss-Hermite quadrature in log space.
    """
    check_range("r", r, 0.0, ends="[)")
    (u, z0), w_out = std_normal_grid(_CHECK_OUTER, 2)
    x0 = m + np.sqrt(rho) * u
    v, w_in = std_normal_nodes(_CHECK_INNER)
    wv = m + np.sqrt(rho) * v  # integration variable of the prior
    expo = (r * np.outer(x0, wv) + np.sqrt(r) * np.outer(z0, wv)
            - 0.5 * r * wv ** 2)
    mx = expo.max(axis=1, keepdims=True)
    log_inner = mx.ravel() + np.log(np.exp(expo - mx) @ w_in)
    return float(w_out @ log_inner)


def psi_big_linear(q: float, t: float, m: float, rho: float) -> float:
    """Closed-form Psi for a linear activation."""
    a2 = np.exp(-2.0 * t)
    h = -np.expm1(-2.0 * t)
    return -0.5 - 0.5 * np.log(2.0 * np.pi * (a2 * (m * m + rho - q) + h))


def psi_big(q: float, t: float, m: float, rho: float, activation,
            n_outer: int = 24, n_inner: int = 96) -> float:
    """Psi(q): expected log-evidence of the scalar Gaussian channel.

    Outer expectation over (V, W, Z) defining
    Y0 = a_t phi(sqrt(q) V + sqrt(m^2 + rho - q) W) + sqrt(h_t) Z; inner
    average over w of the channel likelihood
    exp(-(Y0 - a_t phi(sqrt(q) V + sqrt(m^2 + rho - q) w))^2 / (2 h_t))
    divided by sqrt(2 pi h_t), accumulated in log space.

    Each factor is evaluated only on the nodes it depends on, and both are
    scaled by 1 / sqrt(2 h_t) there: Y0 on the (V, W Z) grid, shape
    (n_V, n_outer^2), and the inner prediction P = a_t phi(.) on the
    (w, V) grid, shape (n_inner, n_V).  The squared distances
    D = (Y0 - P)^2 span the grid inner-node-major, D[w, V, W Z], so the
    inner extremum is an elementwise min over n_inner contiguous rows and
    the inner average is the product w_in @ exp(min - D).  Every exponent
    min - D is at least -(max |Y0| + max |P|)^2; only when that bound falls
    below -700 are the exponents floored there, so that exp stays on its
    fast path (see ``diffusion._EXP_FLOOR``).

    For a ``point_symmetric`` activation, phi(-x) = 2 phi(0) - phi(x), the
    V axis holds the V >= 0 nodes only (n_V = ceil(n_outer / 2)), weighted
    2 w for V > 0 and w for the V = 0 node of an odd rule; otherwise it
    holds all n_outer nodes.  This is exact: the channel does not change
    when phi is shifted by a constant, so (V, W, Z) and (-V, -W, -Z) give
    Y0 - P of opposite signs at w and -w, and both rules mirror their
    nodes and weights exactly, so the two points have the same inner
    average.

    The operands are scaled, the sums taken in another order and the
    V < 0 half folded onto V > 0, so this agrees with a tensor-grid
    evaluation of every factor on the full (V, W, Z) x w grid to roundoff,
    not to the bit: at most 8.5e-15 relative over tanh, relu, sigmoid and
    linear, n_outer x n_inner 10 x 48, 12 x 48 and 24 x 96, three (m, rho),
    q in {0, c / 2, c (1 - 1e-9)} and t in {4e-6, 1e-4, 0.3, 3, 5}, and at
    most 4e-15 max(|Psi|, 1) where Psi crosses 0 (q near c, t near 0.03).
    The fold alone moves a value by at most 4.3e-15 relative.
    """
    c = m * m + rho
    if not 0.0 <= q <= c + 1e-12:
        raise ValueError(f"q must lie in [0, {c}]")
    check_time(t)
    q = min(q, c)
    h = -np.expm1(-2.0 * t)
    scale = np.exp(-t) / np.sqrt(2.0 * h)  # a_t / sqrt(2 h_t)
    sq, sres = np.sqrt(q), np.sqrt(max(c - q, 0.0))
    z, w = std_normal_nodes(n_outer)
    wn, w_in = std_normal_nodes(n_inner)
    zv, wv = z, w  # the V axis
    if activation.point_symmetric:
        # the nodes ascend and mirror, so the V >= 0 ones are the upper half
        zv = z[n_outer // 2:]
        wv = np.where(zv > 0.0, 2.0, 1.0) * w[n_outer // 2:]
    n_v = len(zv)
    signal = scale * activation(sq * zv[:, None] + sres * z[None, :])  # (V, W)
    # sqrt(h_t) Z / sqrt(2 h_t) = Z / sqrt(2)
    y0 = (signal[:, :, None] + np.sqrt(0.5) * z).reshape(n_v, -1)      # (V, W Z)
    pred = scale * activation(sq * zv[None, :] + sres * wn[:, None])   # (w, V)
    # dist[w, V, :] = y0[V, :] - pred[w, V] as one K = 2 product per V,
    # [1, -P] [Y0; 1]: both terms are exact, so each entry is the one
    # rounded difference, and the GEMM writes rows of n_outer^2 where a
    # broadcast subtract would loop over them
    raw = np.empty(n_inner * n_v * n_outer * n_outer + 7)  # a view on a 64-byte boundary,
    start = -raw.__array_interface__["data"][0] % 64 // 8     # so no heap offset moves the time
    dist = raw[start:start + raw.size - 7].reshape(n_inner, n_v, -1)  # (w, V, W Z)
    lhs = np.ones((n_v, n_inner, 2))                                  # (V, w, 2)
    lhs[:, :, 1] = -pred.T
    rhs = np.ones((n_v, 2, n_outer * n_outer))                        # (V, 2, W Z)
    rhs[:, 0] = y0
    np.matmul(lhs, rhs, out=dist.transpose(1, 0, 2))
    np.square(dist, out=dist)
    mn = dist.min(axis=0)
    expo = np.subtract(mn, dist, out=dist)
    if (np.abs(y0).max() + np.abs(pred).max()) ** 2 > -_EXP_FLOOR:
        np.maximum(expo, _EXP_FLOOR, out=expo)
    np.exp(expo, out=expo)
    log_inner = np.log(w_in @ expo.reshape(n_inner, -1)) - mn.ravel()
    w_out = np.multiply.outer(np.multiply.outer(wv, w), w).ravel()
    return float(w_out @ log_inner) - 0.5 * np.log(2.0 * np.pi * h)


# ---------------------------------------------------------------------------
# sup-inf of the replica functional

@dataclass(frozen=True)
class FreeEnergyResult:
    """Optimizer and value of the sup-inf, with solver diagnostics."""

    t: float
    q_star: float
    r_star: float
    f_star: float
    boundary: bool
    psi_evaluations: int = 0  # Psi calls: grid points evaluated plus optimizer


def _r_star(q: float, m: float, rho: float) -> float:
    """inf over r >= 0 of psi(r) - r q / 2, the root of psi'(r) = q / 2.

    psi' increases from m^2 / 2 at r = 0 towards (m^2 + rho) / 2, so the
    root is (q - m^2) / (rho (m^2 + rho - q)) for q > m^2 and the minimizer
    is r = 0 otherwise; for q >= m^2 + rho the inf is -inf.
    """
    c = m * m + rho
    if q >= c:
        raise ArithmeticError(f"no inner minimizer at q = {q} >= rho + m^2 = {c}")
    return max(q - m * m, 0.0) / (rho * (c - q))


def f_rs(q: float, r: float, t: float, params: TheoryParams,
         n_outer: int = 24, n_inner: int = 96) -> float:
    """f_RS(q, r) = psi(r) + Psi(q) / beta - r q / 2."""
    m, rho = params.m, params.rho
    if params.activation.kind == "linear":
        big = psi_big_linear(q, t, m, rho)
    else:
        big = psi_big(q, t, m, rho, params.activation, n_outer, n_inner)
    return psi(r, m, rho) + big / params.beta - 0.5 * r * q


def _minimize_bounded(func, x1: float, x2: float,
                      xatol: float) -> tuple[float, float, int]:
    """Minimum of func on [x1, x2] by Brent's bounded method (Brent 1973).

    A copy of ``scipy.optimize._optimize._minimize_scalar_bounded``
    (Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD
    3-clause licence, see LICENSES/SciPy.txt), without its printing: the
    same arithmetic, so the same iterates, bit for bit, as
    ``minimize_scalar(func, bounds=(x1, x2), method="bounded",
    options={"xatol": xatol})``.  Returns (x, func(x), evaluations) and
    raises ArithmeticError when the evaluations reach 500 or a value is
    NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True

        if golden:  # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MINIMIZE_MAXITER:
            raise ArithmeticError("maximum number of function calls reached")

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise ArithmeticError("NaN result encountered")
    return xf, fx, num


# the tolerance in q of the sup in `f_star`, relative to max(c, 1): it
# bounds the digits of q_star and r_star, not of f_star
Q_XATOL = 1e-9
# the q-grid of the sup in `f_star`: it only brackets the minimizer
Q_GRID_POINTS = 13
# the CLI's GLM settings: `collapse` and `free-energy`; `collapse-sweep` and its
# demo; `exp-collapse` (the sweep's errs 1e-3 on its row, `collapse`'s is 5x slower)
THEORY_SOLVER = {"n_outer": 16, "n_inner": 96, "t_tol": 1e-6}
SWEEP_SOLVER = {"n_outer": 10, "n_inner": 48, "t_tol": 1e-4}
CROSSING_SOLVER = {"n_outer": 12, "n_inner": 48, "t_tol": 1e-4}


def f_star(t: float, params: TheoryParams, n_outer: int = 24,
           n_inner: int = 96, grid_points: int = Q_GRID_POINTS) -> FreeEnergyResult:
    """Solve sup_q inf_r f_RS at time t.

    The inner inf is in closed form (`_r_star`); the outer sup refines the
    best point k of a grid of ``grid_points`` q's with Brent's bounded
    minimizer on [q_{k-1}, q_{k+1}] (`_minimize_bounded`: parabolic
    interpolation with golden-section fallback; xatol `Q_XATOL` max(c, 1),
    plus sqrt(2.2e-16) times the distance c - q), and keeps a grid end if
    that is higher.  The value diverges to -inf at q = c = rho + m^2, so
    the grid stops just inside the boundary.  A peak narrower than the
    grid spacing whose grid neighbours are low is missed.
    ``psi_evaluations`` counts every Psi evaluation of the solve: the
    ``grid_points`` grid q's plus the minimizer's; a minimizer that does
    not converge raises ArithmeticError.
    """
    check_range("grid_points", grid_points, 2, ends="[)")
    m, rho = params.m, params.rho
    c = m * m + rho

    def g(q: float) -> float:
        return f_rs(q, _r_star(q, m, rho), t, params, n_outer, n_inner)

    qs = np.linspace(0.0, c * (1.0 - 1e-9), grid_points)
    vals = np.array([g(q) for q in qs])
    k = int(np.argmax(vals))
    lo = qs[max(k - 1, 0)]
    hi = qs[min(k + 1, grid_points - 1)]
    # searched in u = c - q: the bounded method adds sqrt(eps) |u| to xatol,
    # which then shrinks with the peak's width as q_star nears c
    try:
        u, f_u, nfev = _minimize_bounded(lambda u: -g(c - u), c - hi, c - lo,
                                         xatol=Q_XATOL * max(c, 1.0))
    except ArithmeticError as exc:
        raise ArithmeticError(f"sup over q at t = {t}: {exc}") from None
    q_star, f_val = c - u, -f_u
    psi_evaluations = grid_points + nfev
    boundary = False
    # take whichever of {interior refinement, grid boundary} wins
    for qb, fb in ((qs[0], vals[0]), (qs[-1], vals[-1])):
        if fb > f_val:
            q_star, f_val, boundary = qb, fb, True
    r_star = _r_star(q_star, m, rho)
    # an optimizer within a difference step of an edge is not interior
    eps = _stationarity_step(c)
    if not (eps < q_star < c - eps and r_star > eps):
        boundary = True
    return FreeEnergyResult(t=t, q_star=float(q_star), r_star=float(r_star),
                            f_star=float(f_val), boundary=boundary,
                            psi_evaluations=psi_evaluations)


def _stationarity_step(c: float) -> float:
    return 1e-5 * max(c, 1.0)


def stationarity_residual(res: FreeEnergyResult, params: TheoryParams,
                          n_outer: int = 24, n_inner: int = 96) -> float:
    """max(|df_RS/dq|, |df_RS/dr|) at the optimizer of an ``f_star`` solve.

    Central differences of step 1e-5 max(c, 1), two Psi evaluations; NaN
    for a ``boundary`` optimizer, where f_RS need not be stationary.  Pass
    the quadrature sizes the solve used.
    """
    if res.boundary:
        return float("nan")
    m, rho = params.m, params.rho
    q, r, t = res.q_star, res.r_star, res.t
    eps = _stationarity_step(m * m + rho)
    df_dq = (f_rs(q + eps, r, t, params, n_outer, n_inner)
             - f_rs(q - eps, r, t, params, n_outer, n_inner)) / (2 * eps)
    df_dr = (psi(r + eps, m, rho) - psi(r - eps, m, rho)) / (2 * eps) - 0.5 * q
    return float(max(abs(df_dq), abs(df_dr)))


# ---------------------------------------------------------------------------
# collapse times

# the three routes to t_C: the GLM free-energy solve, the isometry closed
# form and the Marchenko-Pastur log-determinant of the linear model
ROUTES = ("glm_general", "linear_isometry_closed_form", "linear_rmt")
GLM, CLOSED_FORM, RMT = ROUTES
# the embedding ensemble each route's theory assumes: the GLM replica
# computation and the log-determinant average over gaussian F
THEORY_ENSEMBLE = {GLM: "gaussian_iid", CLOSED_FORM: "deterministic_isometry",
                   RMT: "gaussian_iid"}


@dataclass(frozen=True)
class CollapseResult:
    t_c: float
    method: str  # one of ROUTES
    residual: float
    # work of the GLM route; 0 on the linear routes, which solve no f_star
    f_star_solves: int = 0
    psi_evaluations: int = 0
    # work of the root-finder (`_bisect_time`); 0 on the closed form
    brent_iterations: int = 0


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brent_root(f, xpre: float, xcur: float, fpre: float, fcur: float,
                xtol: float) -> tuple[float, int]:
    """Root of f between xpre and xcur, where fpre < 0 < fcur or the reverse.

    Brent's method (Brent 1973, ch. 4: inverse quadratic interpolation,
    secant and bisection steps) as in SciPy's ``brentq``
    (scipy/optimize/Zeros/brentq.c; Copyright (c) 2001-2002 Enthought, Inc.
    2003, SciPy Developers; BSD 3-clause licence, see LICENSES/SciPy.txt):
    the root is within xtol + 4 eps |root| after at most 100 iterations.
    Returns the root and the number of evaluations of f; raises
    RuntimeError when the iterations run out.
    """
    xblk = fblk = spre = scur = 0.0
    for evaluations in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, evaluations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"root-finder did not converge in {_BRENT_MAXITER} "
                       f"iterations, last x = {xcur!r}")


# the range of a collapse time: the root-finder's bracket in u = log t
_U_LO, _U_HI = math.log(1e-6), math.log(20.0)
_NO_ROOT = f"no collapse time in range ({math.exp(_U_LO):.2g}, {math.exp(_U_HI):.2g})"


def _residual_floor_hi(alpha: float, rho: float) -> float:
    """alpha - log(1 + a_t^2 rho / h_t) / 2 at the bracket's upper end.

    This bounds the collapse residual alpha - i(t) from below: i, the mutual
    information per dimension, is at most the log, since a 1-Lipschitz
    activation passes on at most its Gaussian input's variance (Poincare),
    a Gaussian has the largest entropy at a given variance, and Jensen
    averages over the rows of F; on the Marchenko-Pastur route Jensen gives
    mp_logdet(x, beta) <= log1p(x).  A solve at t = 20 lands within
    roundoff of [the bound, alpha].
    """
    t = math.exp(_U_HI)
    return alpha - 0.5 * math.log1p(rho * math.exp(-2.0 * t) / -math.expm1(-2.0 * t))


def _bisect_time(residual, f_hi: float, t_tol: float = 1e-6) -> tuple[float, int]:
    """Root of a residual that increases with t, in u = log t.

    Brent's method runs over the fixed bracket [_U_LO, _U_HI] in u, where
    the residual is close to linear at small t (its log h_t term is about
    log 2t), so ``t_tol`` is a relative tolerance on t.  The residual is
    called at t = exp(u) only; at the upper end it is only where ``f_hi``,
    a lower bound of it there (`_residual_floor_hi`), is not positive.
    Returns the root and the number of Brent iterations (one residual
    evaluation each); raises ArithmeticError on a residual that is not
    finite.
    """
    check_range("t_tol", t_tol, 0.0, ends="[)")

    def in_u(u: float) -> float:
        t = math.exp(u)
        value = residual(t)
        if not math.isfinite(value):
            raise ArithmeticError(f"residual at t = {t!r} is {value}")
        return value

    f_lo = in_u(_U_LO)
    if not f_hi > 0.0:
        f_hi = in_u(_U_HI)
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(f"{_NO_ROOT}: residuals ({f_lo:.3g}, {f_hi:.3g})")
    u, iterations = _brent_root(in_u, _U_LO, _U_HI, f_lo, f_hi, xtol=t_tol)
    return math.exp(u), iterations


def collapse_time_glm(params: TheoryParams, alpha: float, n_outer: int = 24,
                      n_inner: int = 96, grid_points: int = Q_GRID_POINTS,
                      t_tol: float = 1e-6) -> CollapseResult:
    """Solve alpha + log(2 pi h_t)/2 + beta f_star(t) = -1/2 for t, to the
    relative tolerance ``t_tol`` (see `_bisect_time`).

    A bare (m, rho, beta, activation) tuple, which
    ``perfbench/make_reference.py`` passes, is validated into a record.
    """
    check_range("alpha", alpha, 0.0)
    if not isinstance(params, TheoryParams):
        params = TheoryParams(*params)
    beta = params.beta
    # the root-finder returns a time it has evaluated (or the upper end),
    # so each time's f_star is solved once and its residual then read back
    seen: dict[float, float] = {}
    psi_evaluations = 0

    def residual(t: float) -> float:
        nonlocal psi_evaluations
        if t not in seen:
            h = -np.expm1(-2.0 * t)
            fs = f_star(t, params, n_outer, n_inner, grid_points)
            psi_evaluations += fs.psi_evaluations
            seen[t] = alpha + 0.5 * np.log(2.0 * np.pi * h) + beta * fs.f_star + 0.5
        return seen[t]

    t_c, iterations = _bisect_time(residual, _residual_floor_hi(alpha, params.rho), t_tol)
    return CollapseResult(t_c=t_c, method=GLM,
                          residual=abs(residual(t_c)), f_star_solves=len(seen),
                          psi_evaluations=psi_evaluations,
                          brent_iterations=iterations)


def collapse_time_linear_isometry(alpha: float, beta: float, *,
                                  rho: float = 1.0) -> float:
    """Closed form t_C = log(1 + rho (e^{2 alpha / beta} - 1)^{-1}) / 2.

    The data covariance is rho F F^T / p, and for isometric F
    (1/d) log det(rho eta_t F F^T / p + I_d) = beta log(1 + rho eta_t), so
    t_C solves alpha = beta log(1 + rho eta_t) / 2; the center m is rank
    one and drops out.
    """
    check_range("alpha", alpha, 0.0)
    check_range("beta", beta, 0.0, 1.0, "(]")
    check_range("rho", rho, 0.0)
    # past 2 alpha / beta = 709.78 expm1 overflows, and rho / inf = 0 is the limit
    with np.errstate(over="ignore"):
        return 0.5 * np.log1p(rho / np.expm1(2.0 * alpha / beta))


def _mp_roots(x: float, z: float) -> tuple[float, float]:
    """The roots ra, rb = sqrt(x (1 +- sqrt(z))^2 + 1) of the Marchenko-Pastur
    auxiliary h(x, z) = (ra - rb)^2.  Their squares differ by 4 x sqrt(z), so
    ra - rb = 4 x sqrt(z) / (ra + rb), which does not cancel."""
    rz = math.sqrt(z)
    return math.sqrt(x * (1.0 + rz) ** 2 + 1.0), math.sqrt(x * (1.0 - rz) ** 2 + 1.0)


def mp_logdet(eta: float, beta: float) -> float:
    """Large-d limit of (1/d) log det(eta F F^T / p + I_d), gaussian F.

    It is beta log1p(x - h/4) + log1p(eta - h/4) - h / (4x), x = eta / beta
    and h = w^2 = (ra - rb)^2, ra and rb the roots of `_mp_roots`(x, beta),
    so w/2 = 2 x sqrt(beta) / (ra + rb).  eta - h/4 = (sqrt(eta) - w/2)
    (sqrt(eta) + w/2) with sqrt(eta) - w/2 = sqrt(eta) g / (ra + rb) and
    g = ra + rb - 2 sqrt(x) = sum over +- of 1 / (r + sqrt(x) (1 +-
    sqrt(beta))), and x - h/4 adds x (1 - beta) to it: every term is a
    product or sum of positive numbers, which cancels at no eta.
    """
    check_range("eta", eta, 0.0)
    check_range("beta", beta, 0.0, 1.0, "(]")
    x = eta / beta
    ra, rb = _mp_roots(x, beta)
    rx, rz, re = math.sqrt(x), math.sqrt(beta), math.sqrt(eta)
    half_w = 2.0 * x * rz / (ra + rb)
    g = 1.0 / (ra + rx * (1.0 + rz)) + 1.0 / (rb + rx * (1.0 - rz))
    eta_less = re * g / (ra + rb) * (re + half_w)  # eta - h/4
    return (beta * np.log1p(eta_less + x * (1.0 - beta)) + np.log1p(eta_less)
            - half_w * half_w / x)


def collapse_time_linear_rmt(alpha: float, beta: float, t_tol: float = 1e-6,
                             *, rho: float = 1.0) -> CollapseResult:
    """Collapse time for a linear manifold with gaussian F.

    Solves alpha - mp_logdet(rho eta_t, beta) / 2 = 0, the log-determinant
    of the data covariance rho F F^T / p; eta_t decreases with t so the
    residual is increasing and bisection applies directly.
    """
    check_range("alpha", alpha, 0.0)
    check_range("beta", beta, 0.0, 1.0, "(]")
    check_range("rho", rho, 0.0)

    def residual(t: float) -> float:
        eta = np.exp(-2.0 * t) / (-np.expm1(-2.0 * t))
        return alpha - 0.5 * mp_logdet(rho * eta, beta)

    t_c, iterations = _bisect_time(residual, _residual_floor_hi(alpha, rho), t_tol)
    return CollapseResult(t_c=t_c, method=RMT,
                          residual=abs(residual(t_c)),
                          brent_iterations=iterations)


# ---------------------------------------------------------------------------
# one dispatcher over the three routes

def collapse_method(params: TheoryParams) -> str:
    """The route for a record: the isometry closed form or the
    Marchenko-Pastur log-determinant for a linear activation (by ensemble),
    the GLM free-energy solve otherwise."""
    if params.activation.kind != "linear":
        return GLM
    if params.ensemble == "deterministic_isometry":
        return CLOSED_FORM
    return RMT


def collapse_time(method: str | None, alpha: float, params: TheoryParams,
                  **solver) -> CollapseResult:
    """Collapse time by the named route; ``None`` takes `collapse_method`.

    ``solver`` (n_outer, n_inner, grid_points, t_tol) is passed to the GLM
    solve only.  The linear routes take beta and rho (m is a rank-one shift
    and drops out) and are rejected for a non-linear activation, whose data
    they do not describe.  Every route raises RuntimeError for a collapse
    time outside the root-finder's bracket, the closed form included.
    """
    if method is None:
        method = collapse_method(params)
    if method == GLM:
        return collapse_time_glm(params, alpha, **solver)
    if method not in ROUTES:
        raise ValueError(f"unknown collapse method: {method!r}")
    if params.activation.kind != "linear":
        raise ValueError(f"method {method} needs a linear activation, "
                         f"got {params.activation.kind!r}")
    if method == RMT:
        return collapse_time_linear_rmt(alpha, params.beta, rho=params.rho)
    t_c = collapse_time_linear_isometry(alpha, params.beta, rho=params.rho)
    if not math.exp(_U_LO) < t_c < math.exp(_U_HI):
        raise RuntimeError(f"{_NO_ROOT}: the closed form gives t_C = {t_c:.4g}")
    return CollapseResult(t_c=t_c, method=method, residual=0.0)
