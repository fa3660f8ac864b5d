"""Collapse-time theory: replica functional, optimizers, spectral shortcuts."""
import dataclasses
import decimal
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import manifold_diffusion.collapse as collapse_mod
from manifold_diffusion.activations import make_activation
from manifold_diffusion.collapse import (_r_star, collapse_method,
                                         collapse_time, collapse_time_glm,
                                         collapse_time_linear_isometry,
                                         collapse_time_linear_rmt, f_rs,
                                         f_star, mp_logdet, psi,
                                         psi_big, psi_big_linear,
                                         psi_quadrature_check,
                                         stationarity_residual)
from manifold_diffusion.model import TheoryParams, make_model
from manifold_diffusion.quadrature import std_normal_grid, std_normal_nodes

LINEAR = make_activation("linear")
TANH = make_activation("tanh")
RELU = make_activation("relu")
SIGMOID = make_activation("sigmoid")

# log(1 + 1/(e^2 - 1)) / 2, frozen from a 30-digit evaluation
T_C_ISO_1_1 = 0.072706728934430
T_C_ISO_QUARTER_HALF = 0.229337572693541


def test_psi_closed_form_and_domain():
    assert psi(0.0, 1.0, 1.0) == 0.0
    assert psi(2.0, 1.0, 0.5) == pytest.approx(0.5 * 2 * 1.5 - 0.5 * np.log(2.0))
    with pytest.raises(ValueError):
        psi(-0.1, 1.0, 1.0)


@pytest.mark.parametrize("r,m,rho", [(1.0, 0.0, 1.0), (2.0, 1.0, 0.5),
                                     (0.5, 0.5, 2.0)])
def test_psi_integral_route_matches_closed_form(r, m, rho):
    assert psi_quadrature_check(r, m, rho) == pytest.approx(
        psi(r, m, rho), abs=1e-8)


@pytest.mark.parametrize("q,t", [(0.2, 0.3), (1.0, 0.8), (1.9, 1.5)])
def test_psi_big_linear_quadrature_matches_closed_form(q, t):
    assert psi_big(q, t, 1.0, 1.0, LINEAR) == pytest.approx(
        psi_big_linear(q, t, 1.0, 1.0), abs=1e-6)


def _psi_big_tensor_grid(q, t, m, rho, activation, n_outer, n_inner):
    """Psi with every factor evaluated on the full (V, W, Z) x w grid."""
    c = m * m + rho
    q = min(q, c)
    a = np.exp(-t)
    h = -np.expm1(-2.0 * t)
    sq, sres = np.sqrt(q), np.sqrt(max(c - q, 0.0))
    (V, W, Z), w_out = std_normal_grid(n_outer, 3)
    y0 = a * activation(sq * V + sres * W) + np.sqrt(h) * Z
    wn, w_in = std_normal_nodes(n_inner)
    phi_w = activation(sq * V[:, None] + sres * wn[None, :])
    expo = -((y0[:, None] - a * phi_w) ** 2) / (2.0 * h)
    mx = expo.max(axis=1, keepdims=True)
    log_inner = mx.ravel() + np.log(np.exp(expo - mx) @ w_in)
    return float(w_out @ log_inner) - 0.5 * np.log(2.0 * np.pi * h)


@pytest.mark.parametrize("kind", ["tanh", "relu", "sigmoid", "linear"])
@pytest.mark.parametrize("n_outer,n_inner", [(10, 48), (12, 48), (24, 96)])
def test_psi_big_equals_tensor_grid_reference(kind, n_outer, n_inner):
    # the factored kernel pre-scales its operands and contracts in another
    # order than the tensor grid, so the two agree to roundoff, not to the
    # bit.  t = 4e-6 is the collapse bracket floor; the exponent floor is
    # applied at 4e-6 and 1e-4, and at 0.3 for the unbounded relu and
    # linear activations on some (q, sizes), and nowhere at t = 3
    act = make_activation(kind)
    for m, rho in ((1.3, 0.7), (0.5, 2.0)):
        c = m * m + rho
        for q in (0.0, 0.5 * c, c * (1.0 - 1e-9)):
            for t in (4e-6, 1e-4, 0.3, 3.0):
                ref = _psi_big_tensor_grid(q, t, m, rho, act, n_outer, n_inner)
                got = psi_big(q, t, m, rho, act, n_outer, n_inner)
                assert abs(got - ref) <= 5e-14 * abs(ref)


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "linear"])
@pytest.mark.parametrize("n_outer,n_inner", [(10, 48), (11, 48), (12, 48), (24, 96)])
def test_psi_big_half_grid_equals_full_grid(kind, n_outer, n_inner):
    # a point-symmetric activation folds V < 0 onto V > 0; the same fn with
    # the flag off runs the full grid.  n_outer 11 has a V = 0 node
    act = make_activation(kind)
    assert act.point_symmetric
    full = dataclasses.replace(act, point_symmetric=False)
    for m, rho in ((1.3, 0.7), (0.5, 2.0)):
        c = m * m + rho
        for q in (0.0, 0.5 * c, c * (1.0 - 1e-9)):
            for t in (4e-6, 1e-4, 0.3, 5.0):
                ref = psi_big(q, t, m, rho, full, n_outer, n_inner)
                got = psi_big(q, t, m, rho, act, n_outer, n_inner)
                assert abs(got - ref) <= 8.5e-15 * abs(ref)


# relu's psi_big keeps its full grid, and its bytes
RELU_PSI_BIG = {
    (0.0, 4e-06, 1.0, 1.0, 10, 48): -1816.3746012895706,
    (1.0, 0.03, 1.0, 1.0, 10, 48): -0.7494223253320628,
    (1.999999998, 0.3, 1.0, 1.0, 12, 48): -1.0210033496396973,
    (0.8, 1.5, 1.3, 0.7, 11, 48): -1.4087877597467342,
    (1.2, 0.005, 0.5, 2.0, 16, 96): -0.32952261071604694,
}


def test_relu_psi_big_keeps_its_values():
    assert not RELU.point_symmetric
    for (q, t, m, rho, n_outer, n_inner), value in RELU_PSI_BIG.items():
        got = psi_big(q, t, m, rho, RELU, n_outer, n_inner)
        assert repr(float(got)) == repr(value)


def test_psi_big_quadrature_error_at_default_nodes():
    coarse = psi_big(0.7, 0.3, 1.0, 1.0, TANH, n_outer=24)
    fine = psi_big(0.7, 0.3, 1.0, 1.0, TANH, n_outer=48)
    assert abs(coarse - fine) <= 2e-6


def test_psi_big_increases_with_overlap():
    # more latent overlap means a sharper channel and higher log-evidence
    for act in (LINEAR, TANH):
        vals = [psi_big(q, 0.5, 1.0, 1.0, act) for q in (0.0, 1.0, 1.8)]
        assert vals[0] < vals[1] < vals[2]


def test_psi_big_domain_errors():
    with pytest.raises(ValueError):
        psi_big(-0.1, 0.5, 1.0, 1.0, TANH)
    with pytest.raises(ValueError):
        psi_big(2.5, 0.5, 1.0, 1.0, TANH)
    for t in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="0 < t < inf"):
            psi_big(0.5, t, 1.0, 1.0, TANH)


def test_f_star_stationarity_and_inner_minimizer():
    params = TheoryParams(1.0, 1.0, 0.5, LINEAR)
    res = f_star(0.3, params)
    m, rho = 1.0, 1.0
    c = m * m + rho
    assert 0.0 <= res.q_star <= c
    if not res.boundary:
        assert stationarity_residual(res, params) < 1e-5
        # analytic inner minimizer: r* = (q - m^2) / (rho (c - q)) for q > m^2
        if res.q_star > m * m:
            expected = (res.q_star - m * m) / (rho * (c - res.q_star))
            assert res.r_star == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m,rho", [(1.0, 1.0), (0.3, 1.7), (2.0, 0.5)])
def test_r_star_is_the_closed_form_inner_minimizer(m, rho):
    c = m * m + rho
    for q in np.linspace(m * m, c, 41)[1:-1].tolist() + [c * (1.0 - 1e-9)]:
        r = _r_star(q, m, rho)
        assert r > 0.0
        # psi'(r) = (m^2 + rho) / 2 - rho / (2 (1 + r rho)) = q / 2
        psi_prime = 0.5 * (m * m + rho) - 0.5 * rho / (1.0 + r * rho)
        assert abs(psi_prime - 0.5 * q) <= 1e-14
    for q in (0.0, 0.5 * m * m, m * m):
        assert _r_star(q, m, rho) == 0.0
    with pytest.raises(ArithmeticError):
        _r_star(c, m, rho)


def _inf_over_r(q, big, m, rho, beta):
    """inf_r f_RS(q, r) given Psi(q) = big."""
    r = _r_star(q, m, rho)
    return psi(r, m, rho) + big / beta - 0.5 * r * q


@pytest.mark.parametrize("act", [TANH, RELU], ids=["tanh", "relu"])
@pytest.mark.parametrize("t", [0.01, 0.3, 1.0])
def test_f_star_is_at_least_a_dense_probe_maximum(act, t):
    m, rho, beta = 1.0, 1.0, 0.5
    c = m * m + rho
    res = f_star(t, TheoryParams(m, rho, beta, act), n_outer=10, n_inner=48,
                 grid_points=48)
    probe = [_inf_over_r(q, psi_big(q, t, m, rho, act, 10, 48), m, rho, beta)
             for q in np.linspace(0.0, c * (1.0 - 1e-9), 2001)]
    assert res.f_star >= max(probe) - 1e-12


@pytest.mark.parametrize("t", [1e-5, 1e-4])
def test_f_star_resolves_a_peak_next_to_the_boundary(t):
    # at small t the maximiser sits within about t of q = c, on a peak of
    # that width; a probe zooming in on it by 2001-point grids bounds the sup
    m, rho, beta = 1.0, 1.0, 0.1
    c = m * m + rho
    lo, hi, best = c - 1e-2, c * (1.0 - 1e-9), -np.inf
    for _ in range(4):
        qs = np.linspace(lo, hi, 2001)
        vals = [_inf_over_r(q, psi_big_linear(q, t, m, rho), m, rho, beta)
                for q in qs]
        k = int(np.argmax(vals))
        best = max(best, vals[k])
        lo, hi = qs[max(k - 2, 0)], qs[min(k + 2, 2000)]
    res = f_star(t, TheoryParams(m, rho, beta, LINEAR))
    assert c - res.q_star < 10 * t
    assert res.f_star >= best - 1e-9


def test_f_star_is_supremum_over_probed_points():
    params = TheoryParams(1.0, 1.0, 0.5, LINEAR)
    res = f_star(0.4, params)
    for q in (0.1, 0.9, 1.5, 1.9):
        r = max((q - 1.0) / (1.0 * (2.0 - q)), 0.0)
        assert f_rs(q, r, 0.4, params) <= res.f_star + 1e-9


def test_f_star_decreases_with_time():
    params = TheoryParams(1.0, 1.0, 0.5, LINEAR)
    vals = [f_star(t, params).f_star for t in (0.1, 0.5, 1.5)]
    assert vals[0] > vals[1] > vals[2]


def test_f_star_finite_near_zero_time():
    res = f_star(0.02, TheoryParams(1.0, 1.0, 0.5, LINEAR))
    assert np.isfinite(res.f_star)


def _scipy_bounded(func, x1, x2, xatol, maxiter=500):
    """The reference: scipy's bounded minimizer, in `_minimize_bounded`'s form."""
    opt = minimize_scalar(func, bounds=(x1, x2), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    if not opt.success:
        raise ArithmeticError(opt.message)
    return opt.x, opt.fun, opt.nfev


@pytest.mark.parametrize("func,a,b", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0), (math.cos, 2.0, 5.0),
    (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0),
    (lambda x: math.exp(x) - 3.0 * x, 0.0, 3.0),
    (lambda x: x ** 4 - x, -1.0, 2.0), (lambda x: x, 0.0, 1.0),
    (lambda x: math.sin(10.0 * x) + x, 0.0, 2.0)])
@pytest.mark.parametrize("xatol", [1e-5, 1e-9, 1e-12])
def test_bounded_minimizer_matches_scipy_bit_for_bit(func, a, b, xatol):
    assert (collapse_mod._minimize_bounded(func, a, b, xatol)
            == _scipy_bounded(func, a, b, xatol))


@pytest.mark.parametrize("act", [TANH, RELU, LINEAR], ids=["tanh", "relu", "linear"])
def test_f_star_matches_scipy_minimizer_bit_for_bit(act, monkeypatch):
    params = TheoryParams(1.0, 1.0, 0.5, act)
    times = (1e-5, 0.3, 1.0)
    ours = [f_star(t, params, n_outer=10, n_inner=48, grid_points=48)
            for t in times]
    monkeypatch.setattr(collapse_mod, "_minimize_bounded", _scipy_bounded)
    assert ours == [f_star(t, params, n_outer=10, n_inner=48, grid_points=48)
                    for t in times]


@pytest.mark.parametrize("act", [TANH, SIGMOID], ids=["tanh", "sigmoid"])
@pytest.mark.parametrize("m,rho,beta", [(1.0, 1.0, 0.5), (0.0, 3.0, 0.1),
                                        (2.0, 0.5, 0.9)])
def test_f_star_agrees_with_a_64_point_scan(act, m, rho, beta):
    # the q-grid only brackets the minimizer: at the sweep's and the
    # crossing's quadrature, Q_GRID_POINTS q's find the 64-point scan's sup
    params = TheoryParams(m, rho, beta, act)
    for t in (1e-6, 0.03, 0.3, 3.0):
        for solver in (collapse_mod.SWEEP_SOLVER, collapse_mod.CROSSING_SOLVER):
            quad = (solver["n_outer"], solver["n_inner"])
            ours, ref = f_star(t, params, *quad), f_star(t, params, *quad, 64)
            assert abs(ours.f_star - ref.f_star) <= 1e-8 * (abs(ref.f_star) + 1), \
                (t, solver)
            assert ours.psi_evaluations < ref.psi_evaluations


def test_bounded_minimizer_reports_failure(monkeypatch):
    with pytest.raises(ArithmeticError, match="NaN"):
        collapse_mod._minimize_bounded(lambda x: math.nan, 0.0, 1.0, 1e-9)
    monkeypatch.setattr(collapse_mod, "_MINIMIZE_MAXITER", 3)
    with pytest.raises(ArithmeticError, match="maximum number"):
        collapse_mod._minimize_bounded(math.cos, 2.0, 5.0, 1e-9)


_ROOT_FUNCS = [lambda x, r: x ** 3 - r ** 3,
               lambda x, r: math.tanh(3.0 * (x - r)) + 0.1 * (x - r),
               lambda x, r: math.exp(x) - math.exp(r),
               lambda x, r: math.expm1(5.0 * (x - r))]


def test_root_finder_lands_within_xtol_of_brentq():
    rng = np.random.default_rng(0)
    for i in range(400):
        r = rng.uniform(-2.0, 2.0)
        lo, hi = r - rng.uniform(1e-3, 3.0), r + rng.uniform(1e-3, 3.0)
        xtol = 10.0 ** rng.uniform(-14.0, -2.0)

        def f(x, g=_ROOT_FUNCS[i % len(_ROOT_FUNCS)], r=r):
            return g(x, r)

        root, _ = collapse_mod._brent_root(f, lo, hi, f(lo), f(hi), xtol)
        assert abs(root - brentq(f, lo, hi, xtol=xtol)) <= xtol


def test_root_finder_rejects_nonfinite_and_slow_residuals():
    lo = math.exp(collapse_mod._U_LO)
    with pytest.raises(ArithmeticError, match="nan"):
        collapse_mod._bisect_time(lambda t: t - 1.0 if t == lo else math.nan, 19.0)
    # a step at 0 is only bisected, and an absolute tolerance of one
    # subnormal needs about 1,000 halvings there, more than the 100 allowed
    with pytest.raises(RuntimeError, match="did not converge"):
        collapse_mod._brent_root(lambda x: 1.0 if x >= 0 else -1.0,
                                 -1.0, 2.0, -1.0, 1.0, xtol=5e-324)


def test_root_finder_matches_brentq_on_sweep_residuals(monkeypatch):
    # each solve's root-finder also hands its residual (memoised by the GLM
    # route) to brentq, which then repeats the same iterates for free
    pairs = []
    ours = collapse_mod._brent_root

    def both(f, a, b, fa, fb, xtol):
        root, iterations = ours(f, a, b, fa, fb, xtol)
        pairs.append((root, brentq(f, a, b, xtol=xtol), xtol))
        return root, iterations

    monkeypatch.setattr(collapse_mod, "_brent_root", both)
    # the sweep's tanh row at beta 0.1, near the small end of the bracket
    glm = collapse_time("glm_general", 0.5, TheoryParams(1.0, 1.0, 0.1, TANH),
                        n_outer=10, n_inner=48, grid_points=48, t_tol=1e-4)
    rmt = collapse_time_linear_rmt(0.5, 0.3)
    assert len(pairs) == 2
    for root, ref, xtol in pairs:
        assert abs(root - ref) <= xtol
    # brentq solves the upper end, which ours takes from its bound, and then
    # repeats our iterates: every other solve is the lower end or an iteration
    assert glm.f_star_solves == 2 + glm.brent_iterations
    assert glm.brent_iterations > 0
    assert rmt.brent_iterations > 0 and rmt.f_star_solves == 0


class _UpperEnd(Exception):
    """Carries (residual at the upper end, the bound passed there) out of a solve."""


def _upper_end(monkeypatch, solve):
    """The residual a collapse solve hands its root-finder, evaluated at the
    bracket's upper end, and the lower bound the solve passes for it."""
    def capture(residual, f_hi, t_tol):
        raise _UpperEnd(residual(math.exp(collapse_mod._U_HI)), f_hi)

    monkeypatch.setattr(collapse_mod, "_bisect_time", capture)
    with pytest.raises(_UpperEnd) as exc:
        solve()
    return exc.value.args


@pytest.mark.parametrize("act", [LINEAR, TANH, RELU, SIGMOID],
                         ids=["linear", "tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("m,rho", [(1.0, 1.0), (0.0, 1.0), (3.0, 2.0),
                                   (0.3, 1.7), (10.0, 5.0), (1e4, 1.0),
                                   (1.0, 1e6), (0.0, 1e12)])
def test_glm_residual_at_the_upper_end_lies_above_its_floor(act, m, rho,
                                                            monkeypatch):
    # alpha - i(t) with 0 <= i <= log(1 + a^2 rho / h) / 2; linear data
    # reaches the bound at large rho, relu stays below it.  At m far above
    # 1e4 the sup's tolerance in q, Q_XATOL max(c, 1), is what shows
    alpha, ulps = 0.5, 8 * np.spacing(0.5)
    for beta in (0.1, 1.0):
        value, floor = _upper_end(monkeypatch, lambda: collapse_time_glm(
            TheoryParams(m, rho, beta, act), alpha, **collapse_mod.SWEEP_SOLVER))
        assert floor == collapse_mod._residual_floor_hi(alpha, rho)
        assert floor - ulps <= value <= alpha + ulps, (beta, value - alpha)
    if rho >= 1e6 and act in (LINEAR, RELU):
        assert value < alpha - 1e-13


@pytest.mark.parametrize("rho", [1.0, 1.7, 1e6, 1e12])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
def test_rmt_residual_at_the_upper_end_lies_above_its_floor(rho, beta,
                                                           monkeypatch):
    # mp_logdet(x, beta) <= log1p(x), by Jensen
    value, floor = _upper_end(
        monkeypatch, lambda: collapse_time_linear_rmt(0.5, beta, rho=rho))
    assert floor - 8 * np.spacing(0.5) <= value <= 0.5
    assert floor == collapse_mod._residual_floor_hi(0.5, rho)


@pytest.mark.parametrize("act", [LINEAR, TANH, RELU, SIGMOID],
                         ids=["linear", "tanh", "relu", "sigmoid"])
def test_glm_solve_takes_the_upper_end_from_its_floor(act, monkeypatch):
    # no f_star is solved at t = 20: one at the lower end, one per iteration
    times = []
    solve = collapse_mod.f_star
    monkeypatch.setattr(collapse_mod, "f_star",
                        lambda t, *a: times.append(t) or solve(t, *a))
    res = collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, act), 0.5,
                            **collapse_mod.SWEEP_SOLVER)
    assert len(times) == res.f_star_solves == 1 + res.brent_iterations
    assert times[0] == math.exp(collapse_mod._U_LO)
    assert max(times) < 19.0


def test_a_floor_below_zero_solves_the_upper_end():
    # at rho 1e15 and alpha 1e-3 the floor at t = 20 is alpha - 2.1e-3.
    # Linear data carries that much information there, so both routes have
    # no root in range; relu carries less and keeps its root just below 20
    params = TheoryParams(1.0, 1e15, 0.5, LINEAR)
    for solve in (lambda: collapse_time_glm(params, 1e-3, **collapse_mod.SWEEP_SOLVER),
                  lambda: collapse_time_linear_rmt(1e-3, 0.5, rho=1e15)):
        with pytest.raises(RuntimeError, match="no collapse time"):
            solve()
    res = collapse_time_glm(dataclasses.replace(params, activation=RELU), 1e-3,
                            **collapse_mod.SWEEP_SOLVER)
    assert 19.0 < res.t_c < 20.0
    assert res.f_star_solves == 2 + res.brent_iterations


def test_isometry_collapse_time_frozen_values():
    assert collapse_time_linear_isometry(1.0, 1.0) == pytest.approx(
        T_C_ISO_1_1, abs=1e-12)
    assert collapse_time_linear_isometry(0.25, 0.5) == pytest.approx(
        T_C_ISO_QUARTER_HALF, abs=1e-12)


def test_isometry_collapse_time_solves_defining_equation():
    alpha, beta = 0.4, 0.7
    t_c = collapse_time_linear_isometry(alpha, beta)
    eta = np.exp(-2 * t_c) / -np.expm1(-2 * t_c)
    assert 0.5 * beta * np.log1p(eta) == pytest.approx(alpha, abs=1e-12)


def test_isometry_collapse_time_domain():
    with pytest.raises(ValueError):
        collapse_time_linear_isometry(0.0, 0.5)
    with pytest.raises(ValueError):
        collapse_time_linear_isometry(1.0, 1.5)
    with pytest.raises(ValueError):
        collapse_time_linear_isometry(1.0, 0.5, rho=0.0)


def test_mp_logdet_small_eta_limit():
    # (1/d) log det(eta F F^T / p + I) ~ eta tr(F F^T) / (p d) = eta
    assert mp_logdet(1e-6, 0.5) == pytest.approx(1e-6, rel=1e-2)
    with pytest.raises(ValueError):
        mp_logdet(0.0, 0.5)
    with pytest.raises(ValueError):
        mp_logdet(1.0, 1.2)


def _mp_logdet_decimal(eta, beta):
    """mp_logdet's defining formula in 80-digit decimal arithmetic, where
    its differences of nearly equal numbers lose fewer than 20 of them."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        eta, beta = decimal.Decimal(eta), decimal.Decimal(beta)
        x, rz = eta / beta, beta.sqrt()
        h = ((x * (1 + rz) ** 2 + 1).sqrt() - (x * (1 - rz) ** 2 + 1).sqrt()) ** 2
        return float(beta * (1 + x - h / 4).ln() + (1 + eta - h / 4).ln()
                     - beta / eta * h / 4)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 1.0])
def test_mp_logdet_matches_a_decimal_reference(beta):
    # the log1p arguments 1 + eta - h/4 and 1 + eta/beta - h/4 subtract
    # nearly equal numbers at large eta, and the roots of h at small eta;
    # both are taken without the subtraction, to a few ulp at every eta
    for eta in np.geomspace(1e-8, 1e16, 49):
        want = _mp_logdet_decimal(float(eta), beta)
        assert abs(mp_logdet(float(eta), beta) - want) <= 10 * np.finfo(float).eps * want


def test_mp_logdet_matches_eigen_spectrum():
    rng = np.random.default_rng(7)
    d, beta, eta = 400, 0.5, 1.0
    p = int(beta * d)
    F = rng.standard_normal((d, p))
    _, ld = np.linalg.slogdet(eta * F @ F.T / p + np.eye(d))
    assert ld / d == pytest.approx(mp_logdet(eta, beta), abs=2e-2)


def test_rmt_collapse_time_zeroes_residual_and_orders_with_alpha():
    res = collapse_time_linear_rmt(0.5, 0.5)
    assert res.method == "linear_rmt"
    assert res.residual < 1e-5
    assert (collapse_time_linear_rmt(1.0, 0.5).t_c
            < collapse_time_linear_rmt(0.25, 0.5).t_c)


def test_rmt_approaches_isometry_at_small_beta_fixed_alpha():
    # at fixed alpha both collapse times shrink with beta and their gap
    # closes; at large beta the ensembles differ visibly
    gap_small = abs(collapse_time_linear_rmt(0.5, 0.1).t_c
                    - collapse_time_linear_isometry(0.5, 0.1))
    gap_large = abs(collapse_time_linear_rmt(0.5, 0.9).t_c
                    - collapse_time_linear_isometry(0.5, 0.9))
    assert gap_small < 1e-3
    assert gap_small < gap_large


def test_rmt_reports_unbracketed_root():
    with pytest.raises(RuntimeError, match="no collapse time"):
        collapse_time_linear_rmt(50.0, 0.5)


def test_glm_linear_agrees_with_rmt():
    glm = collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, LINEAR), 0.5).t_c
    rmt = collapse_time_linear_rmt(0.5, 0.5).t_c
    assert abs(glm - rmt) < 1e-3


@pytest.mark.parametrize("m,rho", [(0.3, 1.7), (2.0, 0.5)])
def test_linear_routes_follow_rho(m, rho):
    # the RMT route is the GLM free energy of a linear gaussian-F model in
    # closed form, at any (m, rho); both roots are found to t_tol 1e-6
    glm = collapse_time_glm(TheoryParams(m, rho, 0.5, LINEAR), 0.5).t_c
    rmt = collapse_time_linear_rmt(0.5, 0.5, rho=rho).t_c
    assert abs(glm - rmt) < 1e-6
    assert collapse_time("linear_rmt", 0.5,
                         TheoryParams(m, rho, 0.5, LINEAR)).t_c == rmt

    # the isometry closed form against a slogdet root of the covariance
    # rho F F^T / p of a drawn isometric F
    d, p = 100, 50
    F = make_model(d=d, p=p).embedding.entries
    gram = rho * F @ F.T / p
    eye = np.eye(d)

    def residual(t):
        eta = np.exp(-2.0 * t) / -np.expm1(-2.0 * t)
        return 0.5 - 0.5 * np.linalg.slogdet(eta * gram + eye)[1] / d

    root = brentq(residual, 1e-4, 5.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    iso = collapse_time_linear_isometry(0.5, 0.5, rho=rho)
    assert abs(iso - root) < 1e-10
    assert collapse_time("linear_isometry_closed_form", 0.5,
                         TheoryParams(m, rho, 0.5, LINEAR)).t_c == iso
    assert abs(iso - collapse_time_linear_isometry(0.5, 0.5)) > 1e-2


def test_glm_tanh_collapse_time_runs():
    res = collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, TANH), 0.5,
                            n_outer=10, n_inner=48, grid_points=48, t_tol=1e-4)
    assert res.method == "glm_general"
    assert 0.0 < res.t_c < 0.2
    assert res.residual < 1e-3


# collapse-sweep's nine GLM solves (alpha 0.5, m = rho = 1, n_outer 10,
# n_inner 48, 48 grid points), converged in log t to the relative t_tol 1e-4
SWEEP_T_C = {
    (0.1, "relu"): 0.00010193515804968492,
    (0.1, "tanh"): 6.068413505679037e-05,
    (0.1, "sigmoid"): 7.843686994758022e-06,
    (0.5, "relu"): 0.038959991365005345,
    (0.5, "tanh"): 0.031262208667106856,
    (0.5, "sigmoid"): 0.004169621043675803,
    (0.9, "relu"): 0.05346303435101154,
    (0.9, "tanh"): 0.04549737067034945,
    (0.9, "sigmoid"): 0.0063913877487130535,
}


def _sweep_solve(beta: float, kind: str, t_tol: float):
    return collapse_time("glm_general", 0.5,
                         TheoryParams(1.0, 1.0, beta, make_activation(kind)),
                         n_outer=10, n_inner=48, grid_points=48, t_tol=t_tol)


@pytest.fixture(scope="module")
def sweep_rows():
    return {(round(beta, 9), kind): _sweep_solve(float(beta), kind, 1e-4)
            for beta in np.linspace(0.1, 0.9, 3)
            for kind in ("relu", "tanh", "sigmoid")}


def test_glm_sweep_rows_stay_at_pinned_values(sweep_rows):
    assert sweep_rows.keys() == SWEEP_T_C.keys()
    for key, res in sweep_rows.items():
        assert abs(res.t_c - SWEEP_T_C[key]) <= 1e-9


def test_glm_sweep_rows_converge_to_relative_t_tol(sweep_rows):
    # t_tol is relative to t_C, also on the beta 0.1 rows, where t_C is
    # about t_tol itself; the nine rows spend at most 85 f_star solves
    for (beta, kind), res in sweep_rows.items():
        ref = _sweep_solve(beta, kind, 1e-9).t_c
        assert abs(res.t_c - ref) <= 1e-4 * ref, (beta, kind)
    assert sum(res.f_star_solves for res in sweep_rows.values()) <= 85


def test_psi_evaluations_count_every_psi_big_call(monkeypatch):
    calls = {"psi_big": 0, "f_star": 0}
    qs = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "psi_big":
                qs.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(collapse_mod, "psi_big",
                        counted("psi_big", collapse_mod.psi_big))
    params = TheoryParams(1.0, 1.0, 0.5, TANH)
    res = f_star(0.3, params, n_outer=10, n_inner=48)
    assert not res.boundary
    assert res.psi_evaluations == calls["psi_big"] == len(qs)
    # the scan evaluates the grid's Q_GRID_POINTS q's, each once, in order;
    # the minimizer's q's follow, off the grid
    n = collapse_mod.Q_GRID_POINTS
    grid = np.linspace(0.0, 2.0 * (1.0 - 1e-9), n)
    assert qs[:n] == list(grid)
    assert len(qs) > n and not set(qs[n:]) & set(grid)

    monkeypatch.setattr(collapse_mod, "f_star",
                        counted("f_star", collapse_mod.f_star))
    calls.update(psi_big=0, f_star=0)
    res = collapse_time_glm(params, 0.5, n_outer=10, n_inner=48, t_tol=1e-4)
    assert res.psi_evaluations == calls["psi_big"] > 0
    assert res.f_star_solves == calls["f_star"] > 0

    for method in ("linear_isometry_closed_form", "linear_rmt"):
        res = collapse_time(method, 0.5, TheoryParams(1.0, 1.0, 0.5, LINEAR))
        assert (res.f_star_solves, res.psi_evaluations) == (0, 0)
    # the closed form runs no root-finder either
    res = collapse_time("linear_isometry_closed_form", 0.5,
                        TheoryParams(1.0, 1.0, 0.5, LINEAR))
    assert res.brent_iterations == 0


def test_glm_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        collapse_time_glm(TheoryParams(1.0, 1.0, 0.5, LINEAR), 0.0)


def test_glm_validates_a_bare_tuple():
    # a bare (m, rho, beta, activation) tuple becomes a validated record
    with pytest.raises(ValueError, match="beta"):
        collapse_time_glm((1.0, 1.0, 3.0, LINEAR), 0.5)
    with pytest.raises(ValueError, match="rho"):
        collapse_time_glm((1.0, -0.5, 0.5, LINEAR), 0.5)


def test_dispatcher_takes_a_record_without_a_model():
    params = TheoryParams(0.3, 1.7, 0.5, LINEAR, ensemble="gaussian_iid")
    res = collapse_time(None, 0.5, params)
    assert res == collapse_time_linear_rmt(0.5, 0.5, rho=1.7)


def test_dispatcher_routes_and_rejects_misread_inputs():
    iso = make_model(16, 8).theory_params
    gauss = make_model(16, 8, ensemble="gaussian_iid").theory_params
    assert collapse_method(iso) == "linear_isometry_closed_form"
    assert collapse_method(gauss) == "linear_rmt"
    assert (collapse_method(make_model(16, 8, activation="tanh").theory_params)
            == "glm_general")

    assert collapse_time(None, 0.5, iso).t_c == collapse_time_linear_isometry(0.5, 0.5)
    assert collapse_time(None, 0.5, gauss) == collapse_time_linear_rmt(0.5, 0.5)
    params = TheoryParams(1.0, 1.0, 0.5, LINEAR)
    assert (collapse_time("glm_general", 0.5, params, grid_points=48)
            == collapse_time_glm(params, 0.5, grid_points=48))

    with pytest.raises(ValueError, match="unknown collapse method"):
        collapse_time("closed_form", 0.5, params)
    with pytest.raises(ValueError, match="linear activation"):
        collapse_time("linear_rmt", 0.5, TheoryParams(1.0, 1.0, 0.5, TANH))
