"""Speciation theory: Gamma functions, equivalence constants, reduced SDE."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import manifold_diffusion
from manifold_diffusion.model import make_model
from manifold_diffusion.speciation import (GammaFunctions, GepConstants,
                                           gamma0_rows, gep_constants,
                                           lambdas, potential,
                                           potential_curvature_at_zero,
                                           reduced_sde_simulate,
                                           speciation_time_asymptotic,
                                           speciation_time_finite)
from manifold_diffusion.activations import make_activation
from manifold_diffusion.quadrature import normal_moments, std_normal_nodes

# E[tanh(u + 1)] and friends for u ~ N(0,1), frozen from a 30-digit
# adaptive quadrature of the defining integrals
GAMMA0_TANH_1 = 0.550400490793327
GAMMA1_TANH_1 = 0.449599509206673
RHO1_TANH = 0.480024254336051
RHO_STAR_SQ_TANH = 0.005584049800487


def _moments(gf, y):
    """(Gamma0, Gamma1, Gamma^(2)) at the points y: the three moments the
    node-doubling test watches."""
    return normal_moments(gf.activation, np.atleast_1d(y), gf.rho, gf.node_count)


def test_linear_gamma_closed_forms():
    gf = GammaFunctions(make_activation("linear"), rho=0.7)
    y = np.array([-1.5, 0.0, 2.0])
    _, g1, g2 = _moments(gf, y)
    assert np.allclose(gf.gamma0(y), y, atol=1e-12)
    assert np.allclose(g1, np.sqrt(0.7), atol=1e-12)
    assert np.allclose(g2, 0.7 + y**2, atol=1e-12)


def test_tanh_gamma_frozen_values():
    gf = GammaFunctions(make_activation("tanh"), rho=1.0)
    _, g1, g2 = _moments(gf, 1.0)
    assert gf.gamma0(1.0) == pytest.approx(GAMMA0_TANH_1, abs=1e-12)
    assert g1[0] == pytest.approx(GAMMA1_TANH_1, abs=1e-12)
    # unit mean equal to the variance: E[tanh] = E[tanh^2] exactly
    assert g2[0] == pytest.approx(GAMMA0_TANH_1, abs=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_tanh_gamma1_gamma2_linked_by_parts(y):
    # integration by parts at rho = 1: E[phi(u+y) u] = E[phi'(u+y)] = 1 - Gamma2
    gf = GammaFunctions(make_activation("tanh"), rho=1.0)
    _, g1, g2 = _moments(gf, y)
    assert g1[0] == pytest.approx(1.0 - g2[0], abs=1e-10)


def test_gamma_node_counts_stay_pinned():
    # the doubling test watches all three moments; on Gamma0 alone tanh at
    # rho 2 and 3 would stop at 128 nodes
    rhos = (0.25, 0.5, 1.0, 2.0, 3.0)
    counts = {"linear": [64] * 5, "tanh": [64, 64, 128, 256, 256]}
    for kind, want in counts.items():
        phi = make_activation(kind)
        assert [GammaFunctions(phi, rho).node_count for rho in rhos] == want


def test_gamma_scalar_and_vector_calls_agree():
    gf = GammaFunctions(make_activation("tanh"), rho=0.5)
    ys = np.array([0.3, 1.1])
    vec = gf.gamma0(ys)
    assert isinstance(gf.gamma0(0.3), float)
    assert gf.gamma0(0.3) == pytest.approx(vec[0])


def test_gamma_rejects_bad_rho():
    with pytest.raises(ValueError):
        GammaFunctions(make_activation("linear"), rho=0.0)


def _mean_gamma0(gf):
    """E[Gamma0(u)], u ~ N(0,1): zero for an odd activation, which is why
    GepConstants holds no rho0."""
    u, w = std_normal_nodes(256)
    return w @ gf.gamma0(u)


def test_gep_constants_linear():
    gf = GammaFunctions(make_activation("linear"), rho=1.0)
    gep = gep_constants(gf)
    assert _mean_gamma0(gf) == pytest.approx(0.0, abs=1e-12)
    assert gep.rho1 == pytest.approx(1.0, abs=1e-12)
    assert gep.rho_star_sq == pytest.approx(0.0, abs=1e-10)


def test_gep_constants_tanh_frozen():
    gf = GammaFunctions(make_activation("tanh"), rho=1.0)
    gep = gep_constants(gf)
    assert _mean_gamma0(gf) == pytest.approx(0.0, abs=1e-12)
    assert gep.rho1 == pytest.approx(RHO1_TANH, abs=1e-9)
    assert gep.rho_star_sq == pytest.approx(RHO_STAR_SQ_TANH, abs=1e-9)


def test_gep_constants_require_odd_activation():
    # the quadrature of a non-odd activation is never built
    with pytest.raises(ValueError, match="odd activation"):
        GammaFunctions(make_activation("relu"), rho=1.0)


def test_lambdas_definition():
    mdl = make_model(d=10, p=4, seed=3)
    expected = mdl.embedding.entries @ mdl.mu / 2.0
    assert np.allclose(lambdas(mdl), expected)


def _s(mdl):
    """S = sum_j Gamma0(lambda_j)^2 of the model."""
    rows = gamma0_rows(mdl, GammaFunctions(mdl.activation, mdl.rho))
    return float(rows @ rows)


def test_gamma0_sq_sum_linear_isometry_identity():
    # linear phi: S = ||F mu||^2 / p = mu^T (F^T F / p) mu = p m^2
    mdl = make_model(d=40, p=10, m=1.5)
    assert _s(mdl) == pytest.approx(10 * 1.5**2, abs=1e-10)


def test_speciation_finite_equals_asymptotic_for_linear_isometry():
    mdl = make_model(d=40, p=10, m=1.5)
    gep = gep_constants(GammaFunctions(mdl.activation, mdl.rho))
    t_fin = speciation_time_finite(_s(mdl))
    t_asy = speciation_time_asymptotic(mdl.beta, mdl.d, mdl.mu_tilde_norm_sq, gep)
    assert t_fin == pytest.approx(0.5 * np.log(2 * 10 * 1.5**2), abs=1e-12)
    assert abs(t_fin - t_asy) < 1e-10


def test_speciation_time_requires_odd_and_signal():
    with pytest.raises(ValueError, match="odd"):
        _s(make_model(d=8, p=4, activation="relu"))
    with pytest.raises(ValueError, match="no speciation signal"):
        _s(make_model(d=8, p=4, m=0.0))
    with pytest.raises(ValueError, match="no speciation signal"):
        speciation_time_asymptotic(0.5, 8, 0.0, GepConstants(0.0, 0.0))
    # at m = 0 the rows are quadrature roundoff, not exactly zero
    for kind in ("linear", "tanh"):
        mdl = make_model(d=16, p=8, m=0.0, activation=kind)
        rows = GammaFunctions(mdl.activation, mdl.rho).gamma0(lambdas(mdl))
        assert 0 < rows @ rows <= 1e-12
        with pytest.raises(ValueError, match="no speciation signal"):
            _s(mdl)


def test_no_speciation_time_when_2s_is_at_most_one():
    # with 2 S <= 1 the curvature 1 - 2 e^{-2t} S is positive at every t >= 0
    for s in (0.02, 0.5):
        with pytest.raises(RuntimeError, match="no speciation time t > 0: 2 S = "):
            speciation_time_finite(s)
    # S_asy = rho1^2 beta d |mu~|^2 = 0.2, and d (rho1^2 |mu~|^2 + rho*^2) = 0.4
    for ensemble in ("deterministic_isometry", "gaussian_iid"):
        with pytest.raises(RuntimeError, match="no speciation time t > 0: 2 S = "):
            speciation_time_asymptotic(0.5, 8, 0.05, GepConstants(1.0, 0.0), ensemble)
    assert speciation_time_finite(0.6) == pytest.approx(0.5 * np.log(1.2), rel=1e-15)


def test_gamma0_rows_needs_the_models_quadrature():
    mdl = make_model(d=8, p=4, activation="tanh")
    assert gamma0_rows(mdl, GammaFunctions(mdl.activation, mdl.rho)).shape == (8,)
    for gf in (GammaFunctions(make_activation("linear"), mdl.rho),
               GammaFunctions(mdl.activation, 2.0)):
        with pytest.raises(ValueError, match="another activation or rho"):
            gamma0_rows(mdl, gf)


def test_potential_shape_and_symmetry():
    q = np.linspace(-5, 5, 11)
    v = potential(q, t=1.0, gamma0_sq_sum=4.0)
    assert v[5] == 0.0
    assert np.allclose(v, v[::-1])
    # overflow-safe for huge arguments
    assert np.isfinite(potential(1e8, 0.5, 10.0))
    for t in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="0 < t < inf"):
            potential(1.0, t, 4.0)
        with pytest.raises(ValueError, match="0 < t < inf"):
            potential_curvature_at_zero(t, 4.0)


def test_curvature_zero_exactly_at_transition():
    s = 32.0
    t_s = 0.5 * np.log(2 * s)
    assert potential_curvature_at_zero(t_s, s) == pytest.approx(0.0, abs=1e-14)
    assert potential_curvature_at_zero(t_s + 0.1, s) > 0
    assert potential_curvature_at_zero(t_s - 0.1, s) < 0


@pytest.mark.parametrize("t,s", [(0.5, 4.0), (1.5, 4.0), (2.0, 50.0)])
def test_curvature_matches_finite_difference(t, s):
    eps = 1e-4
    fd = (potential(eps, t, s) - 2 * potential(0.0, t, s)
          + potential(-eps, t, s)) / eps**2
    assert fd == pytest.approx(potential_curvature_at_zero(t, s), abs=1e-6)


def test_reduced_sde_shapes_and_reproducibility():
    times, q = reduced_sde_simulate(2.0, 0.5, 0.05, gamma0_sq_sum=10.0,
                                    n_traj=8, seed=3)
    assert q.shape == (len(times), 8)
    assert times[0] == 2.0 and times[-1] == pytest.approx(0.5)
    assert np.all(np.diff(times) < 0)
    _, q2 = reduced_sde_simulate(2.0, 0.5, 0.05, 10.0, 8, seed=3)
    assert np.array_equal(q, q2)
    for t_start, t_end in [(0.5, 2.0), (0.5, 0.5), (0.5, 0.0), (0.5, -1.0),
                           (0.5, np.nan), (np.nan, 0.5), (-np.inf, 0.5)]:
        with pytest.raises(ValueError, match="strictly decreasing"):
            reduced_sde_simulate(t_start, t_end, 0.05, 10.0, 8, seed=3)


def test_reduced_sde_refuses_an_infinite_start_at_once():
    # t -= step leaves an infinite t where it is, so unchecked the loop would
    # append a state per step and never return; a fresh process with a
    # timeout turns that into a failure
    src = str(Path(manifold_diffusion.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import math\n"
              "from manifold_diffusion.speciation import reduced_sde_simulate\n"
              "try:\n"
              "    reduced_sde_simulate(math.inf, 0.3, 0.01, 10.0, n_traj=1, seed=0)\n"
              "except ValueError:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit('returned without an error')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_reduced_sde_accepts_array_start():
    _, q = reduced_sde_simulate(1.0, 0.5, 0.05, 10.0, 6, seed=4, q0=2.5)
    _, q_full = reduced_sde_simulate(1.0, 0.5, 0.05, 10.0, 6, seed=4,
                                     q0=np.full(6, 2.5))
    assert np.array_equal(q, q_full)
    starts = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    _, q = reduced_sde_simulate(1.0, 0.5, 0.05, 10.0, 6, seed=4, q0=starts)
    assert np.array_equal(q[0], starts)
    with pytest.raises(ValueError):
        reduced_sde_simulate(1.0, 0.5, 0.05, 10.0, 6, seed=4, q0=starts[:4])


def test_reduced_sde_reports_divergence():
    # noise variance 2 S overflows to inf: the step index is in the message
    with pytest.raises(FloatingPointError, match="non-finite state at step 1"):
        reduced_sde_simulate(1.0, 0.5, 0.1, 1e308, 4, seed=0)


def test_reduced_sde_splits_symmetrically_below_transition():
    s = 50.0
    t_s = 0.5 * np.log(2 * s)  # ~ 2.30
    _, q = reduced_sde_simulate(t_s + 1.0, 0.3, 0.02, s, n_traj=400, seed=1)
    final = q[-1]
    frac_plus = (final > 0).mean()
    assert 0.35 < frac_plus < 0.65
    # well below t_S the ensemble sits in the two wells, far from the origin
    assert np.abs(final).mean() > np.sqrt(2 * s)
