"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each test evaluates its criterion exactly at the stated tolerance and
prints a single summary line before asserting, so the verdicts are visible
in the failure report as well as in the verbose test listing.
"""
import csv
import json

import numpy as np
import pytest
from scipy.optimize import brentq

from manifold_diffusion.activations import make_activation
from manifold_diffusion.collapse import (collapse_time_glm,
                                         collapse_time_linear_isometry,
                                         collapse_time_linear_rmt, mp_logdet,
                                         psi, psi_big, psi_big_linear,
                                         psi_quadrature_check)
from manifold_diffusion.diffusion import EmpiricalScore, schedule
from manifold_diffusion.experiments import (AGREEMENT_LEVEL, ExperimentRecord,
                                            _pairwise_agreement,
                                            collapse_crossing_experiment,
                                            free_energy_mc,
                                            rem_derivative_check,
                                            speciation_experiment,
                                            threshold_crossing)
from manifold_diffusion.model import (TheoryParams, make_model, sample_count,
                                      sample_dataset)
from manifold_diffusion.speciation import (GammaFunctions, gamma0_rows,
                                           gep_constants, potential,
                                           potential_curvature_at_zero,
                                           reduced_sde_simulate,
                                           speciation_time_asymptotic,
                                           speciation_time_finite)
from manifold_diffusion import cli

LINEAR = make_activation("linear")


def _s(mdl, gf=None):
    """S = sum_j Gamma0(lambda_j)^2 of the model, on the quadrature gf."""
    rows = gamma0_rows(mdl, gf or GammaFunctions(mdl.activation, mdl.rho))
    return float(rows @ rows)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _isometry_root(alpha, beta, d=400):
    """Root of alpha = (1/2d) log det(eta_t F F^T / p + I_d) for a real F.

    F is an actual deterministic-isometry draw and the log-determinant is
    taken by slogdet at every step, so the closed form is never used.
    """
    p = int(round(beta * d))
    F = make_model(d=d, p=p).embedding.entries
    gram = F @ F.T / p
    eye = np.eye(d)

    def residual(t):
        eta = np.exp(-2.0 * t) / -np.expm1(-2.0 * t)
        return alpha - 0.5 * np.linalg.slogdet(eta * gram + eye)[1] / d

    return brentq(residual, 1e-4, 5.0, xtol=1e-15,
                  rtol=4 * np.finfo(float).eps)


def test_criterion_01_closed_form_collapse_time():
    t_c = collapse_time_linear_isometry(1.0, 1.0)
    target = _isometry_root(1.0, 1.0)
    ok = abs(t_c - target) < 1e-6
    _verdict(1, ok,
             f"t_C(alpha=1, beta=1) = {t_c:.12f} vs root {target:.12f} of "
             f"the defining equation for an isometric F at d=400: "
             f"|gap| = {abs(t_c - target):.1e} (tol 1e-6)")


def test_criterion_02_glm_path_consistency_linear():
    pts = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)]
    gap_iso = gap_rmt = 0.0
    for alpha, beta in pts:
        glm = collapse_time_glm(TheoryParams(1.0, 1.0, beta, LINEAR), alpha,
                                t_tol=1e-7).t_c
        gap_rmt = max(gap_rmt,
                      abs(glm - collapse_time_linear_rmt(alpha, beta,
                                                         t_tol=1e-7).t_c))
        gap_iso = max(gap_iso, abs(collapse_time_linear_isometry(alpha, beta)
                                   - _isometry_root(alpha, beta)))
    ok = gap_rmt < 1e-3 and gap_iso < 1e-10
    _verdict(2, ok,
             f"max |GLM - RMT| = {gap_rmt:.2e} (tol 1e-3), both gaussian F; "
             f"max |isometry closed form - slogdet root| = {gap_iso:.1e} "
             f"(tol 1e-10), isometric F at d=400; over 9 (alpha, beta) "
             f"points")


def test_criterion_03_psi_sign_arbitration():
    gap_big = max(abs(psi_big(q, t, 1.0, 1.0, LINEAR)
                      - psi_big_linear(q, t, 1.0, 1.0))
                  for t in (0.3, 0.6, 1.0, 1.5)
                  for q in (0.0, 0.5, 1.0, 1.5, 1.9))
    gap_psi = max(abs(psi_quadrature_check(r, m, rho) - psi(r, m, rho))
                  for r, m, rho in [(0.5, 0.0, 1.0), (1.0, 1.0, 1.0),
                                    (2.0, 1.0, 0.5), (0.8, 0.5, 2.0)])
    ok = gap_big < 1e-6 and gap_psi < 1e-8
    _verdict(3, ok,
             f"max |Psi quadrature - linear closed form| = {gap_big:.1e} "
             f"(tol 1e-6) on a 4x5 (t, q) grid; max |psi integral - "
             f"closed form| = {gap_psi:.1e} (tol 1e-8)")


def test_criterion_04_rmt_logdet_vs_eigen():
    rng = np.random.default_rng(0)
    d, beta, eta = 2000, 0.5, 1.0
    p = int(beta * d)
    F = rng.standard_normal((d, p))
    _, ld = np.linalg.slogdet(eta * F @ F.T / p + np.eye(d))
    gap = abs(ld / d - mp_logdet(eta, beta))
    ok = gap < 1e-2
    _verdict(4, ok, f"|eigen logdet/d - mp_logdet(1, 0.5)| = {gap:.2e} "
                    f"at d = 2000 (tol 1e-2)")


def test_criterion_05_speciation_formula_chain():
    d, p = 512, 256
    rel_err = {}
    for act_name in ("linear", "tanh"):
        gf = GammaFunctions(make_activation(act_name), rho=1.0)
        gep = gep_constants(gf)
        errs = []
        for seed in range(10):
            mdl = make_model(d=d, p=p, activation=act_name,
                             ensemble="gaussian_iid", seed=seed)
            t_fin = speciation_time_finite(_s(mdl, gf))
            t_asy = speciation_time_asymptotic(
                mdl.beta, d, mdl.mu_tilde_norm_sq, gep,
                ensemble=mdl.embedding.ensemble)
            errs.append(abs(t_fin - t_asy) / t_asy)
        rel_err[act_name] = float(np.mean(errs))
    iso = make_model(d=d, p=p)
    gep_lin = gep_constants(GammaFunctions(LINEAR, 1.0))
    iso_gap = abs(speciation_time_finite(_s(iso))
                  - speciation_time_asymptotic(
                      iso.beta, d, iso.mu_tilde_norm_sq, gep_lin,
                      ensemble=iso.embedding.ensemble))
    ok = rel_err["linear"] < 0.05 and rel_err["tanh"] < 0.05 and iso_gap < 1e-10
    _verdict(5, ok,
             f"mean relative error finite vs asymptotic over 10 gaussian-F "
             f"draws at d=512, beta=0.5: linear {rel_err['linear']:.3f}, "
             f"tanh {rel_err['tanh']:.3f} (tol 0.05); deterministic-isometry "
             f"linear gap {iso_gap:.1e} (tol 1e-10)")


def test_criterion_06_potential_curvature_criterion():
    mdl = make_model(d=64, p=32)
    s = _s(mdl)
    t_s = speciation_time_finite(s)
    analytic = potential_curvature_at_zero(t_s, s)
    eps = 1e-4
    fd = (potential(eps, t_s, s) - 2 * potential(0.0, t_s, s)
          + potential(-eps, t_s, s)) / eps**2
    ok = abs(analytic) < 1e-10 and abs(fd) < 1e-6
    _verdict(6, ok,
             f"curvature at (0, t_S): analytic {analytic:.1e} (tol 1e-10), "
             f"finite difference {fd:.1e} (tol 1e-6)")


def _reduced_agreement_records(s, t_grid, n_traj, n_clones, seed,
                               dt=0.02, t_min=0.01, t_start=10.0):
    """The clone protocol of ``speciation_experiment`` on the reduced SDE.

    One trunk of ``n_traj`` reduced trajectories runs down from
    ``t_start`` (where q has forgotten its start); at each grid time every
    trajectory spawns ``n_clones`` continuations down to ``t_min``,
    classified by the sign of q; all clones of one grid time run as one
    ensemble.
    """
    times, trunk = reduced_sde_simulate(t_start, t_grid[-1], dt, s, n_traj,
                                        seed)
    records = []
    for k, t in enumerate(t_grid):
        q_t = trunk[int(np.argmin(np.abs(times - t)))]
        ends = reduced_sde_simulate(t, t_min, dt, s, n_traj * n_clones,
                                    seed=seed * 10**6 + k + 1,
                                    q0=np.repeat(q_t, n_clones))[1][-1]
        agree = _pairwise_agreement(np.sign(ends).reshape(n_traj, n_clones))
        records.append(ExperimentRecord(
            kind="reduced_speciation_agreement", t=float(t),
            value=float(agree.mean()),
            stderr=float(agree.std(ddof=1) / np.sqrt(n_traj)),
            n_rep=n_traj * n_clones, model_hash="reduced", seed=seed))
    return records


def test_criterion_07_simulated_speciation_band():
    mdl = make_model(d=64, p=32, m=1.0, seed=0)
    gf = GammaFunctions(LINEAR, 1.0)
    t_s = speciation_time_asymptotic(mdl.beta, mdl.d, mdl.mu_tilde_norm_sq,
                                     gep_constants(gf),
                                     ensemble=mdl.embedding.ensemble)
    t_grid = np.linspace(2.6, 0.6, 11)
    score = EmpiricalScore(sample_dataset(mdl, 4096, seed=1))
    direction = gamma0_rows(mdl, gf)
    records = speciation_experiment(mdl, score, direction, t_grid=t_grid,
                                    n_traj=40, n_clones=25, seed=1)
    t_emp, status = threshold_crossing(records, AGREEMENT_LEVEL)
    t_theory, theory_status = threshold_crossing(_reduced_agreement_records(
        float(direction @ direction), t_grid, n_traj=400, n_clones=25, seed=1),
        AGREEMENT_LEVEL)
    assert (status, theory_status) == ("interpolated", "interpolated")
    gap = abs(t_emp - t_theory)
    ok = gap < 0.5
    _verdict(7, ok,
             f"empirical clone-agreement 0.95 crossing {t_emp:.3f} vs "
             f"reduced-SDE crossing {t_theory:.3f} (same protocol): |gap| = "
             f"{gap:.3f} (band 0.5) at d=64, beta=0.5, m=1, 40x25 clone "
             f"pairs; t_S = {t_s:.3f}")


def test_criterion_08_simulated_collapse_band():
    d, p, alpha = 40, 20, 0.25
    mdl = make_model(d=d, p=p)
    n = sample_count(alpha, d)
    dataset = sample_dataset(mdl, n, seed=0)
    t_grid = np.linspace(0.6, 0.05, 12)
    records = collapse_crossing_experiment(mdl, dataset, t_grid, n_noise=200, seed=1)
    t_emp, status = threshold_crossing(records, 0.0)
    assert status == "interpolated"
    t_theory = collapse_time_linear_isometry(alpha, mdl.beta)
    gap = abs(t_emp - t_theory)
    ok = gap < 0.15
    _verdict(8, ok,
             f"log Z1/Z2 crossing at t = {t_emp:.4f} vs closed form "
             f"{t_theory:.4f}: |gap| = {gap:.4f} (band 0.15) at d=40, "
             f"n={n}, 200 noise draws")


def test_criterion_09_rem_derivative_identity():
    mdl = make_model(d=32, p=16)
    rec = rem_derivative_check(mdl, 0.5, n_rep=100_000, seed=3)
    gap = abs(rec.value - 0.5)
    ok = gap < 0.01
    _verdict(9, ok, f"-g'(1) estimate = {rec.value:.5f} "
                    f"(+- {rec.stderr:.5f}), |gap from 1/2| = {gap:.5f} "
                    f"(tol 0.01, n_rep = 1e5)")


def test_criterion_10_free_energy_concentration():
    mdl = make_model(d=16, p=8, ensemble="gaussian_iid", seed=4)
    t = 0.5
    sch = schedule(t)
    F = mdl.embedding.entries
    sigma = sch.a**2 * F @ F.T / mdl.p + sch.h * np.eye(mdl.d)
    exact = (-0.5 * np.log(2 * np.pi)
             - np.linalg.slogdet(sigma)[1] / (2 * mdl.d) - 0.5)
    matched = free_energy_mc(mdl, t, n_x=60, n_latent=100_000, seed=12)
    mismatched = free_energy_mc(mdl, t, n_x=60, n_latent=100_000, seed=12,
                                mismatched=True)
    z = abs(matched.value - exact) / matched.stderr
    kl_gap = matched.value - mismatched.value
    kl_scale = 2 * np.hypot(matched.stderr, mismatched.stderr)
    ok = z < 3.0 and kl_gap > kl_scale
    _verdict(10, ok,
             f"MC free energy {matched.value:.4f} vs exact Gaussian "
             f"{exact:.4f}: {z:.2f} stderr (tol 3); matched - mismatched = "
             f"{kl_gap:.3f} > {kl_scale:.3f} (2 stderr ordering)")


def test_criterion_11_figure_regeneration(tmp_path):
    code = cli.main(["collapse-sweep", "--beta-min", "0.1",
                     "--beta-max", "0.9", "--beta-points", "5",
                     "--alpha", "0.5", "--activations", "relu,tanh,sigmoid",
                     "--output-dir", str(tmp_path)])
    assert code == 0
    curves = {}
    with open(tmp_path / "collapse_sweep.csv") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["method_or_activation"], []).append(
                (float(row["beta"]), float(row["t_C [backward time]"])))
    finite = all(np.isfinite(t) for pts in curves.values() for _, t in pts)
    max_jump = max(abs(pts[i + 1][1] - pts[i][1])
                   for name in ("relu", "tanh", "sigmoid")
                   for pts in [sorted(curves[name])]
                   for i in range(len(pts) - 1))
    iso = dict(curves["linear_isometry_closed_form"])
    rmt = dict(curves["linear_rmt"])
    gap_small = abs(iso[0.1] - rmt[0.1])
    gap_large = abs(iso[0.9] - rmt[0.9])
    ok = finite and max_jump < 0.5 and gap_small < gap_large
    _verdict(11, ok,
             f"sweep curves finite for relu/tanh/sigmoid with max adjacent "
             f"jump {max_jump:.3f} (continuity bound 0.5); isometry-vs-RMT "
             f"gap {gap_small:.5f} at beta=0.1 < {gap_large:.5f} at "
             f"beta=0.9")
