"""Stochastic experiments confronting the theory with desk-scale simulation.

Four protocols: clone-agreement speciation, the planted-vs-bulk partition
crossing that locates memorization, Monte-Carlo estimation of the GLM free
energy, and the tilted-partition identity behind the condensation argument.
The clone trajectories jump between grid times with the exact backward
transition of the empirical score, so no protocol steps an ambient SDE in
time.  All runs are reproducible bit-for-bit from their seeds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import EmpiricalScore, bridge, schedule
from .model import Dataset, ManifoldModel, _rng, model_to_config


def model_hash(model: ManifoldModel) -> str:
    payload = json.dumps(model_to_config(model), sort_keys=True).encode()
    digest = hashlib.sha256(payload + model.embedding.entries.tobytes())
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured quantity at one time point."""

    kind: str
    t: float
    value: float
    stderr: float
    n_rep: int
    model_hash: str
    seed: int
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.stderr < 0 or self.n_rep < 1 or not math.isfinite(self.value):
            raise ValueError("malformed experiment record")


def _record(kind: str, t: float, values: np.ndarray, model: ManifoldModel, seed: int,
            n_rep: int | None = None, flags: tuple[str, ...] = ()) -> ExperimentRecord:
    """The record of the mean of the per-draw ``values`` at time t, with its
    standard error (0 for one draw); ``n_rep`` defaults to the draw count."""
    n = len(values)
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ExperimentRecord(kind, float(t), float(values.mean()), stderr,
                            n_rep or n, model_hash(model), seed, flags)


# ---------------------------------------------------------------------------
# speciation by cloning

# the clone agreement at which the clones count as committed to one class
AGREEMENT_LEVEL = 0.95


def _pairwise_agreement(signs: np.ndarray) -> np.ndarray:
    """Mean pairwise sign agreement per row of a (n_traj, n_clones) array."""
    k = signs.shape[1]
    plus = (signs > 0).sum(axis=1)
    minus = k - plus
    return (plus * (plus - 1) + minus * (minus - 1)) / (k * (k - 1))


def _bridge_draws(score: EmpiricalScore, y: np.ndarray, idx: np.ndarray,
                  t: float, s: float, rng: np.random.Generator) -> np.ndarray:
    """(B, k, d) draws of x_s from N(c0 x_i + c1 y, v I), i = ``idx[b, j]``.

    ``y`` is the (B, d) batch at time t and ``idx`` its (B, k) sample
    indices from ``EmpiricalScore.draw_indices``; (c0, c1, v) =
    ``bridge(t, s)``.
    """
    c0, c1, v = bridge(t, s)
    mean = c0 * score.samples[idx] + c1 * y[:, None, :]
    return mean + np.sqrt(v) * rng.standard_normal(mean.shape)


def speciation_experiment(model: ManifoldModel, score: EmpiricalScore, direction,
                          t_grid, n_traj: int, n_clones: int, seed: int,
                          t_min: float = 0.01,
                          t_start: float = 10.0) -> list[ExperimentRecord]:
    """Clone-agreement measurement of the speciation transition.

    Backward trajectories start from N(0, I_d) at ``t_start``; at each grid
    time each trajectory spawns ``n_clones`` independent continuations down
    to ``t_min`` whose endpoints are classified by the sign of the
    projection on ``direction``, the reduced-coordinate vector
    (Gamma0(lambda_j))_j of ``speciation.gamma0_rows``.  The recorded
    value is the mean pairwise clone agreement.

    The process is the backward process of the empirical score, sampled
    exactly: from x_t its law at s < t is the mixture
    sum_i w_i(x_t) N(c0 x_i + c1 x_t, v I) of ``diffusion.bridge``, with
    w the kernel's softmax (Biroli, Bonnaire, de Bortoli & Mezard 2024,
    arXiv 2402.18491).  So at ``t_start`` and at each grid time the kernel
    is evaluated once on the ``n_traj`` trunk points
    (``EmpiricalScore.draw_indices``, len(t_grid) + 1 evaluations in all),
    ``n_clones`` + 1 sample indices are drawn per point, and the clones'
    endpoints at ``t_min`` and the trunk's next point are each one
    Gaussian draw; no time is stepped.

    The agreement curve is predicted by the reduced commitment SDE
    (``speciation.reduced_sde_simulate`` with S = |direction|^2) run
    through the same clone protocol, not by t_S alone: at t_S the
    curvature of V(q, t) only just changes sign and the agreement is about
    0.7, so its 0.95 crossing lies about one time unit below t_S (about 1.1
    against t_S = 2.08 for the isometric linear model at d=64, p=32, m=1).

    The clones are driven by ``score``, the kernel over the training set;
    the caller forms it and ``direction`` once, before the run.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) >= 0):
        raise ValueError("t_grid must be strictly decreasing")
    if not (len(t_grid) and t_start > t_grid[0] and t_grid[-1] > t_min > 0):
        raise ValueError("need t_start > t_grid > t_min > 0")
    if n_clones < 2:
        raise ValueError("need at least two clones")

    rng = _rng(seed + 1)

    y = rng.standard_normal((n_traj, model.d))
    idx = score.draw_indices(y, t_start, 1, rng)
    y = _bridge_draws(score, y, idx, t_start, t_grid[0], rng)[:, 0]
    records = []
    for k, t in enumerate(t_grid):
        idx = score.draw_indices(y, t, n_clones + 1, rng)
        ends = _bridge_draws(score, y, idx[:, :n_clones], t, t_min, rng)
        agree = _pairwise_agreement(np.sign(ends @ direction))
        if k + 1 < len(t_grid):
            y = _bridge_draws(score, y, idx[:, n_clones:], t, t_grid[k + 1], rng)[:, 0]
        records.append(_record("speciation_agreement", t, agree, model, seed,
                               n_rep=n_traj * n_clones))
    return records


def threshold_crossing(records: list[ExperimentRecord],
                       level: float) -> tuple[float | None, str]:
    """(t, status) of the largest t where the monitored value reaches ``level``.

    Records are assumed ordered by decreasing t with values increasing as t
    decreases.  The status is ``"interpolated"`` (t interpolated between the
    last record below the level and the first at or above it),
    ``"censored_above"`` (the first record is already at the level: the
    crossing lies above the grid) or ``"censored_below"`` (no record reaches
    it: the crossing lies below the grid); t is None when censored.

    At ``AGREEMENT_LEVEL`` on ``speciation_experiment`` records this is the
    time by which clones commit to one class with that agreement, not the
    speciation time t_S: the reduced commitment SDE predicts the 0.95
    crossing below t_S (about 1.1 against 2.08 at d=64).  At level 0 on
    ``collapse_crossing_experiment`` records it is the collapse crossing.
    """
    ts = np.array([r.t for r in records])
    vs = np.array([r.value for r in records])
    above = vs >= level
    if not above.any():
        return None, "censored_below"
    if above[0]:
        return None, "censored_above"
    k = int(np.argmax(above))  # first grid point at/above the level
    t0, t1 = ts[k - 1], ts[k]
    v0, v1 = vs[k - 1], vs[k]
    return float(t0 + (level - v0) * (t1 - t0) / (v1 - v0)), "interpolated"


# ---------------------------------------------------------------------------
# collapse crossing

def collapse_crossing_experiment(model: ManifoldModel, score: EmpiricalScore, t_grid,
                                 n_noise: int, seed: int) -> list[ExperimentRecord]:
    """Mean of (log Z1 - log Z2) / d along the forward trajectory of x_1.

    x_1 is the kernel's first sample and Z1 its weight, log Z1 =
    -||x - a x_1||^2 / (2 h) from the explicit difference; Z2 is the sum
    over all other samples from ``EmpiricalScore.log_partition`` with a
    mask.  They are reduced in blocks, so memory grows with the block size,
    not with n_noise x n.

    The gap is negative at large t, where the bulk dominates, and positive
    at small t, where the planted sample does.  When its crossing,
    ``threshold_crossing(records, 0.0)``, is censored, the last record is
    flagged ``all_one_sign_widen_grid``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) >= 0):
        raise ValueError("t_grid must be strictly decreasing")
    if not (len(t_grid) and t_grid[-1] > 0):
        raise ValueError("need a non-empty t_grid with t > 0")
    n = len(score.samples)
    if n < 2:
        raise ValueError("collapse crossing needs at least two samples")
    x1 = score.samples[0]
    others = np.arange(n) != 0
    rng = _rng(seed)
    records = []
    for t in t_grid:
        sch = schedule(float(t))
        x = sch.a * x1[None, :] + np.sqrt(sch.h) * rng.standard_normal((n_noise, model.d))
        diff = x - sch.a * x1
        log_z1 = -np.einsum("bj,bj->b", diff, diff) / (2.0 * sch.h)
        gap = (log_z1 - score.log_partition(x, float(t), keep=others)) / model.d
        records.append(_record("logZ_gap", t, gap, model, seed))
    if threshold_crossing(records, 0.0)[1] != "interpolated":
        records[-1] = replace(records[-1], flags=("all_one_sign_widen_grid",))
    return records


# ---------------------------------------------------------------------------
# Monte-Carlo free energy

def free_energy_mc(model: ManifoldModel, t: float, n_x: int, n_latent: int,
                   seed: int, mismatched: bool = False) -> ExperimentRecord:
    """Estimate (1/d) E_{x ~ P_t^+} log P_t^+(x).

    Outer draws follow the forward-noised manifold distribution; the inner
    log-density estimate is a log-mean-exp over ``n_latent`` fresh latent
    draws from the (matched or mismatched) cluster prior.  The estimator is
    biased downward by Jensen, hence the permanent flag.
    """
    if model.p > 24:
        raise ValueError("variance guard: free_energy_mc requires p <= 24")
    if n_latent < 10_000:
        raise ValueError("inner estimate requires n_latent >= 10^4")
    sch = schedule(t)
    rng = _rng(seed)
    inner_sign = -1.0 if mismatched else 1.0
    sqrt_rho = np.sqrt(model.rho)

    vals = np.empty(n_x)
    min_ess = np.inf
    for i in range(n_x):
        xi = model.mu + sqrt_rho * rng.standard_normal(model.p)
        x = sch.a * model.embed(xi[None, :])[0] + np.sqrt(sch.h) * rng.standard_normal(model.d)
        xi_in = (inner_sign * model.mu[None, :]
                 + sqrt_rho * rng.standard_normal((n_latent, model.p)))
        amb = model.embed(xi_in)
        diff = x[None, :] - sch.a * amb
        lw = -np.einsum("ij,ij->i", diff, diff) / (2.0 * sch.h)
        m = lw.max()
        w = np.exp(lw - m)
        sw = w.sum()
        min_ess = min(min_ess, sw * sw / (w @ w))
        log_p = m + np.log(sw / n_latent) - 0.5 * model.d * np.log(2.0 * np.pi * sch.h)
        vals[i] = log_p / model.d

    flags = ["logmeanexp_downward_bias"]
    if mismatched:
        flags.append("mismatched_prior")
    if min_ess < 100:
        flags.append("low_inner_ess_unreliable")
    return _record("free_energy_mc", t, vals, model, seed, flags=tuple(flags))


# ---------------------------------------------------------------------------
# REM appendix checks

def rem_derivative_check(model: ManifoldModel, t: float, n_rep: int,
                         seed: int) -> ExperimentRecord:
    """Estimate -g'(1) = E ||x - a_t x_1||^2 / (2 h_t d) by direct sampling."""
    sch = schedule(t)
    rng = _rng(seed)
    xi = model.mu[None, :] + np.sqrt(model.rho) * rng.standard_normal((n_rep, model.p))
    x1 = model.embed(xi)
    z = rng.standard_normal((n_rep, model.d))
    x = sch.a * x1 + np.sqrt(sch.h) * z
    energy = np.einsum("ij,ij->i", x - sch.a * x1, x - sch.a * x1) / (2.0 * sch.h * model.d)
    return _record("rem_derivative", t, energy, model, seed)


def tilted_log_partition(model: ManifoldModel, dataset: Dataset, t: float,
                         lam: float, n_noise: int, seed: int) -> float:
    """(1/d) E_x log sum_{i >= 2, same class} exp(-lam ||x - a_t x_i||^2 / 2 h_t).

    x is noise around a_t x_1, x_1 the first sample.  lam ||x - a_t x_i||^2
    = ||s x - a_t s x_i||^2 with s = sqrt(lam), so the sum is the untilted
    log partition of the scaled points over the scaled samples, by blocks.
    """
    if lam <= 0:
        raise ValueError("tilt parameter must be positive")
    sch = schedule(t)
    s = np.sqrt(lam)
    score = EmpiricalScore(s * dataset.ambient)
    same = dataset.labels == dataset.labels[0]
    same[0] = False
    rng = _rng(seed)
    x1 = dataset.ambient[0]
    x = sch.a * x1[None, :] + np.sqrt(sch.h) * rng.standard_normal((n_noise, model.d))
    return float(score.log_partition(s * x, t, keep=same).mean() / model.d)


def records_to_csv(records: list[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "t", "value", "stderr", "n_rep",
                         "model_hash", "seed", "flags"])
        for r in records:
            writer.writerow([r.kind, r.t, r.value, r.stderr, r.n_rep,
                             r.model_hash, r.seed, ";".join(r.flags)])
