"""Stochastic experiments confronting the theory with desk-scale simulation.

Four protocols: clone-agreement speciation, the planted-vs-bulk partition
crossing that locates memorization, Monte-Carlo estimation of the GLM free
energy, and the tilted-partition identity behind the condensation argument.
The last (criterion 09) measures the mean of chi^2_d / (2d), 1/2 for every
model, so it checks the sampler, not the data model.
The clone trajectories jump between grid times with the exact backward
transition of the empirical score, so no protocol steps an ambient SDE in
time.  All runs are reproducible bit-for-bit from their seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import EmpiricalScore, bridge, check_time, log_partitions, schedule
from .model import (Dataset, ManifoldModel, SampleStream, _rng, check_sample_count,
                    model_to_config)


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
        if (not 0.0 <= self.stderr < math.inf or self.n_rep < 1
                or not math.isfinite(self.value)):
            raise ValueError("malformed experiment record")


def _record(kind: str, t: float, values: np.ndarray, model: ManifoldModel, seed: int,
            n_rep: int | None = None, flags: tuple[str, ...] = ()) -> ExperimentRecord:
    """The record of the mean of the per-draw ``values`` at time t, with its
    standard error (0 for one draw); ``n_rep`` defaults to the draw count.
    A standard error that overflows is inf, which the record refuses."""
    n = len(values)
    with np.errstate(over="ignore"):  # squares of values past 1e154
        stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ExperimentRecord(kind, float(t), float(values.mean()), stderr,
                            n_rep or n, model_hash(model), seed, flags)


# ---------------------------------------------------------------------------
# speciation by cloning

# the clone agreement at which the clones count as committed to one class
AGREEMENT_LEVEL = 0.95
# the clones' end time and the trunk's start time of `speciation_experiment`
CLONE_T_MIN, CLONE_T_START = 0.01, 10.0


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


def check_speciation(t_grid, n_traj: int, n_clones: int) -> None:
    """Reject the arguments of a `speciation_experiment` that cannot run; the
    CLI calls it before it samples the training set."""
    check_time(t_grid, CLONE_T_MIN, CLONE_T_START)
    if n_traj < 1:
        raise ValueError(f"need at least one trajectory, got n_traj = {n_traj}")
    if n_clones < 2:
        raise ValueError("need at least two clones")


def speciation_experiment(model: ManifoldModel, score: EmpiricalScore, direction,
                          t_grid, n_traj: int, n_clones: int,
                          seed: int) -> list[ExperimentRecord]:
    """Clone-agreement measurement of the speciation transition.

    Backward trajectories start from N(0, I_d) at ``CLONE_T_START``; at each
    grid time each trajectory spawns ``n_clones`` independent continuations
    down to ``CLONE_T_MIN`` whose endpoints are classified by the sign of the
    projection on ``direction``, the reduced-coordinate vector
    (Gamma0(lambda_j))_j of ``speciation.gamma0_rows``.  The recorded
    value is the mean pairwise clone agreement.

    The process is the backward process of the empirical score, sampled
    exactly: from x_t its law at s < t is the mixture
    sum_i w_i(x_t) N(c0 x_i + c1 x_t, v I) of ``diffusion.bridge``, with
    w the kernel's softmax (Biroli, Bonnaire, de Bortoli & Mezard 2024,
    arXiv 2402.18491).  So at ``CLONE_T_START`` and at each grid time the
    kernel is evaluated once on the ``n_traj`` trunk points
    (``EmpiricalScore.draw_indices``, len(t_grid) + 1 evaluations in all),
    ``n_clones`` + 1 sample indices are drawn per point, and the clones'
    endpoints at ``CLONE_T_MIN`` and the trunk's next point are each one
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
    check_speciation(t_grid, n_traj, n_clones)
    rng = _rng(seed + 1)

    y = rng.standard_normal((n_traj, model.d))
    idx = score.draw_indices(y, CLONE_T_START, 1, rng)
    y = _bridge_draws(score, y, idx, CLONE_T_START, t_grid[0], rng)[:, 0]
    records = []
    for k, t in enumerate(t_grid):
        idx = score.draw_indices(y, t, n_clones + 1, rng)
        ends = _bridge_draws(score, y, idx[:, :n_clones], t, CLONE_T_MIN, rng)
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

def check_crossing(t_grid, n_samples: int, n_noise: int) -> None:
    """Reject the arguments of a `collapse_crossing_experiment` that cannot
    run; the CLI calls it before it samples the training set."""
    check_time(t_grid)
    check_sample_count(n_samples, 2)  # the planted sample and one to sum over
    if n_noise < 1:
        raise ValueError(f"need at least one noise draw, got n_noise = {n_noise}")


def _first_row_then_the_rest(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """A copy of the first row of the arrays ``blocks`` yields, then the
    arrays with that row left out; the first array is let go once the
    second is asked for, so only the rows still to be read are held."""
    first = next(blocks)
    yield first[0].copy()
    yield first[1:]
    del first
    yield from blocks


def collapse_crossing_experiment(model: ManifoldModel, dataset: Dataset | SampleStream,
                                 t_grid, n_noise: int, seed: int) -> list[ExperimentRecord]:
    """Mean of (log Z1 - log Z2) / d along the forward trajectory of x_1.

    x_1 is the dataset's first sample and Z1 its weight, log Z1 =
    -||x - a x_1||^2 / (2 h) from the explicit difference; Z2 is the sum
    over all other samples.  The noise of every grid time is drawn first,
    time by time from one generator, and then one pass over x_2..x_n
    (`diffusion.log_partitions`) sums each block of samples into every
    time's rows, so each sample is read once.  A stored `Dataset` is read
    in place; a `SampleStream` is drawn block by block and never stored,
    so memory grows with the block size and the grid times' rows, not
    with n.  Both give the same bytes.

    The gap is negative at large t, where the bulk dominates, and positive
    at small t, where the planted sample does.  When its crossing,
    ``threshold_crossing(records, 0.0)``, is censored, the last record is
    flagged ``all_one_sign_widen_grid``.
    """
    check_crossing(t_grid, dataset.n, n_noise)
    schs = [schedule(float(t)) for t in t_grid]
    noise = _rng(seed).standard_normal((len(schs), n_noise, model.d))
    others = _first_row_then_the_rest(dataset.blocks())
    x1 = next(others)
    x = np.stack([sch.a * x1[None, :] + np.sqrt(sch.h) * z for sch, z in zip(schs, noise)])
    log_z2 = log_partitions(x, t_grid, others, dataset.n - 1)
    records = []
    for t, sch, xt, z2 in zip(t_grid, schs, x, log_z2):
        diff = xt - sch.a * x1
        log_z1 = -np.einsum("bj,bj->b", diff, diff) / (2.0 * sch.h)
        records.append(_record("logZ_gap", t, (log_z1 - z2) / model.d, model, seed))
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
    if n_x < 1:
        raise ValueError(f"need at least one outer draw, got n_x = {n_x}")
    if model.p > 24:
        raise ValueError("variance guard: free_energy_mc requires p <= 24")
    if n_latent < 10_000:
        raise ValueError("inner estimate requires n_latent >= 10^4")
    check_time(t)
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
    """Estimate -g'(1) = E ||x - a_t x_1||^2 / (2 h_t d) by direct sampling:
    ||z||^2 / (2d) for x = a_t x_1 + sqrt(h_t) z, the mean of chi^2_d / (2d),
    1/2 for every model, so criterion 09 checks the normal sampler only."""
    if n_rep < 1:
        raise ValueError(f"need at least one draw, got n_rep = {n_rep}")
    check_time(t)
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
    log partition of the scaled points under a kernel over the scaled
    samples of x_1's class other than x_1, by blocks.  A class with no such
    sample is rejected.
    """
    if lam <= 0:
        raise ValueError("tilt parameter must be positive")
    same = dataset.labels == dataset.labels[0]
    same[0] = False
    if not same.any():
        raise ValueError(f"x_1's class {int(dataset.labels[0]):+d} has no other sample "
                         "to sum over")
    sch = schedule(t)
    s = np.sqrt(lam)
    score = EmpiricalScore(s * dataset.ambient[same])
    rng = _rng(seed)
    x1 = dataset.ambient[0]
    x = sch.a * x1[None, :] + np.sqrt(sch.h) * rng.standard_normal((n_noise, model.d))
    return float(score.log_partition(s * x, t).mean() / model.d)
