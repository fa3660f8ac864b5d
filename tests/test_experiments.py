"""Stochastic experiment protocols at desk scale."""
import numpy as np
import pytest
from scipy.special import logsumexp

from manifold_diffusion import diffusion, experiments
from manifold_diffusion.diffusion import EmpiricalScore, schedule
from manifold_diffusion.experiments import (AGREEMENT_LEVEL, ExperimentRecord,
                                            _bridge_draws, check_crossing,
                                            check_speciation,
                                            collapse_crossing_experiment,
                                            free_energy_mc, model_hash,
                                            rem_derivative_check,
                                            speciation_experiment,
                                            threshold_crossing,
                                            tilted_log_partition)
from manifold_diffusion import model as model_mod
from manifold_diffusion.model import SampleStream, _rng, make_model, sample_dataset
from manifold_diffusion.speciation import GammaFunctions, gamma0_rows


def _direction(mdl):
    """The clone classifier of the model: (Gamma0(lambda_j))_j."""
    return gamma0_rows(mdl, GammaFunctions(mdl.activation, mdl.rho))


def _record(t, value, **kw):
    base = dict(kind="x", stderr=0.0, n_rep=1, model_hash="abc", seed=0)
    base.update(kw)
    return ExperimentRecord(t=t, value=value, **base)


def test_model_hash_depends_on_embedding():
    a = make_model(d=8, p=4, seed=0)
    b = make_model(d=8, p=4, seed=0)
    c = make_model(d=8, p=4, seed=1)
    assert model_hash(a) == model_hash(b)
    assert model_hash(a) != model_hash(c)
    assert len(model_hash(a)) == 12


def test_record_validation():
    with pytest.raises(ValueError):
        _record(1.0, np.nan)
    with pytest.raises(ValueError):
        _record(1.0, 0.5, stderr=-1.0)
    with pytest.raises(ValueError):
        _record(1.0, 0.5, n_rep=0)
    for stderr in (np.inf, np.nan):
        with pytest.raises(ValueError):
            _record(1.0, 0.5, stderr=stderr)


def _forward_draws(samples, t, n, rng):
    """n exact draws of x_t from the kernel density p_t of ``samples``."""
    sch = schedule(t)
    picks = samples[rng.integers(0, len(samples), n)]
    return sch.a * picks + np.sqrt(sch.h) * rng.standard_normal(picks.shape)


def test_exact_backward_jump_keeps_the_forward_marginal():
    # x_t ~ p_t jumped to s by an index draw and a bridge draw must be
    # distributed as p_s: nearest-component frequencies against 200,000
    # direct draws, first and second moments against their closed forms
    samples = np.array([[2.0, 0.0], [-1.0, 1.5], [-0.5, -1.0]])
    score = EmpiricalScore(samples)
    rng = np.random.default_rng(21)
    t, s, n = 1.0, 0.3, 20_000
    x_t = _forward_draws(samples, t, n, rng)
    idx = score.draw_indices(x_t, t, 1, rng)
    x_s = _bridge_draws(score, x_t, idx, t, s, rng)[:, 0]
    ref = _forward_draws(samples, s, 200_000, rng)

    centers = schedule(s).a * samples

    def shares(x):
        near = np.argmin(((x[:, None, :] - centers) ** 2).sum(axis=2), axis=1)
        return np.bincount(near, minlength=3) / len(x)

    got, want = shares(x_s), shares(ref)
    se = np.sqrt(want * (1 - want) * (1 / n + 1 / len(ref)))
    assert np.all(np.abs(got - want) < 4 * se)

    sch = schedule(s)
    mean = sch.a * samples.mean(axis=0)
    second = sch.a**2 * samples.T @ samples / 3 + sch.h * np.eye(2)
    assert np.all(np.abs(x_s.mean(axis=0) - mean)
                  < 4 * x_s.std(axis=0) / np.sqrt(n))
    prods = x_s[:, :, None] * x_s[:, None, :]
    assert np.all(np.abs(prods.mean(axis=0) - second)
                  < 4 * prods.std(axis=0) / np.sqrt(n))


def test_speciation_experiment_small_run():
    mdl = make_model(d=8, p=4, seed=1)
    score = EmpiricalScore(sample_dataset(mdl, 64, 5))
    recs = speciation_experiment(mdl, score, _direction(mdl),
                                 t_grid=[2.0, 0.8, 0.3], n_traj=4, n_clones=4,
                                 seed=5)
    assert [r.t for r in recs] == [2.0, 0.8, 0.3]
    assert all(r.kind == "speciation_agreement" for r in recs)
    assert all(0.0 <= r.value <= 1.0 for r in recs)
    assert all(r.n_rep == 16 for r in recs)
    recs2 = speciation_experiment(mdl, score, _direction(mdl),
                                  t_grid=[2.0, 0.8, 0.3], n_traj=4, n_clones=4,
                                  seed=5)
    assert [r.value for r in recs] == [r.value for r in recs2]


def test_speciation_experiment_validates_inputs():
    mdl = make_model(d=8, p=4)
    score = EmpiricalScore(sample_dataset(mdl, 16, 0))
    direction = _direction(mdl)
    with pytest.raises(ValueError, match="decreasing"):
        speciation_experiment(mdl, score, direction, [0.5, 1.0], 2, 2, seed=0)
    with pytest.raises(ValueError, match="need n_clones with 2 <= n_clones"):
        speciation_experiment(mdl, score, direction, [1.0, 0.5], 2, 1, seed=0)
    # each jump needs a later start: CLONE_T_START > t_grid > CLONE_T_MIN
    for t_grid in ([12.0, 0.5], [10.0, 0.5], [1.0, 0.01], [1.0, 0.005],
                   [np.inf, 0.5], [1.0, np.nan], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="0.01 < t < 10"):
            speciation_experiment(mdl, score, direction, t_grid, 2, 2, seed=0)


def test_speciation_experiment_refuses_a_bad_direction(monkeypatch):
    # a NaN direction would count every clone as one class (agreement 1.0),
    # and a wrong length would fail only after two kernel passes
    mdl = make_model(d=8, p=4)
    score = EmpiricalScore(sample_dataset(mdl, 64, 0))
    monkeypatch.setattr(EmpiricalScore, "draw_indices",
                        lambda *a, **k: pytest.fail("draw_indices ran"))
    for direction in (np.full(8, np.nan), np.r_[np.ones(7), np.inf], np.ones(9)):
        with pytest.raises(ValueError, match=r"need a finite direction of shape \(8,\)"):
            speciation_experiment(mdl, score, direction, [1.0, 0.5], 4, 3, seed=0)


def test_threshold_crossing_interpolates():
    recs = [_record(2.0, 0.5), _record(1.0, 0.9), _record(0.5, 1.0)]
    # linear interpolation between (1.0, 0.9) and (0.5, 1.0) at level 0.95
    t, status = threshold_crossing(recs, AGREEMENT_LEVEL)
    assert t == pytest.approx(0.75)
    assert status == "interpolated"
    # the first grid value is already at the level: the crossing lies above
    # the grid, so no time is given for it
    assert threshold_crossing(recs, 0.5) == (None, "censored_above")
    assert threshold_crossing(recs, 0.4) == (None, "censored_above")
    dip = [_record(2.0, 0.96), _record(1.5, 0.90), _record(1.0, 0.97)]
    assert threshold_crossing(dip, AGREEMENT_LEVEL) == (None, "censored_above")
    # no value reaches the level: the crossing lies below the grid
    assert threshold_crossing(recs, 1.01) == (None, "censored_below")
    assert threshold_crossing([], 0.0) == (None, "censored_below")


def test_threshold_crossing_at_zero_is_the_sign_change_to_the_bit():
    # the first sign change, t0 - v0 (t1 - t0) / (v1 - v0), is the level-0
    # crossing t0 + (0 - v0) (t1 - t0) / (v1 - v0): 0 - v0 = -v0 exactly
    rng = np.random.default_rng(3)
    for _ in range(200):
        ts = np.sort(rng.uniform(0.01, 2.0, 6))[::-1]
        vs = np.sort(rng.normal(size=6))
        if vs[0] >= 0 or vs[-1] < 0:
            continue
        recs = [_record(float(t), float(v)) for t, v in zip(ts, vs)]
        k = int(np.flatnonzero(np.diff(np.sign(vs)))[0])
        t0, t1, v0, v1 = ts[k], ts[k + 1], vs[k], vs[k + 1]
        want = float(t0 - v0 * (t1 - t0) / (v1 - v0))
        assert threshold_crossing(recs, 0.0) == (want, "interpolated")


def test_collapse_crossing_experiment_and_sign_change():
    mdl = make_model(d=20, p=10)
    t_grid = np.linspace(1.2, 0.05, 8)
    recs = collapse_crossing_experiment(SampleStream(mdl, 150, 3), t_grid,
                                        n_noise=40, seed=7)
    assert len(recs) == 8
    vals = [r.value for r in recs]
    # large t: bulk dominates (negative); small t: planted dominates
    assert vals[0] < 0 < vals[-1]
    t_cross, status = threshold_crossing(recs, 0.0)
    assert status == "interpolated"
    assert 0.05 < t_cross < 1.2
    assert recs[-1].flags == ()


def test_collapse_crossing_values_match_explicit_differences():
    mdl = make_model(d=20, p=10)
    ds = sample_dataset(mdl, 150, seed=3)
    t_grid = np.linspace(1.2, 0.05, 8)
    recs = collapse_crossing_experiment(SampleStream(mdl, 150, 3), t_grid,
                                        n_noise=40, seed=7)
    rng = _rng(7)  # the experiment's noise stream
    x1 = ds.ambient[0]
    for t, rec in zip(t_grid, recs):
        sch = schedule(t)
        x = sch.a * x1 + np.sqrt(sch.h) * rng.standard_normal((40, mdl.d))
        diff = x[:, None, :] - sch.a * ds.ambient[None, :, :]
        lw = -np.einsum("bij,bij->bi", diff, diff) / (2.0 * sch.h)
        gap = (lw[:, 0] - logsumexp(lw[:, 1:], axis=1)) / mdl.d
        assert rec.value == pytest.approx(gap.mean(), abs=1e-12)
    # without the planted sample there is nothing left to sum
    with pytest.raises(ValueError, match="2 <= n <= 1e.07, got 1"):
        collapse_crossing_experiment(SampleStream(mdl, 1, 3), [0.5, 0.1],
                                     n_noise=4, seed=7)


@pytest.mark.parametrize("t_grid", [[], [0.5, 0.0], [0.5, -0.1], [0.5, -np.inf],
                                    [np.nan], [np.nan, 0.5], [np.inf, 0.5]])
def test_collapse_crossing_rejects_empty_or_nonpositive_grid(t_grid):
    mdl = make_model(d=8, p=4)
    with pytest.raises(ValueError, match="0 < t < inf"):
        collapse_crossing_experiment(SampleStream(mdl, 16, 0), t_grid, n_noise=4, seed=0)


def test_collapse_crossing_gap_where_planted_term_dominates(monkeypatch):
    # at t = 0.02 and d = 128 the planted weight exceeds every other one by
    # more than the exp floor: were it in the bulk's max shift, the floor
    # would lift every bulk term to e^-700 of it.  The bulk's kernel holds
    # the 149 other samples in three blocks.
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    mdl = make_model(d=128, p=64)
    ds = sample_dataset(mdl, 150, seed=3)
    t = 0.02
    [rec] = collapse_crossing_experiment(SampleStream(mdl, 150, 3), [t],
                                         n_noise=40, seed=7)
    sch = schedule(t)
    x = sch.a * ds.ambient[0] + np.sqrt(sch.h) * _rng(7).standard_normal((40, mdl.d))
    diff = x[:, None, :] - sch.a * ds.ambient[None, :, :]
    lw = -np.einsum("bij,bij->bi", diff, diff) / (2.0 * sch.h)
    assert np.all(lw[:, 0] - lw[:, 1:].max(axis=1) > 700)
    gap = (lw[:, 0] - logsumexp(lw[:, 1:], axis=1)) / mdl.d
    assert rec.value == pytest.approx(gap.mean(), abs=1e-12)


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of ``fn()``."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collapse_crossing_copies_no_sample(monkeypatch):
    # the samples take 61 MiB at n = 200,000 and d = 40.  A stream holds
    # about one block of samples at a time, and the kernel one (100, 8000)
    # buffer (6.1 MiB) per worker
    mdl = make_model(d=40, p=20, activation="tanh", seed=1)
    samples_nbytes = 200_000 * 40 * 8
    run = dict(t_grid=[0.3], n_noise=200, seed=1)
    stream = SampleStream(mdl, 200_000, seed=1)
    pooled = _traced_peak(lambda: collapse_crossing_experiment(stream, **run))
    with monkeypatch.context() as m:
        m.setattr(diffusion, "_tile_workers", lambda: (1, None))
        serial = _traced_peak(lambda: collapse_crossing_experiment(stream, **run))
    assert serial < samples_nbytes / 4, serial / 2**20
    # two tiles of 100 rows: a second worker adds its buffer and no more
    extra_workers = min(diffusion._tile_workers()[0], 2) - 1
    assert pooled - serial < extra_workers * 100 * 8000 * 8 + 2**20, (pooled - serial) / 2**20


def _assert_stored_kernel_bytes(stream, t_grid, n_noise, seed):
    """The crossing over ``stream`` holds, to the bit, each time's mean gap
    with log Z2 from its own `EmpiricalScore.log_partition` call over the
    stored x_2..x_n."""
    records = collapse_crossing_experiment(stream, t_grid, n_noise=n_noise, seed=seed)
    mdl, ds = stream.model, sample_dataset(stream.model, stream.n, stream.seed)
    rng = _rng(seed)  # every time's noise, drawn in turn
    x1, others = ds.ambient[0], EmpiricalScore(ds.ambient[1:])
    assert [rec.t for rec in records] == [float(t) for t in t_grid]
    for t, rec in zip(t_grid, records):
        sch = schedule(t)
        x = sch.a * x1[None, :] + np.sqrt(sch.h) * rng.standard_normal((n_noise, mdl.d))
        diff = x - sch.a * x1
        log_z1 = -np.einsum("bj,bj->b", diff, diff) / (2.0 * sch.h)
        assert rec.value == ((log_z1 - others.log_partition(x, t)) / mdl.d).mean()


@pytest.mark.parametrize("n", [2, 6, 9, 23, 51])
def test_streamed_crossing_equals_the_stored_one_bit_for_bit(monkeypatch, n):
    # blocks of 5 sampled rows are re-cut into kernel blocks of at most 8
    # columns of x_2..x_n: n = 6 is one past a sampled block, n = 9 puts
    # x_2..x_n one past a kernel block, and 23 and 51 are multiples of
    # neither; each row of each time gets the bytes of its own
    # log_partition call over the stored rows
    monkeypatch.setattr(model_mod, "_SAMPLE_ROWS", 5)
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 8)
    mdl = make_model(d=12, p=6, activation="tanh", seed=2)
    _assert_stored_kernel_bytes(SampleStream(mdl, n, 3), np.linspace(1.0, 0.02, 5), 30, 7)


@pytest.mark.parametrize("n", [8193, 8194, 20_000])
def test_streamed_crossing_equals_the_stored_one_at_the_real_block_sizes(n):
    # 8,193 samples are one past a sampled block, and 8,194 put x_2..x_n
    # one past a kernel block
    mdl = make_model(d=8, p=4, activation="tanh", seed=2)
    _assert_stored_kernel_bytes(SampleStream(mdl, n, 3), [0.8, 0.1], 150, 4)


def test_collapse_crossing_records_carry_the_streams_model():
    # the model comes with its training set, so a crossing cannot label
    # one model's samples with another's hash
    mdl, other = make_model(d=8, p=4, seed=1), make_model(d=8, p=4, seed=2)
    assert model_hash(mdl) != model_hash(other)
    recs = collapse_crossing_experiment(SampleStream(other, 64, 0), [0.5, 0.1],
                                        n_noise=4, seed=0)
    assert {rec.model_hash for rec in recs} == {model_hash(other)}


@pytest.mark.parametrize("t", [0.011, 0.3, 1.0])
def test_collapse_crossing_planted_term_equals_explicit_logsumexp(t):
    # Z2 is taken by the same log_partition call over x_2..x_n as the
    # experiment's, so the gap isolates log Z1: a logsumexp over the single
    # planted weight
    mdl = make_model(d=20, p=10)
    ds = sample_dataset(mdl, 150, seed=3)
    [rec] = collapse_crossing_experiment(SampleStream(mdl, 150, 3), [t],
                                         n_noise=40, seed=7)
    sch = schedule(t)
    x = sch.a * ds.ambient[0] + np.sqrt(sch.h) * _rng(7).standard_normal((40, mdl.d))
    diff = x[:, None, :] - sch.a * ds.ambient[None, :1, :]
    log_z1 = logsumexp(-np.einsum("bij,bij->bi", diff, diff) / (2.0 * sch.h), axis=1)
    log_z2 = EmpiricalScore(ds.ambient[1:]).log_partition(x, t)
    want = ((log_z1 - log_z2) / mdl.d).mean()
    assert abs(rec.value - want) <= 1e-13 * max(1.0, abs(want))


def test_speciation_experiment_takes_a_drawn_dataset():
    # the clones are driven by the kernel passed in, over a training set
    # drawn by the caller: another draw changes the records.  3 x 3 clones
    # give agreements on a lattice of 2/9, where two draws can tie
    mdl = make_model(d=8, p=4, seed=1)
    kw = dict(direction=_direction(mdl), t_grid=[2.0, 0.8], n_traj=8,
              n_clones=5, seed=5)
    drawn = speciation_experiment(mdl, EmpiricalScore(sample_dataset(mdl, 64, 5)), **kw)
    assert drawn != speciation_experiment(
        mdl, EmpiricalScore(sample_dataset(mdl, 64, 6)), **kw)


def test_collapse_crossing_flags_one_sided_grids():
    mdl = make_model(d=20, p=10)
    stream = SampleStream(mdl, 150, 3)
    recs = collapse_crossing_experiment(stream, [2.0, 1.8],
                                        n_noise=20, seed=1)
    assert recs[-1].flags == ("all_one_sign_widen_grid",)
    assert threshold_crossing(recs, 0.0) == (None, "censored_below")
    # below the crossing every gap is positive: censored above the grid
    recs = collapse_crossing_experiment(stream, [0.03, 0.02],
                                        n_noise=20, seed=1)
    assert recs[-1].flags == ("all_one_sign_widen_grid",)
    assert threshold_crossing(recs, 0.0) == (None, "censored_above")


def test_collapse_crossing_names_the_stream_it_needs():
    # a stored Dataset, the call form before the streamed pass, has no model
    ds = sample_dataset(make_model(d=8, p=4), 16, seed=0)
    with pytest.raises(TypeError, match="SampleStream, got a Dataset"):
        collapse_crossing_experiment(ds, [0.5, 0.1], 2, seed=0)


def test_free_energy_mc_guards():
    big = make_model(d=64, p=32)
    with pytest.raises(ValueError, match="p <= 24"):
        free_energy_mc(big, 0.5, 10, 10_000, seed=0)
    small = make_model(d=8, p=4)
    with pytest.raises(ValueError, match="n_latent"):
        free_energy_mc(small, 0.5, 10, 100, seed=0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_single_time_experiments_refuse_a_bad_time(monkeypatch, t):
    # refused before any draw: at t = 0, h_t = 0 and every energy divides by it
    monkeypatch.setattr(experiments, "_rng", lambda *a: pytest.fail("drew"))
    mdl = make_model(d=8, p=4)
    with pytest.raises(ValueError, match="0 < t < inf"):
        free_energy_mc(mdl, t, 2, 10_000, seed=0)
    with pytest.raises(ValueError, match="0 < t < inf"):
        rem_derivative_check(mdl, t, n_rep=10, seed=0)
    # and before the kernel is built
    ds = sample_dataset(mdl, 8, seed=0)
    monkeypatch.setattr(experiments, "EmpiricalScore", lambda *a: pytest.fail("built"))
    with pytest.raises(ValueError, match="0 < t < inf"):
        tilted_log_partition(mdl, ds, t, lam=1.0, n_noise=2, seed=0)


def test_empty_counts_are_rejected_by_name():
    # an empty mean would warn and then fail the record's own check, which
    # names no count; the tests turn that RuntimeWarning into an error
    mdl = make_model(d=8, p=4)
    with pytest.raises(ValueError, match="n_x < inf, got 0"):
        free_energy_mc(mdl, 0.5, 0, 10_000, seed=0)
    with pytest.raises(ValueError, match="n_rep < inf, got 0"):
        rem_derivative_check(mdl, 0.5, n_rep=0, seed=0)
    with pytest.raises(ValueError, match="n_noise < inf, got 0"):
        check_crossing([0.5, 0.1], 16, 0)
    with pytest.raises(ValueError, match="n_noise < inf, got 0"):
        tilted_log_partition(mdl, sample_dataset(mdl, 8, seed=0), 0.5, lam=1.0,
                             n_noise=0, seed=0)
    with pytest.raises(ValueError, match="n_traj < inf, got 0"):
        check_speciation([1.0, 0.5], 16, 0, 2)


def test_free_energy_mc_matches_gaussian_formula_cheaply():
    mdl = make_model(d=8, p=4, ensemble="gaussian_iid", seed=2)
    t = 0.5
    sch = schedule(t)
    F = mdl.embedding.entries
    sigma = sch.a**2 * F @ F.T / mdl.p + sch.h * np.eye(mdl.d)
    exact = -0.5 * np.log(2 * np.pi) - np.linalg.slogdet(sigma)[1] / (2 * mdl.d) - 0.5
    rec = free_energy_mc(mdl, t, n_x=40, n_latent=20_000, seed=12)
    assert rec.value == pytest.approx(exact, abs=4 * rec.stderr + 1e-3)
    assert "logmeanexp_downward_bias" in rec.flags


def test_free_energy_mc_mismatched_prior_lowers_value():
    mdl = make_model(d=8, p=4, ensemble="gaussian_iid", seed=2)
    matched = free_energy_mc(mdl, 0.5, 40, 20_000, seed=12)
    mismatched = free_energy_mc(mdl, 0.5, 40, 20_000, seed=12, mismatched=True)
    assert "mismatched_prior" in mismatched.flags
    gap = matched.value - mismatched.value
    assert gap > 2 * np.hypot(matched.stderr, mismatched.stderr)


def test_rem_derivative_is_half():
    mdl = make_model(d=24, p=12)
    rec = rem_derivative_check(mdl, 0.5, n_rep=20_000, seed=6)
    assert rec.value == pytest.approx(0.5, abs=4 * rec.stderr)


def test_tilted_log_partition_decreases_with_tilt():
    mdl = make_model(d=12, p=6)
    ds = sample_dataset(mdl, 80, seed=5)
    v1 = tilted_log_partition(mdl, ds, 0.4, lam=0.5, n_noise=30, seed=2)
    v2 = tilted_log_partition(mdl, ds, 0.4, lam=2.0, n_noise=30, seed=2)
    assert np.isfinite(v1) and np.isfinite(v2)
    # the per-sample log-weights are negative, so a stronger tilt lowers the sum
    assert v2 < v1
    # NaN and inf are refused before any draw, as 0 is
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="need tilt parameter lam with 0 < lam < inf"):
            tilted_log_partition(mdl, ds, 0.4, lam=lam, n_noise=10, seed=0)
    # labels alternate, so at n = 2 x_1 is alone in its class
    with pytest.raises(ValueError, match=r"class \+1 has no other sample"):
        tilted_log_partition(mdl, sample_dataset(mdl, 2, seed=5), 0.4, lam=1.0,
                             n_noise=10, seed=0)


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("block_cols", [8192, 64])
def test_tilted_log_partition_equals_explicit_logsumexp(monkeypatch, lam,
                                                        block_cols):
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", block_cols)
    mdl = make_model(d=12, p=6, activation="tanh")
    ds = sample_dataset(mdl, 300, seed=5)
    t, n_noise, seed = 0.3, 30, 2
    got = tilted_log_partition(mdl, ds, t, lam=lam, n_noise=n_noise, seed=seed)
    # the same noise draw, with the tilted log weights written out
    sch = schedule(t)
    x = (sch.a * ds.ambient[0]
         + np.sqrt(sch.h) * _rng(seed).standard_normal((n_noise, mdl.d)))
    same = ds.labels == ds.labels[0]
    same[0] = False
    diff = x[:, None, :] - sch.a * ds.ambient[None, same, :]
    lw = -np.einsum("bij,bij->bi", diff, diff) / (2.0 * sch.h)
    want = logsumexp(lam * lw, axis=1).mean() / mdl.d
    assert abs(got - want) <= 1e-12 * abs(want)

