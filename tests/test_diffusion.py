"""Forward schedule, empirical score, exact backward bridges and index
draws."""
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from manifold_diffusion import diffusion
from manifold_diffusion.diffusion import EmpiricalScore, bridge, schedule
from manifold_diffusion.model import make_model, sample_dataset
from manifold_diffusion.speciation import reduced_sde_simulate


def test_schedule_identities():
    for t in (0.01, 0.5, 2.0, 10.0):
        sch = schedule(t)
        assert sch.a == pytest.approx(np.exp(-t))
        assert sch.a**2 + sch.h == pytest.approx(1.0, abs=1e-15)
    assert schedule(0.0).h == 0.0
    with pytest.raises(ValueError):
        schedule(-0.1)


@pytest.mark.parametrize("t,u,s", [(10.0, 1.6, 0.01), (1.6, 0.6, 0.01),
                                   (0.3, 0.2, 0.011)])
def test_bridge_obeys_chapman_kolmogorov(t, u, s):
    # x_u = c0' x0 + c1' x_t + sqrt(v') z1, then x_s = c0'' x0 + c1'' x_u +
    # sqrt(v'') z2: the two-step law must be the one-step bridge
    (a0, a1, av), (b0, b1, bv) = bridge(t, u), bridge(u, s)
    c0, c1, v = bridge(t, s)
    assert abs(b0 + b1 * a0 - c0) <= 1e-14
    assert abs(b1 * a1 - c1) <= 1e-14
    assert abs(b1 * b1 * av + bv - v) <= 1e-14


def test_bridge_endpoints_and_domain():
    # at s = 0 the bridge pins x_0; its mean is E[x_s | x_t, x_0]
    assert bridge(0.7, 0.0) == (1.0, 0.0, 0.0)
    for t, s in ((1.0, 1.0), (0.5, 1.0), (1.0, -0.1)):
        with pytest.raises(ValueError, match="0 <= s < t"):
            bridge(t, s)


@pytest.mark.parametrize("block_cols", [None, 3])
def test_draw_indices_follow_the_softmax(block_cols, monkeypatch):
    # 5 points against 10 samples; with 3 columns per block four blocks
    # stream and the running max grows across them, and 2 rows per tile
    # make three tiles
    if block_cols is not None:
        monkeypatch.setattr(diffusion, "_BLOCK_COLS", block_cols)
        monkeypatch.setattr(diffusion, "_TILE_ROWS", 2)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((10, 3)) * np.linspace(0.5, 2.0, 10)[:, None]
    score = EmpiricalScore(samples)
    x = rng.standard_normal((5, 3))
    t, k = 1.5, 20_000
    lw = score.log_weights(x, t)
    probs = np.exp(lw - logsumexp(lw, axis=1, keepdims=True))
    assert probs.min() > 1e-3  # every expected count is above 20
    idx = score.draw_indices(x, t, k, np.random.default_rng(11))
    assert idx.shape == (5, k) and idx.min() >= 0 and idx.max() < 10
    for row, p in zip(idx, probs):
        assert chisquare(np.bincount(row, minlength=10), k * p).pvalue > 1e-3
    # reproducible from the generator's seed
    assert np.array_equal(idx, score.draw_indices(x, t, k, np.random.default_rng(11)))
    with pytest.raises(ValueError, match="k must be"):
        score.draw_indices(x, t, 0, rng)


def _brute_force_score(x, t, samples):
    # independent route: autograd-free finite check via explicit softmax
    sch = schedule(t)
    diffs = x[None, :] - sch.a * samples
    lw = -np.einsum("ij,ij->i", diffs, diffs) / (2.0 * sch.h)
    w = np.exp(lw - logsumexp(lw))
    return (sch.a * (w @ samples) - x) / sch.h, logsumexp(lw)


def test_score_matches_brute_force_softmax():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((50, 7))
    x = rng.standard_normal(7)
    for t in (0.05, 0.5, 3.0):
        s, logz = EmpiricalScore(samples)(x, t)
        s_ref, logz_ref = _brute_force_score(x, t, samples)
        assert np.allclose(s, s_ref, atol=1e-10)
        assert logz == pytest.approx(logz_ref, abs=1e-10)
    # a batch, down to small times: the per-row ||x||^2 / 2h term dropped
    # from the kernel's buffer must come back in each row's log-normalizer
    batch = rng.standard_normal((6, 7))
    for t in (0.011, 0.05, 0.5):
        s, logz = EmpiricalScore(samples)(batch, t)
        assert s.shape == (6, 7) and logz.shape == (6,)
        for row, s_row, logz_row in zip(batch, s, logz):
            s_ref, logz_ref = _brute_force_score(row, t, samples)
            assert np.allclose(s_row, s_ref, atol=1e-10)
            assert logz_row == pytest.approx(logz_ref, abs=1e-10)


def test_score_single_sample_is_gaussian_score():
    # one training point: the kernel sum is one Gaussian, score is analytic
    x1 = np.array([1.0, -2.0])
    x = np.array([0.3, 0.4])
    t = 0.8
    sch = schedule(t)
    s, logz = EmpiricalScore(x1[None, :])(x, t)
    assert np.allclose(s, (sch.a * x1 - x) / sch.h, atol=1e-12)
    assert logz == pytest.approx(-np.sum((x - sch.a * x1) ** 2) / (2 * sch.h))


def test_score_matches_finite_difference_of_log_density():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((30, 3))
    x = rng.standard_normal(3)
    t = 0.6
    score = EmpiricalScore(samples)
    s, _ = score(x, t)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        _, up = score(x + e, t)
        _, dn = score(x - e, t)
        assert s[j] == pytest.approx((up - dn) / (2 * eps), abs=1e-5)


def test_score_batch_matches_loop():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((20, 5))
    xs = rng.standard_normal((6, 5))
    score = EmpiricalScore(samples)
    s_batch, logz_batch = score(xs, 0.4)
    for i in range(6):
        s_i, logz_i = score(xs[i], 0.4)
        assert np.allclose(s_batch[i], s_i)
        assert logz_batch[i] == pytest.approx(logz_i)


def _untiled_score(samples, x, t):
    """The kernel on one (B, n) buffer, the arithmetic of every score row."""
    sch = schedule(t)
    g = (x * (sch.a / sch.h)) @ samples.T
    g -= (sch.a * sch.a / (2.0 * sch.h)) * np.einsum("ij,ij->i", samples, samples)
    m = g.max(axis=1, keepdims=True)
    g -= m
    np.exp(g, out=g)
    z = g.sum(axis=1, keepdims=True)
    score = (sch.a * ((g @ samples) / z) - x) / sch.h
    logz = (m + np.log(z)).ravel() - np.einsum("bj,bj->b", x, x) / (2.0 * sch.h)
    return score, logz


@pytest.mark.parametrize("b", [2, 255, 256, 257, 513, 1000])
def test_tiled_score_equals_untiled_kernel(b):
    # tiles of at least 129 rows; n d is large enough that the BLAS takes
    # its general kernel for a tile and for the whole batch alike
    rng = np.random.default_rng(b)
    samples = rng.standard_normal((1024, 32))
    x = rng.standard_normal((b, 32))
    score = EmpiricalScore(samples)
    for t in (0.011, 0.3, 10.0):
        s, logz = score(x, t)
        s_ref, logz_ref = _untiled_score(samples, x, t)
        assert np.array_equal(s, s_ref) and np.array_equal(logz, logz_ref)


def test_floored_tile_equals_unfloored_kernel_at_small_time():
    # at t = 0.011 most shifted exponents lie below -745, where exp
    # underflows to 0; the kernel floors them at -700 instead, and the
    # result must not move by a bit
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((4096, 64))
    x = schedule(0.011).a * samples[:300] + 0.1 * rng.standard_normal((300, 64))
    score = EmpiricalScore(samples)
    lw = score.log_weights(x, 0.011)
    assert np.mean(lw - lw.max(axis=1, keepdims=True) < -745) > 0.9
    s, logz = score(x, 0.011)
    s_ref, logz_ref = _untiled_score(samples, x, 0.011)
    assert np.array_equal(s, s_ref) and np.array_equal(logz, logz_ref)


def test_floor_pass_skipped_only_where_no_exponent_needs_it(monkeypatch):
    # the kernel skips the floor when its Cauchy-Schwarz bound says no
    # shifted exponent of the block lies below -700; the bound must hold
    calls = []
    real = diffusion._shifted_exp

    def checked(a, m, floor=True):
        calls.append(floor)
        if not floor:
            assert (a - m).min() >= diffusion._EXP_FLOOR
        return real(a, m, floor)

    monkeypatch.setattr(diffusion, "_shifted_exp", checked)
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((160, 16))
    samples[::16] *= 6  # far samples make the bound's norm term matter
    score = EmpiricalScore(samples)
    for t in (3.0, 0.5):
        score(rng.standard_normal((4, 16)), t)
    assert calls and not any(calls)
    calls.clear()
    for t in np.geomspace(0.001, 1.0, 40):
        score(_batch_near(samples, [3, 100], t, seed=3), t)
    assert any(calls) and not all(calls)


def _batch_near(samples, idx, t, seed):
    """Points near a_t x_i for the sample rows ``idx``, plus one far point."""
    rng = np.random.default_rng(seed)
    sch = schedule(t)
    near = sch.a * samples[idx] + np.sqrt(sch.h) * rng.standard_normal((len(idx), samples.shape[1]))
    return np.vstack([near, rng.standard_normal(samples.shape[1])])


def test_blocked_kernel_matches_one_block(monkeypatch):
    # n = 2.5 blocks; points near samples of the first, second and last
    # block make the running max move up across blocks
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((160, 6))
    score = EmpiricalScore(samples)
    keep = rng.random(160) < 0.6
    for t in (0.011, 0.05, 0.5, 3.0):
        x = _batch_near(samples, [3, 100, 150, 70], t, seed=int(100 * t))
        monkeypatch.setattr(diffusion, "_BLOCK_COLS", 8192)
        s_one, logz_one = score(x, t)
        part_one = score.log_partition(x, t, keep=keep)
        monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
        s, logz = score(x, t)
        assert np.allclose(s, s_one, rtol=1e-12, atol=1e-12)
        assert np.allclose(logz, logz_one, rtol=1e-12, atol=0)
        assert np.allclose(score.log_partition(x, t), logz_one, rtol=1e-12, atol=0)
        assert np.allclose(score.log_partition(x, t, keep=keep), part_one,
                           rtol=1e-12, atol=0)
        lw = score.log_weights(x, t)
        assert np.allclose(part_one, logsumexp(lw[:, keep], axis=1), rtol=1e-12, atol=0)


def test_log_partition_keep_without_first_block(monkeypatch):
    # the leading blocks hold no kept sample: they are skipped, not
    # reduced to exp(-inf - (-inf)) = NaN
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((160, 6))
    score = EmpiricalScore(samples)
    keep = np.zeros(160, dtype=bool)
    keep[[130, 131, 155]] = True
    x = _batch_near(samples, [0, 131], 0.02, seed=1)
    got = score.log_partition(x, 0.02, keep=keep)
    lw = score.log_weights(x, 0.02)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, logsumexp(lw[:, keep], axis=1), rtol=1e-12, atol=0)
    assert score.log_partition(x[0], 0.02, keep=keep) == got[0]
    with pytest.raises(ValueError, match="no sample"):
        score.log_partition(x, 0.02, keep=np.zeros(160, dtype=bool))
    with pytest.raises(ValueError, match="boolean mask"):
        score.log_partition(x, 0.02, keep=np.arange(160))


def test_log_partition_split_recovers_full_normalizer():
    # planted sample, the rest of its class and the other class: their log
    # partitions combine to the score's log-normalizer
    mdl = make_model(d=6, p=3)
    ds = sample_dataset(mdl, 20, seed=2)
    x = np.random.default_rng(0).standard_normal(6)
    score = EmpiricalScore(ds)
    planted = np.zeros(ds.n, dtype=bool)
    planted[0] = True
    same = ds.labels == ds.labels[0]
    other = ~same
    same[0] = False
    parts = [score.log_partition(x, 0.4, keep=k) for k in (planted, same, other)]
    _, logz = score(x, 0.4)
    assert logsumexp(parts) == pytest.approx(logz, abs=1e-10)


def test_log_partition_memory_grows_with_block_not_n():
    import tracemalloc

    rng = np.random.default_rng(7)
    samples = rng.standard_normal((200_000, 4))
    score = EmpiricalScore(samples)
    x = rng.standard_normal((200, 4))
    keep = np.ones(200_000, dtype=bool)
    keep[0] = False
    tracemalloc.start()
    try:
        score.log_partition(x, 0.3, keep=keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (B, n) log weights would take 320 MB
    assert peak < 3 * 200 * diffusion._BLOCK_COLS * 8


def test_masked_log_partition_costs_no_more_memory_than_unmasked():
    # a masked block's product runs on its kept samples only, so dropping
    # one sample makes no second (B, block) copy of the log weights
    import tracemalloc

    n, d = 200_000, 40
    mdl = make_model(d=d, p=20, activation="tanh", seed=1)
    score = EmpiricalScore(sample_dataset(mdl, n, seed=1))
    x = np.random.default_rng(8).standard_normal((200, d))
    keep = np.ones(n, dtype=bool)
    keep[0] = False
    peaks = []
    for mask in (None, keep):
        tracemalloc.start()
        try:
            score.log_partition(x, 0.3, keep=mask)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4 * 2**20, [p / 2**20 for p in peaks]


def _span_data(kind):
    if kind == "few_samples":  # n < d: any 6 points span 6 dimensions
        return np.random.default_rng(9).standard_normal((6, 16))
    model = make_model(16, 8, ensemble=kind, seed=2)
    return sample_dataset(model, 300, seed=3).ambient


@pytest.mark.parametrize("kind", ["deterministic_isometry", "gaussian_iid", "few_samples"])
def test_score_on_the_samples_span_matches_explicit_differences(kind, monkeypatch):
    # the samples span fewer than d dimensions; query points carry a
    # component off the span, which only the row term ||x||^2 / 2h sees
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    samples = _span_data(kind)
    score = EmpiricalScore(samples)
    assert score.samples is samples
    rng = np.random.default_rng(4)
    keep = rng.random(len(samples)) < 0.5
    keep[0] = True
    for t in (0.011, 0.3, 3.0):
        sch = schedule(t)
        idx = rng.integers(0, len(samples), 5)
        x = sch.a * samples[idx] + np.sqrt(sch.h) * rng.standard_normal((5, 16))
        x = np.vstack([x, 3.0 * rng.standard_normal(16)])
        s, logz = score(x, t)
        for row, s_row, logz_row in zip(x, s, logz):
            s_ref, logz_ref = _brute_force_score(row, t, samples)
            assert np.linalg.norm(s_row - s_ref) <= 1e-12 * np.linalg.norm(s_ref)
            assert logz_row == pytest.approx(logz_ref, rel=1e-12, abs=0)
        diff = x[:, None, :] - sch.a * samples[None, :, :]
        lw = -np.einsum("bij,bij->bi", diff, diff) / (2.0 * sch.h)
        assert np.allclose(score.log_partition(x, t, keep=keep),
                           logsumexp(lw[:, keep], axis=1), rtol=1e-12, atol=0)
        assert np.allclose(score.log_weights(x, t), lw, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("data", ["tanh", "linear_noise_1e-3", "linear_noise_1e-6"])
def test_full_rank_data_keeps_the_ambient_kernel(data):
    # tanh data spans R^d; so does linear data plus isotropic noise, at
    # either scale
    model = make_model(32, 16, activation=data.split("_")[0], seed=1)
    samples = sample_dataset(model, 1024, seed=1).ambient
    if data != "tanh":
        noise = float(data.rsplit("_", 1)[1])
        samples = samples + noise * np.random.default_rng(2).standard_normal(samples.shape)
    score = EmpiricalScore(samples)
    x = np.random.default_rng(3).standard_normal((300, 32))
    for t in (0.011, 0.3, 3.0):
        s, logz = score(x, t)
        s_ref, logz_ref = _untiled_score(samples, x, t)
        assert np.array_equal(s, s_ref) and np.array_equal(logz, logz_ref)


def test_kernel_holds_no_copy_of_the_samples():
    # linear data spans p of d dimensions; the kernel reads the samples in
    # place and holds only their n squared norms
    import tracemalloc

    n = 200_000
    ds = sample_dataset(make_model(d=40, p=20, activation="linear", seed=1), n, seed=1)
    tracemalloc.start()
    try:
        score = EmpiricalScore(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert score.samples is ds.ambient
    assert peak <= 2 * 8 * n, peak / 2**20


def test_score_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        EmpiricalScore(np.ones((3, 2)))(np.empty((0, 2)), 0.5)


def test_score_stable_for_extreme_inputs():
    samples = np.random.default_rng(0).standard_normal((10, 4))
    score = EmpiricalScore(samples)
    s, logz = score(1e8 * np.ones(4), 0.5)
    assert np.all(np.isfinite(s)) and np.isfinite(logz)


def test_score_requires_positive_time_and_valid_data():
    samples = np.ones((3, 2))
    with pytest.raises(ValueError):
        EmpiricalScore(samples).log_weights(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        EmpiricalScore(np.empty((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalScore(np.ones(3))


# The reduced scalar SDE is the one backward Euler-Maruyama stepper left; the
# ambient backward process runs on exact bridges.
def test_backward_integrator_grid_and_reproducibility():
    times, q = reduced_sde_simulate(1.0, 0.1, 0.07, 10.0, 3, seed=5)
    assert times[0] == 1.0
    assert times[-1] == pytest.approx(0.1)
    assert np.all(np.diff(times) < 0)
    # 0.9 / 0.07 is not whole: the last step is shortened to land on t_end
    assert len(times) == 14
    assert 0 < times[-2] - times[-1] < 0.07
    _, q2 = reduced_sde_simulate(1.0, 0.1, 0.07, 10.0, 3, seed=5)
    assert np.array_equal(q, q2)


def test_backward_integrator_validates_times():
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            reduced_sde_simulate(1.0, 0.5, dt, 10.0, 2, seed=0)
