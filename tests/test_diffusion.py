"""Forward schedule, empirical score, exact backward bridges and index
draws."""
import functools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from manifold_diffusion import diffusion
from manifold_diffusion.diffusion import EmpiricalScore, bridge, check_time, schedule
from manifold_diffusion.model import make_model, sample_dataset
from manifold_diffusion.speciation import reduced_sde_simulate


def test_schedule_identities():
    for t in (0.01, 0.5, 2.0, 10.0):
        sch = schedule(t)
        assert sch.a == pytest.approx(np.exp(-t))
        assert sch.a**2 + sch.h == pytest.approx(1.0, abs=1e-15)
    assert schedule(0.0).h == 0.0
    # t = 0 is the data itself; a negative or non-finite time is refused
    for t in (-0.1, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="0 <= t < inf"):
            schedule(t)


# refused by every entry point that takes a time in (0, inf)
_BAD_TIMES = (np.nan, np.inf, -np.inf, 0.0, -1.0)


def test_check_time_refuses_outside_the_open_range_with_one_message():
    for t in (0.5, np.float64(0.5), 1, np.array(0.5), np.float32(0.5), [2.0, 0.5]):
        check_time(t)
    check_time([0.02, 0.011], 0.01, 10.0)
    for t in _BAD_TIMES:
        with pytest.raises(ValueError, match=r"need t with 0 < t < inf, got"):
            check_time(t)
    with pytest.raises(ValueError, match=r"with 0.01 < t < 10, strictly decreasing, "
                                         r"got \[12.0, 0.5\]"):
        check_time([12.0, 0.5], 0.01, 10.0)
    # empty, ascending, repeated, out of range, non-finite
    for grid in ([], [0.5, 1.0], [0.5, 0.5], [1.0, 0.0], [np.inf, 0.5],
                 [1.0, np.nan], [-np.inf]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            check_time(grid)
    with pytest.raises(ValueError):  # a grid has one axis
        check_time([[2.0, 1.0]])


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


@pytest.mark.parametrize("b", [2, 128, 129, 255, 256, 257, 513, 1000])
def test_tiled_score_equals_untiled_kernel(b):
    # tiles of at least 65 rows once B passes 128; n d is large enough that
    # the BLAS takes its general kernel for a tile and for the whole batch
    # alike
    rng = np.random.default_rng(b)
    samples = rng.standard_normal((1024, 32))
    x = rng.standard_normal((b, 32))
    score = EmpiricalScore(samples)
    for t in (0.011, 0.3, 10.0):
        s, logz = score(x, t)
        s_ref, logz_ref = _untiled_score(samples, x, t)
        assert np.array_equal(s, s_ref) and np.array_equal(logz, logz_ref)


def test_no_tile_is_a_single_row():
    # B = 16,257 = 127 * 128 + 1 is cut into one tile of 128 rows and 127 of
    # 127; its last row must keep the bytes it has inside a full tile, which
    # a one-row tile (a GEMV) does not
    rng = np.random.default_rng(16_257)
    samples = rng.standard_normal((1024, 32))
    x = rng.standard_normal((16_257, 32))
    score = EmpiricalScore(samples)
    for t in (0.05, 0.3, 3.0):
        s, logz = score(x, t)
        s_full, logz_full = score(x[-128:], t)
        assert np.array_equal(s[-128:], s_full) and np.array_equal(logz[-128:], logz_full)
        assert np.array_equal(score.log_partition(x, t)[-1], logz_full[-1])


@pytest.fixture
def two_workers(monkeypatch):
    """The kernel's pooled calls on two workers, whatever the core count."""
    setter = diffusion._blas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS sets no per-thread thread count")
    monkeypatch.setattr(diffusion, "_tile_workers", lambda: (2, setter))
    monkeypatch.setattr(diffusion, "_workers_used", 1)


def _one_worker(monkeypatch, fn):
    """``fn()`` with the kernel's tiles run in turn on this thread."""
    with monkeypatch.context() as m:
        m.setattr(diffusion, "_tile_workers", lambda: (1, None))
        return fn()


@pytest.mark.parametrize("b", [2, 128, 129, 200, 257, 1000])
def test_pooled_tiles_equal_one_worker(b, two_workers, monkeypatch):
    # 1000 samples in four blocks of 256 columns; the partition into tiles
    # depends only on B, and so does every row's arithmetic
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 256)
    rng = np.random.default_rng(b)
    samples = rng.standard_normal((1000, 16))
    score = EmpiricalScore(samples)
    for t in (0.011, 0.3, 3.0):
        x = _batch_near(samples, list(range(0, 1000, 1000 // b))[:b - 1], t, seed=b)
        assert x.shape == (b, 16)
        s, logz = score(x, t)
        part = score.log_partition(x, t)
        s_one, logz_one = _one_worker(monkeypatch, lambda: score(x, t))
        part_one = _one_worker(monkeypatch, lambda: score.log_partition(x, t))
        assert np.array_equal(s, s_one) and np.array_equal(logz, logz_one)
        assert np.array_equal(part, part_one) and np.array_equal(part, logz)
    assert diffusion.kernel_workers() == (2 if b > 128 else 1)


def test_pooled_tiles_equal_one_worker_at_the_crossings_shape(two_workers, monkeypatch):
    # B 200 against 20,000 samples at d 40: three real blocks, two tiles
    rng = np.random.default_rng(40)
    samples = rng.standard_normal((20_000, 40))
    score = EmpiricalScore(samples)
    x = _batch_near(samples, list(range(0, 20_000, 101)), 0.05, seed=40)
    assert x.shape == (200, 40)
    for t in (0.05, 0.5):
        part = score.log_partition(x, t)
        assert np.array_equal(part, _one_worker(monkeypatch, lambda: score.log_partition(x, t)))
    assert diffusion.kernel_workers() == 2


def _pieces(samples, sizes):
    """``samples`` cut into consecutive arrays of the given row counts."""
    return np.split(samples, np.cumsum(sizes)[:-1])


def test_streamed_pass_pools_its_tiles_with_the_stored_bytes(two_workers, monkeypatch):
    # three times of 200 rows against 20,000 samples handed in uneven
    # pieces: six tiles per block on one executor, each row with the bytes
    # of its own stored log_partition call and of one worker
    rng = np.random.default_rng(41)
    samples = rng.standard_normal((20_000, 40))
    ts = [0.5, 0.2, 0.05]
    x = np.stack([_batch_near(samples, list(range(0, 20_000, 101)), t, seed=41) for t in ts])
    sizes = [1, 8191, 8193, 3615]
    got = diffusion.log_partitions(x, ts, _pieces(samples, sizes), 20_000)
    assert diffusion.kernel_workers() == 2
    one = _one_worker(monkeypatch, lambda: diffusion.log_partitions(
        x, ts, _pieces(samples, sizes), 20_000))
    score = EmpiricalScore(samples)
    assert np.array_equal(got, one)
    assert np.array_equal(got, [score.log_partition(xt, t) for xt, t in zip(x, ts)])


def test_streamed_passes_from_several_callers_keep_their_bytes(monkeypatch):
    # three callers make streamed passes at once, on three workers (more
    # than the cores) with frequent thread switches: one pass at a time
    # pools, the others run in turn, and each keeps the one-worker bytes
    setter = diffusion._blas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS sets no per-thread thread count")
    monkeypatch.setattr(diffusion, "_tile_workers", lambda: (3, setter))
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 256)
    rng = np.random.default_rng(14)
    samples = rng.standard_normal((1000, 16))
    xs, ts = rng.standard_normal((3, 2, 150, 16)), [0.4, 0.1]  # four tiles each

    def passes(x):
        return diffusion.log_partitions(x, ts, _pieces(samples, [300, 700]), 1000)

    want = [_one_worker(monkeypatch, lambda x=x: passes(x)) for x in xs]
    got = [[] for _ in xs]

    def caller(i):
        for _ in range(5):
            got[i].append(passes(xs[i]))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for calls, logz in zip(got, want):
        assert len(calls) == 5 and all(np.array_equal(c, logz) for c in calls)


def test_streamed_pass_refuses_blocks_of_another_row_count():
    samples = np.random.default_rng(2).standard_normal((50, 4))
    x = samples[None, :3]
    for n, message in ((51, "fewer than 51"), (49, "more than 49")):
        with pytest.raises(ValueError, match=message):
            diffusion.log_partitions(x, [0.5], _pieces(samples, [20, 30]), n)


def _blas_threads():
    """The thread count of numpy's OpenBLAS as its calling thread sees it."""
    import ctypes
    core = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(core, name):
            get = getattr(core, name)
            get.restype = ctypes.c_int
            return get()
    pytest.skip("numpy's OpenBLAS exports no thread-count getter")


def test_pooled_call_gives_the_caller_its_blas_threads_back(two_workers):
    # the workers' BLAS count of 1 can be process-wide (it is in the
    # OpenBLAS 0.3.31 numpy 2.4 bundles); after a pooled call the caller's
    # GEMMs get their count back
    rng = np.random.default_rng(6)
    score = EmpiricalScore(rng.standard_normal((300, 8)))
    before = _blas_threads()
    score.log_partition(rng.standard_normal((200, 8)), 0.5)
    assert diffusion.kernel_workers() == 2 and _blas_threads() == before


def test_draws_run_their_tiles_in_order(two_workers, monkeypatch):
    # index draws take their uniforms tile by tile, so they never take
    # workers and give the same indices with them as without
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    rng = np.random.default_rng(8)
    samples = rng.standard_normal((300, 8))
    score = EmpiricalScore(samples)
    x = rng.standard_normal((300, 8))
    idx = score.draw_indices(x, 0.5, 3, np.random.default_rng(1))
    assert diffusion.kernel_workers() == 1
    idx_one = _one_worker(monkeypatch, lambda: score.draw_indices(
        x, 0.5, 3, np.random.default_rng(1)))
    assert np.array_equal(idx, idx_one)


def test_kernel_runs_serially_without_per_thread_blas(monkeypatch):
    # numpy's BLAS without openblas_set_num_threads_local (MKL, OpenBLAS
    # before 0.3.27): one worker, no executor, the same bytes
    monkeypatch.setattr(diffusion, "_blas_thread_setter", lambda: None)
    # an uncached lookup, which finds the patched setter
    monkeypatch.setattr(diffusion, "_tile_workers",
                        functools.cache(diffusion._tile_workers.__wrapped__))
    monkeypatch.setattr(diffusion, "_workers_used", 1)
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((500, 8))
    score = EmpiricalScore(samples)
    x = rng.standard_normal((300, 8))
    part = score.log_partition(x, 0.4)
    assert diffusion._tile_workers() == (1, None) and diffusion.kernel_workers() == 1
    assert np.array_equal(part, _one_worker(monkeypatch, lambda: score.log_partition(x, 0.4)))


def test_a_shared_kernel_gives_each_caller_the_serial_bytes(two_workers, monkeypatch):
    # four caller threads share one kernel, with frequent thread switches;
    # a call that finds another's workers running runs its tiles in turn,
    # and each call's rows keep their bytes
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 256)
    rng = np.random.default_rng(10)
    samples = rng.standard_normal((1000, 16))
    score = EmpiricalScore(samples)
    xs = [rng.standard_normal((257, 16)) for _ in range(4)]
    want = [_one_worker(monkeypatch, lambda x=x: score(x, 0.2)) for x in xs]
    got = [[] for _ in xs]

    def caller(i):
        for _ in range(5):
            got[i].append(score(xs[i], 0.2))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for calls, (s_want, logz_want) in zip(got, want):
        assert len(calls) == 5
        for s, logz in calls:
            assert np.array_equal(s, s_want) and np.array_equal(logz, logz_want)


def test_a_tile_that_raises_leaves_no_worker_behind(two_workers, monkeypatch):
    # the error reaches the caller once both workers have stopped; the
    # caller's BLAS count and the lock are given back, so the next call
    # pools again
    rng = np.random.default_rng(12)
    score = EmpiricalScore(rng.standard_normal((300, 8)))
    x = rng.standard_normal((200, 8))
    step = diffusion._Tile.step

    def second_tile_raises(self, *args):
        if not np.array_equal(self.x[0], x[0]):  # the second tile
            raise RuntimeError("tile failed")
        return step(self, *args)

    threads, blas = threading.active_count(), _blas_threads()
    with monkeypatch.context() as m:
        m.setattr(diffusion._Tile, "step", second_tile_raises)
        with pytest.raises(RuntimeError, match="tile failed"):
            score.log_partition(x, 0.5)
    assert threading.active_count() == threads and _blas_threads() == blas
    assert not diffusion._blas_lock.locked() and diffusion.kernel_workers() == 1
    part = score.log_partition(x, 0.5)
    assert diffusion.kernel_workers() == 2
    assert np.array_equal(part, _one_worker(monkeypatch, lambda: score.log_partition(x, 0.5)))


def test_a_call_that_finds_the_blas_count_held_does_not_wait(two_workers, monkeypatch):
    # while another call holds the BLAS count, a two-tile call runs both
    # tiles on its own thread, with the one-worker bytes
    rng = np.random.default_rng(13)
    score = EmpiricalScore(rng.standard_normal((300, 8)))
    x = rng.standard_normal((200, 8))
    s_want, logz_want = _one_worker(monkeypatch, lambda: score(x, 0.5))
    step = diffusion._Tile.step
    ran_on, got = [], []

    def recorded(self, *args):
        ran_on.append(threading.get_ident())
        return step(self, *args)

    monkeypatch.setattr(diffusion._Tile, "step", recorded)
    caller = threading.Thread(target=lambda: got.append(score(x, 0.5)), daemon=True)
    assert diffusion._blas_lock.acquire(blocking=False)
    try:
        caller.start()
        caller.join(timeout=10)  # the call itself takes milliseconds
    finally:
        diffusion._blas_lock.release()
    assert not caller.is_alive()
    assert ran_on == [caller.ident] * 2 and diffusion.kernel_workers() == 1
    [(s, logz)] = got
    assert np.array_equal(s, s_want) and np.array_equal(logz, logz_want)


_FRESH_SCRIPT = """
import json, os, sys, threading
import numpy as np
from manifold_diffusion import diffusion
score = diffusion.EmpiricalScore(np.random.default_rng(0).standard_normal((50, 4)))
x = np.random.default_rng(1).standard_normal((129, 4))
score.log_partition(x[:128], 0.5)  # one tile
out = {"one_tile": ["concurrent.futures" in sys.modules, diffusion.kernel_workers()]}
part = score.log_partition(x, 0.5)  # two tiles
workers = diffusion.kernel_workers()
out["two_tiles"] = ["concurrent.futures" in sys.modules, workers, threading.active_count()]
pid = os.fork()
if pid == 0:
    # the parent's count, then the child's own pooled call
    ok = diffusion.kernel_workers() == workers
    diffusion._workers_used = 1
    ok = (ok and np.array_equal(score.log_partition(x, 0.5), part)
          and diffusion.kernel_workers() == workers and threading.active_count() == 1)
    os._exit(0 if ok else 1)
out["child"] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="needs os.fork and os.sched_getaffinity")
def test_workers_start_with_the_first_call_that_needs_them():
    # a fresh interpreter: a one-tile call imports no executor; a two-tile
    # call runs on one worker per core where the cores and numpy's BLAS
    # allow it and leaves no thread behind; a forked child keeps its
    # parent's worker count, and its own pooled call gives the same bytes
    src = str(Path(diffusion.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["one_tile"] == [False, 1] and out["child"] == 0
    cores = len(os.sched_getaffinity(0))
    pooled = cores > 1 and diffusion._blas_thread_setter() is not None
    assert out["two_tiles"] == [pooled, cores if pooled else 1, 1]


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
    # block make the running max move up across blocks.  A kernel's blocks
    # are fixed when it is built
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((160, 6))
    keep = rng.random(160) < 0.6
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 8192)
    score_one, kept_one = EmpiricalScore(samples), EmpiricalScore(samples[keep])
    monkeypatch.setattr(diffusion, "_BLOCK_COLS", 64)
    score, kept = EmpiricalScore(samples), EmpiricalScore(samples[keep])
    for t in (0.011, 0.05, 0.5, 3.0):
        x = _batch_near(samples, [3, 100, 150, 70], t, seed=int(100 * t))
        s_one, logz_one = score_one(x, t)
        part_one = kept_one.log_partition(x, t)
        s, logz = score(x, t)
        assert np.allclose(s, s_one, rtol=1e-12, atol=1e-12)
        assert np.allclose(logz, logz_one, rtol=1e-12, atol=0)
        assert np.allclose(score.log_partition(x, t), logz_one, rtol=1e-12, atol=0)
        assert np.allclose(kept.log_partition(x, t), part_one,
                           rtol=1e-12, atol=0)
        # one point gives a float, that point's row of the batch
        assert kept.log_partition(x[0], t) == pytest.approx(part_one[0], rel=1e-12, abs=0)
        lw = score.log_weights(x, t)
        assert np.allclose(part_one, logsumexp(lw[:, keep], axis=1), rtol=1e-12, atol=0)


def test_log_partition_split_recovers_full_normalizer():
    # planted sample, the rest of its class and the other class: their log
    # partitions combine to the score's log-normalizer
    mdl = make_model(d=6, p=3)
    ds = sample_dataset(mdl, 20, seed=2)
    x = np.random.default_rng(0).standard_normal(6)
    planted = np.zeros(ds.n, dtype=bool)
    planted[0] = True
    same = ds.labels == ds.labels[0]
    other = ~same
    same[0] = False
    parts = [EmpiricalScore(ds.ambient[k]).log_partition(x, 0.4)
             for k in (planted, same, other)]
    _, logz = EmpiricalScore(ds)(x, 0.4)
    assert logsumexp(parts) == pytest.approx(logz, abs=1e-10)


def test_log_partition_memory_grows_with_block_not_n():
    import tracemalloc

    rng = np.random.default_rng(7)
    samples = rng.standard_normal((200_000, 4))
    score = EmpiricalScore(samples)
    x = rng.standard_normal((200, 4))
    tracemalloc.start()
    try:
        score.log_partition(x, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (B, n) log weights would take 320 MB
    assert peak < 3 * 200 * diffusion._BLOCK_COLS * 8


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
    kept = EmpiricalScore(samples[keep])
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
        assert np.allclose(kept.log_partition(x, t),
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
    score = EmpiricalScore(np.ones((3, 2)))
    for t in _BAD_TIMES:
        for call in (score.log_weights, score, score.log_partition,
                     lambda x, t: score.draw_indices(x, t, 1, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="0 < t < inf"):
                call(np.zeros(2), t)
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
