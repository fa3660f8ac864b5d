"""Forward OU process, empirical score and exact backward bridges.

Forward process: dX = -X dt + sqrt(2) dW, so X_t | X_0 ~ N(a_t X_0, h_t I_d)
with a_t = e^{-t}, h_t = 1 - e^{-2t}.  The generative (backward) process is

    -dY = (Y + 2 s(Y, t)) dt + sqrt(2) dW.

The empirical score s is the gradient of the log of a Gaussian kernel sum
over the training samples, computed with max-subtracted exponentials so it
is stable for any inputs.  Driven by that score, the backward transition
from t to s < t is exactly the mixture sum_i w_i(x_t) N(c0 x_i + c1 x_t, v I)
of the forward bridges (``bridge``) weighted by the kernel's softmax, so it
is sampled by drawing an index (``EmpiricalScore.draw_indices``) and then a
Gaussian, with no time stepping.
"""
from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import Dataset

# most rows of one score tile and most sample columns of one block: a tile's
# buffer is at most (128, 8192), i.e. 8 MiB, whatever n is
_TILE_ROWS = 128
_BLOCK_COLS = 8192
# exponents are floored here before exp: below about -708 numpy's float64 exp
# leaves its vector path (the results turn subnormal) and runs 10-70x slower.
# Every term the floor lifts is below e^-700 ~ 1e-304 relative to the largest
# term, which is exactly 1, so a sum over n <= 10^7 terms moves by at most
# 1e-297 relative.
_EXP_FLOOR = -700.0


def _shifted_exp(a: np.ndarray, m: np.ndarray, floor: bool = True) -> np.ndarray:
    """exp(max(a - m, _EXP_FLOOR)) in place; returns ``a``.

    ``floor=False`` skips the floor pass, for a caller that knows no
    exponent lies below it.
    """
    a -= m
    if floor:
        np.maximum(a, _EXP_FLOOR, out=a)
    return np.exp(a, out=a)


# worker count of the kernel's last pooled call in this process (1 before
# one), and the lock that lets one call at a time hold the BLAS count
_workers_used = 1
_blas_lock = threading.Lock()


def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of the BLAS numpy loaded, or None.

    The symbol is looked up through numpy's core extension module, whose
    lookup searches the libraries it was linked against, so another loaded
    OpenBLAS (scipy's, say) is never found in its place.  MKL and OpenBLAS
    before 0.3.27 do not export it; a platform where the module cannot be
    opened this way gives None too.
    """
    import ctypes
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        setter = ctypes.CDLL(core.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@functools.cache
def _tile_workers() -> tuple:
    """(workers, BLAS thread setter) of a pooled call: one worker per core
    this process may run on, or (1, None) with one core or no setter."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    setter = _blas_thread_setter() if cores > 1 else None
    return (1, None) if setter is None else (cores, setter)


def _run_pooled(fn, tiles) -> bool:
    """fn(tile) for each tile on worker threads that live for this call;
    raises the first error.  False, with nothing run, on one worker or
    while another call holds the BLAS count, so the caller never waits.

    ``openblas_set_num_threads_local`` sets one count for the whole
    process in the OpenBLAS 0.3.31 numpy 2.4 bundles, so the caller sets it
    to 1 for the call and restores it once the workers have stopped; a
    build with a count per thread would leave the workers at its default.
    """
    global _workers_used
    workers, set_threads = _tile_workers()
    if workers == 1 or not _blas_lock.acquire(blocking=False):
        return False
    try:
        from concurrent.futures import ThreadPoolExecutor
        threads = set_threads(1)
        try:
            with ThreadPoolExecutor(workers) as executor:
                for _ in executor.map(fn, tiles):
                    pass
        finally:
            set_threads(threads)
    finally:
        _blas_lock.release()
    _workers_used = workers
    return True


def kernel_workers() -> int:
    """Workers of the kernel's last pooled call in this process (or in the
    parent it was forked from), else 1.  Starts nothing."""
    return _workers_used


@dataclass(frozen=True)
class DiffusionSchedule:
    """The pair (a_t, h_t) at time t."""

    t: float
    a: float
    h: float


def schedule(t: float) -> DiffusionSchedule:
    if t < 0:
        raise ValueError("time must be >= 0")
    a = np.exp(-t)
    return DiffusionSchedule(t=float(t), a=float(a), h=float(-np.expm1(-2.0 * t)))


def bridge(t: float, s: float) -> tuple[float, float, float]:
    """(c0, c1, v) of the forward bridge q(x_s | x_t, x_0) = N(c0 x_0 + c1 x_t, v I).

    With a_{t|s} = e^{-(t - s)}: c0 = a_s (1 - a_{t|s}^2) / h_t,
    c1 = a_{t|s} h_s / h_t and v = h_s (1 - a_{t|s}^2) / h_t, for
    0 <= s < t (the DDPM posterior of Ho, Jain & Abbeel 2020, arXiv
    2006.11239, in continuous time).
    """
    if not 0.0 <= s < t:
        raise ValueError("bridge needs 0 <= s < t")
    st, ss = schedule(t), schedule(s)
    gap = -np.expm1(2.0 * (s - t))  # 1 - a_{t|s}^2
    return (ss.a * gap / st.h, float(np.exp(s - t)) * ss.h / st.h,
            ss.h * gap / st.h)


def _reservoir_step(g: np.ndarray, share: np.ndarray, u: np.ndarray,
                    start: int, picks: np.ndarray) -> None:
    """One block's turn in a streamed draw from each row's softmax.

    ``g`` holds a tile's (rows, block) kernel weights, ``share`` each row's
    share of the mass seen so far that this block carries, and ``u`` one
    uniform per draw.  A draw with u < share is replaced, in ``picks``, by
    the sample index (``start`` + column) at which u / share, uniform on
    [0, 1) given the replacement, falls in the row's normalised cumulative
    weights; the others stay with their earlier pick.  So after the last block
    each draw follows the softmax over all blocks.  The rows are searched
    as one sorted array, row j's cumulative weights shifted to [j, j + 1];
    an index clipped to the row's last column absorbs a target rounded up
    to j + 1.  ``g`` is overwritten.
    """
    rows, draw = np.nonzero(u < share)
    if rows.size == 0:
        return
    r, w = g.shape
    cum = np.cumsum(g, axis=1, out=g)
    cum /= cum[:, -1:]
    cum += np.arange(r)[:, None]
    target = u[rows, draw] / share[rows, 0] + rows
    col = np.searchsorted(cum.ravel(), target, side="right") - rows * w
    picks[rows, draw] = start + np.minimum(col, w - 1)


class EmpiricalScore:
    """Score of the Gaussian-kernel density over a fixed dataset.

    The score is a softmax over the n samples of the log kernel weights
    -||x - a_t x_i||^2 / (2 h_t), evaluated in O(n d) per point with the
    sample norms cached.  The score, ``log_partition`` and ``draw_indices``
    (the softmax's sample indices, for the exact backward transition) share
    one loop: it walks the batch in balanced tiles of at most 128 rows and,
    within a tile, the samples in blocks of at most 8192 columns through one
    (rows, block) buffer per tile in flight, so memory does not grow with n.
    A call with more than one tile and no draws runs its tiles on worker
    threads of its own (`_run_pooled`), one BLAS thread per worker; the
    tiles depend only on B, so the log-normalizer's bytes do not depend on
    the worker count.  A score row's can, in the last bit, where the
    caller's BLAS splits the (rows, block) x (block, d) weighted sum over
    several threads (10 of 200 rows at n 162,754, d 40, t 1).
    A block's log weights are held without the row term ||x||^2 / (2 h_t),
    which cancels in the softmax; an online logsumexp (Milakov & Gimelshein
    2018) keeps each row's running max, rescales its running sum and
    weighted sample sum when the max grows, and takes the exponentials in
    place with the exponent floored at -700 (see ``_EXP_FLOOR``) wherever a
    bound on the block's log weights lets one fall below it.  The weighted
    mean is normalised on the (rows, d) result and the row term is restored
    in the log-normalizer only.  Index draws stream the same way, a draw
    being replaced by one from the block with the probability of the
    block's share of the mass seen so far.  With n <= 8192 there is one block and
    the arithmetic is that of a single softmax over all samples.  The tiles
    are balanced, so none is a single row (a GEMV, which rounds differently),
    and each row gets the arithmetic of an untiled call wherever the BLAS
    rounds a row of a product the same at any row count (OpenBLAS does
    outside its small-matrix kernels, i.e. once a tile's rows x n x d
    passes about 1e6).  Instances are read-only and safe to share across
    workers.
    """

    def __init__(self, data: Dataset | np.ndarray):
        X = data.ambient if isinstance(data, Dataset) else np.asarray(data, float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.samples = X
        self._sq_norms = np.einsum("ij,ij->i", X, X)
        # (columns, column count, largest sample norm) of each block
        n = X.shape[0]
        bounds = [(lo, min(lo + _BLOCK_COLS, n)) for lo in range(0, n, _BLOCK_COLS)]
        self._block_table = [(slice(lo, hi), hi - lo, np.sqrt(self._sq_norms[lo:hi].max()))
                             for lo, hi in bounds]

    def _shifted_log_weights(self, x: np.ndarray, sch: DiffusionSchedule,
                             cols: slice = slice(None),
                             out: np.ndarray | None = None) -> np.ndarray:
        """(a/h) <x, x_i> - (a^2 / 2h) ||x_i||^2 for the samples in ``cols``.

        This is the log kernel weight plus ||x||^2 / (2 h).  The (B, d)
        operand is scaled rather than the (B, n) product.  ``out`` is an
        optional (B, columns) buffer to write into.
        """
        g = np.matmul(x * (sch.a / sch.h), self.samples[cols].T, out=out)
        g -= (sch.a * sch.a / (2.0 * sch.h)) * self._sq_norms[cols]
        return g

    def log_weights(self, x: np.ndarray, t: float) -> np.ndarray:
        """Unnormalized log kernel weights -||x - a_t x_i||^2 / (2 h_t).

        This builds the whole (B, n) matrix; ``log_partition`` reduces it
        block by block instead.
        """
        if t <= 0:
            raise ValueError("empirical score requires t > 0")
        sch = schedule(t)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = self._shifted_log_weights(x, sch)
        g -= (np.einsum("bj,bj->b", x, x) / (2.0 * sch.h))[:, None]
        return g

    def _reduce(self, x: np.ndarray, t: float, with_score: bool, draws: int = 0,
                rng: np.random.Generator | None = None) -> tuple:
        """(score or None, log-normalizer, draws or None) of each row of the
        (B, d) batch x.

        With ``draws`` = k > 0 each row also gets k sample indices drawn
        independently from its softmax with ``rng``, one reservoir step per
        block (`_reservoir_step`).  A call with more than one tile and no
        draws runs its tiles on worker threads (`_run_pooled`), or in turn
        where it cannot; draws take their uniforms tile by tile from
        ``rng``, so their tiles run in order.
        """
        if t <= 0:
            raise ValueError("empirical score requires t > 0")
        sch = schedule(t)
        b = x.shape[0]
        if b == 0:
            raise ValueError("empty batch")
        rows = -(-b // -(-b // _TILE_ROWS))  # ceil(b / ceil(b / 128))
        tiles = [slice(lo, lo + rows) for lo in range(0, b, rows)]
        width = rows * self._block_table[0][1]  # the first block is the widest
        score = np.empty(x.shape) if with_score else None
        logz = np.empty(b)
        picks = np.empty((b, draws), dtype=np.intp) if draws else None
        args = (x, sch, score, logz, picks, rng)
        # a pooled tile gets its own buffer; the rows' arithmetic is unchanged
        pooled = len(tiles) > 1 and not draws and _run_pooled(
            lambda tile: self._tile(tile, np.empty(width), *args), tiles)
        if not pooled:
            buf = np.empty(width)
            for tile in tiles:
                self._tile(tile, buf, *args)
        return score, logz, picks

    def _tile(self, tile: slice, buf: np.ndarray, x: np.ndarray,
              sch: DiffusionSchedule, score: np.ndarray | None, logz: np.ndarray,
              picks: np.ndarray | None, rng: np.random.Generator | None) -> None:
        """The rows ``tile`` of `_reduce`'s outputs (``score`` and ``picks``
        where given), with ``buf`` as the block buffer."""
        xs = x[tile]
        r = len(xs)
        sq = np.einsum("bj,bj->b", xs, xs)
        xnorm = np.sqrt(sq)[:, None]
        m = np.full((r, 1), -np.inf)
        z = np.zeros((r, 1))
        wsum = np.zeros(xs.shape)
        for cols, w, radius in self._block_table:
            g = self._shifted_log_weights(xs, sch, cols, out=buf[:r * w].reshape(r, w))
            m_new = np.maximum(m, g.max(axis=1, keepdims=True))
            # by Cauchy-Schwarz each shifted log weight of the block is
            # at least -(a/h)|x| R - (a^2/2h) R^2, R its largest sample
            # norm; within 700 of the row max the floor is a no-op
            low = -radius * (sch.a / sch.h * xnorm + sch.a * sch.a / (2.0 * sch.h) * radius)
            _shifted_exp(g, m_new, floor=bool(np.any(low - m_new < _EXP_FLOOR)))
            rescale = np.exp(m - m_new)  # 0 on a tile's first block
            mass = g.sum(axis=1, keepdims=True)
            z = z * rescale + mass
            if score is not None:
                wsum = wsum * rescale + g @ self.samples[cols]
            if picks is not None:
                # a tile's first block has share 1: every draw is made
                _reservoir_step(g, mass / z, rng.random((r, picks.shape[1])),
                                cols.start, picks[tile])
            m = m_new
        if score is not None:
            score[tile] = (sch.a * (wsum / z) - xs) / sch.h
        logz[tile] = (m + np.log(z)).ravel() - sq / (2.0 * sch.h)

    def __call__(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Return (score, log-normalizer) at one point or a batch of points.

        score = (a_t sum_i w_i x_i - x) / h_t with w_i the softmax of the log
        kernel weights; the log-normalizer is logsumexp of those weights.
        """
        x_in = np.asarray(x, dtype=float)
        score, logz, _ = self._reduce(np.atleast_2d(x_in), t, True)
        if x_in.ndim == 1:
            return score[0], float(logz[0])
        return score, logz

    def log_partition(self, x: np.ndarray, t: float) -> np.ndarray | float:
        """logsumexp of the log kernel weights over the samples.

        A single point gives a float, a (B, d) batch a (B,) array.
        """
        x_in = np.asarray(x, dtype=float)
        _, logz, _ = self._reduce(np.atleast_2d(x_in), t, False)
        return float(logz[0]) if x_in.ndim == 1 else logz

    def draw_indices(self, x: np.ndarray, t: float, k: int,
                     rng: np.random.Generator) -> np.ndarray:
        """(B, k) sample indices, k independent draws per row of the (B, d)
        batch x from the softmax of its log kernel weights at time t.

        That softmax is the posterior p(x_0 = x_i | x_t = x) of the kernel
        density, so with ``bridge`` it samples the exact backward
        transition.  The draws stream through the score's tile and block
        loop: one pass over the samples and one block buffer, so memory
        grows with the block size and k, not with B n.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._reduce(x, t, False, draws=k, rng=rng)[2]
