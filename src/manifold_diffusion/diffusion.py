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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Dataset, _balanced_slices

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


# worker count of the kernel's last pooled pass in this process (1 before
# one), and the lock that lets one pass at a time hold the BLAS count
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
    """(workers, BLAS thread setter) of a pooled pass: one worker per core
    this process may run on, or (1, None) with one core or no setter."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    setter = _blas_thread_setter() if cores > 1 else None
    return (1, None) if setter is None else (cores, setter)


def _one_by_one(blocks: Iterable[_Block]) -> Iterator[tuple[_Block]]:
    """Each block of a stream as a round of its own, let go before the next
    block is made."""
    for block in blocks:
        yield (block,)
        del block


def _sweep(tiles: list[_Tile], blocks: Iterable[_Block], cols: int) -> None:
    """Fold every block of ``blocks`` into every tile (`_Tile.step`), blocks
    outer and tiles inner, so that each block of a stream is read once,
    while it is in memory, and dropped before the next is made; ``blocks``
    is a stored kernel's list or a stream, and ``cols`` the most columns of
    one block.

    Tiles with index draws run in turn on this thread, since they take
    their uniforms from one generator; so do the tiles of a one-tile pass,
    of a process with one worker, and of a pass that finds another holding
    the BLAS count, so a pass never waits.  Otherwise one executor of one
    worker per core serves the whole pass: each worker steps a fixed share
    of the tiles, with a buffer of its own, through all of a list's blocks
    at once and through a stream's blocks one at a time, each made once the
    workers are done with the last.  The buffers are the rows of one array
    made here, on the calling thread: a buffer made on a worker can stay
    behind in its malloc arena, and one array is reused by the next pass
    where separate ones are given back to the system and faulted in again
    (about 1,000 page faults per call at n 20,000, d 40, B 200).  A
    tile's arithmetic does not depend on its share, so the bytes do not
    depend on the workers.  ``openblas_set_num_threads_local`` sets one
    count for the whole process in the OpenBLAS 0.3.31 numpy 2.4 bundles,
    so the count is 1 for the whole pass, while blocks are made too (a BLAS
    thread left spinning after a block's GEMM would take a worker's core),
    and the caller gets its own back once the workers have stopped; a
    build with a count per thread would leave the workers at its default.
    """
    global _workers_used

    def run(share, buf, blocks):
        for block in blocks:
            for tile in share:
                tile.step(block, buf)
            del block  # before the next block of a stream is made

    width = max(len(tile.x) for tile in tiles) * cols
    workers, set_threads = _tile_workers()
    ordered = tiles[0].picks is not None
    if ordered or len(tiles) == 1 or workers == 1 or not _blas_lock.acquire(blocking=False):
        run(tiles, np.empty(width), blocks)
        return
    try:
        from concurrent.futures import ThreadPoolExecutor
        shares = [tiles[k::workers] for k in range(min(workers, len(tiles)))]
        bufs = np.empty((len(shares), width))
        threads = set_threads(1)
        try:
            with ThreadPoolExecutor(workers) as executor:
                for blocks_now in [blocks] if isinstance(blocks, list) else _one_by_one(blocks):
                    for _ in executor.map(run, shares, bufs, [blocks_now] * len(shares)):
                        pass
                    del blocks_now
        finally:
            set_threads(threads)
    finally:
        _blas_lock.release()
    _workers_used = workers


def kernel_workers() -> int:
    """Workers of the kernel's last pooled pass in this process (or in the
    parent it was forked from), else 1.  Starts nothing."""
    return _workers_used


@dataclass(frozen=True)
class DiffusionSchedule:
    """The pair (a_t, h_t) at time t."""

    t: float
    a: float
    h: float


def schedule(t: float) -> DiffusionSchedule:
    if not 0.0 <= t < np.inf:  # t = 0 is the data itself
        raise ValueError(f"need t with 0 <= t < inf, got {t}")
    a = np.exp(-t)
    return DiffusionSchedule(t=float(t), a=float(a), h=float(-np.expm1(-2.0 * t)))


def check_time(t, low: float = 0.0, high: float = np.inf) -> None:
    """Refuse a time t unless low < t < high, which NaN and +-inf never are, and
    a grid unless non-empty with high > t_0 > t_1 > ... > low; a float is only compared."""
    if not (isinstance(t, float) and low < t < high):
        v = np.hstack([high, np.asarray(t, dtype=float), low])
        if v.size < 3 or not np.all(v[1:] < v[:-1]):
            raise ValueError(f"need t with {low:g} < t < {high:g}"
                             f"{', strictly decreasing' if np.ndim(t) else ''}, got {t}")


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


class _Block(NamedTuple):
    """One block of a kernel's samples: the index of its first sample, its
    (columns, d) samples, their squared norms and the largest norm."""

    start: int
    samples: np.ndarray
    sq_norms: np.ndarray
    radius: float


def _block(start: int, samples: np.ndarray) -> _Block:
    sq_norms = np.einsum("ij,ij->i", samples, samples)
    return _Block(start, samples, sq_norms, np.sqrt(sq_norms.max()))


def _shifted_log_weights(x: np.ndarray, sch: DiffusionSchedule, samples: np.ndarray,
                         sq_norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a/h) <x, x_i> - (a^2 / 2h) ||x_i||^2 for the ``samples`` x_i.

    This is the log kernel weight plus ||x||^2 / (2 h).  The (B, d)
    operand is scaled rather than the (B, n) product.  ``out`` is an
    optional (B, columns) buffer to write into.
    """
    g = np.matmul(x * (sch.a / sch.h), samples.T, out=out)
    g -= (sch.a * sch.a / (2.0 * sch.h)) * sq_norms
    return g


class _Tile:
    """A tile of rows x at one time on its way through a kernel's sample
    blocks: `step` folds one block into an online logsumexp (Milakov &
    Gimelshein 2018) of each row's shifted log weights.

    Each row keeps its running max ``m``, the sum ``z`` of its weights
    scaled by e^-m and, ``with_score``, their weighted sample sum, and
    rescales both when the max grows; the exponentials are taken in place
    with the exponent floored at -700 (see ``_EXP_FLOOR``) wherever a bound
    on the block's log weights lets one fall below it.  With ``draws`` = k
    each row also keeps k sample indices, one reservoir step per block
    (`_reservoir_step`) with uniforms from ``rng``.  The row term
    ||x||^2 / (2 h), which cancels in the softmax, is restored in the
    log-normalizer only.
    """

    def __init__(self, x: np.ndarray, sch: DiffusionSchedule, with_score: bool = False,
                 draws: int = 0, rng: np.random.Generator | None = None):
        self.x, self.sch, self.rng = x, sch, rng
        self.sq = np.einsum("bj,bj->b", x, x)
        self.xnorm = np.sqrt(self.sq)[:, None]
        self.m = np.full((len(x), 1), -np.inf)
        self.z = np.zeros((len(x), 1))
        self.wsum = np.zeros(x.shape) if with_score else None
        self.picks = np.empty((len(x), draws), dtype=np.intp) if draws else None

    def step(self, block: _Block, buf: np.ndarray) -> None:
        """Fold ``block`` in, with ``buf`` as the (rows, columns) buffer."""
        sch, r, w = self.sch, len(self.x), len(block.samples)
        g = _shifted_log_weights(self.x, sch, block.samples, block.sq_norms,
                                 out=buf[:r * w].reshape(r, w))
        m_new = np.maximum(self.m, g.max(axis=1, keepdims=True))
        # by Cauchy-Schwarz each shifted log weight of the block is at least
        # -(a/h)|x| R - (a^2/2h) R^2, R its largest sample norm; within 700
        # of the row max the floor is a no-op
        low = -block.radius * (sch.a / sch.h * self.xnorm
                               + sch.a * sch.a / (2.0 * sch.h) * block.radius)
        _shifted_exp(g, m_new, floor=bool(np.any(low - m_new < _EXP_FLOOR)))
        rescale = np.exp(self.m - m_new)  # 0 on a tile's first block
        mass = g.sum(axis=1, keepdims=True)
        self.z = self.z * rescale + mass
        if self.wsum is not None:
            self.wsum = self.wsum * rescale + g @ block.samples
        if self.picks is not None:
            # a tile's first block has share 1: every draw is made
            _reservoir_step(g, mass / self.z, self.rng.random(self.picks.shape),
                            block.start, self.picks)
        self.m = m_new

    def log_partition(self) -> np.ndarray:
        return (self.m + np.log(self.z)).ravel() - self.sq / (2.0 * self.sch.h)

    def score(self) -> np.ndarray:
        """The score, with the weighted mean normalised on the (rows, d) sum."""
        return (self.sch.a * (self.wsum / self.z) - self.x) / self.sch.h


def _regroup(blocks: Iterable[np.ndarray], cuts: list[slice]) -> Iterator[_Block]:
    """The rows of the arrays ``blocks`` yields, in order, as one kernel
    block per slice of ``cuts``: a view where the slice lies in one array,
    else its parts joined, so no more than one slice's rows are carried
    from one array to the next.  The arrays must hold cuts[-1].stop rows."""
    blocks, rest = iter(blocks), ()
    for cut in cuts:
        parts, need = [], cut.stop - cut.start
        while need:
            if not len(rest):
                rest = next(blocks, None)
                if rest is None:
                    raise ValueError(f"the sample blocks hold fewer than {cuts[-1].stop} rows")
            parts.append(rest[:need])
            need -= len(parts[-1])
            rest = rest[len(parts[-1]):] if len(rest) > len(parts[-1]) else ()
        yield _block(cut.start, parts[0] if len(parts) == 1 else np.concatenate(parts))
        del parts
    if len(rest) or next(blocks, None) is not None:
        raise ValueError(f"the sample blocks hold more than {cuts[-1].stop} rows")


def log_partitions(x: np.ndarray, ts, blocks: Iterable[np.ndarray], n: int) -> np.ndarray:
    """(T, B) logsumexps of the log kernel weights of the (T, B, d) points x,
    x[k] at time ts[k], over n samples read once from ``blocks``.

    ``blocks`` yields the samples in order as (rows, d) arrays of any
    sizes, such as `model.SampleStream.blocks`; they are regrouped into
    the kernel's blocks (`_regroup`), and each is summed into every row
    (`_sweep`) and dropped, so memory grows with the block size and T B,
    not with n.  Row x[k][j] gets the bytes of
    ``EmpiricalScore(samples).log_partition(x[k], ts[k])[j]``: the rows of
    one time are cut into the same tiles and the samples into the same
    blocks.
    """
    for t in ts:
        check_time(float(t))
    tiles = [_Tile(x[k][rows], schedule(float(t))) for k, t in enumerate(ts)
             for rows in _balanced_slices(x.shape[1], _TILE_ROWS)]
    cuts = _balanced_slices(n, _BLOCK_COLS)
    _sweep(tiles, _regroup(blocks, cuts), cuts[0].stop)
    return np.concatenate([tile.log_partition() for tile in tiles]).reshape(len(ts), -1)


class EmpiricalScore:
    """Score of the Gaussian-kernel density over a fixed dataset.

    The score is a softmax over the n samples of the log kernel weights
    -||x - a_t x_i||^2 / (2 h_t), evaluated in O(n d) per point with the
    sample norms cached.  The score, ``log_partition`` and ``draw_indices``
    (the softmax's sample indices, for the exact backward transition) cut
    the batch into tiles of at most 128 rows and the samples into blocks
    of at most 8192 columns, both by `model._balanced_slices`, and make
    one pass (`_sweep`) through one (rows, block) buffer per worker, so
    memory does not grow with n.  Each tile folds each block in turn into
    an online logsumexp (`_Tile.step`, the one step the streamed
    `log_partitions` takes too).  A call with more than one tile and no
    draws runs its tiles on worker threads, one BLAS thread per worker.  The tiles depend only on B, so the log-normalizer's bytes
    do not depend on the worker count; a score row's can, in the last bit,
    where the caller's BLAS splits the (rows, block) x (block, d) weighted
    sum over several threads (10 of 200 rows at n 162,754, d 40, t 1).  No
    tile is a single row unless B is 1, so each row gets the arithmetic of
    an untiled call wherever the BLAS rounds a row of a product the same at
    any row count (OpenBLAS does outside its small-matrix kernels, i.e.
    once a tile's rows x n x d passes about 1e6).  With n <= 8192 there is
    one block and the arithmetic is that of a single softmax over all
    samples.  Instances are read-only and safe to share across workers.
    """

    def __init__(self, data: Dataset | np.ndarray):
        X = data.ambient if isinstance(data, Dataset) else np.asarray(data, float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.samples = X
        self._blocks = [_block(c.start, X[c]) for c in _balanced_slices(X.shape[0], _BLOCK_COLS)]

    def log_weights(self, x: np.ndarray, t: float) -> np.ndarray:
        """Unnormalized log kernel weights -||x - a_t x_i||^2 / (2 h_t).

        This builds the whole (B, n) matrix; ``log_partition`` reduces it
        block by block instead.
        """
        check_time(t)
        sch = schedule(t)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = _shifted_log_weights(x, sch, self.samples,
                                 np.concatenate([b.sq_norms for b in self._blocks]))
        g -= (np.einsum("bj,bj->b", x, x) / (2.0 * sch.h))[:, None]
        return g

    def _reduce(self, x: np.ndarray, t: float, with_score: bool, draws: int = 0,
                rng: np.random.Generator | None = None) -> tuple:
        """(score or None, log-normalizer, draws or None) of each row of the
        (B, d) batch x, tile by tile (`_balanced_slices`).

        With ``draws`` = k > 0 each row also gets k sample indices drawn
        independently from its softmax with ``rng``, one reservoir step per
        block; they take their uniforms block by block and, within a block,
        tile by tile from ``rng``, so their tiles run in order.
        """
        check_time(t)
        sch = schedule(t)
        if x.shape[0] == 0:
            raise ValueError("empty batch")
        tiles = [_Tile(x[rows], sch, with_score, draws, rng)
                 for rows in _balanced_slices(x.shape[0], _TILE_ROWS)]
        _sweep(tiles, self._blocks, len(self._blocks[0].samples))
        score = np.concatenate([tile.score() for tile in tiles]) if with_score else None
        picks = np.concatenate([tile.picks for tile in tiles]) if draws else None
        return score, np.concatenate([tile.log_partition() for tile in tiles]), picks

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
