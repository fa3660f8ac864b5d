"""Forward OU process, empirical score, and the backward Euler-Maruyama stepper.

Forward process: dX = -X dt + sqrt(2) dW, so X_t | X_0 ~ N(a_t X_0, h_t I_d)
with a_t = e^{-t}, h_t = 1 - e^{-2t}.  The generative (backward) process is

    -dY = (Y + 2 s(Y, t)) dt + sqrt(2) dW,

integrated with decreasing t by ``advance``, the one Euler-Maruyama stepper of
the package.  The empirical score s is the gradient of the log of a Gaussian
kernel sum over the training samples, computed with max-subtracted
exponentials so it is stable for any inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, _rng

# most rows of one score tile; the kernel's buffer is at most (256, n)
_TILE_ROWS = 256


@dataclass(frozen=True)
class DiffusionSchedule:
    """The pair (a_t, h_t) and derived signal-to-noise eta_t = a_t^2 / h_t."""

    t: float
    a: float
    h: float

    @property
    def eta(self) -> float:
        return self.a * self.a / self.h


def schedule(t: float) -> DiffusionSchedule:
    if t < 0:
        raise ValueError("time must be >= 0")
    a = np.exp(-t)
    return DiffusionSchedule(t=float(t), a=float(a), h=float(-np.expm1(-2.0 * t)))


def forward_sample(x0: np.ndarray, t: float, noise_seed: int) -> np.ndarray:
    """One draw of X_t | X_0 = x0, i.e. a_t x0 + sqrt(h_t) z."""
    sch = schedule(t)
    rng = _rng(noise_seed)
    x0 = np.asarray(x0, dtype=float)
    return sch.a * x0 + np.sqrt(sch.h) * rng.standard_normal(x0.shape)


class EmpiricalScore:
    """Score of the Gaussian-kernel density over a fixed dataset.

    The score is a softmax over the n samples of the log kernel weights
    -||x - a_t x_i||^2 / (2 h_t), evaluated in O(n d) per point with the
    sample norms cached.  A call walks the batch in balanced tiles of at
    most 256 rows and reuses one (rows, n) buffer holding a tile's log weights
    without the row term ||x||^2 / (2 h_t), which cancels in the softmax;
    the exponentials are taken in place, the weighted mean is normalised on
    the (rows, d) result, and the row term is restored in the log-normalizer
    only.  The tiles are balanced, so none is a single row (a GEMV, which
    rounds differently), and each row gets the arithmetic of an untiled
    call wherever the BLAS rounds a row of a product the same at any row
    count (OpenBLAS does outside its small-matrix kernels, i.e. once a
    tile's rows x n x d passes about 1e6).  Instances are read-only and
    safe to share across workers.
    """

    def __init__(self, data: Dataset | np.ndarray):
        X = data.ambient if isinstance(data, Dataset) else np.asarray(data, float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.samples = X
        self._sq_norms = np.einsum("ij,ij->i", X, X)

    def _shifted_log_weights(self, x: np.ndarray, sch: DiffusionSchedule,
                             out: np.ndarray | None = None) -> np.ndarray:
        """(a/h) <x, x_i> - (a^2 / 2h) ||x_i||^2 as one (B, n) buffer.

        This is the log kernel weight plus ||x||^2 / (2 h).  The (B, d)
        operand is scaled rather than the (B, n) product.  ``out`` is an
        optional (B, n) buffer to write into.
        """
        g = np.matmul(x * (sch.a / sch.h), self.samples.T, out=out)
        g -= (sch.a * sch.a / (2.0 * sch.h)) * self._sq_norms
        return g

    def log_weights(self, x: np.ndarray, t: float) -> np.ndarray:
        """Unnormalized log kernel weights -||x - a_t x_i||^2 / (2 h_t)."""
        if t <= 0:
            raise ValueError("empirical score requires t > 0")
        sch = schedule(t)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = self._shifted_log_weights(x, sch)
        g -= (np.einsum("bj,bj->b", x, x) / (2.0 * sch.h))[:, None]
        return g

    def __call__(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Return (score, log-normalizer) at one point or a batch of points.

        score = (a_t sum_i w_i x_i - x) / h_t with w_i the softmax of the log
        kernel weights; the log-normalizer is logsumexp of those weights.
        """
        if t <= 0:
            raise ValueError("empirical score requires t > 0")
        x_in = np.asarray(x, dtype=float)
        single = x_in.ndim == 1
        x2 = np.atleast_2d(x_in)
        sch = schedule(t)
        b = x2.shape[0]
        if b == 0:
            raise ValueError("empty batch")
        rows = -(-b // -(-b // _TILE_ROWS))  # ceil(b / ceil(b / 256))
        buf = np.empty((rows, self.samples.shape[0]))
        score, logz = np.empty(x2.shape), np.empty(b)
        for lo in range(0, b, rows):
            xs = x2[lo:lo + rows]
            g = self._shifted_log_weights(xs, sch, out=buf[:len(xs)])
            m = g.max(axis=1, keepdims=True)
            g -= m
            np.exp(g, out=g)
            z = g.sum(axis=1, keepdims=True)
            score[lo:lo + rows] = (sch.a * ((g @ self.samples) / z) - xs) / sch.h
            logz[lo:lo + rows] = ((m + np.log(z)).ravel()
                                  - np.einsum("bj,bj->b", xs, xs) / (2.0 * sch.h))
        if single:
            return score[0], float(logz[0])
        return score, logz


def empirical_score(x: np.ndarray, t: float,
                    data: Dataset | np.ndarray) -> tuple[np.ndarray, float]:
    """One-shot form of :class:`EmpiricalScore` (no norm caching reuse)."""
    return EmpiricalScore(data)(x, t)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Backward trajectory on a strictly decreasing time grid."""

    times: np.ndarray
    states: np.ndarray  # (K+1, d) or (K+1, B, d) for a batch
    seed: int
    score_mode: str = "empirical"


def advance(y: np.ndarray, t_from: float, t_to: float, dt: float, drift,
            noise_var: float, rng: np.random.Generator,
            keep_path: bool = False):
    """Euler-Maruyama steps of -dY = drift(Y, t) dt + sqrt(noise_var) dW.

    Steps of ``dt`` run from ``t_from`` down to ``t_to``, the last one
    shortened to land on ``t_to``.  Returns Y at ``t_to``, or the arrays
    (times, states) from the start on when ``keep_path`` is set.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t = float(t_from)
    times, states = [t], [y]
    k = 0
    while t > t_to + 1e-12:
        step = min(dt, t - t_to)
        y = y + drift(y, t) * step + np.sqrt(noise_var * step) * rng.standard_normal(y.shape)
        t -= step
        k += 1
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"non-finite state at step {k}, t = {t:.6g}")
        if keep_path:
            times.append(t)
            states.append(y)
    if keep_path:
        return np.array(times), np.array(states)
    return y


def backward_integrate(start: np.ndarray, T: float, t_min: float, dt: float,
                       score, seed: int,
                       score_mode: str = "empirical") -> TrajectoryRecord:
    """Euler-Maruyama discretization of the backward SDE from T down to t_min.

    ``score`` is any callable (x, t) -> score or (score, aux); a batch of
    trajectories integrates in lockstep when ``start`` has shape (B, d).
    The last step is shortened to land exactly on t_min.
    """
    if not T > t_min > 0:
        raise ValueError("require T > t_min > 0")

    def drift(y, t):
        s = score(y, t)
        return y + 2.0 * (s[0] if isinstance(s, tuple) else s)

    times, states = advance(np.array(start, dtype=float), T, t_min, dt, drift,
                            2.0, _rng(seed), keep_path=True)
    return TrajectoryRecord(times, states, seed, score_mode)


def trajectory_to_csv(rec: TrajectoryRecord, path, coords=None) -> None:
    """Write (time, coordinates) rows; ``coords`` selects a column subset."""
    import csv

    states = rec.states
    if states.ndim == 3:
        raise ValueError("CSV export expects a single trajectory, not a batch")
    idx = list(range(states.shape[1])) if coords is None else list(coords)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"y_{j}" for j in idx])
        for t, row in zip(rec.times, states):
            writer.writerow([t, *row[idx]])
