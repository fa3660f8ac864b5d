"""Manifold mixture data model.

Ambient samples are x = phi(F xi / sqrt(p)) with latent xi drawn from a
balanced two-cluster Gaussian mixture N(+-mu, rho I_p) on a p-dimensional
manifold embedded in d dimensions (p <= d).
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module on first use, which takes 15-20 ms; import it
# with the package, so that the cost is paid at import, not in the first draw
from numpy.random import Generator, Philox

from .activations import Activation, make_activation

MAX_SAMPLES = 10_000_000


def _rng(seed: int, stream: int = 0) -> Generator:
    """Counter-based generator of ``seed`` on ``stream``: the Philox key's
    low word is the seed and its high word the stream, so two streams never
    share a draw.  The embedding F is drawn on stream 1, all else on 0."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return Generator(Philox(key=int(seed) + (stream << 64)))


@dataclass(frozen=True)
class EmbeddingMatrix:
    """d x p embedding F; row j is f_j."""

    entries: np.ndarray
    ensemble: str  # one of ENSEMBLES

    def __post_init__(self):
        F = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", F)
        if F.ndim != 2:
            raise ValueError("embedding must be a 2-d matrix")
        d, p = F.shape
        if p > d:
            raise ValueError(f"manifold dimension p={p} exceeds ambient d={d}")
        if self.ensemble == "deterministic_isometry":
            gram = F.T @ F / p
            if np.abs(gram - np.eye(p)).max() > 1e-10:
                raise ValueError("isometry violated: F^T F / p != I_p")


ENSEMBLES = ("deterministic_isometry", "gaussian_iid")


def build_embedding(d: int, p: int, ensemble: str, seed: int) -> EmbeddingMatrix:
    """Draw F of the requested ensemble.

    gaussian_iid: i.i.d. standard-normal entries.  deterministic_isometry:
    orthonormalize a seeded Gaussian d x p matrix and scale columns to norm
    sqrt(p), so that F^T F / p = I_p.
    """
    if not 1 <= p <= d:
        raise ValueError(f"require d >= p >= 1, got d={d}, p={p}")
    G = _rng(seed, stream=1).standard_normal((d, p))
    if ensemble == "gaussian_iid":
        return EmbeddingMatrix(entries=G, ensemble=ensemble)
    if ensemble == "deterministic_isometry":
        Q, _ = np.linalg.qr(G)
        return EmbeddingMatrix(entries=Q * np.sqrt(p), ensemble=ensemble)
    raise ValueError(f"unknown ensemble: {ensemble!r}")


@dataclass(frozen=True)
class TheoryParams:
    """The scalars of the data model that the collapse theory reads.

    The GLM free energy and the linear closed forms see the embedding only
    through beta = p / d and its ensemble, never through the drawn F.  Build
    one from a model (`ManifoldModel.theory_params`) or from a config
    (`from_config`, which draws no embedding).  Records are hashable.
    """

    m: float  # center scale ||mu|| / sqrt(p)
    rho: float
    beta: float
    activation: Activation
    ensemble: str = "deterministic_isometry"

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta = p/d must lie in (0, 1], got {self.beta}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble: {self.ensemble!r}")

    @classmethod
    def from_config(cls, cfg: dict) -> TheoryParams:
        """The record of ``model_from_config(cfg).theory_params``, without F."""
        cfg = resolve_config(cfg)
        return cls(m=float(np.linalg.norm(_center(cfg)) / np.sqrt(cfg["p"])),
                   rho=cfg["rho"], beta=cfg["p"] / cfg["d"],
                   activation=make_activation(cfg["activation"]),
                   ensemble=cfg["ensemble"])


@dataclass(frozen=True)
class ManifoldModel:
    """Full specification of the data distribution."""

    d: int
    p: int
    rho: float
    mu: np.ndarray  # latent center; clusters sit at +-mu
    activation: Activation
    embedding: EmbeddingMatrix

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        object.__setattr__(self, "mu", mu)
        if not 1 <= self.p <= self.d:
            raise ValueError("require 0 < p <= d")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if mu.shape != (self.p,):
            raise ValueError(f"mu must have length p={self.p}")
        if self.embedding.entries.shape != (self.d, self.p):
            raise ValueError("embedding shape does not match (d, p)")

    @property
    def beta(self) -> float:
        return self.p / self.d

    @property
    def m(self) -> float:
        """Normalized center scale ||mu|| / sqrt(p)."""
        return float(np.linalg.norm(self.mu) / np.sqrt(self.p))

    @property
    def theory_params(self) -> TheoryParams:
        return TheoryParams(self.m, self.rho, self.beta, self.activation,
                            self.embedding.ensemble)

    @property
    def mu_tilde_norm_sq(self) -> float:
        return float(self.mu @ self.mu / self.p)

    def embed(self, latents: np.ndarray) -> np.ndarray:
        """Map latent coordinates to ambient space, phi(F xi / sqrt(p))."""
        pre = latents @ self.embedding.entries.T / np.sqrt(self.p)
        return self.activation(pre)


def make_model(d: int, p: int, **fields) -> ManifoldModel:
    """Keyword form of `model_from_config`: ``make_model(16, 8, m=2.0)``."""
    return model_from_config({"d": d, "p": p, **fields})


def sample_count(alpha: float, d: int) -> int:
    """n = round(e^{alpha d}), at least 1, held to the cap by `check_sample_count`;
    past log(MAX_SAMPLES) n is inf, as e^{alpha d} overflows from alpha d ~ 709.8."""
    n = max(1, round(math.exp(alpha * d))) if alpha * d <= math.log(MAX_SAMPLES) else math.inf
    check_sample_count(n)
    return n


def check_sample_count(n: int, least: int = 1) -> None:
    """Reject a sample count below ``least`` or past the MAX_SAMPLES cap."""
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"n exceeds the {MAX_SAMPLES} cap")


def _labels(rows: slice) -> np.ndarray:
    """Class labels of the samples ``rows``: +1 at an even index, -1 at an odd."""
    return np.where(np.arange(rows.start, rows.stop) % 2 == 0, 1, -1)


@dataclass(frozen=True)
class Dataset:
    """n ambient samples, of class +1 at an even index and -1 at an odd one
    (`labels`, derived from the index, so no label array is held)."""

    ambient: np.ndarray

    @property
    def n(self) -> int:
        return self.ambient.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return _labels(slice(0, self.n))

    def blocks(self) -> Iterator[np.ndarray]:
        """The samples as one block, as `SampleStream.blocks` yields them."""
        return iter((self.ambient,))


def _balanced_slices(n: int, most: int) -> list[slice]:
    """[0, n) in ceil(n / most) contiguous slices, largest first, whose sizes
    differ by at most one: the sampler's blocks and the kernel's tiles and
    sample blocks.  For most >= 3 no slice is a single row unless n is 1,
    since a one-row product runs as a GEMV, which rounds unlike a GEMM row."""
    count = -(-n // most)
    size, extra = divmod(n, count)
    return [slice(k * size + min(k, extra), (k + 1) * size + min(k + 1, extra))
            for k in range(count)]


# most rows of one block of `SampleStream`, as the kernel's sample blocks
_SAMPLE_ROWS = 8192


@dataclass(frozen=True)
class SampleStream:
    """The n samples of `sample_dataset(model, n, seed)`, drawn anew block
    by block at each `blocks` call and never stored.

    A consumer that reads each sample once, such as the collapse crossing,
    holds one block at a time instead of the (n, d) array.
    """

    model: ManifoldModel
    n: int
    seed: int

    def __post_init__(self):
        check_sample_count(self.n)

    def blocks(self) -> Iterator[np.ndarray]:
        """The samples in order, in the blocks of `_balanced_slices`, at most
        8192 rows each, the latents of each drawn in turn from one generator.
        Labels alternate (+1, -1, ...), xi_i ~ N(s_i * mu, rho I_p) and
        x_i = phi(F xi_i / sqrt(p)).  Nothing is kept between blocks, and
        the bytes are those of one (n, p) draw embedded at once.
        """
        rng, model = _rng(self.seed), self.model
        for rows in _balanced_slices(self.n, _SAMPLE_ROWS):
            yield model.embed(_labels(rows)[:, None] * model.mu[None, :]
                              + np.sqrt(model.rho) * rng.standard_normal(
                                  (rows.stop - rows.start, model.p)))


def sample_dataset(model: ManifoldModel, n: int, seed: int) -> Dataset:
    """Draw a balanced dataset of n samples: `SampleStream(model, n, seed)`
    stored in one (n, d) array, block by block, so memory is the samples
    plus one block's temporaries and no latents are kept."""
    stream = SampleStream(model, n, seed)
    ambient = np.empty((n, model.d))
    for rows, block in zip(_balanced_slices(n, _SAMPLE_ROWS), stream.blocks()):
        ambient[rows] = block
    return Dataset(ambient=ambient)


# ---------------------------------------------------------------------------
# serialization

def model_to_config(model: ManifoldModel) -> dict:
    cfg = {
        "d": model.d,
        "p": model.p,
        "rho": model.rho,
        "m": model.m,
        "activation": model.activation.kind,
        "ensemble": model.embedding.ensemble,
    }
    default_mu = model.m * np.ones(model.p)
    if not np.allclose(model.mu, default_mu):
        cfg["mu"] = model.mu.tolist()
    return cfg


# the defaults of the config fields but d, p and alpha (set by its commands)
_DEFAULTS = {"rho": 1.0, "m": 1.0, "activation": "linear",
             "ensemble": "deterministic_isometry", "seed": 0}
# every field a config may hold; a center given as a list (mu) or a text
# file (mu_file) replaces m * ones(p)
CONFIG_KEYS = ("d", "p", "alpha", *_DEFAULTS, "mu", "mu_file")
# the type of each config field but mu and mu_file: its default's
CONFIG_TYPES = {"d": int, "p": int, "alpha": float,
                **{k: type(v) for k, v in _DEFAULTS.items()}}


def _typed(key: str, value):
    """``value`` as the type of config field ``key``; a value that a cast
    would change (16.7 to 16, true to 1) or fail on is rejected."""
    kind = CONFIG_TYPES[key]
    try:
        if kind is str:
            ok = isinstance(value, str)
        else:  # a number, integral for an int field; a bool is no number
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and (kind is float or float(value).is_integer()))
        if ok:
            return kind(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"config field {key} must be {kind.__name__}, got {value!r}")


def _center(cfg: dict) -> np.ndarray:
    """The latent center of a resolved config: ``mu`` or m * ones(p)."""
    p = cfg["p"]
    mu = cfg.get("mu")
    if mu is None:
        return cfg["m"] * np.ones(p)
    try:
        mu = np.asarray(mu, float).reshape(-1)
    except TypeError as exc:  # an object, or a list holding one
        raise ValueError(f"config field mu must hold numbers: {exc}") from None
    if mu.shape != (p,) or not np.isfinite(mu).all():
        raise ValueError(f"mu must be finite and have length p={p}")
    return mu


def resolve_config(cfg: dict, keys: tuple[str, ...] = CONFIG_KEYS) -> dict:
    """``cfg`` checked, with each field of its type in ``CONFIG_TYPES``
    (`_typed`) and the default of each key of ``keys`` it leaves unset.

    A key outside ``keys`` is rejected, since a misspelt one would
    otherwise leave its default in place.  When ``keys`` holds d and p
    they are required, with d >= p >= 1, and the center must have length
    p.  rho and alpha must be finite and positive, m and mu finite, and
    the activation and ensemble known.  The theory squares the center
    and scales by rho (rho (m^2 + rho)), so m^2, mu @ mu / p and that
    product must be finite too.  The experiments draw their noise with
    seed + 1, so the seed must lie in [0, 2^64 - 1).  A ``mu_file`` is read
    here, once, and its values are passed on as ``mu``; a config may not
    give both.
    """
    unknown = sorted(set(cfg).difference(keys))
    if unknown:
        raise ValueError(f"config has unknown fields: {unknown}")
    cfg = {**{k: v for k, v in _DEFAULTS.items() if k in keys}, **cfg}
    cfg = {k: _typed(k, v) if k in CONFIG_TYPES else v for k, v in cfg.items()}
    if "seed" in cfg and not 0 <= cfg["seed"] < (1 << 64) - 1:
        raise ValueError(f"config field seed must lie in [0, 2^64 - 1), got "
                         f"{cfg['seed']}: the experiments' noise is drawn with seed + 1")
    mu_file = cfg.pop("mu_file", None)
    if mu_file is not None:
        if cfg.get("mu") is not None:
            raise ValueError("config fields mu and mu_file both give the center; give one")
        cfg["mu"] = np.loadtxt(mu_file).ravel().tolist()
    if "p" in keys:
        d, p = cfg.get("d", 0), cfg.get("p", 0)
        if not 1 <= p <= d:
            raise ValueError(f"config field d/p invalid: need d >= p >= 1, got d={d}, p={p}")
    # NaN lies in no interval
    for key, low in (("rho", 0.0), ("alpha", 0.0), ("m", -math.inf)):
        if key in cfg and not low < cfg[key] < math.inf:
            raise ValueError(f"config field {key} must lie in ({low}, inf)")
    # a float product overflows to inf without a warning
    m2 = cfg["m"] * cfg["m"] if "m" in cfg else 0.0
    if not math.isfinite(m2):
        raise ValueError(f"config field m = {cfg['m']:g} is too large to square")
    if "p" in keys:
        mu = _center(cfg)
        field = "m" if cfg.get("mu") is None else "mu"
        with np.errstate(over="ignore"):
            m2 = float(mu @ mu / p)
        if not math.isfinite(m2):
            raise ValueError(f"config field {field} is too large to square: "
                             "mu @ mu / p is not finite")
    if "rho" in cfg and not math.isfinite(cfg["rho"] * (m2 + cfg["rho"])):
        raise ValueError(f"config field rho = {cfg['rho']:g} is too large: "
                         "rho (m^2 + rho) is not finite")
    if "activation" in cfg:
        make_activation(cfg["activation"])
    if "ensemble" in cfg and cfg["ensemble"] not in ENSEMBLES:
        raise ValueError(f"config field ensemble unknown: {cfg['ensemble']!r}")
    return cfg


def model_from_config(cfg: dict) -> ManifoldModel:
    """The model of a config, resolved by `resolve_config`; ``seed`` draws F.
    An ``alpha`` is checked, not kept: it sizes a training set, not the model."""
    cfg = resolve_config(cfg)
    return ManifoldModel(
        d=cfg["d"], p=cfg["p"], rho=cfg["rho"],
        mu=_center(cfg), activation=make_activation(cfg["activation"]),
        embedding=build_embedding(cfg["d"], cfg["p"], cfg["ensemble"], cfg["seed"]))
