"""Synthetic spatial data generators.

The regression benchmark data follow a two-regime mixture on a regular
grid: per site, a fair coin picks between a zero-mean Gaussian-field
regime and an offset regime near 6, both modulated by a deterministic
local-dependence surface ``U`` whose radius parameter ``a`` tunes how
strongly neighbouring sites co-vary (larger ``a``, weaker dependence).
Responses are the squared covariate plus a small correlated noise field.

Gaussian random fields use a squared-exponential covariance over *raw*
integer grid positions (the scale parameter is in index units) and are
drawn by dense Cholesky factorization, which caps supported grids at
4096 sites. The last lattice's distances and three factors are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .estimator import SpatialDataset
from .lattice import make_lattice, pairwise_distances

MAX_DENSE_SITES = 4096

_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class FieldParams:
    """Stationary Gaussian random field specification.

    ``variance`` and ``scale`` parameterize the covariance
    ``C(h) = variance * exp(-(|h| / scale)^2)`` between grid positions;
    ``shape`` is the lattice the field lives on.
    """

    mean: float
    variance: float
    scale: float
    shape: tuple[int, ...]

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        shape = tuple(int(n) for n in self.shape)
        if not shape or any(n < 1 for n in shape):
            raise ValueError(f"invalid grid shape {shape}")
        object.__setattr__(self, "shape", shape)


@dataclass(frozen=True)
class DgpParams:
    """Parameters of the mixture data-generating process.

    ``a`` is the local-dependence radius, ``sigma`` the variance of the
    Gaussian field entering the offset regime (the benchmark's second
    design knob), ``seed`` the master seed from which all four random
    ingredients draw independent streams.
    """

    shape: tuple[int, int]
    a: float
    sigma: float
    seed: int

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 2 or any(n < 1 for n in shape):
            raise ValueError(f"grid shape must be (n1, n2), got {shape}")
        object.__setattr__(self, "shape", shape)
        if not self.a > 0:
            raise ValueError(f"dependence radius a must be positive, got {self.a}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def gaussian_cov(h, variance: float, scale: float) -> float | np.ndarray:
    """Squared-exponential covariance at lag(s) ``h``.

    ``h`` is a single lag vector or an array of them (last axis =
    dimension); returns ``variance * exp(-(|h| / scale)^2)``.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        h = h[None]
    norm = np.linalg.norm(h, axis=-1)
    out = variance * np.exp(-((norm / scale) ** 2))
    return float(out) if out.ndim == 0 else out


# One lattice's distances and the factors of a dataset's three fields (T,
# Z, noise; Z shares T's at sigma 5, the noise's at 0.1): draws of one
# shape and sigma hit on every lookup after the first.
@lru_cache(maxsize=1)
def _grid_distance_matrix(shape: tuple[int, ...]) -> np.ndarray:
    # Raw integer positions 1..n_r per axis, row-major like make_lattice.
    axes = [np.arange(1, n + 1, dtype=float) for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    dist = pairwise_distances(coords)
    dist.flags.writeable = False
    return dist


@lru_cache(maxsize=3)
def _covariance_factor(shape: tuple[int, ...], variance: float, scale: float) -> np.ndarray:
    dist = _grid_distance_matrix(shape)
    cov = variance * np.exp(-((dist / scale) ** 2))
    n = cov.shape[0]
    for jitter in _JITTERS:
        mat = cov if jitter == 0.0 else cov + jitter * np.eye(n)
        try:
            factor = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            continue
        factor.flags.writeable = False
        return factor
    raise NumericalError(
        f"covariance factorization failed for shape={shape}, "
        f"variance={variance}, scale={scale} despite jitter up to {_JITTERS[-1]}"
    )


def sample_grf(params: FieldParams, seed) -> np.ndarray:
    """One draw of the field, flattened in row-major grid order.

    Deterministic given ``seed`` (an integer or ``SeedSequence``).
    Grids beyond ``MAX_DENSE_SITES`` sites exceed what dense
    factorization is meant for and are rejected.
    """
    n = math.prod(params.shape)
    if n > MAX_DENSE_SITES:
        raise ValueError(
            f"{params.shape} has {n} sites; dense sampling supports "
            f"at most {MAX_DENSE_SITES}"
        )
    factor = _covariance_factor(params.shape, float(params.variance), float(params.scale))
    z = np.random.default_rng(seed).standard_normal(n)
    return params.mean + factor @ z


def local_dependence_field(shape, a: float) -> np.ndarray:
    """Grid-averaged exponential proximity score per site.

    ``U_s = mean_t exp(-|s - t| / a)`` over all grid positions ``t``
    (raw integer coordinates, the site itself included). Values lie in
    (0, 1]; the grid centre is maximal and ``U -> 1`` everywhere as
    ``a -> inf``.
    """
    if not a > 0:
        raise ValueError(f"dependence radius a must be positive, got {a}")
    shape = tuple(int(n) for n in shape)
    return _local_dependence(shape, float(a)).copy()


@lru_cache(maxsize=8)
def _local_dependence(shape: tuple[int, ...], a: float) -> np.ndarray:
    dist = _grid_distance_matrix(shape)
    return np.exp(-dist / a).mean(axis=1)


def gen_dataset(params: DgpParams, mixture_indicator=None) -> SpatialDataset:
    """Draw one replication of the mixture process on its lattice.

    Per site: with probability 1/2 the covariate is ``U * T`` (zero-mean
    field ``T`` with variance 5, scale 3), otherwise ``6 + U * Z``
    (field ``Z`` with variance ``params.sigma``); the response is the
    squared covariate plus a variance-0.1 noise field. The master seed
    is split into four independent streams (coin, T, Z, noise), so the
    whole dataset is reproducible from ``params`` alone.

    ``mixture_indicator`` overrides the Bernoulli draws with a fixed 0/1
    array of length n (useful for isolating one regime).
    """
    ss = np.random.SeedSequence(params.seed)
    seed_coin, seed_t, seed_z, seed_noise = ss.spawn(4)
    shape = params.shape
    n = math.prod(shape)
    if mixture_indicator is None:
        coin = np.random.default_rng(seed_coin).integers(0, 2, size=n).astype(float)
    else:
        coin = np.asarray(mixture_indicator, dtype=float)
        if coin.shape != (n,) or not np.isin(coin, (0.0, 1.0)).all():
            raise ValueError("mixture_indicator must be a 0/1 array of length n")
    t_field = sample_grf(FieldParams(0.0, 5.0, 3.0, shape), seed_t)
    z_field = sample_grf(FieldParams(0.0, params.sigma, 3.0, shape), seed_z)
    noise = sample_grf(FieldParams(0.0, 0.1, 3.0, shape), seed_noise)
    u = local_dependence_field(shape, params.a)
    x = coin * u * t_field + (1.0 - coin) * (6.0 + u * z_field)
    y = x**2 + noise
    return SpatialDataset(sites=make_lattice(shape), covariates=x, responses=y)

