"""Site geometry.

Sites live in ``R^N`` and are either nodes of a regular lattice, stored
with normalized coordinates ``(i_1/n_1, ..., i_N/n_N)``, or irregular
points (e.g. survey stations with raw longitude/latitude). Both are held
in a :class:`SiteSet`. All distances are Euclidean, from one formula
(:func:`distances_between`) that depends on the two points alone.

A :class:`SiteSet` is immutable, so what depends only on its sites (the
evaluation module's neighbour counts, default site-bandwidth grid and,
for a small set, leave-one-out site distances) is computed once and kept
with it in a private, read-only memo that is never pickled or copied.
:func:`make_lattice` hands out one shared :class:`SiteSet` per shape,
keeping the last one built, so the datasets simulated on one lattice
share that memo and a process holds at most one lattice's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class _Memo:
    """A private memo of values derived from an object's own arrays.

    Each value is computed on first use and kept, read-only, for as long
    as the object lives. It is never pickled or copied: an unpickled or
    copied object starts with an empty memo.
    """

    def _memoized(self, key, compute):
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            memo[key] = value
        return memo[key]

    def __getstate__(self):
        return {name: v for name, v in self.__dict__.items() if name != "_memo"}


@dataclass(frozen=True)
class SiteSet(_Memo):
    """Ordered collection of site coordinates.

    Parameters
    ----------
    coords : ndarray of shape (n_sites, n_dims)
        One row per site. Row order is stable and meaningful: site ``i``
        of a dataset is row ``i`` here.
    shape : tuple of int, optional
        Lattice dimensions ``(n_1, ..., n_N)`` when the sites form a full
        regular grid; ``None`` for irregular point sets.
    """

    coords: np.ndarray
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError("coords must be a 2-D array with at least one column")
        if coords.size and not np.all(np.isfinite(coords)):
            raise ValueError("site coordinates must be finite")
        object.__setattr__(self, "coords", _frozen_array(coords))
        if self.shape is not None:
            shape = tuple(int(n) for n in self.shape)
            if any(n < 1 for n in shape):
                raise ValueError(f"lattice shape must be positive, got {shape}")
            if len(coords) != math.prod(shape):
                raise ValueError(
                    f"{len(coords)} sites do not fill a {shape} lattice"
                )
            object.__setattr__(self, "shape", shape)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def ndim(self) -> int:
        """Dimension N of the site space."""
        return self.coords.shape[1]


def make_lattice(shape) -> SiteSet:
    """Build the full regular lattice with normalized coordinates.

    Site ``(i_1, ..., i_N)`` with ``1 <= i_r <= n_r`` is stored as
    ``(i_1/n_1, ..., i_N/n_N)``, so every coordinate lies in ``(0, 1]``.
    Sites are emitted in row-major order (last index varies fastest).
    Calls with the same shape return the same immutable :class:`SiteSet`
    until another shape is asked for.

    Parameters
    ----------
    shape : sequence of int
        Lattice dimensions ``(n_1, ..., n_N)``, all >= 1.
    """
    shape = tuple(int(n) for n in shape)
    if not shape or any(n < 1 for n in shape):
        raise ValueError(f"lattice dimensions must be positive integers, got {shape}")
    return _lattice(shape)


# One entry: the replications of a benchmark cell share their lattice and
# its memo, and the cache never keeps a second lattice's memo alive.
@lru_cache(maxsize=1)
def _lattice(shape: tuple[int, ...]) -> SiteSet:
    axes = [np.arange(1, n + 1, dtype=float) / n for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    return SiteSet(coords, shape=shape)


def distances_to(coords, point) -> np.ndarray:
    """Euclidean distances from one point to each row of ``coords``."""
    return distances_between(coords, np.asarray(point, dtype=float).ravel())[0]


def distances_between(coords, points) -> np.ndarray:
    """Euclidean distances from each row of ``points`` to each row of ``coords``.

    Squared differences are summed one coordinate at a time, so row
    ``i`` of the ``(len(points), len(coords))`` result is
    ``distances_to(coords, points[i])`` bit for bit, and up to 7
    coordinates it equals numpy's vector norm of the differences, which
    sums in the same order. Finite inputs whose distance overflows raise
    ``DataError``.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if coords.shape[1] != points.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {coords.shape[1]}-D, "
            f"queries are {points.shape[1]}-D"
        )
    with np.errstate(over="ignore"):  # an overflow raises DataError below
        squared = points[:, :1] - coords[:, 0]
        squared *= squared
        for j in range(1, coords.shape[1]):
            diff = points[:, j, None] - coords[:, j]
            diff *= diff
            squared += diff
    if not np.isfinite(squared).all() and np.isfinite(coords).all() and np.isfinite(points).all():
        raise DataError(
            "squared distances overflow to inf: coordinate differences "
            "must stay below about 1e154"
        )
    # in place: one (rows, n) array fewer at the peak, the same bits
    return np.sqrt(squared, out=squared)


def pairwise_distances(coords) -> np.ndarray:
    """Dense matrix of Euclidean distances between all rows of ``coords``."""
    return distances_between(coords, coords)
