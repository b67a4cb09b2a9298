"""k-nearest-neighbour bandwidths.

Two flavours of the same order statistic: :func:`knn_bandwidth` works in
covariate space (distance to the k-th nearest observation of the query
covariate), :func:`spatial_bandwidth` works in site space (distance to
the k'-th nearest observed site, never counting the query site itself).

Both are one-row calls of the block helpers the estimators use for any
number of queries at once: an excluded or otherwise inadmissible point
carries distance inf, :func:`_positive_distances` makes the sites at
distance 0 inadmissible, and :func:`_row_bandwidths` sorts every row of
a block once and reads the k-th smallest distance of each row for as
many ranks k as the caller asks. A column of the sorted rows equals
``np.partition``'s k-th value bit for bit. On a 2-vCPU machine, one
sort of a replication's 625x625 leave-one-out covariate distances took
1.4 ms, where one partition per rank of the default grid's eight took
6.8 ms. The full-sort oracle of the single-query calls lives in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lattice import SiteSet, distances_to


@dataclass(frozen=True)
class BandwidthResult:
    """A k-th neighbour distance and the points it captures.

    ``bandwidth`` is the k-th smallest distance among the admissible
    points; ``neighbor_indices`` are the indices (into the original point
    ordering) of every admissible point at distance <= bandwidth. Ties at
    the bandwidth are all kept; strictly fewer than k points lie strictly
    inside it. A zero bandwidth signals >= k points coincident with the
    query, which callers must handle.
    """

    bandwidth: float
    neighbor_indices: np.ndarray

    @property
    def is_degenerate(self) -> bool:
        return self.bandwidth == 0.0


def check_rank(k: int, available: int, what: str = "points") -> int:
    """Neighbour rank ``k`` as an int, if ``available`` points can supply it.

    ``what`` names the points in the error message.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if available == 0:
        raise ValueError(f"no {what} available")
    if k > available:
        raise ValueError(f"k={k} out of range: exceeds the {available} available {what}")
    return k


# what a site rank counts: the sites at positive distance from the query
_POSITIVE_SITES = "positive-distance sites"


def _check_rows(available: np.ndarray, k: int, what: str = "points") -> int:
    """:func:`check_rank` for rows with ``available`` admissible points each.

    The first row with fewer than ``k`` points names the count in the error.
    """
    return check_rank(k, int(available[np.argmax(available < int(k))]), what)


def _row_bandwidths(dist: np.ndarray, ks, what: str = "points") -> np.ndarray:
    """k-th smallest distance in each row of an (m, n) block, for every k in ``ks``.

    Returns a (len(ks), m) array: row ``j`` holds the ``ks[j]``-th
    smallest distance of every row of ``dist``. Inadmissible points
    carry distance inf. Ranks are checked in the given order; for the
    first rank that some row cannot supply, the first such row raises
    :func:`check_rank`'s error.
    """
    available = np.isfinite(dist).sum(axis=1)
    columns = [_check_rows(available, k, what) - 1 for k in ks]
    # gathered into a new array, so the sorted block is freed at once
    return np.sort(dist, axis=1).T[columns]


def _positive_distances(ds: np.ndarray) -> np.ndarray:
    """Site distances with every site at distance <= 0 made inadmissible (inf).

    The prediction site never counts as its own neighbour, and neither
    does any site that duplicates it.
    """
    return np.where(ds > 0.0, ds, np.inf)


def _finite_query(query, what: str) -> np.ndarray:
    """``query`` as a flat float array; ``DataError`` if any entry is not finite."""
    query = np.asarray(query, dtype=float).ravel()
    if not np.isfinite(query).all():
        raise DataError(f"{what} must be finite")
    return query


def _exclusion_mask(n: int, exclude) -> np.ndarray:
    """Boolean mask of the ``exclude`` indices among ``n`` points."""
    mask = np.zeros(n, dtype=bool)
    if exclude is not None:
        idx = np.asarray(list(exclude), dtype=int)
        if idx.size and (idx.min() < -n or idx.max() >= n):
            raise ValueError("exclude contains out-of-range indices")
        mask[idx] = True
    return mask


def knn_bandwidth(points, query, k: int, exclude=None) -> BandwidthResult:
    """Distance from ``query`` to its k-th nearest row of ``points``.

    Parameters
    ----------
    points : array-like of shape (n, d)
    query : array-like of shape (d,)
        Must be finite (``DataError`` otherwise).
    k : int
        Neighbour rank, 1-based: ``k=1`` is the nearest point.
    exclude : iterable of int, optional
        Indices ignored by the search (e.g. the held-out point in
        leave-one-out schemes). Coincident points are *not* dropped:
        duplicates of the query are legitimate neighbours at distance 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dists = distances_to(points, _finite_query(query, "query"))
    dists[_exclusion_mask(len(dists), exclude)] = np.inf
    bandwidth = float(_row_bandwidths(dists[None], (k,))[0, 0])
    return BandwidthResult(bandwidth, np.flatnonzero(dists <= bandwidth))


def spatial_bandwidth(sites, s0, k_prime: int, exclude=None) -> BandwidthResult:
    """Distance from site ``s0`` to its k'-th nearest observed site.

    The prediction site never counts as its own neighbour: any site at
    distance exactly 0 from ``s0`` is dropped before ranking, so calling
    this with ``s0`` equal to a member site ranks only the *other* sites.
    A non-finite ``s0`` raises ``DataError``.
    """
    coords = sites.coords if isinstance(sites, SiteSet) else np.atleast_2d(
        np.asarray(sites, dtype=float)
    )
    dists = distances_to(coords, _finite_query(s0, "query site"))
    dists[_exclusion_mask(len(dists), exclude)] = np.inf
    dists = _positive_distances(dists)
    bandwidth = float(_row_bandwidths(dists[None], (k_prime,), _POSITIVE_SITES)[0, 0])
    return BandwidthResult(bandwidth, np.flatnonzero(dists <= bandwidth))
