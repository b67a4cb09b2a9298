"""k-nearest-neighbour bandwidths.

Two flavours of the same order statistic: :func:`knn_bandwidth` works in
covariate space (distance to the k-th nearest observation of the query
covariate), :func:`spatial_bandwidth` works in site space (distance to
the k'-th nearest observed site, never counting the query site itself).
Both use partial selection; the full-sort equivalent lives only in the
test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def check_rank(k: int, available: int) -> int:
    """Neighbour rank ``k`` as an int, if ``available`` points can supply it."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if available == 0:
        raise ValueError("no points available for neighbour search")
    if k > available:
        raise ValueError(f"k={k} exceeds the {available} available point(s)")
    return k


def _kth_distance(dists: np.ndarray, candidates: np.ndarray, k: int) -> BandwidthResult:
    k = check_rank(k, candidates.size)
    cd = dists[candidates]
    bandwidth = float(np.partition(cd, k - 1)[k - 1])
    neighbors = candidates[cd <= bandwidth]
    return BandwidthResult(bandwidth, neighbors)


def knn_bandwidth(points, query, k: int, exclude=None) -> BandwidthResult:
    """Distance from ``query`` to its k-th nearest row of ``points``.

    Parameters
    ----------
    points : array-like of shape (n, d)
    query : array-like of shape (d,)
    k : int
        Neighbour rank, 1-based: ``k=1`` is the nearest point.
    exclude : iterable of int, optional
        Indices ignored by the search (e.g. the held-out point in
        leave-one-out schemes). Coincident points are *not* dropped:
        duplicates of the query are legitimate neighbours at distance 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dists = distances_to(points, query)
    candidates = _candidate_indices(len(dists), exclude)
    return _kth_distance(dists, candidates, k)


def spatial_bandwidth(sites, s0, k_prime: int, exclude=None) -> BandwidthResult:
    """Distance from site ``s0`` to its k'-th nearest observed site.

    The prediction site never counts as its own neighbour: any site at
    distance exactly 0 from ``s0`` is dropped before ranking, so calling
    this with ``s0`` equal to a member site ranks only the *other* sites.
    """
    coords = sites.coords if isinstance(sites, SiteSet) else np.atleast_2d(
        np.asarray(sites, dtype=float)
    )
    dists = distances_to(coords, s0)
    candidates = _candidate_indices(len(dists), exclude)
    candidates = candidates[dists[candidates] > 0.0]
    return _kth_distance(dists, candidates, k_prime)


def _candidate_indices(n: int, exclude) -> np.ndarray:
    if exclude is None:
        return np.arange(n)
    keep = np.ones(n, dtype=bool)
    idx = np.asarray(list(exclude), dtype=int)
    if idx.size and (idx.min() < -n or idx.max() >= n):
        raise ValueError("exclude contains out-of-range indices")
    keep[idx] = False
    return np.flatnonzero(keep)
