"""Bandwidth order-statistic tests against a full-sort oracle, and the
sorted-row block helper against one ``np.partition`` per rank."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatialknn.errors import DataError
from spatialknn.lattice import SiteSet, distances_between, distances_to
from spatialknn.neighbors import (
    _POSITIVE_SITES,
    _positive_distances,
    _row_bandwidths,
    knn_bandwidth,
    spatial_bandwidth,
)


def sorted_kth(points, query, k, exclude=()):
    """Full-sort oracle: k-th smallest distance over the kept indices."""
    keep = [i for i in range(len(points)) if i not in set(exclude)]
    d = np.sort(distances_to(np.asarray(points, float), query)[keep])
    return float(d[k - 1])


def test_knn_bandwidth_random_instances_exact():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        points = rng.normal(size=(n, d))
        query = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        res = knn_bandwidth(points, query, k)
        assert res.bandwidth == sorted_kth(points, query, k)


def test_knn_bandwidth_neighbor_indices():
    points = np.array([[0.0], [1.0], [2.0], [3.0]])
    res = knn_bandwidth(points, [0.0], 2)
    assert res.bandwidth == 1.0
    np.testing.assert_array_equal(np.sort(res.neighbor_indices), [0, 1])


def test_knn_bandwidth_ties_all_kept():
    # four points at distance exactly 1, k = 2: all four are neighbours
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [5.0, 5.0]])
    res = knn_bandwidth(points, [0.0, 0.0], 2)
    assert res.bandwidth == 1.0
    np.testing.assert_array_equal(np.sort(res.neighbor_indices), [0, 1, 2, 3])


def test_knn_bandwidth_duplicates_are_neighbors():
    # coincident points count: with three copies of the query, k = 3
    # gives bandwidth 0 and the degenerate flag
    points = np.array([[2.0], [2.0], [2.0], [9.0]])
    res = knn_bandwidth(points, [2.0], 3)
    assert res.bandwidth == 0.0
    assert res.is_degenerate
    np.testing.assert_array_equal(np.sort(res.neighbor_indices), [0, 1, 2])
    assert not knn_bandwidth(points, [2.0], 4).is_degenerate


def test_knn_bandwidth_exclude():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(12, 2))
    query = points[3]
    for k in (1, 2, 5):
        res = knn_bandwidth(points, query, k, exclude={3})
        assert res.bandwidth == sorted_kth(points, query, k, exclude={3})
        assert 3 not in res.neighbor_indices
    # without exclusion the coincident row itself is the nearest neighbour
    assert knn_bandwidth(points, query, 1).bandwidth == 0.0


def test_knn_bandwidth_errors():
    points = np.zeros((3, 1))
    with pytest.raises(ValueError, match=">= 1"):
        knn_bandwidth(points, [0.0], 0)
    with pytest.raises(ValueError, match="exceeds"):
        knn_bandwidth(points, [0.0], 4)
    with pytest.raises(ValueError, match="no points"):
        knn_bandwidth(points, [0.0], 1, exclude={0, 1, 2})
    with pytest.raises(ValueError, match="out-of-range"):
        knn_bandwidth(points, [0.0], 1, exclude={7})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_query_rejected(bad):
    points = np.arange(6.0).reshape(3, 2)
    with pytest.raises(DataError, match="query must be finite"):
        knn_bandwidth(points, [0.0, bad], 1)
    with pytest.raises(DataError, match="query site must be finite"):
        spatial_bandwidth(points, [bad, 0.0], 1)


def test_spatial_bandwidth_drops_zero_distance_sites():
    # 4-site chain at spacing 0.25; from the first site the nearest
    # *other* site is 0.25 away even though the site itself is at 0
    sites = SiteSet(np.array([[0.25], [0.5], [0.75], [1.0]]))
    res = spatial_bandwidth(sites, [0.25], 1)
    assert res.bandwidth == 0.25
    np.testing.assert_array_equal(res.neighbor_indices, [1])
    assert spatial_bandwidth(sites, [0.25], 3).bandwidth == 0.75


def test_spatial_bandwidth_all_duplicates_dropped():
    # duplicated sites at the query location never rank
    sites = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    res = spatial_bandwidth(sites, [1.0, 1.0], 1)
    assert res.bandwidth == 1.0
    np.testing.assert_array_equal(res.neighbor_indices, [2])
    with pytest.raises(ValueError, match="exceeds"):
        spatial_bandwidth(sites, [1.0, 1.0], 2)


def test_spatial_bandwidth_matches_positive_distance_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        coords = rng.normal(size=(n, 2))
        s0 = coords[int(rng.integers(0, n))]
        ds = distances_to(coords, s0)
        pos = np.sort(ds[ds > 0.0])
        k = int(rng.integers(1, pos.size + 1))
        assert spatial_bandwidth(SiteSet(coords), s0, k).bandwidth == pos[k - 1]


def test_spatial_bandwidth_off_grid_query():
    # query not among the sites: nothing is dropped
    sites = SiteSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    res = spatial_bandwidth(sites, [0.5, 0.0], 2)
    assert res.bandwidth == 0.5
    np.testing.assert_array_equal(np.sort(res.neighbor_indices), [0, 1])


def test_spatial_bandwidth_exclude_composes_with_zero_drop():
    sites = np.array([[0.0], [0.0], [1.0], [2.0]])
    # exclude the duplicate explicitly as well: same answer
    a = spatial_bandwidth(sites, [0.0], 1)
    b = spatial_bandwidth(sites, [0.0], 1, exclude={0, 1})
    assert a.bandwidth == b.bandwidth == 1.0


def test_spatial_bandwidth_accepts_raw_arrays_and_sitesets():
    coords = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert spatial_bandwidth(coords, [0.0, 0.0], 1).bandwidth == 5.0
    assert spatial_bandwidth(SiteSet(coords), [0.0, 0.0], 1).bandwidth == 5.0


# ---------------------------------------------------------------------------
# one sort of the rows for every rank


def partition_kth(dist, k, what):
    """One rank the way a partition per rank takes it, errors included."""
    available = np.isfinite(dist).sum(axis=1)
    short = np.flatnonzero(available < k)
    if short.size:
        a = int(available[short[0]])
        if a == 0:
            raise ValueError(f"no {what} available")
        raise ValueError(f"k={k} out of range: exceeds the {a} available {what}")
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


@st.composite
def distance_blocks(draw):
    """A block of rows with ties and inf columns, or the positive
    leave-one-out site distances of sites with duplicates; and ranks."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        dist = draw(arrays(float, (m, n), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf])))
        what = "points"
    else:
        # sites on a 3x3 grid of integers, so duplicates and tied distances are common
        coords = draw(arrays(float, (n, 2), elements=st.sampled_from([0.0, 1.0, 2.0])))
        m = min(m, n)
        dist = distances_between(coords, coords[:m])
        dist[np.arange(m), np.arange(m)] = np.inf
        dist = _positive_distances(dist)
        what = _POSITIVE_SITES
    ks = draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=4))
    return dist, ks, what


@settings(max_examples=300, deadline=None)
@given(case=distance_blocks())
def test_sorted_rows_equal_a_partition_per_rank(case):
    dist, ks, what = case
    expected = []
    try:
        for k in ks:
            expected.append(partition_kth(dist, k, what))
    except ValueError as exc:
        # the first rank in the given order that some row cannot supply
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _row_bandwidths(dist, ks, what)
        return
    got = _row_bandwidths(dist, ks, what)
    assert got.shape == (len(ks), len(dist))
    assert got.tobytes() == np.array(expected).tobytes()  # bit for bit


def test_row_bandwidths_check_ranks_in_the_given_order():
    dist = np.array([[1.0, 2.0, np.inf], [1.0, np.inf, np.inf]])
    with pytest.raises(ValueError, match="^k=3 out of range: exceeds the 2 available points$"):
        _row_bandwidths(dist, (1, 3, 2))
    with pytest.raises(ValueError, match="^k=2 out of range: exceeds the 1 available sites$"):
        _row_bandwidths(dist, (1, 2, 3), "sites")
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        _row_bandwidths(dist, (0, 3))
