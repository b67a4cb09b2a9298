"""Site geometry tests: lattice construction and distance helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatialknn.errors import DataError
from spatialknn.lattice import (
    SiteSet,
    distances_between,
    distances_to,
    make_lattice,
    pairwise_distances,
)


def test_make_lattice_2x3_exact_coords():
    # Row-major, last index fastest, coordinates i_r / n_r.
    sites = make_lattice((2, 3))
    expected = np.array(
        [
            [1 / 2, 1 / 3],
            [1 / 2, 2 / 3],
            [1 / 2, 3 / 3],
            [2 / 2, 1 / 3],
            [2 / 2, 2 / 3],
            [2 / 2, 3 / 3],
        ]
    )
    assert sites.shape == (2, 3)
    assert len(sites) == 6
    assert sites.ndim == 2
    np.testing.assert_array_equal(sites.coords, expected)


def test_make_lattice_1d():
    sites = make_lattice((4,))
    np.testing.assert_array_equal(sites.coords, [[0.25], [0.5], [0.75], [1.0]])
    assert sites.ndim == 1


def test_make_lattice_3d_corners():
    sites = make_lattice((2, 2, 2))
    assert len(sites) == 8
    assert sites.ndim == 3
    # every coordinate is 1/2 or 1, and all 8 combinations appear once
    vals = {tuple(row) for row in sites.coords.tolist()}
    assert vals == {(a, b, c) for a in (0.5, 1.0) for b in (0.5, 1.0) for c in (0.5, 1.0)}


def test_make_lattice_coords_in_unit_interval():
    sites = make_lattice((5, 7))
    assert sites.coords.min() > 0.0
    assert sites.coords.max() == 1.0


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (-1, 2)])
def test_make_lattice_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        make_lattice(shape)


class TestSiteSet:
    def test_1d_input_promoted_to_column(self):
        s = SiteSet([1.0, 2.0, 3.0])
        assert s.coords.shape == (3, 1)

    def test_coords_frozen(self):
        s = SiteSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            s.coords[0, 0] = 5.0

    def test_shape_must_match_count(self):
        with pytest.raises(ValueError, match="do not fill"):
            SiteSet(np.zeros((5, 2)), shape=(2, 3))

    def test_nonfinite_coords_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SiteSet([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            SiteSet([[np.inf, 0.0]])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SiteSet(np.zeros((0, 2)), shape=(0, 1))

    def test_3d_array_rejected(self):
        with pytest.raises(ValueError):
            SiteSet(np.zeros((2, 2, 2)))


def test_distances_to_matches_naive_loop():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(1, 30)
        d = rng.integers(1, 5)
        coords = rng.normal(size=(n, d))
        point = rng.normal(size=d)
        got = distances_to(coords, point)
        want = np.array([np.sqrt(((c - point) ** 2).sum()) for c in coords])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_distances_to_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        distances_to(np.zeros((3, 2)), [1.0, 2.0, 3.0])


def test_distances_between_rows_equal_distances_to_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n, b, d = rng.integers(1, 40), rng.integers(1, 12), rng.integers(1, 5)
        coords = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
        points = rng.normal(size=(b, d))
        got = distances_between(coords, points)
        assert got.shape == (b, n)
        for i in range(b):
            # the one-query norm of differences, reduced per row
            want = np.linalg.norm(coords - points[i], axis=1)
            assert got[i].tobytes() == want.tobytes()
            assert distances_to(coords, points[i]).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="mismatch"):
        distances_between(np.zeros((3, 2)), np.zeros((2, 3)))


def test_pairwise_distances_properties():
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(15, 3))
    d = pairwise_distances(coords)
    assert d.shape == (15, 15)
    np.testing.assert_array_equal(np.diag(d), np.zeros(15))
    np.testing.assert_allclose(d, d.T, rtol=0, atol=0)
    # rows agree with the single-point helper
    for i in range(15):
        np.testing.assert_allclose(d[i], distances_to(coords, coords[i]), atol=1e-12)


def test_pairwise_distances_naive_oracle():
    rng = np.random.default_rng(3)
    coords = rng.uniform(-2, 2, size=(8, 2))
    d = pairwise_distances(coords)
    for i in range(8):
        for j in range(8):
            want = np.sqrt(((coords[i] - coords[j]) ** 2).sum())
            assert abs(d[i, j] - want) < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_distance_rows_equal_pairwise_rows_bit_for_bit(d):
    rng = np.random.default_rng(d)
    coords = rng.normal(size=(23, d))
    coords[5] = coords[17]  # a zero off-diagonal distance
    whole = pairwise_distances(coords)
    for rows_per_block in (1, 3, 7, 23):
        for start in range(0, 23, rows_per_block):
            rows = slice(start, min(start + rows_per_block, 23))
            got = distances_between(coords, coords[rows])
            assert got.tobytes() == whole[rows].tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    data=st.integers(1, 7).flatmap(
        lambda d: st.tuples(
            arrays(float, st.tuples(st.integers(1, 12), st.just(d)), elements=st.floats(-1e6, 1e6)),
            arrays(float, st.tuples(st.integers(1, 5), st.just(d)), elements=st.floats(-1e6, 1e6)),
        )
    )
)
def test_distances_equal_linalg_norm_row_by_row(data):
    # one coordinate at a time in coordinate order is the order in which
    # np.linalg.norm sums up to 7 squares, so the bits agree
    coords, points = data
    got = distances_between(coords, points)
    for i, point in enumerate(points):
        want = np.linalg.norm(coords - point, axis=1)
        assert got[i].tobytes() == want.tobytes()


def test_distance_overflow_of_finite_inputs_raises():
    big = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 0.0]])
    with pytest.raises(DataError, match="overflow"):
        pairwise_distances(big)
    with pytest.raises(DataError, match="overflow"):
        distances_to(big, [0.0, 0.0])
    # non-finite inputs are the caller's to reject; inf stays inf
    assert distances_to([[np.inf, 0.0]], [0.0, 0.0])[0] == np.inf
