"""Row-blocked leave-one-out passes.

Every leave-one-out pass walks the sites in row blocks that fit
``evaluation._COVARIATE_BLOCK_BYTES``. These tests force blocks of 1, 3,
7 and n rows. A row's distances, weights, weighted mean and vote are
the same bits in a block of any height, so per-site predictions and
labels are exact, and so are the classification searches, whose losses
are counts of misses. The only block dependence left is the summed
regression loss: a grid point's absolute errors are added block by
block, so its score is the same up to rounding, and when two grid
points tie up to rounding (all sites coincide, say, and every kernel
pair predicts the mean of the others) the block height can pick either
of them.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatialknn import evaluation
from spatialknn.estimator import KnnParams, NwParams, SpatialDataset, classify, predict
from spatialknn.evaluation import (
    ParamGrid,
    ccr,
    cv_select,
    cv_select_classification_pairs,
    default_grid,
    loo_labels,
    loo_predictions,
    mae,
)
from spatialknn.kernels import KERNEL_NAMES
from spatialknn.lattice import SiteSet, make_lattice, pairwise_distances

N_CLASSES = 3
BLOCK_ROWS = (1, 3, 7)

PROPERTY = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def force_rows(monkeypatch, rows, n, mains):
    """Set the budget so a grid search with ``mains`` main values takes ``rows`` rows a block."""
    monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", 8 * n * mains * rows)
    assert evaluation._row_blocks(n, mains)[0] == slice(0, min(rows, n))


def outcome(call):
    """``call()``'s result, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return f"error: {exc}"


def same_scores(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-15, abs_tol=1e-15)


def assert_near_best(params, score, table):
    """A winner's ``score`` is its whole-matrix score in ``table`` (lower
    wins) up to rounding, and no other grid point beats it beyond rounding."""
    assert same_scores(score, table[params])
    best = min(table.values())
    assert same_scores(table[params], best)


def whole_scores(data, grid, method):
    """Leave-one-out MAE and miss rate of every grid point, one block each."""
    mains, auxes = (
        (grid.k_values, grid.k_prime_values) if method == "knn" else (grid.h_values, grid.rho_values)
    )
    make = KnnParams if method == "knn" else NwParams
    points = [
        make(main, aux, k1, k2)
        for k1, k2, main, aux in itertools.product(grid.k1_specs, grid.k2_specs, mains, auxes)
    ]
    return (
        {p: mae(data.responses, loo_predictions(data, p)) for p in points},
        {
            p: 1.0 - ccr(data.labels, loo_labels(data, p), N_CLASSES).overall
            for p in points
        },
    )


@st.composite
def searches(draw):
    """A labelled dataset and a grid.

    Coordinates and covariates are distinct continuous values, except,
    in about half the cases, a duplicated site and a covariate shared by
    three sites: zero bandwidths, and sites with fewer positive-distance
    neighbours than others. k = 1 with a compact covariate kernel leaves
    most rows without weight, in every block.
    """
    n = draw(st.integers(5, 14))
    values = st.floats(-3.0, 3.0, allow_subnormal=False)
    coords = draw(arrays(float, (n, 2), elements=values, unique=True))
    cov = draw(arrays(float, (n, 1), elements=values, unique=True))
    if draw(st.booleans()):
        coords[n - 1] = coords[n - 2]
        cov[n - 4 : n - 1] = cov[n - 1]
    data = SpatialDataset(
        sites=SiteSet(coords),
        covariates=cov,
        responses=draw(arrays(float, n, elements=st.floats(0.0, 1.0))),
        labels=draw(arrays(np.int64, n, elements=st.integers(1, N_CLASSES))),
    )
    kernels = st.lists(st.sampled_from(KERNEL_NAMES), min_size=1, max_size=3, unique=True)
    ranks = st.lists(st.integers(1, n - 1), min_size=1, max_size=3)
    scales = st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)), min_size=1, max_size=3)
    grid = ParamGrid(
        k_values=draw(ranks),
        k_prime_values=draw(ranks),
        h_values=draw(scales),
        rho_values=draw(scales),
        k1_specs=draw(kernels),
        k2_specs=draw(kernels),
    )
    return data, grid


@pytest.mark.parametrize("method", ["knn", "nw"])
@PROPERTY
@given(case=searches())
def test_grid_search_does_not_depend_on_block_rows(method, case):
    data, grid = case
    n = len(data)
    mains = len(set(grid.k_values if method == "knn" else grid.h_values))
    results = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for rows in BLOCK_ROWS + (n,):
            force_rows(monkeypatch, rows, n, mains)
            results.append(
                (
                    outcome(lambda: cv_select(data, grid, method)),
                    outcome(lambda: cv_select_classification_pairs(data, grid, method)),
                )
            )
    if isinstance(results[-1][0], str):
        assert all(got == results[-1] for got in results)
        return
    assert all(pairs == results[-1][1] for _, pairs in results)
    maes, misses = whole_scores(data, grid, method)
    for (params, score), pairs in results:
        assert_near_best(params, score, maes)
        for (k1, k2), (params, rate) in pairs.items():
            pair_misses = {p: s for p, s in misses.items() if (p.k1, p.k2) == (k1, k2)}
            assert_near_best(params, 1.0 - rate, pair_misses)


@PROPERTY
@given(case=searches())
def test_loo_rows_do_not_depend_on_block_rows(case):
    data, grid = case
    n = len(data)
    points = (
        KnnParams(grid.k_values[0], grid.k_prime_values[0], grid.k1_specs[0], grid.k2_specs[0]),
        NwParams(grid.h_values[0], grid.rho_values[0], grid.k1_specs[-1], grid.k2_specs[-1]),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        for p in points:
            results = []
            for rows in BLOCK_ROWS + (n,):
                monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", 8 * n * rows)
                assert evaluation._row_blocks(n, 1)[0] == slice(0, min(rows, n))
                results.append(
                    (
                        outcome(lambda: loo_predictions(data, p).tobytes()),
                        outcome(lambda: loo_labels(data, p).tobytes()),
                    )
                )
            assert all(got == results[-1] for got in results)


def test_site_rank_error_in_a_later_block_matches_one_block(monkeypatch):
    # sites 8 and 9 coincide, so only they have 8 positive-distance
    # sites; k' = 9 fails there, in the last of four 3-row blocks, and
    # k' = 10 fails at every site. The error names the first failing k'
    # of the grid and its first short site, however the rows are blocked.
    coords = np.column_stack([np.arange(10.0), np.zeros(10)])
    coords[9] = coords[8]
    data = SpatialDataset(
        sites=SiteSet(coords),
        covariates=np.linspace(0.0, 1.0, 10),
        responses=np.linspace(0.0, 1.0, 10),
        labels=np.tile([1, 2], 5),
    )
    grid = ParamGrid(k_values=(2, 4), k_prime_values=(3, 9, 10))
    want = "k=9 out of range: exceeds the 8 available positive-distance sites"
    for rows in (3, 10):
        force_rows(monkeypatch, rows, 10, 2)
        with pytest.raises(ValueError) as raised:
            cv_select(data, grid, "knn")
        assert str(raised.value) == want
        with pytest.raises(ValueError) as raised:
            cv_select_classification_pairs(data, grid, "knn")
        assert str(raised.value) == want


def test_loo_fallback_rows_in_later_blocks(monkeypatch):
    # k = 1 with an epanechnikov kernel on distinct, equally spaced
    # covariates: every row's weights vanish, so every row of every
    # 2-row block takes the fallback of its own site
    n = 7
    data = SpatialDataset(
        sites=make_lattice((n,)),
        covariates=np.arange(n, dtype=float),
        responses=np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
        labels=np.array([1, 2, 2, 1, 3, 3, 3]),
    )
    p = KnnParams(k=1, k_prime=1, k1="epanechnikov", k2="parzen")
    monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", 8 * n * 2)
    assert len(evaluation._row_blocks(n, 1)) == 4
    y = data.responses
    np.testing.assert_array_equal(
        loo_predictions(data, p), [(y.sum() - y[i]) / (n - 1) for i in range(n)]
    )
    assert list(loo_labels(data, p)) == [
        classify(data, data.sites.coords[i], data.covariates[i], p, exclude={i})
        for i in range(n)
    ]
    want = [predict(data, data.sites.coords[i], data.covariates[i], p, exclude={i}) for i in range(n)]
    assert loo_predictions(data, p).tobytes() == np.array(want).tobytes()


def test_default_nw_grid_does_not_depend_on_block_rows(monkeypatch):
    # the interquartile scan of the whole distance matrices' upper
    # triangles, with a duplicated site and covariate among 40 sites
    rng = np.random.default_rng(9)
    coords, cov = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    coords[30], cov[12] = coords[4], cov[7]
    data = SpatialDataset(sites=SiteSet(coords), covariates=cov, responses=np.zeros(40))

    def whole_matrix_scan(points):
        dist = pairwise_distances(points)
        upper = dist[np.triu_indices_from(dist, k=1)]
        positive = upper[upper > 0.0]
        lo, hi = np.percentile(positive, 25.0), np.percentile(positive, 75.0)
        return tuple(float(v) for v in np.geomspace(lo, hi, 6))

    for rows in BLOCK_ROWS + (40,):
        monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", 8 * 40 * rows)
        grid = default_grid(data, "nw")
        assert grid.h_values == whole_matrix_scan(cov)
        assert grid.rho_values == whole_matrix_scan(coords)


def test_cv_select_on_45x45_lattice_stays_in_bounded_memory():
    # the whole-matrix search held about 430 MB of (2025, 2025) arrays
    rng = np.random.default_rng(45)
    n = 45 * 45
    data = SpatialDataset(
        sites=make_lattice((45, 45)),
        covariates=rng.normal(size=n),
        responses=rng.normal(size=n),
    )
    grid = default_grid(data, "knn")
    tracemalloc.start()
    try:
        cv_select(data, grid, "knn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
