"""What the evaluation module and the simulator keep between calls.

A :class:`SiteSet` keeps what depends only on its sites (neighbour
counts, the default rho axis and, for a set searched as one row block,
its leave-one-out site distances and site bandwidths); a
:class:`SpatialDataset` keeps nothing. These tests check that a warm
memo gives the same bits as a cold one, that nothing kept can be
written, that nothing kept outlives a change of the data it came from,
that nothing kept is pickled, that a process holds at most one
lattice's site distances, and that threads drawing datasets together
get what one thread draws.
"""

import copy
import gc
import pickle
import sys
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from spatialknn import evaluation, lattice, simulate
from spatialknn.estimator import KnnParams, NwParams, SpatialDataset
from spatialknn.evaluation import (
    ParamGrid,
    benchmark_replications,
    cv_select,
    cv_select_classification_pairs,
    default_grid,
    loo_predictions,
)
from spatialknn.lattice import SiteSet, make_lattice, pairwise_distances
from spatialknn.simulate import DgpParams, gen_dataset

KERNEL_GRID = ParamGrid(k1_specs=("epanechnikov", "gaussian"), k2_specs=("parzen", "indicator"))


def fresh(data: SpatialDataset) -> SpatialDataset:
    """The same data on new objects, with nothing kept."""
    return SpatialDataset(
        sites=SiteSet(data.sites.coords, shape=data.sites.shape),
        covariates=data.covariates,
        responses=data.responses,
        labels=data.labels,
    )


def searches(data: SpatialDataset):
    """Default grids and both searches, in the order a replication runs them."""
    knn = evaluation._complete_grid(KERNEL_GRID, data, "knn")
    nw = evaluation._complete_grid(KERNEL_GRID, data, "nw")
    return (
        default_grid(data, "knn"),
        default_grid(data, "nw"),
        cv_select(data, knn, "knn"),
        cv_select(data, nw, "nw"),
    )


def memo(owner) -> dict:
    return owner.__dict__.get("_memo", {})


def simulated(seed=4, shape=(9, 8)):
    return gen_dataset(DgpParams(shape=shape, a=5.0, sigma=0.1, seed=seed))


def test_make_lattice_shares_one_site_set_per_shape():
    assert make_lattice((7, 6)) is make_lattice([7, 6])
    first = make_lattice((7, 6))
    make_lattice((6, 7))
    # only the last lattice built is kept
    assert make_lattice((7, 6)) is not first
    np.testing.assert_array_equal(make_lattice((7, 6)).coords, first.coords)


def test_warm_memo_gives_the_cold_results():
    data = simulated()
    cold = searches(fresh(data))
    assert searches(data) == cold
    # warm: the same dataset and sites again, then new data on the sites
    assert not memo(data) and memo(data.sites)
    assert searches(data) == cold
    other = simulated(seed=5)
    assert other.sites is data.sites
    assert searches(other) == searches(fresh(other))


def test_kept_blocks_give_the_results_of_blocks_built_per_call(monkeypatch):
    data = simulated()
    kept = searches(data)
    monkeypatch.setattr(evaluation, "_kept_whole", lambda n, rows: False)
    assert searches(fresh(data)) == kept


def test_warm_memo_gives_the_cold_classification_pairs():
    rng = np.random.default_rng(3)
    n = 60
    data = SpatialDataset(
        sites=SiteSet(rng.normal(size=(n, 2))),
        covariates=rng.normal(size=(n, 3)),
        labels=rng.integers(1, 4, size=n),
    )
    for method in ("knn", "nw"):
        grid = evaluation._complete_grid(KERNEL_GRID, data, method)
        cold = cv_select_classification_pairs(fresh(data), grid, method)
        assert cv_select_classification_pairs(data, grid, method) == cold
        assert cv_select_classification_pairs(data, grid, method) == cold


def test_warm_lattice_gives_the_cold_benchmark():
    args = dict(shape=(7, 7), a=5.0, sigma=0.1, n_reps=3, base_seed=11)
    lattice._lattice.cache_clear()
    cold = benchmark_replications(**args)
    assert memo(make_lattice((7, 7)))
    assert benchmark_replications(**args) == cold
    assert benchmark_replications(**args, n_jobs=2) == cold


def test_kept_values_are_read_only():
    data = simulated()
    searches(data)
    loo_predictions(data, KnnParams(3, 4))
    assert "_memo" not in data.__dict__  # a dataset keeps nothing
    arrays = [v for v in memo(data.sites).values() if isinstance(v, np.ndarray)]
    # the site distances, the neighbour counts and the site bandwidths
    assert len(arrays) == 2 + len(default_grid(data, "knn").k_prime_values)
    assert not any(a.flags.writeable for a in arrays)
    _, ds = evaluation._loo_distances(data, slice(0, len(data)))
    with pytest.raises(ValueError, match="read-only"):
        ds[0, 1] = 0.0


def test_large_sets_keep_nothing_n_squared():
    # 628 sites are searched in two row blocks at the default grid
    n = 628
    rng = np.random.default_rng(8)
    data = SpatialDataset(
        sites=SiteSet(rng.normal(size=(n, 2))),
        covariates=rng.normal(size=n),
        responses=rng.normal(size=n),
    )
    assert len(evaluation._row_blocks(n, evaluation._GRID_POINTS)) == 2
    default_grid(data, "nw")
    loo_predictions(data, NwParams(1.0, 1.0))
    assert not memo(data)
    assert all(np.size(v) <= n for v in memo(data.sites).values())


def test_no_stale_memo_after_subset():
    data = simulated()
    searches(data)
    part = data.subset(np.arange(0, len(data), 2))
    assert not memo(part) and not memo(part.sites)
    assert searches(part) == searches(fresh(part))


def test_no_stale_memo_after_rebinding_covariates():
    data = simulated()
    before = searches(data)
    data.covariates = data.covariates[::-1].copy()
    assert not memo(data)
    after = searches(data)
    assert after == searches(fresh(data))
    assert after[1].h_values == before[1].h_values  # same values, reordered
    assert after[2:] != before[2:]


def test_pickles_and_copies_carry_no_memo():
    data = simulated()
    searches(data)
    sites = data.sites
    assert memo(sites)
    blob = pickle.dumps(sites)
    assert len(blob) < 8 * len(data) ** 2
    for clone in (pickle.loads(blob), copy.copy(sites), copy.deepcopy(sites)):
        assert "_memo" not in clone.__dict__
    assert searches(pickle.loads(pickle.dumps(data))) == searches(fresh(data))


def test_rho_axis_does_not_depend_on_block_rows(monkeypatch):
    # the rho axis is kept per site set, so each budget gets new sites
    rng = np.random.default_rng(9)
    coords = rng.normal(size=(40, 2))
    coords[30] = coords[4]
    dist = pairwise_distances(coords)
    upper = dist[np.triu_indices_from(dist, k=1)]
    positive = upper[upper > 0.0]
    lo, hi = np.percentile(positive, 25.0), np.percentile(positive, 75.0)
    want = tuple(float(v) for v in np.geomspace(lo, hi, 6))
    for rows in (1, 3, 7, 40):
        monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", 8 * 40 * rows)
        data = SpatialDataset(
            sites=SiteSet(coords), covariates=rng.normal(size=40), responses=np.zeros(40)
        )
        assert default_grid(data, "nw").rho_values == want


def test_replications_over_three_shapes_hold_one_site_block():
    # each lattice keeps its site block in its memo; the lattice cache
    # holds the last shape only, so the earlier lattices are freed
    shapes = ((6, 6), (7, 6), (7, 7))
    kept = []
    for shape in shapes:
        benchmark_replications(shape, 5.0, 0.1, n_reps=2, base_seed=1)
        sites = make_lattice(shape)
        assert "loo_site_distances" in memo(sites)
        kept.append(weakref.ref(sites))
    del sites
    gc.collect()
    assert [ref() is None for ref in kept] == [True, True, False]


def test_threads_drawing_a_fresh_shape_get_the_serial_arrays():
    # 91 sites: below the sizes at which BLAS splits its work, so the
    # threads' own draws do not depend on how many run at once
    shape = (13, 7)
    params = [DgpParams(shape=shape, a=5.0, sigma=2.0, seed=s) for s in range(4)]
    for cached in (simulate._grid_distance_matrix, simulate._covariance_factor):
        cached.cache_clear()
    start = threading.Barrier(len(params))

    def draw(p):
        start.wait(timeout=60)
        return gen_dataset(p)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside the cache misses
    try:
        with ThreadPoolExecutor(max_workers=len(params)) as pool:
            drawn = list(pool.map(draw, params, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    kept = [simulate._grid_distance_matrix(shape)] + [
        simulate._covariance_factor(shape, variance, 3.0) for variance in (5.0, 2.0, 0.1)
    ]
    assert simulate._covariance_factor.cache_info().currsize == 3
    assert not any(a.flags.writeable for a in kept)
    for p, data in zip(params, drawn):
        serial = gen_dataset(p)
        np.testing.assert_array_equal(data.covariates, serial.covariates)
        np.testing.assert_array_equal(data.responses, serial.responses)


class RecordingPool:
    """Runs each task at once in this process; records its worker count."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("n_jobs, n_reps, workers", [(8, 3, 3), (2, 5, 2), (3, 3, 3)])
def test_pool_has_no_more_workers_than_replications(monkeypatch, n_jobs, n_reps, workers):
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    grids = (
        ParamGrid(k_values=(4,), k_prime_values=(5,)),
        ParamGrid(h_values=(1.0,), rho_values=(0.3,)),
    )
    res = benchmark_replications((5, 5), 5.0, 0.1, n_reps, grids=grids, n_jobs=n_jobs)
    assert RecordingPool.sizes == [workers]
    assert res == benchmark_replications((5, 5), 5.0, 0.1, n_reps, grids=grids, n_jobs=1)
