"""What the evaluation module keeps between calls.

A :class:`SiteSet` keeps what depends only on its sites (neighbour
counts, the default rho axis and, for a set searched as one row block,
its leave-one-out site distances and site bandwidths), and a
:class:`SpatialDataset` keeps its leave-one-out covariate distances.
These tests check that a warm memo gives the same bits as a cold one,
that nothing kept can be written, that nothing kept outlives a change
of the data it came from, that nothing kept is pickled, and that a
process holds at most one lattice's site distances.
"""

import copy
import gc
import pickle
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from spatialknn import evaluation, lattice
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
    assert memo(data) and memo(data.sites)
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
        cold = cv_select_classification_pairs(fresh(data), grid, method, 3)
        assert cv_select_classification_pairs(data, grid, method, 3) == cold
        assert cv_select_classification_pairs(data, grid, method, 3) == cold


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
    kept = list(memo(data).values()) + list(memo(data.sites).values())
    arrays = [v for v in kept if isinstance(v, np.ndarray)]
    # both distance blocks, the neighbour counts and the site bandwidths
    assert len(arrays) == 3 + len(default_grid(data, "knn").k_prime_values)
    assert not any(a.flags.writeable for a in arrays)
    dx, ds = evaluation._loo_distances(data, slice(0, len(data)))
    with pytest.raises(ValueError, match="read-only"):
        dx[0, 1] = 0.0
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
    block = 8 * len(data) ** 2
    for obj in (data, data.sites):
        assert memo(obj)
        blob = pickle.dumps(obj)
        assert len(blob) < block
        for clone in (pickle.loads(blob), copy.copy(obj), copy.deepcopy(obj)):
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
    # any two of these lattices' site blocks exceed the bound below
    shapes = ((22, 22), (23, 23), (24, 24))
    blocks = [8 * (n * n) ** 2 for n, _ in shapes]
    assert blocks[0] + blocks[1] > 1.25 * blocks[2]
    for shape in shapes:  # the simulator's own caches, outside the trace
        gen_dataset(DgpParams(shape=shape, a=5.0, sigma=0.1, seed=0))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for shape in shapes:
            benchmark_replications(shape, 5.0, 0.1, n_reps=2, base_seed=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the last lattice keeps its block, the two before it nothing
    assert blocks[2] <= held < 1.25 * blocks[2]


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
