"""Model selection and evaluation tests.

Key oracles:
- the vectorized leave-one-out engine against per-site estimator calls
  with ``exclude={i}``;
- the grid search against an exhaustive recomputation of every score;
- the hand-rolled t tail probabilities against scipy.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from spatialknn import evaluation
from spatialknn.errors import DegenerateInputError
from spatialknn.estimator import (
    KnnParams,
    NwParams,
    SpatialDataset,
    classify,
    knn_weights,
    nw_weights,
    predict,
)
from spatialknn.evaluation import (
    EvalReport,
    ParamGrid,
    benchmark_replications,
    ccr,
    cv_select,
    cv_select_classification,
    cv_select_classification_pairs,
    default_grid,
    holdout_labels,
    holdout_predictions,
    loo_labels,
    loo_predictions,
    mae,
    paired_ttest,
    regularized_incomplete_beta,
    stratified_split,
    student_t_sf,
)
from spatialknn.kernels import KERNEL_NAMES, eval_scalar
from spatialknn.lattice import SiteSet, make_lattice, pairwise_distances
from spatialknn.neighbors import knn_bandwidth
from spatialknn.simulate import DgpParams, gen_dataset


def random_dataset(rng, n=None, d=1, labels=False, duplicates=False):
    n = n or int(rng.integers(6, 16))
    coords = rng.normal(size=(n, 2))
    cov = rng.normal(size=(n, d))
    if duplicates:
        coords[1] = coords[0]  # duplicate site pair
        cov[3] = cov[2]
        cov[4] = cov[2]  # covariate triple, zero bandwidth at small k
    return SpatialDataset(
        sites=SiteSet(coords),
        covariates=cov,
        responses=rng.normal(size=n),
        labels=rng.integers(1, 4, size=n) if labels else None,
    )


# ---------------------------------------------------------------------------
# metrics


def test_mae_hand_value():
    assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == 1.0
    assert mae([0.0], [0.0]) == 0.0


def test_mae_errors():
    with pytest.raises(ValueError, match="mismatch"):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least one"):
        mae([], [])


def test_ccr_hand_example():
    report = ccr([2, 2, 1, 1], [2, 1, 1, 1], 2)
    assert report.overall == 0.75
    assert report.per_class == (1.0, 0.5)


def test_ccr_absent_class_is_nan():
    report = ccr([1, 1], [1, 2], 2)
    assert math.isnan(report.per_class[1])
    assert report.per_class[0] == 0.5


def test_ccr_overall_recombines_from_classes():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n, m = int(rng.integers(2, 40)), int(rng.integers(2, 5))
        truth = rng.integers(1, m + 1, size=n)
        pred = rng.integers(1, m + 1, size=n)
        report = ccr(truth, pred, m)
        counts = np.bincount(truth, minlength=m + 1)[1:]
        total = sum(c * r for c, r in zip(counts, report.per_class) if c > 0)
        assert report.overall == pytest.approx(total / n, abs=1e-12)


def test_ccr_validation():
    with pytest.raises(ValueError, match="integers"):
        ccr([1.0, 2.0], [1, 2], 2)
    with pytest.raises(ValueError, match="outside"):
        ccr([1, 3], [1, 2], 2)
    with pytest.raises(ValueError, match="equal-length"):
        ccr([1, 2], [1], 2)
    with pytest.raises(ValueError, match="at least one"):
        ccr([], [], 2)


# ---------------------------------------------------------------------------
# stratified split


def labelled_dataset(labels):
    labels = np.asarray(labels)
    n = labels.size
    return SpatialDataset(
        sites=make_lattice((n,)), covariates=np.arange(n, dtype=float), labels=labels
    )


def test_split_counting_oracle():
    labels = np.repeat([1, 2, 3], [10, 30, 60])
    data = labelled_dataset(labels)
    train, test = stratified_split(data, 0.8, seed=0)
    assert np.intersect1d(train, test).size == 0
    np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(100))
    for c, size in ((1, 10), (2, 30), (3, 60)):
        got = int((labels[train] == c).sum())
        assert got == round(0.8 * size), f"class {c}"


def test_split_deterministic_and_sorted():
    data = labelled_dataset(np.tile([1, 2], 20))
    t1, s1 = stratified_split(data, 0.7, seed=5)
    t2, s2 = stratified_split(data, 0.7, seed=5)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(s1, s2)
    assert (np.diff(t1) > 0).all() and (np.diff(s1) > 0).all()
    t3, _ = stratified_split(data, 0.7, seed=6)
    assert not np.array_equal(t1, t3)


def test_split_of_no_sites_is_two_empty_sides():
    empty = SpatialDataset(
        sites=SiteSet(np.zeros((0, 1))), covariates=np.zeros((0, 1)), labels=np.zeros(0, int)
    )
    for side in stratified_split(empty, 0.8, seed=0):
        assert side.dtype == np.int64 and side.size == 0


def test_split_clamps_keep_both_sides():
    # 2-member class at an extreme fraction still lands one on each side
    data = labelled_dataset([1, 1, 1, 1, 1, 1, 1, 1, 2, 2])
    train, test = stratified_split(data, 0.99, seed=1)
    assert int((data.labels[train] == 2).sum()) == 1
    assert int((data.labels[test] == 2).sum()) == 1


def test_split_singleton_class_warns_and_trains():
    data = labelled_dataset([1, 1, 1, 1, 2])
    with pytest.warns(UserWarning, match="fewer than 2"):
        train, test = stratified_split(data, 0.5, seed=0)
    assert 4 in train
    assert int((data.labels[test] == 2).sum()) == 0


def test_split_validation():
    data = labelled_dataset([1, 2, 1, 2])
    with pytest.raises(ValueError, match="train_fraction"):
        stratified_split(data, 1.0)
    unlabelled = SpatialDataset(
        sites=make_lattice((3,)), covariates=np.zeros(3), responses=np.zeros(3)
    )
    with pytest.raises(ValueError, match="labels"):
        stratified_split(unlabelled, 0.8)


# ---------------------------------------------------------------------------
# t tail probabilities


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.uniform(0.1, 50.0))
        x = float(rng.uniform(0.0, 1.0))
        got = regularized_incomplete_beta(a, b, x)
        want = float(scipy.special.betainc(a, b, x))
        assert got == pytest.approx(want, abs=1e-12), (a, b, x)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
    with pytest.raises(ValueError, match="positive"):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_student_t_sf_against_scipy():
    for df in (1, 2, 3, 4, 10, 29, 100):
        for t in np.linspace(-8.0, 8.0, 33):
            got = student_t_sf(float(t), df)
            want = float(scipy.stats.t.sf(t, df))
            assert got == pytest.approx(want, abs=1e-10), (t, df)


def test_student_t_sf_exact_half_at_zero():
    for df in (1, 4, 17, 250):
        assert student_t_sf(0.0, df) == 0.5


def test_student_t_sf_symmetry_exact():
    for t in (0.3, 1.7, 4.2):
        for df in (2, 9):
            assert student_t_sf(t, df) + student_t_sf(-t, df) == 1.0


def test_student_t_sf_validation():
    with pytest.raises(ValueError, match="degrees of freedom"):
        student_t_sf(1.0, 0.0)


def test_paired_ttest_frozen_example():
    # differences 1..5: t = 3 / (sqrt(2.5)/sqrt(5)) = 3 sqrt(2)
    t, p = paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert t == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-12)
    assert p == pytest.approx(float(scipy.stats.t.sf(t, 4)), abs=1e-12)
    assert p == pytest.approx(0.00660, abs=1e-4)


def test_paired_ttest_against_scipy():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        t, p = paired_ttest(a, b)
        ref = scipy.stats.ttest_rel(a, b, alternative="greater")
        assert t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_paired_ttest_errors():
    with pytest.raises(ValueError, match="mismatch"):
        paired_ttest([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least 2"):
        paired_ttest([1.0], [0.0])
    with pytest.raises(DegenerateInputError, match="zero variance"):
        paired_ttest([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# grids


def test_param_grid_coercion_and_validation():
    g = ParamGrid(k_values=(3.0, "4"), k_prime_values=(2,), h_values=("0.5",), rho_values=(1,))
    assert g.k_values == (3, 4)
    assert g.h_values == (0.5,)
    with pytest.raises(ValueError, match="k_values"):
        ParamGrid(k_values=(0,))
    with pytest.raises(ValueError, match="h_values"):
        ParamGrid(h_values=(-1.0,))
    with pytest.raises(ValueError, match="nonempty"):
        ParamGrid(k1_specs=())
    with pytest.raises(ValueError, match="unknown kernel"):
        ParamGrid(k2_specs=("nope",))


def test_default_grid_knn_power_law():
    rng = np.random.default_rng(0)
    data = random_dataset(rng, n=100)
    g = default_grid(data, "knn")
    want_k = tuple(
        sorted({min(max(1, math.ceil(100 ** (0.55 + 0.05 * i))), 99) for i in range(8)})
    )
    want_kp = tuple(
        sorted({min(max(1, math.ceil(100 ** (0.60 + 0.05 * i))), 99) for i in range(8)})
    )
    assert g.k_values == want_k
    assert g.k_prime_values == want_kp
    assert not g.h_values and not g.rho_values


def test_default_grid_nw_interquartile_scan():
    rng = np.random.default_rng(1)
    data = random_dataset(rng, n=40)
    g = default_grid(data, "nw")
    for values, coords in (
        (g.h_values, data.covariates),
        (g.rho_values, data.sites.coords),
    ):
        dist = pairwise_distances(coords)
        off = dist[np.triu_indices(len(dist), k=1)]
        pos = off[off > 0]
        lo, hi = np.percentile(pos, 25.0), np.percentile(pos, 75.0)
        assert len(values) == 6
        assert values[0] == pytest.approx(lo, rel=1e-12)
        assert values[-1] == pytest.approx(hi, rel=1e-12)
        ratios = np.diff(np.log(values))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_default_grid_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="method"):
        default_grid(random_dataset(rng), "other")
    tiny = SpatialDataset(
        sites=make_lattice((1,)), covariates=np.zeros(1), responses=np.zeros(1)
    )
    with pytest.raises(ValueError, match="at least 2"):
        default_grid(tiny, "knn")
    allsame = SpatialDataset(
        sites=make_lattice((4,)), covariates=np.zeros(4), responses=np.zeros(4)
    )
    with pytest.raises(ValueError, match="covariate"):
        default_grid(allsame, "nw")


def test_default_grid_caps_k_prime_at_positive_distance_neighbours():
    # 4 distinct sites, each repeated 20 times: every site has exactly 60
    # neighbours at positive distance, while n^0.95 would ask for 65
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(3)
    data = SpatialDataset(
        sites=SiteSet(np.repeat(corners, 20, axis=0)),
        covariates=rng.normal(size=80),
        responses=rng.normal(size=80),
    )
    g = default_grid(data, "knn")
    assert max(g.k_prime_values) == 60
    assert max(g.k_values) == math.ceil(80**0.9)
    params, score = cv_select(data, g, "knn")
    assert params.k_prime <= 60 and math.isfinite(score)
    coincident = SpatialDataset(
        sites=SiteSet(np.zeros((5, 2))), covariates=np.arange(5.0), responses=np.zeros(5)
    )
    with pytest.raises(ValueError, match="coincide"):
        default_grid(coincident, "knn")


# ---------------------------------------------------------------------------
# leave-one-out engine


@pytest.mark.parametrize("duplicates", [False, True])
def test_loo_predictions_match_per_site_estimator(duplicates):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        data = random_dataset(rng, n=10, duplicates=duplicates)
        n = len(data)
        p = KnnParams(
            k=int(rng.integers(1, n - 1)),
            k_prime=int(rng.integers(1, n - 2)),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        got = loo_predictions(data, p)
        want = [
            predict(data, data.sites.coords[i], data.covariates[i], p, exclude={i})
            for i in range(n)
        ]
        assert got.tobytes() == np.array(want).tobytes()


def test_loo_predictions_match_per_site_nw():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = random_dataset(rng, n=9)
        p = NwParams(
            h=float(rng.uniform(0.3, 2.0)),
            rho=float(rng.uniform(0.3, 2.0)),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        got = loo_predictions(data, p)
        want = [
            predict(data, data.sites.coords[i], data.covariates[i], p, exclude={i})
            for i in range(len(data))
        ]
        assert got.tobytes() == np.array(want).tobytes()


def test_loo_fallback_rows_use_mean_of_others():
    # equally spaced distinct covariates with k=1 and an epanechnikov
    # kernel: the single nearest point sits exactly on the support edge,
    # so every row's weights vanish and the fallback engages everywhere
    n = 6
    data = SpatialDataset(
        sites=make_lattice((n,)),
        covariates=np.arange(n, dtype=float),
        responses=np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0]),
    )
    p = KnnParams(k=1, k_prime=1, k1="epanechnikov", k2="parzen")
    got = loo_predictions(data, p)
    y = data.responses
    want = [(y.sum() - y[i]) / (n - 1) for i in range(n)]
    assert got.tobytes() == np.array(want).tobytes()


def test_loo_two_site_indicator_example():
    data = SpatialDataset(
        sites=make_lattice((2,)),
        covariates=np.array([0.0, 1.0]),
        responses=np.array([2.0, 10.0]),
    )
    p = KnnParams(k=1, k_prime=1, k1="indicator", k2="indicator")
    np.testing.assert_array_equal(loo_predictions(data, p), [10.0, 2.0])
    assert mae(data.responses, loo_predictions(data, p)) == 8.0


def test_loo_constant_responses_score_zero():
    rng = np.random.default_rng(6)
    data = SpatialDataset(
        sites=SiteSet(rng.normal(size=(8, 2))),
        covariates=rng.normal(size=8),
        responses=np.full(8, 2.5),
    )
    assert mae(data.responses, loo_predictions(data, KnnParams(k=2, k_prime=2))) == 0.0


def test_loo_needs_two_sites():
    data = SpatialDataset(
        sites=make_lattice((1,)), covariates=np.zeros(1), responses=np.zeros(1)
    )
    with pytest.raises(ValueError, match="at least 2"):
        loo_predictions(data, KnnParams(k=1, k_prime=1))


def test_loo_k_range_checked():
    rng = np.random.default_rng(8)
    data = random_dataset(rng, n=5)
    with pytest.raises(ValueError, match="out of range"):
        loo_predictions(data, KnnParams(k=5, k_prime=1))
    with pytest.raises(ValueError, match="out of range"):
        loo_predictions(data, KnnParams(k=1, k_prime=5))


def test_loo_duplicate_sites_need_enough_positive_neighbors():
    coords = np.zeros((4, 2))  # all four sites coincide
    data = SpatialDataset(
        sites=SiteSet(coords), covariates=np.arange(4.0), responses=np.arange(4.0)
    )
    with pytest.raises(ValueError, match="positive-distance"):
        loo_predictions(data, KnnParams(k=1, k_prime=1))


def test_loo_labels_match_per_site_classify():
    rng = np.random.default_rng(40)
    for _ in range(10):
        data = random_dataset(rng, n=11, labels=True)
        n = len(data)
        p = KnnParams(
            k=int(rng.integers(1, n - 1)),
            k_prime=int(rng.integers(1, n - 1)),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        got = loo_labels(data, p)
        want = [
            classify(data, data.sites.coords[i], data.covariates[i], p, exclude={i})
            for i in range(n)
        ]
        np.testing.assert_array_equal(got, want)


def test_loo_labels_nw_params():
    rng = np.random.default_rng(41)
    data = random_dataset(rng, n=9, labels=True)
    p = NwParams(h=1.5, rho=1.5, k1="gaussian", k2="gaussian")
    want = [
        classify(data, data.sites.coords[i], data.covariates[i], p, exclude={i})
        for i in range(9)
    ]
    np.testing.assert_array_equal(loo_labels(data, p), want)


# ---------------------------------------------------------------------------
# grid search


def loo_mae(data, p):
    return mae(data.responses, loo_predictions(data, p))


def loo_rate(data, p):
    return ccr(data.labels, loo_labels(data, p), 3).overall


def exhaustive_scores(data, grid, method, score_fn):
    out = []
    mains = grid.k_values if method == "knn" else grid.h_values
    auxes = grid.k_prime_values if method == "knn" else grid.rho_values
    for k1 in grid.k1_specs:
        for k2 in grid.k2_specs:
            for main in mains:
                for aux in auxes:
                    if method == "knn":
                        p = KnnParams(k=main, k_prime=aux, k1=k1, k2=k2)
                    else:
                        p = NwParams(h=main, rho=aux, k1=k1, k2=k2)
                    out.append((p, score_fn(data, p)))
    return out


def test_cv_select_matches_exhaustive_oracle():
    rng = np.random.default_rng(50)
    data = random_dataset(rng, n=12)
    grid = ParamGrid(
        k_values=(1, 2, 4),
        k_prime_values=(2, 3),
        k1_specs=("epanechnikov", "gaussian"),
        k2_specs=("parzen", "indicator"),
    )
    params, score = cv_select(data, grid, "knn")
    table = exhaustive_scores(data, grid, "knn", loo_mae)
    best = min(
        table,
        key=lambda row: (
            row[1],
            row[0].k,
            row[0].k_prime,
            KERNEL_NAMES.index(row[0].k1),
            KERNEL_NAMES.index(row[0].k2),
        ),
    )
    assert params == best[0]
    assert score == pytest.approx(best[1], abs=1e-14)


def test_cv_select_nw_matches_exhaustive_oracle():
    rng = np.random.default_rng(51)
    data = random_dataset(rng, n=10)
    grid = ParamGrid(
        h_values=(0.5, 1.0, 2.0),
        rho_values=(0.8, 1.6),
        k1_specs=("triangular",),
        k2_specs=("gaussian", "biweight"),
    )
    params, score = cv_select(data, grid, "nw")
    table = exhaustive_scores(data, grid, "nw", loo_mae)
    best = min(
        table,
        key=lambda row: (
            row[1],
            row[0].h,
            row[0].rho,
            KERNEL_NAMES.index(row[0].k1),
            KERNEL_NAMES.index(row[0].k2),
        ),
    )
    assert params == best[0]
    assert score == pytest.approx(best[1], abs=1e-14)


def test_cv_select_singleton_grid_echoes():
    rng = np.random.default_rng(52)
    data = random_dataset(rng, n=9)
    grid = ParamGrid(k_values=(3,), k_prime_values=(4,), k1_specs=("gaussian",), k2_specs=("gaussian",))
    params, score = cv_select(data, grid, "knn")
    assert params == KnnParams(k=3, k_prime=4, k1="gaussian", k2="gaussian")
    assert score == pytest.approx(loo_mae(data, params), abs=1e-15)


def test_cv_select_tie_breaks_deterministically():
    # constant responses: every grid point scores exactly 0, so the
    # winner is the smallest k, then k', then catalog kernel order,
    # regardless of how the axes were listed
    data = SpatialDataset(
        sites=make_lattice((8,)),
        covariates=np.arange(8.0),
        responses=np.full(8, 1.0),
    )
    grid = ParamGrid(
        k_values=(5, 2, 3),
        k_prime_values=(4, 2),
        k1_specs=("gaussian", "biweight"),
        k2_specs=("triangular", "indicator"),
    )
    params, score = cv_select(data, grid, "knn")
    assert score == 0.0
    assert params == KnnParams(k=2, k_prime=2, k1="biweight", k2="indicator")


def test_cv_select_duplicate_axis_entries_collapse():
    rng = np.random.default_rng(53)
    data = random_dataset(rng, n=8)
    g1 = ParamGrid(k_values=(2, 2, 2), k_prime_values=(3, 3))
    g2 = ParamGrid(k_values=(2,), k_prime_values=(3,))
    assert cv_select(data, g1, "knn") == cv_select(data, g2, "knn")


def test_cv_select_errors():
    rng = np.random.default_rng(54)
    data = random_dataset(rng, n=8)
    with pytest.raises(ValueError, match="empty parameter grid"):
        cv_select(data, ParamGrid(h_values=(1.0,), rho_values=(1.0,)), "knn")
    with pytest.raises(ValueError, match="empty parameter grid"):
        cv_select(data, ParamGrid(k_values=(1,), k_prime_values=(1,)), "nw")
    unlabelled = SpatialDataset(
        sites=make_lattice((4,)), covariates=np.arange(4.0), labels=np.array([1, 2, 1, 2])
    )
    with pytest.raises(ValueError, match="responses"):
        cv_select(unlabelled, ParamGrid(k_values=(1,), k_prime_values=(1,)), "knn")


def test_cv_select_classification_matches_exhaustive_oracle():
    rng = np.random.default_rng(60)
    data = random_dataset(rng, n=14, labels=True)
    grid = ParamGrid(
        k_values=(2, 5),
        k_prime_values=(3, 6),
        k1_specs=("gaussian", "parzen"),
        k2_specs=("gaussian",),
    )
    params, rate = cv_select_classification(data, grid, "knn")
    table = exhaustive_scores(data, grid, "knn", loo_rate)
    best_rate = max(r for _, r in table)
    assert rate == pytest.approx(best_rate, abs=1e-14)
    tied = [p for p, r in table if r == best_rate]
    expect = min(
        tied,
        key=lambda p: (p.k, p.k_prime, KERNEL_NAMES.index(p.k1), KERNEL_NAMES.index(p.k2)),
    )
    assert params == expect


def test_cv_select_classification_nw():
    rng = np.random.default_rng(61)
    data = random_dataset(rng, n=10, labels=True)
    grid = ParamGrid(h_values=(1.0, 2.0), rho_values=(1.0, 2.0), k1_specs=("gaussian",), k2_specs=("gaussian",))
    params, rate = cv_select_classification(data, grid, "nw")
    assert isinstance(params, NwParams)
    assert rate == pytest.approx(loo_rate(data, params), abs=1e-14)


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_pair_winners_equal_single_pair_searches(method):
    rng = np.random.default_rng(62)
    data = random_dataset(rng, n=24, labels=True, duplicates=True)
    grid = ParamGrid(
        k_values=(6, 1, 3),
        k_prime_values=(5, 2),
        h_values=(2.5, 0.4, 1.0),
        rho_values=(0.5, 1.5),
        k1_specs=KERNEL_NAMES,
        k2_specs=KERNEL_NAMES,
    )
    got = cv_select_classification_pairs(data, grid, method)
    assert list(got) == [(k1, k2) for k1 in KERNEL_NAMES for k2 in KERNEL_NAMES]
    for (k1, k2), winner in got.items():
        narrowed = dataclasses.replace(grid, k1_specs=(k1,), k2_specs=(k2,))
        assert winner == cv_select_classification(data, narrowed, method)


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_pair_winners_do_not_depend_on_kernel_chunks(method, monkeypatch):
    # one covariate kernel per chunk, two, and all six: same winners, and
    # each site-kernel matrix is evaluated once per chunk
    rng = np.random.default_rng(63)
    data = random_dataset(rng, n=20, labels=True, duplicates=True)
    grid = ParamGrid(
        k_values=(2, 5, 9),
        k_prime_values=(4, 7),
        h_values=(0.3, 1.2, 2.0),
        rho_values=(0.6, 1.4),
        k1_specs=KERNEL_NAMES,
        k2_specs=KERNEL_NAMES,
    )
    calls = []

    def counting(name, u):
        calls.append(name)
        return eval_scalar(name, u)

    monkeypatch.setattr(evaluation, "eval_scalar", counting)
    per_kernel = 3 * 20 * 20 * 8  # three main values of (20, 20) float64
    results = []
    for kernels_per_chunk, n_chunks in ((1, 6), (2, 3), (6, 1)):
        monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", kernels_per_chunk * per_kernel)
        calls.clear()
        results.append(cv_select_classification_pairs(data, grid, method))
        assert len(calls) == 6 * 3 + n_chunks * 6 * 2
    assert results[0] == results[1] == results[2]


# ---------------------------------------------------------------------------
# holdout helpers


def test_holdout_predictions_match_direct_calls():
    rng = np.random.default_rng(70)
    train = random_dataset(rng, n=12)
    test = random_dataset(rng, n=5)
    for p in (
        KnnParams(k=3, k_prime=3, k1="gaussian", k2="gaussian"),
        NwParams(h=1.0, rho=1.0, k1="gaussian", k2="gaussian"),
    ):
        got = holdout_predictions(train, test, p)
        want = [
            predict(train, test.sites.coords[i], test.covariates[i], p) for i in range(5)
        ]
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_holdout_labels_match_direct_calls():
    rng = np.random.default_rng(71)
    train = random_dataset(rng, n=12, labels=True)
    test = random_dataset(rng, n=6, labels=True)
    p = KnnParams(k=4, k_prime=4, k1="gaussian", k2="gaussian")
    got = holdout_labels(train, test, p)
    want = [
        classify(train, test.sites.coords[i], test.covariates[i], p)
        for i in range(6)
    ]
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.int64


# ---------------------------------------------------------------------------
# replication benchmark


def test_eval_report_from_values():
    r = EvalReport.from_values([1.0, 2.0, 3.0])
    assert r.mean == 2.0
    assert r.sd == pytest.approx(1.0)
    assert r.per_replication_metric == (1.0, 2.0, 3.0)
    single = EvalReport.from_values([4.0])
    assert single.sd == 0.0
    with pytest.raises(ValueError, match="empty"):
        EvalReport.from_values([])


def small_grids():
    knn = ParamGrid(k_values=(4, 8), k_prime_values=(5, 9))
    nw = ParamGrid(h_values=(1.0, 2.0), rho_values=(0.3, 0.6))
    return knn, nw


def test_benchmark_replications_oracle_and_determinism():
    knn_grid, nw_grid = small_grids()
    res = benchmark_replications(
        (6, 6), a=5.0, sigma=0.1, n_reps=3, grids=(knn_grid, nw_grid), base_seed=10
    )
    # per-replication values recompute directly from the seeds
    for r in range(3):
        data = gen_dataset(DgpParams(shape=(6, 6), a=5.0, sigma=0.1, seed=10 + r))
        assert res.knn.per_replication_metric[r] == cv_select(data, knn_grid, "knn")[1]
        assert res.nw.per_replication_metric[r] == cv_select(data, nw_grid, "nw")[1]
    t, p = paired_ttest(res.nw.per_replication_metric, res.knn.per_replication_metric)
    assert res.t_stat == t and res.p_value == p
    again = benchmark_replications(
        (6, 6), a=5.0, sigma=0.1, n_reps=3, grids=(knn_grid, nw_grid), base_seed=10
    )
    assert res == again


def test_benchmark_replications_parallel_matches_sequential():
    knn_grid, nw_grid = small_grids()
    seq = benchmark_replications(
        (5, 5), 5.0, 0.1, n_reps=4, grids=(knn_grid, nw_grid), base_seed=0, n_jobs=1
    )
    par = benchmark_replications(
        (5, 5), 5.0, 0.1, n_reps=4, grids=(knn_grid, nw_grid), base_seed=0, n_jobs=2
    )
    assert seq == par


def test_benchmark_replications_default_grids_run():
    res = benchmark_replications((6, 6), 5.0, 0.1, n_reps=2, base_seed=3)
    assert len(res.knn.per_replication_metric) == 2
    assert res.knn.mean > 0.0


def test_benchmark_degenerate_differences_reported_as_none():
    # force both methods onto the identical all-neighbours predictor:
    # indicator kernels with k = k' = n - 1 keep every point, as do
    # huge fixed bandwidths, so the paired differences are exactly zero
    n = 36
    knn_grid = ParamGrid(
        k_values=(n - 1,), k_prime_values=(n - 1,), k1_specs=("indicator",), k2_specs=("indicator",)
    )
    nw_grid = ParamGrid(
        h_values=(1e9,), rho_values=(1e9,), k1_specs=("indicator",), k2_specs=("indicator",)
    )
    res = benchmark_replications(
        (6, 6), 5.0, 0.1, n_reps=2, grids=(knn_grid, nw_grid), base_seed=0
    )
    assert res.knn.per_replication_metric == res.nw.per_replication_metric
    assert res.t_stat is None and res.p_value is None


def test_benchmark_failure_names_replication():
    bad = ParamGrid(k_values=(500,), k_prime_values=(2,))
    nw = ParamGrid(h_values=(1.0,), rho_values=(1.0,))
    with pytest.raises(ValueError, match="replication 0"):
        benchmark_replications((5, 5), 5.0, 0.1, n_reps=2, grids=(bad, nw), base_seed=0)


def test_benchmark_needs_two_replications():
    with pytest.raises(ValueError, match="at least 2"):
        benchmark_replications((5, 5), 5.0, 0.1, n_reps=1)


def holdout_case(n_test=23):
    """Training and test sets that reach every branch of the held-out helpers.

    Half the covariates repeat a few integer values (zero covariate
    bandwidths at small k), the first test sites lie far from every
    training site (empty weights under compact kernels), and the two
    training classes make indicator votes tie.
    """
    rng = np.random.default_rng(72)

    def make(n, far):
        coords = rng.normal(size=(n, 2))
        coords[:far] += 40.0
        cov = rng.normal(size=n)
        cov[far : n // 2] = rng.integers(0, 4, size=n // 2 - far)
        return SpatialDataset(
            sites=SiteSet(coords),
            covariates=cov,
            responses=rng.normal(size=n),
            labels=rng.integers(1, 3, size=n),
        )

    return make(30, 0), make(n_test, 4)


HOLDOUT_PARAMS = (
    KnnParams(k=1, k_prime=3),
    KnnParams(k=3, k_prime=6),
    KnnParams(k=8, k_prime=12),
    NwParams(h=0.3, rho=0.6),
    NwParams(h=1.5, rho=2.0),
)


def per_site(fn, train, test, p):
    return [fn(train, s, x, p) for s, x in zip(test.sites.coords, test.covariates)]


def test_holdout_case_reaches_every_branch():
    train, test = holdout_case()
    ties = KnnParams(k=3, k_prime=6, k1="indicator", k2="indicator")
    votes = [
        np.bincount(train.labels - 1, weights=w.weights)
        for w in per_site(knn_weights, train, test, ties)
    ]
    assert any(v[0] == v[1] > 0.0 for v in votes)
    assert any(knn_bandwidth(train.covariates, x, 3).bandwidth == 0.0 for x in test.covariates)
    knn, nw = KnnParams(k=1, k_prime=3), NwParams(h=0.3, rho=0.6)
    assert not all(w.normalized for w in per_site(knn_weights, train, test, knn))
    assert not all(w.normalized for w in per_site(nw_weights, train, test, nw))


@pytest.mark.parametrize("k1", KERNEL_NAMES)
def test_holdout_blocks_equal_per_site_calls_bitwise(k1, monkeypatch):
    # blocks of 5 rows over 23 test sites: four full blocks and a short one
    monkeypatch.setattr(evaluation, "_HOLDOUT_BLOCK", 5)
    train, test = holdout_case()
    for k2 in KERNEL_NAMES:
        for base in HOLDOUT_PARAMS:
            p = dataclasses.replace(base, k1=k1, k2=k2)
            want = np.array(per_site(predict, train, test, p))
            assert holdout_predictions(train, test, p).tobytes() == want.tobytes(), p
            want = per_site(classify, train, test, p)
            np.testing.assert_array_equal(holdout_labels(train, test, p), want, err_msg=str(p))


def test_holdout_test_set_larger_than_one_block():
    train, test = holdout_case(n_test=evaluation._HOLDOUT_BLOCK + 9)
    for p in (
        KnnParams(k=3, k_prime=6, k1="indicator", k2="indicator"),
        NwParams(h=1.5, rho=2.0, k1="epanechnikov", k2="parzen"),
    ):
        want = np.array(per_site(predict, train, test, p))
        assert holdout_predictions(train, test, p).tobytes() == want.tobytes()
        got = holdout_labels(train, test, p)
        np.testing.assert_array_equal(got, per_site(classify, train, test, p))
        assert got.dtype == np.int64


def test_holdout_errors_match_per_site_calls():
    train, test = holdout_case()
    for p in (KnnParams(k=31, k_prime=3), KnnParams(k=3, k_prime=31)):
        with pytest.raises(ValueError, match="exceeds the 30 available"):
            predict(train, test.sites.coords[0], test.covariates[0], p)
        with pytest.raises(ValueError, match="exceeds the 30 available"):
            holdout_predictions(train, test, p)
    # the k' error names the first query short of neighbours (28 at
    # positive distance), not the shortest one (25)
    short = SpatialDataset(
        sites=SiteSet(np.vstack([np.repeat(test.sites.coords[:2], [2, 5], axis=0),
                                 train.sites.coords[:23]])),
        covariates=train.covariates,
        labels=train.labels,
    )
    p = KnnParams(k=3, k_prime=29)
    with pytest.raises(ValueError, match="exceeds the 28 available"):
        classify(short, test.sites.coords[0], test.covariates[0], p)
    with pytest.raises(ValueError, match="exceeds the 28 available"):
        holdout_labels(short, test, p)
    wide = test.subset(range(3))
    wide = SpatialDataset(sites=wide.sites, covariates=np.zeros((3, 2)), labels=wide.labels)
    with pytest.raises(ValueError, match="query covariate has length 2"):
        holdout_labels(train, wide, KnnParams(k=3, k_prime=3))
    assert holdout_predictions(train, test.subset([]), KnnParams(k=3, k_prime=3)).shape == (0,)
    # no training site: an nw pass weighted nothing and fell back to the
    # mean of nothing
    empty, p = train.subset([]), NwParams(h=1.0, rho=1.0)
    for call in (
        lambda: predict(empty, test.sites.coords[0], test.covariates[0], p),
        lambda: holdout_predictions(empty, test, p),
        lambda: holdout_labels(empty, test, p),
    ):
        with pytest.raises(ValueError, match="no site left to weight"):
            call()


def test_holdout_labels_round_exact_ties_like_classify():
    # Class 2's sites mirror class 1's through the query, in reverse order,
    # so both vote totals sum the same weights in different orders and
    # rounding alone picks the winner; the blocked vote must round the
    # way classify() does
    rng = np.random.default_rng(73)
    query = SpatialDataset(sites=SiteSet(np.zeros((1, 2))), covariates=np.zeros(1), labels=[1])
    for _ in range(40):
        pts = rng.normal(size=(12, 2))
        train = SpatialDataset(
            sites=SiteSet(np.vstack([pts, -pts[::-1]])),
            covariates=np.zeros(24),
            labels=np.repeat([1, 2], 12),
        )
        for p in (
            KnnParams(k=3, k_prime=20, k1="indicator", k2="gaussian"),
            NwParams(h=1.0, rho=1.0, k1="gaussian", k2="gaussian"),
        ):
            want = per_site(classify, train, query, p)
            np.testing.assert_array_equal(holdout_labels(train, query, p), want)
