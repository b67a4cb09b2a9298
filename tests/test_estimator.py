"""Estimator tests.

The central oracle (`oracle_weights`) recomputes the two-kernel weights
from scratch with full sorts and explicit loops, sharing no code with
the vectorized implementation beyond the kernel closed forms.
"""

import warnings

import numpy as np
import pytest

from spatialknn.errors import DataError
from spatialknn.estimator import (
    KnnParams,
    NwParams,
    SpatialDataset,
    classify,
    knn_weights,
    nw_weights,
    predict,
    regress,
)
from spatialknn.kernels import KERNEL_NAMES, eval_scalar
from spatialknn.lattice import SiteSet, make_lattice


def random_dataset(rng, n=None, d=None, labels=False, lattice=False):
    n = n or int(rng.integers(5, 25))
    d = d or int(rng.integers(1, 3))
    if lattice:
        sites = make_lattice((n,))
    else:
        sites = SiteSet(rng.normal(size=(n, 2)))
    return SpatialDataset(
        sites=sites,
        covariates=rng.normal(size=(n, d)),
        responses=rng.normal(size=n),
        labels=rng.integers(1, 4, size=n) if labels else None,
    )


def oracle_weights(data, s0, x, p, exclude=()):
    """Independent reimplementation of the weight formula."""
    excl = set(int(i) for i in exclude)
    n = len(data)
    x = np.asarray(x, float).ravel()
    s0 = np.asarray(s0, float).ravel()
    dx = np.array([np.linalg.norm(data.covariates[i] - x) for i in range(n)])
    ds = np.array([np.linalg.norm(data.sites.coords[i] - s0) for i in range(n)])
    if isinstance(p, NwParams):
        H, h = p.h, p.rho
        u1 = dx / H
    else:
        kept_dx = sorted(dx[i] for i in range(n) if i not in excl)
        H = kept_dx[p.k - 1]
        kept_ds = sorted(ds[i] for i in range(n) if i not in excl and ds[i] > 0.0)
        h = kept_ds[p.k_prime - 1]
        if H > 0.0:
            u1 = dx / H
        else:
            u1 = np.where(dx == 0.0, 0.0, np.inf)
    raw = np.array(
        [
            0.0
            if i in excl
            else eval_scalar(p.k1, u1[i]) * eval_scalar(p.k2, ds[i] / h)
            for i in range(n)
        ]
    )
    total = raw.sum()
    if total > 0.0:
        return raw / total, True
    return raw, False


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_weights_match_oracle(method):
    rng = np.random.default_rng(909)
    for trial in range(60):
        data = random_dataset(rng)
        n = len(data)
        s0 = rng.normal(size=2)
        x = rng.normal(size=data.d)
        k1 = KERNEL_NAMES[rng.integers(0, 6)]
        k2 = KERNEL_NAMES[rng.integers(0, 6)]
        exclude = {int(rng.integers(0, n))} if trial % 3 == 0 else set()
        if method == "knn":
            p = KnnParams(
                k=int(rng.integers(1, n - len(exclude) + 1)),
                k_prime=int(rng.integers(1, n - len(exclude))),
                k1=k1,
                k2=k2,
            )
            got = knn_weights(data, s0, x, p, exclude=exclude or None)
        else:
            p = NwParams(
                h=float(rng.uniform(0.2, 3.0)),
                rho=float(rng.uniform(0.2, 3.0)),
                k1=k1,
                k2=k2,
            )
            got = nw_weights(data, s0, x, p, exclude=exclude or None)
        want, normalized = oracle_weights(data, s0, x, p, exclude)
        assert got.normalized == normalized
        np.testing.assert_allclose(got.weights, want, rtol=0, atol=1e-12)


def test_weights_sum_to_one_and_ignore_responses():
    rng = np.random.default_rng(21)
    data = random_dataset(rng, n=15)
    p = KnnParams(k=4, k_prime=5)
    s0, x = rng.normal(size=2), rng.normal(size=data.d)
    w = knn_weights(data, s0, x, p)
    if w.normalized:
        assert abs(w.weights.sum() - 1.0) < 1e-12
    assert (w.weights >= 0.0).all()
    # same sites/covariates, different responses: identical weights
    other = SpatialDataset(
        sites=data.sites, covariates=data.covariates, responses=rng.normal(size=15)
    )
    np.testing.assert_array_equal(w.weights, knn_weights(other, s0, x, p).weights)


def test_excluded_sites_get_zero_weight():
    rng = np.random.default_rng(33)
    data = random_dataset(rng, n=10)
    p = KnnParams(k=3, k_prime=3, k1="gaussian", k2="gaussian")
    w = knn_weights(data, data.sites.coords[4], data.covariates[4], p, exclude={4, 7})
    assert w.weights[4] == 0.0 and w.weights[7] == 0.0
    assert w.normalized


@pytest.mark.parametrize("p", [KnnParams(k=1, k_prime=1), NwParams(h=1.0, rho=1.0)])
def test_excluding_every_site_is_an_error(p):
    # labels {2, 3}: classify returned class 1, which no site carries, and
    # predict returned nan with RuntimeWarnings
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0], [1.0], [2.0], [3.0]])),
        covariates=np.array([0.0, 1.0, 2.0, 3.0]),
        responses=np.array([5.0, 7.0, 9.0, 11.0]),
        labels=np.array([2, 3, 2, 3]),
    )
    everything = {0, 1, 2, 3}
    calls = [
        lambda: predict(data, [0.5], [0.5], p, exclude=everything),
        lambda: classify(data, [0.5], [0.5], p, exclude=everything),
        lambda: (knn_weights if isinstance(p, KnnParams) else nw_weights)(
            data, [0.5], [0.5], p, exclude=everything
        ),
    ]
    if isinstance(p, KnnParams):
        calls.append(lambda: regress(data, [0.5], [0.5], p, exclude=everything))
    for call in calls:
        with pytest.raises(ValueError, match="no site left to weight"):
            call()


def test_predict_is_weighted_mean():
    rng = np.random.default_rng(8)
    data = random_dataset(rng, n=12)
    p = KnnParams(k=3, k_prime=4, k1="gaussian", k2="gaussian")
    s0, x = rng.normal(size=2), rng.normal(size=data.d)
    w = knn_weights(data, s0, x, p)
    assert predict(data, s0, x, p) == pytest.approx(
        float(w.weights @ data.responses), abs=1e-15
    )


def test_predict_fallback_far_query_is_empirical_mean():
    # compact kernels, spatial query far outside: every weight vanishes
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0], [0.1], [0.2], [0.3]])),
        covariates=np.array([0.0, 1.0, 2.0, 3.0]),
        responses=np.array([5.0, 7.0, 9.0, 11.0]),
    )
    p = KnnParams(k=1, k_prime=1, k1="indicator", k2="indicator")
    far = predict(data, [100.0], [1.0], p)
    assert far == pytest.approx(8.0, abs=1e-15)  # mean of responses
    # with an exclusion, the fallback mean drops that site too
    assert predict(data, [100.0], [1.0], p, exclude={0}) == pytest.approx(9.0)


def test_prediction_within_response_range():
    rng = np.random.default_rng(55)
    for _ in range(40):
        data = random_dataset(rng)
        p = KnnParams(
            k=int(rng.integers(1, len(data) + 1)),
            k_prime=int(rng.integers(1, len(data))),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        yhat = predict(data, rng.normal(size=2), rng.normal(size=data.d), p)
        assert data.responses.min() - 1e-12 <= yhat <= data.responses.max() + 1e-12


def test_affine_equivariance():
    rng = np.random.default_rng(101)
    for _ in range(25):
        data = random_dataset(rng)
        p = KnnParams(k=2, k_prime=2, k1="parzen", k2="triangular")
        s0, x = rng.normal(size=2), rng.normal(size=data.d)
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-5, 5))
        scaled = SpatialDataset(
            sites=data.sites,
            covariates=data.covariates,
            responses=a * data.responses + b,
        )
        lhs = predict(scaled, s0, x, p)
        rhs = a * predict(data, s0, x, p) + b
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_regress_equals_predict():
    rng = np.random.default_rng(202)
    for trial in range(50):
        data = random_dataset(rng)
        n = len(data)
        if trial % 4 == 0:
            # duplicate covariates to exercise the zero-bandwidth branch
            cov = data.covariates.copy()
            cov[1] = cov[0]
            cov[2] = cov[0]
            data = SpatialDataset(
                sites=data.sites, covariates=cov, responses=data.responses
            )
        p = KnnParams(
            k=int(rng.integers(1, n + 1)),
            k_prime=int(rng.integers(1, n)),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        s0 = rng.normal(size=2)
        x = data.covariates[0] if trial % 4 == 0 else rng.normal(size=data.d)
        assert regress(data, s0, x, p) == pytest.approx(
            predict(data, s0, x, p), abs=1e-12
        )


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_regress_equals_predict_for_both_parameter_types(method):
    rng = np.random.default_rng(212)
    for _ in range(30):
        data = random_dataset(rng)
        k1, k2 = (KERNEL_NAMES[i] for i in rng.integers(0, 6, size=2))
        if method == "knn":
            n = len(data)
            p = KnnParams(int(rng.integers(1, n + 1)), int(rng.integers(1, n)), k1, k2)
        else:
            p = NwParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)), k1, k2)
        s0, x = rng.normal(size=2), rng.normal(size=data.d)
        assert regress(data, s0, x, p) == pytest.approx(predict(data, s0, x, p), rel=1e-12)


def test_regress_raises_when_responses_overflow():
    data = random_dataset(np.random.default_rng(6), n=10, d=1)
    data = SpatialDataset(
        sites=data.sites, covariates=data.covariates, responses=np.full(10, 1.7e308)
    )
    s0, x = data.sites.coords[0], data.covariates[0]  # a query with weight
    assert knn_weights(data, s0, x, KnnParams(k=3, k_prime=3)).normalized
    with pytest.raises(DataError, match="overflow"):
        regress(data, s0, x, KnnParams(k=3, k_prime=3))


def test_tiny_gaussian_bandwidth_predicts_without_warning():
    data = random_dataset(np.random.default_rng(7), n=10, d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict(data, [0.5, 0.5], [0.5], NwParams(1e-300, 1.0, "gaussian", "gaussian"))


def test_nw_equals_knn_when_bandwidths_match():
    # feeding the adaptive bandwidths back in as fixed ones reproduces
    # the adaptive prediction exactly
    from spatialknn.neighbors import knn_bandwidth, spatial_bandwidth

    rng = np.random.default_rng(303)
    for _ in range(20):
        data = random_dataset(rng)
        p = KnnParams(k=3, k_prime=3, k1="gaussian", k2="parzen")
        s0, x = rng.normal(size=2), rng.normal(size=data.d)
        H = knn_bandwidth(data.covariates, x, p.k).bandwidth
        h = spatial_bandwidth(data.sites, s0, p.k_prime).bandwidth
        if H == 0.0:
            continue
        q = NwParams(h=H, rho=h, k1=p.k1, k2=p.k2)
        assert predict(data, s0, x, q) == pytest.approx(
            predict(data, s0, x, p), abs=1e-12
        )


def test_predict_nw_fallback():
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0], [1.0]])),
        covariates=np.array([0.0, 1.0]),
        responses=np.array([2.0, 4.0]),
    )
    p = NwParams(h=0.1, rho=0.1, k1="indicator", k2="indicator")
    assert predict(data, [50.0], [0.0], p) == 3.0


def test_predict_requires_responses():
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0], [1.0]])),
        covariates=np.array([0.0, 1.0]),
        labels=np.array([1, 2]),
    )
    with pytest.raises(ValueError, match="responses"):
        predict(data, [0.5], [0.5], KnnParams(k=1, k_prime=1))
    with pytest.raises(ValueError, match="responses"):
        predict(data, [0.5], [0.5], NwParams(h=1.0, rho=1.0))
    with pytest.raises(ValueError, match="responses"):
        regress(data, [0.5], [0.5], KnnParams(k=1, k_prime=1))


def test_query_dimension_checked():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, n=6, d=2)
    with pytest.raises(ValueError, match="length"):
        predict(data, [0.0, 0.0], [1.0, 2.0, 3.0], KnnParams(k=1, k_prime=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_query_rejected(bad):
    # before, a NaN covariate made the knn path raise "no points
    # available" and the nw path return the fallback silently
    data = random_dataset(np.random.default_rng(5), n=10, d=1, labels=True, lattice=True)
    knn, nw = KnnParams(k=3, k_prime=3), NwParams(h=1.0, rho=1.0)
    calls = [
        (knn_weights, knn),
        (predict, knn),
        (regress, knn),
        (nw_weights, nw),
        (predict, nw),
        (classify, knn),
        (classify, nw),
    ]
    for call, p in calls:
        with pytest.raises(DataError, match="query covariate must be finite"):
            call(data, [0.5], [bad], p)
        with pytest.raises(DataError, match="query site must be finite"):
            call(data, [bad], [0.5], p)


# ---------------------------------------------------------------------------
# classification


def labelled_line(labels, covariates=None):
    labels = np.asarray(labels)
    n = labels.size
    cov = np.arange(n, dtype=float) if covariates is None else np.asarray(covariates, float)
    return SpatialDataset(
        sites=make_lattice((n,)), covariates=cov, labels=labels
    )


def class_scores(data, s0, x, p, n_classes):
    """Per-class vote totals: the summed normalized weight of each label."""
    w = (nw_weights if isinstance(p, NwParams) else knn_weights)(data, s0, x, p)
    return np.bincount(data.labels - 1, weights=w.weights, minlength=n_classes)


def test_class_scores_are_grouped_weight_sums():
    rng = np.random.default_rng(606)
    for p in (
        KnnParams(k=3, k_prime=3, k1="gaussian", k2="gaussian"),
        NwParams(h=2.0, rho=2.0, k1="gaussian", k2="gaussian"),
    ):
        data = random_dataset(rng, n=14, labels=True)
        s0, x = rng.normal(size=2), rng.normal(size=data.d)
        scores = class_scores(data, s0, x, p, 3)
        w = (nw_weights if isinstance(p, NwParams) else knn_weights)(data, s0, x, p)
        for j in (1, 2, 3):
            assert scores[j - 1] == pytest.approx(
                float(w.weights[data.labels == j].sum()), abs=1e-14
            )
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)
        # gaussian kernels give every site weight: the vote is the top score
        assert classify(data, s0, x, p) == np.argmax(scores) + 1


def test_classify_majority_of_neighbors():
    data = labelled_line([1, 1, 1, 2, 2])
    p = KnnParams(k=5, k_prime=4, k1="indicator", k2="indicator")
    # equal weights on all five sites: class 1 wins 3 votes to 2
    assert classify(data, [0.4], [2.0], p) == 1


def test_classify_tie_breaks_to_smallest_label():
    # two sites, symmetric about the query in space and covariate,
    # indicator kernels: exactly equal scores
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0], [1.0]])),
        covariates=np.array([0.0, 0.0]),
        labels=np.array([2, 1]),
    )
    p = KnnParams(k=1, k_prime=1, k1="indicator", k2="indicator")
    scores = class_scores(data, [0.5], [0.0], p, 2)
    assert scores[0] == scores[1] == 0.5
    assert classify(data, [0.5], [0.0], p) == 1


def test_classify_empty_vote_falls_back_to_majority():
    data = labelled_line([2, 2, 2, 1, 1])
    p = KnnParams(k=1, k_prime=1, k1="indicator", k2="indicator")
    # spatial query far away: all weights vanish, majority label 2 wins
    assert classify(data, [99.0], [0.0], p) == 2
    # excluding two of the majority leaves a 2-2 tie: smallest label
    assert classify(data, [99.0], [0.0], p, exclude={0}) == 1


def test_classify_respects_exclusion():
    data = labelled_line([1, 2])
    p = KnnParams(k=1, k_prime=1, k1="indicator", k2="indicator")
    # covariate 0 matches site 0 exactly, so class 1 wins outright
    assert classify(data, [0.75], [0.0], p) == 1
    # with site 0 excluded the vote can only come from site 1
    assert classify(data, [0.75], [0.0], p, exclude={0}) == 2


def test_classify_validation():
    data = labelled_line([1, 2, 3])
    p = KnnParams(k=1, k_prime=1)
    # the class count comes from the labels; a count in the old position
    # is an error, not an exclusion set
    with pytest.raises(TypeError):
        classify(data, [0.5], [0.0], p, {0})
    unlabelled = SpatialDataset(
        sites=data.sites, covariates=data.covariates, responses=np.zeros(3)
    )
    with pytest.raises(ValueError, match="labels"):
        classify(unlabelled, [0.5], [0.0], p)


# ---------------------------------------------------------------------------
# dataset container


class TestSpatialDataset:
    def test_needs_responses_or_labels(self):
        with pytest.raises(ValueError, match="responses, labels"):
            SpatialDataset(sites=make_lattice((3,)), covariates=np.zeros(3))

    def test_length_checks(self):
        sites = make_lattice((3,))
        with pytest.raises(ValueError, match="covariate rows"):
            SpatialDataset(sites=sites, covariates=np.zeros(4), responses=np.zeros(4))
        with pytest.raises(ValueError, match="one real per site"):
            SpatialDataset(sites=sites, covariates=np.zeros(3), responses=np.zeros(2))
        with pytest.raises(ValueError, match="one class per site"):
            SpatialDataset(sites=sites, covariates=np.zeros(3), labels=np.array([1, 2]))

    def test_labels_must_be_positive_integers(self):
        sites = make_lattice((3,))
        with pytest.raises(DataError, match=">= 1"):
            SpatialDataset(sites=sites, covariates=np.zeros(3), labels=np.array([0, 1, 2]))
        with pytest.raises(DataError, match=">= 1"):
            SpatialDataset(
                sites=sites, covariates=np.zeros(3), labels=np.array([1.0, 2.0, 1.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_covariates_rejected(self, bad):
        covariates = np.array([0.0, bad, 2.0])
        with pytest.raises(DataError, match="covariates must be finite"):
            SpatialDataset(sites=make_lattice((3,)), covariates=covariates, responses=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_responses_rejected(self, bad):
        responses = np.array([0.0, 1.0, bad])
        with pytest.raises(DataError, match="responses must be finite"):
            SpatialDataset(sites=make_lattice((3,)), covariates=np.zeros(3), responses=responses)

    def test_arrays_frozen(self):
        data = SpatialDataset(
            sites=make_lattice((3,)),
            covariates=np.arange(3.0),
            responses=np.arange(3.0),
        )
        with pytest.raises(ValueError):
            data.covariates[0] = 9.0
        with pytest.raises(ValueError):
            data.responses[0] = 9.0

    def test_1d_covariates_promoted(self):
        data = SpatialDataset(
            sites=make_lattice((4,)), covariates=np.arange(4.0), responses=np.zeros(4)
        )
        assert data.covariates.shape == (4, 1)
        assert data.d == 1

    def test_n_classes(self):
        data = labelled_line([1, 3, 2])
        assert data.n_classes == 3
        reg = SpatialDataset(
            sites=make_lattice((2,)), covariates=np.zeros(2), responses=np.zeros(2)
        )
        assert reg.n_classes == 0

    def test_subset_drops_lattice_shape_keeps_coords(self):
        data = SpatialDataset(
            sites=make_lattice((2, 3)),
            covariates=np.arange(6.0),
            responses=np.arange(6.0) * 10,
            labels=np.array([1, 2, 1, 2, 1, 2]),
        )
        sub = data.subset([4, 1, 2])
        assert sub.sites.shape is None
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.sites.coords, data.sites.coords[[4, 1, 2]])
        np.testing.assert_array_equal(sub.covariates[:, 0], [4.0, 1.0, 2.0])
        np.testing.assert_array_equal(sub.responses, [40.0, 10.0, 20.0])
        np.testing.assert_array_equal(sub.labels, [1, 2, 1])

    def test_subset_keeps_label_values(self):
        data = SpatialDataset(
            sites=make_lattice((3,)),
            covariates=np.zeros(3),
            labels=np.array([1, 2, 2]),
            label_values=(0, 1),
        )
        assert data.subset([0, 2]).label_values == (0, 1)


class TestParams:
    def test_knn_validation(self):
        with pytest.raises(ValueError):
            KnnParams(k=0, k_prime=1)
        with pytest.raises(ValueError):
            KnnParams(k=1, k_prime=0)
        with pytest.raises(ValueError, match="unknown kernel"):
            KnnParams(k=1, k_prime=1, k1="nope")
        p = KnnParams(k="3", k_prime=2.0)
        assert p.k == 3 and isinstance(p.k, int)

    def test_nw_validation(self):
        with pytest.raises(ValueError, match="positive"):
            NwParams(h=0.0, rho=1.0)
        with pytest.raises(ValueError, match="positive"):
            NwParams(h=1.0, rho=-2.0)
        with pytest.raises(ValueError, match="unknown kernel"):
            NwParams(h=1.0, rho=1.0, k2="nope")

    def test_defaults(self):
        assert KnnParams(k=1, k_prime=1).k1 == "epanechnikov"
        assert NwParams(h=1.0, rho=1.0).k2 == "parzen"
