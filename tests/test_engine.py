"""Property tests of the weight engine.

Every weight in the package comes from one block engine
(``estimator._raw_weights`` and its row reducers); the public per-query
functions run it on a block of one row. These tests draw small datasets
on an integer lattice, so duplicated sites and covariates (zero
bandwidths), exact distance ties and all-zero weight rows are common,
and check that:

- each row of a block equals the per-query call at that row bit for bit,
  exclusions (negative and repeated indices included) and errors too;
- each leave-one-out row equals the per-site call with ``exclude={i}``
  bit for bit, fallback rows included;
- the per-query weights match the loop oracle of ``test_estimator``;
- the held-out helpers equal per-query calls bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatialknn.estimator import (
    KnnParams,
    NwParams,
    SpatialDataset,
    _majority_of_kept,
    _mean_of_kept,
    _normalize,
    _raw_weights,
    _votes,
    _weighted_means,
    classify,
    knn_weights,
    nw_weights,
    predict,
)
from spatialknn.evaluation import (
    holdout_labels,
    holdout_predictions,
    loo_labels,
    loo_predictions,
)
from spatialknn.kernels import KERNEL_NAMES
from spatialknn.lattice import SiteSet, distances_between
from spatialknn.neighbors import knn_bandwidth, spatial_bandwidth
from test_estimator import oracle_weights

N_CLASSES = 3

PROPERTY = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# integer coordinates: distances are square roots of integers, computed
# exactly by every distance routine, so ties are exact ties everywhere
lattice_values = st.integers(-2, 2).map(float)


@st.composite
def cases(draw):
    """A labelled dataset, a block of queries, parameters and an exclusion set."""
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 2))
    data = SpatialDataset(
        sites=SiteSet(draw(arrays(float, (n, 2), elements=lattice_values))),
        covariates=draw(arrays(float, (n, d), elements=lattice_values)),
        responses=draw(arrays(float, n, elements=st.floats(-10.0, 10.0))),
        labels=draw(arrays(np.int64, n, elements=st.integers(1, N_CLASSES))),
    )
    m = draw(st.integers(1, 4))
    # queries at training sites (their own duplicates) or anywhere on the lattice
    sites = draw(arrays(float, (m, 2), elements=lattice_values))
    covariates = draw(arrays(float, (m, d), elements=lattice_values))
    for i, j in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))):
        if draw(st.booleans()):
            sites[i], covariates[i] = data.sites.coords[j], data.covariates[j]
    exclude = draw(st.lists(st.integers(-n, n - 1), max_size=n - 1))
    kept = n - len({i % n for i in exclude})
    k1 = draw(st.sampled_from(KERNEL_NAMES))
    k2 = draw(st.sampled_from(KERNEL_NAMES))
    if draw(st.sampled_from(("knn", "nw"))) == "knn":
        p = KnnParams(
            k=draw(st.integers(1, kept)), k_prime=draw(st.integers(1, n)), k1=k1, k2=k2
        )
    else:
        scales = st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0))
        p = NwParams(h=draw(scales), rho=draw(scales), k1=k1, k2=k2)
    return data, sites, covariates, p, exclude


def queries(sites, covariates):
    return list(zip(sites, covariates))


def error_text(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(cases())
def test_block_rows_equal_per_query_calls(case):
    data, sites, covariates, p, exclude = case
    excluded = np.zeros(len(data), dtype=bool)
    excluded[list(exclude)] = True
    dx = distances_between(data.covariates, covariates)
    ds = distances_between(data.sites.coords, sites)
    dx[:, excluded] = np.inf
    ds[:, excluded] = np.inf
    weights_fn = nw_weights if isinstance(p, NwParams) else knn_weights

    try:
        raw = _raw_weights(dx, ds, p)
    except ValueError as exc:
        # the block reports the error of its first failing query
        for s0, x in queries(sites, covariates):
            query_error = error_text(lambda: weights_fn(data, s0, x, p, exclude=exclude))
            if query_error is not None:
                assert query_error == str(exc)
                return
        pytest.fail(f"block raised {exc}, no single query did")
    means = _weighted_means(raw, data.responses, _mean_of_kept(data.responses, excluded))
    votes = _votes(raw, data.labels, _majority_of_kept(data.labels, excluded))
    normalized = raw.copy()
    live = _normalize(normalized)
    for i, (s0, x) in enumerate(queries(sites, covariates)):
        w = weights_fn(data, s0, x, p, exclude=exclude)
        assert w.weights.tobytes() == normalized[i].tobytes()
        assert w.normalized == live[i]
        mean = np.float64(predict(data, s0, x, p, exclude=exclude))
        assert mean.tobytes() == means[i].tobytes()
        assert classify(data, s0, x, p, exclude=exclude) == votes[i]


@PROPERTY
@given(cases())
def test_loo_rows_equal_per_site_calls(case):
    data, _, _, p, _ = case
    sites, covariates = data.sites.coords, data.covariates

    def per_site(fn):
        return [fn(data, sites[i], covariates[i], p, exclude={i}) for i in range(len(data))]

    loo_error = error_text(lambda: loo_predictions(data, p))
    if loo_error is not None:
        # the pass reports the error of its first failing site
        assert error_text(lambda: loo_labels(data, p)) == loo_error
        assert error_text(lambda: per_site(predict)) == loo_error
        return
    want = np.array(per_site(predict))
    assert loo_predictions(data, p).tobytes() == want.tobytes()
    want = np.array(per_site(classify), dtype=np.int64)
    assert loo_labels(data, p).tobytes() == want.tobytes()


@PROPERTY
@given(cases())
def test_per_query_weights_match_loop_oracle(case):
    data, sites, covariates, p, exclude = case
    weights_fn = nw_weights if isinstance(p, NwParams) else knn_weights
    for s0, x in queries(sites, covariates):
        if error_text(lambda: weights_fn(data, s0, x, p, exclude=exclude)) is not None:
            continue
        w = weights_fn(data, s0, x, p, exclude=exclude)
        want, normalized = oracle_weights(data, s0, x, p, exclude={i % len(data) for i in exclude})
        assert w.normalized == normalized
        np.testing.assert_allclose(w.weights, want, rtol=0.0, atol=1e-12)


@PROPERTY
@given(cases())
def test_holdout_helpers_equal_per_query_calls(case):
    train, sites, covariates, p, _ = case
    test = SpatialDataset(
        sites=SiteSet(sites),
        covariates=covariates,
        responses=np.zeros(len(sites)),
        labels=np.ones(len(sites), dtype=np.int64),
    )
    block_error = error_text(lambda: holdout_predictions(train, test, p))
    if block_error is not None:
        assert error_text(lambda: holdout_labels(train, test, p)) == block_error
        return
    got = holdout_predictions(train, test, p)
    want = np.array([predict(train, s0, x, p) for s0, x in queries(sites, covariates)])
    assert got.tobytes() == want.tobytes()
    labels = holdout_labels(train, test, p)
    want = [classify(train, s0, x, p) for s0, x in queries(sites, covariates)]
    assert list(labels) == want


def test_rank_errors_share_one_template():
    # four distinct sites; the query is site 0, left out of the search,
    # so every path sees three points and three positive-distance sites
    data = SpatialDataset(
        sites=SiteSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])),
        covariates=np.array([0.0, 1.0, 2.0, 3.0]),
        responses=np.array([0.0, 1.0, 2.0, 3.0]),
    )
    s0, x = data.sites.coords[0], data.covariates[0]
    rest, query = data.subset([1, 2, 3]), data.subset([0])
    points = "k=4 out of range: exceeds the 3 available points"
    sites = "k=4 out of range: exceeds the 3 available positive-distance sites"
    for p, want, bandwidth in (
        (KnnParams(k=4, k_prime=1), points, lambda: knn_bandwidth(data.covariates, x, 4, {0})),
        (KnnParams(k=1, k_prime=4), sites, lambda: spatial_bandwidth(data.sites, s0, 4, {0})),
    ):
        assert error_text(bandwidth) == want
        assert error_text(lambda: predict(data, s0, x, p, exclude={0})) == want
        assert error_text(lambda: holdout_predictions(rest, query, p)) == want
        assert error_text(lambda: loo_predictions(data, p)) == want
