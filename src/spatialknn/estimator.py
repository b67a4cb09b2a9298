"""Two-kernel k-NN estimators.

Every estimator here weights observation ``i`` by the product of two
kernels: one applied radially to the covariate difference, scaled by a
data-driven bandwidth (the distance to the k-th nearest covariate), and
one applied to the site distance, scaled by the distance to the k'-th
nearest site. The fixed-bandwidth variant (:class:`NwParams`, accepted
wherever :class:`KnnParams` is) replaces both data-driven scales with
constants ``h`` and ``rho``.

On top of the weights sit a regression predictor (weighted mean of the
responses, falling back to the empirical mean when every weight
vanishes) and a weighted-majority-vote classifier over labels
``{1, ..., M}``.

One engine serves every path, per query or for a block of queries:
:func:`_raw_weights` alone computes bandwidths and the kernel product,
:func:`_scaled` alone resolves a zero bandwidth, and
:func:`_weighted_means` and :func:`_votes` alone reduce raw weights, one
dot product per row (and class), with each row's fallback (the mean or
majority of the sites it keeps) from the caller. An excluded site gets
distance inf, outside every kernel's support and neighbour rank. The
per-query functions run the engine on a block of one row and reject a
non-finite query or one that excludes every site; :mod:`.evaluation`
runs it on larger blocks, with the same result for each row bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .kernels import eval_scalar, validate_kernel
from .lattice import SiteSet, distances_to
from .neighbors import (
    _POSITIVE_SITES,
    _exclusion_mask,
    _finite_query,
    _positive_distances,
    _row_bandwidths,
    knn_bandwidth,
    spatial_bandwidth,
)


@dataclass
class SpatialDataset:
    """Sites with covariates and a response and/or class label per site.

    Parameters
    ----------
    sites : SiteSet
        Site coordinates; row ``i`` belongs to covariate row ``i``.
    covariates : ndarray of shape (n, d)
        One covariate vector per site (a 1-D array is treated as d = 1).
    responses : ndarray of shape (n,), optional
        Real-valued responses for regression/prediction.
    labels : ndarray of shape (n,), optional
        Integer class labels in ``{1, ..., M}`` for classification.
    label_values : tuple, optional
        The label code of each class in the source file, ascending and
        indexed by class - 1; :func:`~spatialknn.dataio.read_dataset`
        always sets it (``(0, 1)`` for presence/absence data coded 0/1,
        read as classes 1/2).

    At least one of ``responses``/``labels`` must be present; covariates
    and responses must be finite (``DataError`` otherwise). All arrays
    are copied and frozen; instances are safe to share across threads.
    """

    sites: SiteSet
    covariates: np.ndarray
    responses: np.ndarray | None = None
    labels: np.ndarray | None = None
    label_values: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        X = np.asarray(self.covariates, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[1] < 1:
            raise ValueError("covariates must be an (n, d) array with d >= 1")
        if len(X) != len(self.sites):
            raise ValueError(
                f"{len(X)} covariate rows for {len(self.sites)} sites"
            )
        if not np.isfinite(X).all():
            raise DataError("covariates must be finite")
        X = X.copy()
        X.flags.writeable = False
        self.covariates = X
        if self.responses is None and self.labels is None:
            raise ValueError("dataset needs responses, labels, or both")
        if self.responses is not None:
            y = np.asarray(self.responses, dtype=float).copy()
            if y.shape != (len(X),):
                raise ValueError("responses must be one real per site")
            if not np.isfinite(y).all():
                raise DataError("responses must be finite")
            y.flags.writeable = False
            self.responses = y
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (len(X),):
                raise ValueError("labels must be one class per site")
            if lab.size and (not np.issubdtype(lab.dtype, np.integer) or lab.min() < 1):
                raise DataError("labels must be integers >= 1")
            lab = lab.astype(np.int64)
            lab.flags.writeable = False
            self.labels = lab

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        """Covariate dimension."""
        return self.covariates.shape[1]

    @property
    def n_classes(self) -> int:
        """Largest label present (0 for unlabelled data)."""
        return int(self.labels.max()) if self.labels is not None and self.labels.size else 0

    def subset(self, indices) -> "SpatialDataset":
        """New dataset holding the given sites, in the given order.

        The lattice shape is dropped: a subset of a grid is generally
        not a grid. Coordinates are untouched, so spatial relations
        survive subsetting.
        """
        idx = np.asarray(indices, dtype=int)
        return SpatialDataset(
            sites=SiteSet(self.sites.coords[idx]),
            covariates=self.covariates[idx],
            responses=None if self.responses is None else self.responses[idx],
            labels=None if self.labels is None else self.labels[idx],
            label_values=self.label_values,
        )


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class KnnParams:
    """Smoothing parameters for the adaptive-bandwidth method.

    ``k`` counts covariate neighbours, ``k_prime`` site neighbours;
    ``k1``/``k2`` name the covariate and site kernels.
    """

    k: int
    k_prime: int
    k1: str = "epanechnikov"
    k2: str = "parzen"

    def __post_init__(self):
        if int(self.k) < 1 or int(self.k_prime) < 1:
            raise ValueError("k and k_prime must be >= 1")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "k_prime", int(self.k_prime))
        validate_kernel(self.k1)
        validate_kernel(self.k2)


@dataclass(frozen=True)
class NwParams:
    """Fixed (non-random) bandwidths for the comparator method.

    ``h`` scales covariate differences, ``rho`` site distances.
    """

    h: float
    rho: float
    k1: str = "epanechnikov"
    k2: str = "parzen"

    def __post_init__(self):
        object.__setattr__(self, "h", _positive(self.h, "h"))
        object.__setattr__(self, "rho", _positive(self.rho, "rho"))
        validate_kernel(self.k1)
        validate_kernel(self.k2)


@dataclass(frozen=True)
class WeightVector:
    """Per-site weights aligned with the dataset's site order.

    ``normalized`` is True when the raw kernel products had positive
    total and the stored weights sum to 1; False means every admissible
    site got weight 0 and callers should apply their fallback rule.
    Excluded sites always carry weight 0.
    """

    weights: np.ndarray
    normalized: bool


def _scaled(dist: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Each row of ``dist`` over its bandwidth, with the 0/0 limit resolved.

    A zero bandwidth means >= k observations duplicate the query
    covariate; exact matches then take the kernel's full value (argument
    0) and everything else falls outside the support (argument inf).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = dist / bandwidths[:, None]
    zero = bandwidths == 0.0
    if zero.any():
        u[zero] = np.where(dist[zero] == 0.0, 0.0, np.inf)
    return u


def _raw_weights(dx: np.ndarray, ds: np.ndarray, p) -> np.ndarray:
    """Unnormalized two-kernel weights of an (m, n) block of queries.

    ``dx`` and ``ds`` hold the covariate and site distances from each
    query (row) to each observation (column); an excluded observation
    carries distance inf in both, which every kernel maps to +0.0.
    ``p`` is :class:`KnnParams` (bandwidths from the admissible
    observations of each row) or :class:`NwParams` (fixed bandwidths).
    """
    if isinstance(p, NwParams):
        u1 = dx / p.h
        u2 = ds / p.rho
    else:
        u1 = _scaled(dx, _row_bandwidths(dx, p.k))
        h = _row_bandwidths(_positive_distances(ds), p.k_prime, _POSITIVE_SITES)
        u2 = _scaled(ds, h)
    return eval_scalar(p.k1, u1) * eval_scalar(p.k2, u2)


def _normalize(raw: np.ndarray) -> np.ndarray:
    """Scale each row of ``raw`` to sum 1 in place; return which rows could be.

    Rows with zero total (every weight vanished) are left as they are.
    """
    totals = raw.sum(axis=1)
    live = totals > 0.0
    np.divide(raw, totals[:, None], out=raw, where=live[:, None])
    return live


# OpenBLAS splits a dot product of more than 10,000 entries across its
# threads, so its last bits depend on the thread count. Longer rows are
# summed in chunks of 10,000 columns, in order; shorter ones in one call.
_DOT_CHUNK = 10_000


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vecdot(a, b)``, with the same bits at any BLAS thread count."""
    out = np.vecdot(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
    for i in range(_DOT_CHUNK, a.shape[-1], _DOT_CHUNK):
        out += np.vecdot(a[..., i : i + _DOT_CHUNK], b[..., i : i + _DOT_CHUNK])
    return out


@contextmanager
def _responses_in_range():
    """Raise ``DataError`` naming the responses if arithmetic on them overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DataError("responses overflow float64 in a mean or an error sum") from None


def _weighted_means(raw: np.ndarray, y: np.ndarray, fallback) -> np.ndarray:
    """Per row, the mean of ``y`` under the raw weights; ``fallback`` where all vanish.

    ``fallback`` is a scalar or one value per row.
    """
    totals = raw.sum(axis=1)
    live = totals > 0.0
    with _responses_in_range():
        return np.where(live, _row_dots(raw, y) / np.where(live, totals, 1.0), fallback)


def _votes(raw: np.ndarray, labels: np.ndarray, fallback) -> np.ndarray:
    """Per row, the label with the largest summed raw weight; ``fallback`` where all vanish.

    Ties break toward the smallest label; ``fallback`` is a label or one
    label per row.
    """
    members = labels == np.arange(1, labels.max() + 1)[:, None]
    # one dot product per row and class: (rows, classes) scores
    scores = _row_dots(raw[:, None, :], members.astype(float))
    return np.where(scores.any(axis=1), scores.argmax(axis=1) + 1, fallback)


def _mean_of_kept(y: np.ndarray, excluded: np.ndarray) -> float:
    """Mean of the responses not excluded; for one excluded site ``i``
    the same bits as ``(y.sum() - y[i]) / (n - 1)``."""
    with _responses_in_range():
        return (y.sum() - y[excluded].sum()) / np.count_nonzero(~excluded)


def _majority_of_kept(labels: np.ndarray, excluded: np.ndarray) -> int:
    """Most frequent label among those not excluded, ties toward the smallest."""
    return int(np.bincount(labels[~excluded]).argmax())


def _excluded(n: int, exclude) -> np.ndarray:
    """Mask of the ``exclude`` indices among ``n`` sites; ``ValueError`` if it keeps none."""
    excluded = _exclusion_mask(n, exclude)
    if excluded.all():
        raise ValueError("no site left to weight: the data are empty or all excluded")
    return excluded


def _query_weights(data: SpatialDataset, s0, x, p, exclude):
    """Raw weights of one query as a block of one row, and the excluded sites."""
    x = _finite_query(x, "query covariate")
    if x.shape[0] != data.d:
        raise ValueError(f"query covariate has length {x.shape[0]}, expected {data.d}")
    s0 = _finite_query(s0, "query site")
    excluded = _excluded(len(data), exclude)
    dx = distances_to(data.covariates, x)[None]
    ds = distances_to(data.sites.coords, s0)[None]
    dx[:, excluded] = np.inf
    ds[:, excluded] = np.inf
    return _raw_weights(dx, ds, p), excluded


def knn_weights(
    data: SpatialDataset, s0, x, p: KnnParams, exclude=None
) -> WeightVector:
    """Normalized two-kernel weights for predicting at site ``s0``.

    ``x`` is the covariate observed at ``s0``. Weight ``i`` is
    proportional to ``K1(|x - X_i| / H) * K2(|s0 - i| / h)`` where ``H``
    is the k-th neighbour covariate bandwidth and ``h`` the k'-th
    neighbour site bandwidth, both computed over the non-excluded sites.
    Weights never depend on responses or labels.
    """
    raw, _ = _query_weights(data, s0, x, p, exclude)
    return WeightVector(raw[0], bool(_normalize(raw)[0]))


def predict(data: SpatialDataset, s0, x, p, exclude=None) -> float:
    """Predict the response at site ``s0`` with observed covariate ``x``.

    Weighted mean of the observed responses under :func:`knn_weights`
    for :class:`KnnParams`, or under :func:`nw_weights` for
    :class:`NwParams` (the fixed-bandwidth comparator). When every
    weight vanishes (compact kernels and ``x`` or ``s0`` far from all
    data) the prediction is the empirical mean of the non-excluded
    responses.
    """
    if data.responses is None:
        raise ValueError("dataset has no responses to predict from")
    raw, excluded = _query_weights(data, s0, x, p, exclude)
    y = data.responses
    return float(_weighted_means(raw, y, _mean_of_kept(y, excluded))[0])


def nw_weights(
    data: SpatialDataset, s0, x, p: NwParams, exclude=None
) -> WeightVector:
    """Fixed-bandwidth counterpart of :func:`knn_weights`.

    Weight ``i`` is proportional to
    ``K1(|x - X_i| / h) * K2(|s0 - i| / rho)``.
    """
    raw, _ = _query_weights(data, s0, x, p, exclude)
    return WeightVector(raw[0], bool(_normalize(raw)[0]))


def regress(data: SpatialDataset, s0, x, p: KnnParams, exclude=None) -> float:
    """Regression-function estimate at ``(s0, x)``.

    Evaluates the numerator and denominator densities with their explicit
    normalizing constant ``1 / (n * h^N * H^d)`` and returns their ratio;
    algebraically identical to :func:`predict` (the constant cancels),
    kept separate so that identity is testable. Falls back to the
    empirical mean when the denominator vanishes.
    """
    if data.responses is None:
        raise ValueError("dataset has no responses to regress on")
    raw, excluded = _query_weights(data, s0, x, p, exclude)
    prod = raw[0]
    H = knn_bandwidth(data.covariates, x, p.k, exclude=exclude).bandwidth
    h = spatial_bandwidth(data.sites, s0, p.k_prime, exclude=exclude).bandwidth
    if H > 0.0:
        const = 1.0 / (len(data) * h ** data.sites.ndim * H ** data.d)
    else:
        const = 1.0
    f_hat = const * prod.sum()
    if f_hat == 0.0:
        return float(_mean_of_kept(data.responses, excluded))
    g_hat = const * np.vecdot(prod, data.responses)
    return float(g_hat / f_hat)


def _check_labels(data: SpatialDataset) -> np.ndarray:
    if data.labels is None:
        raise ValueError("dataset has no labels to classify from")
    return data.labels


def classify(data: SpatialDataset, s0, x, p, *, exclude=None) -> int:
    """Predicted class at ``(s0, x)``: the label with the largest score.

    A label's score is the summed normalized weight of the sites that
    carry it; ``p`` may be :class:`KnnParams` or :class:`NwParams`, and
    the vote uses the matching weights. Ties break toward the smallest
    label. When every weight vanishes the vote is empty and the majority
    class of the (non-excluded) training labels is returned, ties again
    toward the smallest label.
    """
    labels = _check_labels(data)
    raw, excluded = _query_weights(data, s0, x, p, exclude)
    return int(_votes(raw, labels, _majority_of_kept(labels, excluded))[0])
