"""Model selection and accuracy evaluation.

Smoothing parameters are chosen by exhaustive grid search on the
leave-one-out criterion: each site is predicted from all the others and
the mean absolute error (regression) or the correct-classification rate
(labels) of those predictions scores the grid point. The module also
provides the stratified train/test split, the one-sided paired t-test
used to compare methods, and the replication benchmark that pits the
adaptive-bandwidth method against the fixed-bandwidth one over freshly
simulated datasets.

Weights and their reduction come from the estimator module's one
engine. Leave-one-out is the query block "every site, its own column
excluded", with rows playing the role of held-out sites and each site's
own column at distance inf. Every leave-one-out quantity is row-local
(a row's distances, bandwidths, kernel values, weights and weighted
mean or vote), so a pass walks the sites in blocks of rows: memory is a
few (rows, n) matrices, never (n, n) ones. The engine's reducers get
each row's fallback from the other sites, so every leave-one-out row
equals the per-site estimator call with ``exclude={i}`` bit for bit, in
a block of any height; held-out test sites are weighted in blocks of
rows and equal the per-site calls the same way. One grid search covers
every (covariate kernel, site kernel) pair of its grid: within a row
block, the distances, the bandwidths and each covariate kernel's
matrices are computed once and shared by all pairs; each grid point's
loss is summed over the blocks (a sum of absolute errors can so round
differently at another block height; a count of misses cannot), and the
search reports the winner of every pair as well as the overall one.

Replications simulate many datasets on one shared lattice, and each is
tuned by two searches after its default grids. So what depends only on
the sites (positive-distance neighbour counts, the default rho axis) is
kept in the :class:`~spatialknn.lattice.SiteSet`'s memo, and a set
whose default-grid search runs as one row block (627 sites or fewer)
keeps its whole leave-one-out site distances and each k'-th neighbour
site bandwidth there too, shared by every dataset on the lattice.
Covariate distances change with each dataset and are computed per
pass. Kept values are computed exactly as a first call computes them,
so results keep their bits; a larger set keeps nothing n²-sized.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, NumericalError
from .estimator import (
    KnnParams,
    NwParams,
    SpatialDataset,
    _check_labels,
    _excluded,
    _majority_of_kept,
    _mean_of_kept,
    _raw_weights,
    _responses_in_range,
    _scaled,
    _votes,
    _weighted_means,
)
from .kernels import KERNEL_NAMES, eval_scalar, validate_kernel
from .lattice import SiteSet, distances_between
from .neighbors import (
    _POSITIVE_SITES,
    _check_rows,
    _positive_distances,
    _row_bandwidths,
    check_rank,
)
from .simulate import DgpParams, gen_dataset

_METHODS = ("knn", "nw")


def _check_method(method: str) -> str:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    return method


# ---------------------------------------------------------------------------
# metrics


def mae(y, yhat) -> float:
    """Mean absolute error between two equal-length sequences."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.size} vs {yhat.size}")
    if y.size == 0:
        raise ValueError("mae needs at least one pair")
    return float(np.mean(np.abs(y - yhat)))


@dataclass(frozen=True)
class CcrReport:
    """Correct-classification rates, overall and class by class.

    ``per_class[j-1]`` is the fraction of true class-``j`` sites that
    were predicted as class ``j``; nan marks a class absent from the
    truth (rate undefined). ``overall`` is the average of the defined
    per-class rates weighted by the class counts of the truth.
    """

    overall: float
    per_class: tuple[float, ...]


def ccr(truth, pred, n_classes: int) -> CcrReport:
    """Rate of exact label agreement, overall and per true class."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("truth and pred must be equal-length 1-d sequences")
    if truth.size == 0:
        raise ValueError("ccr needs at least one pair")
    m = int(n_classes)
    for name, arr in (("truth", truth), ("pred", pred)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} labels must be integers")
        if arr.min() < 1 or arr.max() > m:
            raise ValueError(f"{name} labels fall outside 1..{m}")
    overall = float(np.mean(truth == pred))
    per_class = []
    for j in range(1, m + 1):
        members = truth == j
        per_class.append(float(np.mean(pred[members] == j)) if members.any() else math.nan)
    return CcrReport(overall, tuple(per_class))


# ---------------------------------------------------------------------------
# train/test split


def stratified_split(data: SpatialDataset, train_fraction: float = 0.8, seed=None):
    """Random split preserving the per-class proportions of the labels.

    Returns sorted index arrays ``(train, test)``, disjoint and jointly
    exhaustive. Each class contributes round(fraction * size) members to
    the training side, clamped so both sides see the class when it has
    at least two members; singleton classes go entirely to training with
    a warning.
    """
    if data.labels is None:
        raise ValueError("stratified split needs labels")
    f = float(train_fraction)
    if not 0.0 < f < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {f}")
    rng = np.random.default_rng(seed)
    train_parts = [np.empty(0, dtype=np.int64)]
    test_parts = [np.empty(0, dtype=np.int64)]
    for c in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == c)
        if idx.size < 2:
            warnings.warn(
                f"class {int(c)} has fewer than 2 members; keeping it in training",
                stacklevel=2,
            )
            train_parts.append(idx)
            continue
        n_train = min(max(int(round(f * idx.size)), 1), idx.size - 1)
        perm = rng.permutation(idx)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


# ---------------------------------------------------------------------------
# Student-t tail probabilities (for the paired test)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction in the
    # regularized incomplete beta function. Standard even/odd
    # coefficient pairs; converges fast for x < (a+1)/(a+b+2).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    frac = d
    for m in range(1, 301):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for coef in (even, odd):
            d = 1.0 + coef * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + coef / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            frac *= delta
        if abs(delta - 1.0) < 1e-15:
            return frac
    raise NumericalError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with ``df`` degrees of freedom.

    Uses I_x(df/2, 1/2) at x = df/(df + t^2); exact 0.5 at t = 0, and
    sf(t) + sf(-t) = 1 by construction.
    """
    df = float(df)
    if not df > 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    t = float(t)
    if t == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
    return tail if t > 0.0 else 1.0 - tail


def paired_ttest(a, b):
    """One-sided paired t-test of mean(a) > mean(b).

    Returns ``(t, p)`` with ``t = mean(d) / (sd(d) / sqrt(n))`` over the
    differences ``d = a - b`` (sample SD, n-1 denominator) and
    ``p = P(T_{n-1} > t)``.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    n = a.size
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return t, student_t_sf(t, n - 1)


# ---------------------------------------------------------------------------
# row blocks

# Memory for the (rows, n) float64 matrices that a leave-one-out pass
# holds at once: the covariate-kernel matrices of a grid search, or one
# matrix of any other pass. Rows per block are chosen to fit, so a grid
# search at 8 k values runs as one block up to 627 sites, and in 11
# blocks of 194 rows at 2025 sites, which took the peak RSS of a
# `predict` call on a 45x45 lattice from 470 to 77 MB with the same
# report (one BLAS thread). Within a block, a grid search takes
# as many covariate kernels at a time as fit. On the bundled survey's two
# 36-pair classification searches (396 training sites, one block) this
# cap, two kernels at a time for knn and three for nw, took the searches
# from 2.39 s to 2.00 s and the peak RSS of the `classify` call from 59
# to 71 MB at one BLAS thread; holding all six kernels gained 0.1 s more
# for 106 MB.
_COVARIATE_BLOCK_BYTES = 24 * 2**20


def _row_blocks(n: int, matrices: int) -> list:
    """Consecutive row slices covering ``range(n)``.

    Each holds as many rows as let ``matrices`` (rows, n) float64
    arrays fit in ``_COVARIATE_BLOCK_BYTES``, and at least one.
    """
    rows = max(1, min(n, _COVARIATE_BLOCK_BYTES // (8 * max(n, 1) * matrices)))
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _kept_whole(n: int, rows: slice) -> bool:
    """Whether ``rows`` are all ``n`` rows of a set whose default-grid
    search runs as one block (627 sites or fewer).

    Such a site set keeps its leave-one-out site distances and site
    bandwidths in its memo; a larger set keeps nothing n²-sized.
    """
    return rows == slice(0, n) and len(_row_blocks(n, _GRID_POINTS)) == 1


def _loo_rows(coords: np.ndarray, rows: slice) -> np.ndarray:
    """Distances from the points in ``rows`` to every point of ``coords``,
    each point's own column at inf."""
    dist = distances_between(coords, coords[rows])
    own = np.arange(rows.stop - rows.start)
    dist[own, own + rows.start] = np.inf
    return dist


def _site_rows(sites: SiteSet, rows: slice) -> np.ndarray:
    """:func:`_loo_rows` of the sites, kept if :func:`_kept_whole` allows."""
    if _kept_whole(len(sites), rows):
        return sites._memoized("loo_site_distances", lambda: _loo_rows(sites.coords, rows))
    return _loo_rows(sites.coords, rows)


# ---------------------------------------------------------------------------
# parameter grids


@dataclass(frozen=True)
class ParamGrid:
    """Candidate smoothing parameters, one axis per knob.

    The adaptive method searches ``k_values x k_prime_values``; the
    fixed-bandwidth method ``h_values x rho_values``. Both cross those
    with the kernel name axes ``k1_specs`` (covariate kernel) and
    ``k2_specs`` (site kernel). Axes for the inactive method may stay
    empty.
    """

    k_values: tuple = ()
    k_prime_values: tuple = ()
    h_values: tuple = ()
    rho_values: tuple = ()
    k1_specs: tuple = ("epanechnikov",)
    k2_specs: tuple = ("parzen",)

    def __post_init__(self):
        ints = lambda vs: tuple(int(v) for v in vs)
        object.__setattr__(self, "k_values", ints(self.k_values))
        object.__setattr__(self, "k_prime_values", ints(self.k_prime_values))
        for name in ("k_values", "k_prime_values"):
            if any(v < 1 for v in getattr(self, name)):
                raise ValueError(f"{name} must all be >= 1")
        reals = lambda vs: tuple(float(v) for v in vs)
        object.__setattr__(self, "h_values", reals(self.h_values))
        object.__setattr__(self, "rho_values", reals(self.rho_values))
        for name in ("h_values", "rho_values"):
            if any(not v > 0.0 for v in getattr(self, name)):
                raise ValueError(f"{name} must all be positive")
        object.__setattr__(self, "k1_specs", tuple(self.k1_specs))
        object.__setattr__(self, "k2_specs", tuple(self.k2_specs))
        if not self.k1_specs or not self.k2_specs:
            raise ValueError("kernel axes must be nonempty")
        for kn in self.k1_specs + self.k2_specs:
            validate_kernel(kn)


_GRID_POINTS = 8
_GAMMA_STEP = 0.05
_GAMMA_START_K = 0.55
_GAMMA_START_KPRIME = 0.60


def _power_law_grid(n: int, start: float, cap: int) -> tuple:
    # k ~ ceil(n^gamma) over gamma in [start, start + 7*step], the open
    # interval (0.5, 1) sampled at one step per grid point; clamped to
    # the leave-one-out-feasible range 1..cap and deduplicated.
    vals = set()
    for i in range(_GRID_POINTS):
        gamma = start + i * _GAMMA_STEP
        vals.add(min(max(1, math.ceil(n**gamma)), cap))
    return tuple(sorted(vals))


def _positive_site_neighbours(sites: SiteSet) -> np.ndarray:
    # A site's spatial bandwidth ranks only the sites at positive
    # distance from it, i.e. every site but its own duplicates.
    def counts():
        _, inverse, counts = np.unique(
            sites.coords, axis=0, return_inverse=True, return_counts=True
        )
        return len(sites) - counts[inverse.ravel()]

    return sites._memoized("positive_site_neighbours", counts)


_SCALE_POINTS = 6


def _positive_pair_distances(n: int, distance_rows) -> np.ndarray:
    # The positive distances between points i < j, in row-major order,
    # gathered a row block at a time from distance_rows(rows): no (n, n)
    # matrix is built unless the set keeps its whole block anyway.
    out = np.empty(n * (n - 1) // 2)
    filled = 0
    for rows in _row_blocks(n, 1):
        dist = distance_rows(rows)
        keep = (np.arange(rows.start, rows.stop)[:, None] < np.arange(n)) & (dist > 0.0)
        size = int(np.count_nonzero(keep))
        out[filled : filled + size] = dist[keep]
        filled += size
    return out[:filled]


def _scale_grid(n: int, distance_rows, what: str) -> tuple:
    # Fixed bandwidths scan the interquartile range of the positive
    # pairwise distances. Deliberately central and coarse: the
    # fixed-bandwidth method smooths at one global scale, and handing it
    # a fine grid reaching into the extreme percentiles would turn it
    # into a differently-tuned estimator, not the comparator.
    pos = _positive_pair_distances(n, distance_rows)
    if pos.size == 0:
        raise ValueError(f"all pairwise {what} distances are zero; no bandwidth scale")
    # one selection for both quartiles, the same bits as two calls
    lo, hi = (float(v) for v in np.percentile(pos, [25.0, 75.0]))
    if hi <= lo:
        return (hi,)
    return tuple(float(v) for v in np.geomspace(lo, hi, _SCALE_POINTS))


def default_grid(data: SpatialDataset, method: str) -> ParamGrid:
    """Sensible search grid for a dataset.

    Neighbour counts follow ceil(n^gamma) for eight gamma values, and
    the site-neighbour exponents sit one step above the covariate ones
    (the spatial scale is meant to shrink more slowly). Fixed bandwidths
    scan the interquartile range of the positive pairwise distances,
    geometrically. Site-neighbour counts stop at the smallest number of
    sites at positive distance from any one site, so duplicated sites
    cannot make the default grid infeasible.

    What depends only on the sites (the neighbour counts and the rho
    axis) is computed once per :class:`~spatialknn.lattice.SiteSet`.
    """
    _check_method(method)
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 sites to build a grid")
    if method == "knn":
        k_prime_cap = int(_positive_site_neighbours(data.sites).min())
        if k_prime_cap < 1:
            raise ValueError("all sites coincide; no site has a positive-distance neighbour")
        return ParamGrid(
            k_values=_power_law_grid(n, _GAMMA_START_K, n - 1),
            k_prime_values=_power_law_grid(n, _GAMMA_START_KPRIME, k_prime_cap),
        )
    site_rows = functools.partial(_site_rows, data.sites)
    return ParamGrid(
        h_values=_scale_grid(n, functools.partial(_loo_rows, data.covariates), "covariate"),
        rho_values=data.sites._memoized(
            "rho_values", lambda: _scale_grid(n, site_rows, "site")
        ),
    )


# the (main, auxiliary) value axes each method searches
_AXES = {"knn": ("k_values", "k_prime_values"), "nw": ("h_values", "rho_values")}


def _complete_grid(grid: ParamGrid | None, data: SpatialDataset, method: str) -> ParamGrid:
    """``grid`` with the empty value axes of ``method`` taken from :func:`default_grid`.

    None counts as a grid with every value axis empty and the default
    kernels.
    """
    grid = ParamGrid() if grid is None else grid
    missing = [name for name in _AXES[_check_method(method)] if not getattr(grid, name)]
    if not missing:
        return grid
    default = default_grid(data, method)
    return replace(grid, **{name: getattr(default, name) for name in missing})


# ---------------------------------------------------------------------------
# leave-one-out engine


def _loo_distances(data: SpatialDataset, rows: slice):
    """Covariate and site distances from the sites in ``rows`` to every
    site, each site's own column at distance inf (read-only when kept)."""
    return _loo_rows(data.covariates, rows), _site_rows(data.sites, rows)


def _site_bandwidths(sites: SiteSet, ds: np.ndarray, rows: slice, k_primes) -> dict:
    """Each row's k'-th positive-distance site bandwidth, for every k'.

    One partition per k'; for a whole block that :func:`_kept_whole`
    allows, each k' is partitioned once per site set and kept.
    """
    rank = functools.cache(lambda: _positive_distances(ds))

    def bandwidths(k_prime):
        return _row_bandwidths(rank(), k_prime, _POSITIVE_SITES)

    if not _kept_whole(len(sites), rows):
        return {kp: bandwidths(kp) for kp in k_primes}
    return {
        kp: sites._memoized(("site_bandwidths", kp), lambda: bandwidths(kp))
        for kp in k_primes
    }


def _check_loo_ranks(data: SpatialDataset, ks, k_primes) -> None:
    """Raise the error a leave-one-out pass over all rows would raise first.

    Covariate ranks are checked in the given order, then site ranks. Every
    site has n - 1 other covariates, and the positive-distance sites come
    from site multiplicities, so no distances are needed.
    """
    for k in ks:
        check_rank(k, len(data) - 1)
    available = _positive_site_neighbours(data.sites)
    for k_prime in k_primes:
        _check_rows(available, k_prime, _POSITIVE_SITES)


def _loo_weights(data: SpatialDataset, params):
    """Raw leave-one-out weights of ``params``, one row block at a time.

    Yields ``(rows, weights)``.
    """
    if len(data) < 2:
        raise ValueError("leave-one-out needs at least 2 sites")
    for rows in _row_blocks(len(data), 1):
        yield rows, _raw_weights(*_loo_distances(data, rows), params)


def _loo_means(weights: np.ndarray, y: np.ndarray, rows: slice) -> np.ndarray:
    """Leave-one-out weighted means of the sites in ``rows``; a row without
    weight gets the mean of the other sites' responses."""
    with _responses_in_range():
        return _weighted_means(weights, y, (y.sum() - y[rows]) / (y.size - 1))


def _loo_votes(weights: np.ndarray, labels: np.ndarray, rows: slice) -> np.ndarray:
    """Leave-one-out votes of the sites in ``rows``; an empty vote goes to
    the most frequent label among the other sites."""
    own = labels[rows, None] == np.arange(1, labels.max() + 1)
    majority = (np.bincount(labels - 1) - own).argmax(axis=1) + 1
    return _votes(weights, labels, majority)


def loo_predictions(data: SpatialDataset, params) -> np.ndarray:
    """Each site's response predicted from all the other sites.

    ``params`` selects the method: :class:`KnnParams` for the adaptive
    bandwidths, :class:`NwParams` for the fixed ones. Equals per-site
    :func:`~spatialknn.estimator.predict` calls with ``exclude={i}``.
    """
    if data.responses is None:
        raise ValueError("leave-one-out prediction needs responses")
    out = np.empty(len(data))
    for rows, weights in _loo_weights(data, params):
        out[rows] = _loo_means(weights, data.responses, rows)
    return out


def loo_labels(data: SpatialDataset, params) -> np.ndarray:
    """Each site's label predicted from all the other sites.

    Ties and empty votes resolve exactly as in
    :func:`~spatialknn.estimator.classify`.
    """
    labels = _check_labels(data)
    out = np.empty(len(data), dtype=np.int64)
    for rows, weights in _loo_weights(data, params):
        out[rows] = _loo_votes(weights, labels, rows)
    return out


# ---------------------------------------------------------------------------
# grid search


def _grid_axes(grid: ParamGrid, method: str):
    names = _AXES[method]
    main, aux = (getattr(grid, name) for name in names)
    if not main or not aux:
        raise ValueError(f"empty parameter grid for method {method!r}: need {names}")
    # dedupe keeping one representative per value; selection order is
    # imposed afterwards by the sort key, not by iteration order
    return tuple(dict.fromkeys(main)), tuple(dict.fromkeys(aux))


def _grid_search(data: SpatialDataset, grid: ParamGrid, method: str, scorer) -> dict:
    """Exhaustive search; the summed ``scorer(weights, rows)`` over n is minimized.

    ``scorer`` returns the loss of a block of leave-one-out rows (the
    sites in the slice ``rows``) from their raw weights. Returns the
    winner of every (covariate kernel, site kernel) pair as
    ``{(k1, k2): (score, main, aux)}``. Within a pair, ties break toward
    the smallest main parameter (k or h), then the smallest auxiliary
    one (k' or rho); :func:`_best` breaks ties between pairs.

    Rank errors are raised before any row is scored, as a whole-matrix
    search would raise them. The sites are scored in row blocks, sized
    so that one covariate kernel's matrices fit in
    ``_COVARIATE_BLOCK_BYTES``. Within a block, the distances and
    bandwidth vectors are computed once (for a set scored as one block,
    the site distances and site bandwidths once per site set); the
    scaled distances are rebuilt from the bandwidths when a kernel needs
    them. Covariate kernels are taken in chunks of as many as fit in the
    budget (at least one): every covariate-kernel matrix is evaluated
    once per block, and every site-kernel matrix once per chunk, so a
    grid whose covariate matrices all fit evaluates each matrix once per
    block.
    """
    _check_method(method)
    if len(data) < 2:
        raise ValueError("leave-one-out needs at least 2 sites")
    main_vals, aux_vals = _grid_axes(grid, method)
    k1s = tuple(dict.fromkeys(grid.k1_specs))
    k2s = tuple(dict.fromkeys(grid.k2_specs))
    if method == "knn":
        _check_loo_ranks(data, main_vals, aux_vals)
    # summed loss of each grid point, indexed (k1, k2, main, aux)
    losses = np.zeros((len(k1s), len(k2s), len(main_vals), len(aux_vals)))

    def score_rows(rows):
        scores = np.empty_like(losses)
        dx, ds = _loo_distances(data, rows)
        if method == "knn":
            h1 = {k: _row_bandwidths(dx, k) for k in main_vals}
            h2 = _site_bandwidths(data.sites, ds, rows, aux_vals)

            def scaled1(k):
                return _scaled(dx, h1[k])

            def scaled2(kp):
                return _scaled(ds, h2[kp])

        else:

            def scaled1(h):
                return dx / h

            def scaled2(rho):
                return ds / rho

        per_kernel = len(main_vals) * dx.nbytes
        chunk = max(1, _COVARIATE_BLOCK_BYTES // per_kernel)
        weights = np.empty_like(dx)
        for start in range(0, len(k1s), chunk):
            block = None  # release the previous chunk's matrices first
            block = [
                (i1, i_main, eval_scalar(k1s[i1], scaled1(main)))
                for i1 in range(start, min(start + chunk, len(k1s)))
                for i_main, main in enumerate(main_vals)
            ]
            for i2, k2 in enumerate(k2s):
                for i_aux, aux in enumerate(aux_vals):
                    m2 = eval_scalar(k2, scaled2(aux))
                    for i1, i_main, m1 in block:
                        loss = scorer(np.multiply(m1, m2, out=weights), rows)
                        scores[i1, i2, i_main, i_aux] = loss
                    m2 = None  # released before the next one is built
        return scores

    n = len(data)
    for rows in _row_blocks(n, len(main_vals)):
        scores = score_rows(rows)
        with _responses_in_range():  # only a sum of absolute errors can overflow
            losses += scores
    return {
        (k1, k2): min(
            (float(losses[i1, i2, i_main, i_aux]) / n, main, aux)
            for i_main, main in enumerate(main_vals)
            for i_aux, aux in enumerate(aux_vals)
        )
        for i1, k1 in enumerate(k1s)
        for i2, k2 in enumerate(k2s)
    }


def _selected(method: str, main, aux, k1: str, k2: str):
    if method == "knn":
        return KnnParams(k=main, k_prime=aux, k1=k1, k2=k2)
    return NwParams(h=main, rho=aux, k1=k1, k2=k2)


def _best(winners: dict, method: str):
    """Overall winner ``(params, score)`` of a :func:`_grid_search`.

    Ties break toward the smallest main parameter, then the smallest
    auxiliary one, then catalog order of the covariate kernel, then of
    the site kernel.
    """
    score, main, aux, i1, i2 = min(
        (score, main, aux, KERNEL_NAMES.index(k1), KERNEL_NAMES.index(k2))
        for (k1, k2), (score, main, aux) in winners.items()
    )
    return _selected(method, main, aux, KERNEL_NAMES[i1], KERNEL_NAMES[i2]), score


def cv_select(data: SpatialDataset, grid: ParamGrid, method: str = "knn"):
    """Grid element with the smallest leave-one-out MAE.

    Returns ``(params, score)``; deterministic tie-breaking as described
    in :func:`_best`.
    """
    if data.responses is None:
        raise ValueError("cross-validation needs responses")
    y = data.responses

    def by_abs_error(weights, rows):
        with _responses_in_range():
            return float(np.abs(y[rows] - _loo_means(weights, y, rows)).sum())

    return _best(_grid_search(data, grid, method, by_abs_error), method)


def _classification_search(data, grid, method) -> dict:
    truth = _check_labels(data)

    def misses(weights, rows):
        return int(np.count_nonzero(_loo_votes(weights, truth, rows) != truth[rows]))

    return _grid_search(data, grid, method, misses)


def cv_select_classification(data: SpatialDataset, grid: ParamGrid, method: str = "knn"):
    """Grid element with the largest leave-one-out overall CCR.

    Returns ``(params, ccr)``. Ties break as in :func:`cv_select`.
    """
    params, miss = _best(_classification_search(data, grid, method), method)
    return params, 1.0 - miss


def cv_select_classification_pairs(
    data: SpatialDataset, grid: ParamGrid, method: str = "knn"
) -> dict:
    """Leave-one-out CCR winner of every kernel pair of the grid.

    Returns ``{(k1, k2): (params, ccr)}`` over the pairs of
    ``grid.k1_specs x grid.k2_specs``. Each entry equals what
    :func:`cv_select_classification` returns on the same grid narrowed to
    that one pair, at the cost of a single search.
    """
    winners = _classification_search(data, grid, method)
    return {
        (k1, k2): (_selected(method, main, aux, k1, k2), 1.0 - miss)
        for (k1, k2), (miss, main, aux) in winners.items()
    }


# ---------------------------------------------------------------------------
# held-out evaluation helpers

# Test sites weighted together: memory stays at a few (block, n_train)
# arrays however many sites are held out. Measured at one BLAS thread,
# 32 rows beat 128: 72 survey calls (99 test, 396 training sites) took
# 0.39-0.44 s instead of 0.53 s, and one 2025-by-2025 kNN call 0.40 s
# instead of 0.42 s with a 6.5 MB instead of 26 MB allocation peak.
_HOLDOUT_BLOCK = 32


def _holdout_blocks(train: SpatialDataset, test: SpatialDataset, params):
    """Yields ``(rows, weights)``: a slice of test sites and their raw
    weights against the training data, one row per test site."""
    if test.d != train.d:
        raise ValueError(f"query covariate has length {test.d}, expected {train.d}")
    for start in range(0, len(test), _HOLDOUT_BLOCK):
        rows = slice(start, start + _HOLDOUT_BLOCK)
        dx = distances_between(train.covariates, test.covariates[rows])
        ds = distances_between(train.sites.coords, test.sites.coords[rows])
        yield rows, _raw_weights(dx, ds, params)


def holdout_predictions(train: SpatialDataset, test: SpatialDataset, params) -> np.ndarray:
    """Predict the response at every test site from the training data.

    Equals per-site :func:`~spatialknn.estimator.predict` calls bit for
    bit, for :class:`KnnParams` and :class:`NwParams` alike.
    """
    if train.responses is None:
        raise ValueError("dataset has no responses to predict from")
    y = train.responses
    fallback = _mean_of_kept(y, _excluded(len(y), None))
    out = np.empty(len(test))
    for rows, weights in _holdout_blocks(train, test, params):
        out[rows] = _weighted_means(weights, y, fallback)
    return out


def holdout_labels(train: SpatialDataset, test: SpatialDataset, params) -> np.ndarray:
    """Classify every test site from the training data.

    Equals per-site :func:`~spatialknn.estimator.classify` calls, ties
    and empty votes included.
    """
    labels = _check_labels(train)
    majority = _majority_of_kept(labels, _excluded(len(labels), None))
    out = np.empty(len(test), dtype=np.int64)
    for rows, weights in _holdout_blocks(train, test, params):
        out[rows] = _votes(weights, labels, majority)
    return out


# ---------------------------------------------------------------------------
# replication benchmark


@dataclass(frozen=True)
class EvalReport:
    """Replication metrics with their mean and sample SD."""

    per_replication_metric: tuple
    mean: float
    sd: float

    @classmethod
    def from_values(cls, values) -> "EvalReport":
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("empty metric sequence")
        sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
        return cls(tuple(float(x) for x in v), float(v.mean()), sd)


@dataclass(frozen=True)
class BenchmarkResult:
    """Paired replication study of the two methods.

    ``t_stat``/``p_value`` test mean(NW MAE) > mean(kNN MAE), one-sided;
    both are None when the per-replication differences are degenerate
    (zero variance).
    """

    knn: EvalReport
    nw: EvalReport
    t_stat: float | None
    p_value: float | None


@dataclass(frozen=True)
class BenchmarkCell:
    """One benchmark design point and its result."""

    shape: tuple
    sigma: float
    a: float
    n_reps: int
    result: BenchmarkResult


def _benchmark_one(shape, a, sigma, seed, knn_grid, nw_grid):
    data = gen_dataset(DgpParams(shape=shape, a=a, sigma=sigma, seed=seed))
    kg = _complete_grid(knn_grid, data, "knn")
    ng = _complete_grid(nw_grid, data, "nw")
    return cv_select(data, kg, "knn")[1], cv_select(data, ng, "nw")[1]


def _with_replication(r: int, exc: Exception) -> Exception:
    try:
        return type(exc)(f"replication {r}: {exc}")
    except Exception:
        return NumericalError(f"replication {r}: {exc}")


def benchmark_replications(
    shape,
    a: float,
    sigma: float,
    n_reps: int,
    grids=None,
    base_seed: int = 0,
    n_jobs: int = 1,
) -> BenchmarkResult:
    """Replicated head-to-head comparison on freshly simulated data.

    Replication ``r`` simulates a dataset with seed ``base_seed + r``,
    cross-validates both methods on it (``grids`` may pin a
    ``(knn_grid, nw_grid)`` pair; value axes a grid leaves empty, and
    every axis of a None grid, take that dataset's defaults) and
    records each method's selected leave-one-out MAE. The paired test
    asks whether the fixed-bandwidth method's MAE exceeds the adaptive
    one's. Deterministic given ``base_seed``; replications reduce in
    index order regardless of ``n_jobs``.
    """
    n_reps = int(n_reps)
    if n_reps < 2:
        raise ValueError("need at least 2 replications for the paired test")
    knn_grid, nw_grid = (None, None) if grids is None else grids
    shape = tuple(int(v) for v in shape)
    arglist = [
        (shape, float(a), float(sigma), int(base_seed) + r, knn_grid, nw_grid)
        for r in range(n_reps)
    ]
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    # no more workers than replications: a fork pool starts all of them
    n_jobs = min(int(n_jobs), n_reps)
    pairs = [None] * n_reps
    if n_jobs <= 1:
        for r, args in enumerate(arglist):
            try:
                pairs[r] = _benchmark_one(*args)
            except Exception as exc:
                raise _with_replication(r, exc) from exc
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_benchmark_one, *args) for args in arglist]
            for r, future in enumerate(futures):
                try:
                    pairs[r] = future.result()
                except Exception as exc:
                    raise _with_replication(r, exc) from exc
    knn_maes = np.array([p[0] for p in pairs])
    nw_maes = np.array([p[1] for p in pairs])
    try:
        t_stat, p_value = paired_ttest(nw_maes, knn_maes)
    except DegenerateInputError:
        t_stat = p_value = None
    return BenchmarkResult(
        knn=EvalReport.from_values(knn_maes),
        nw=EvalReport.from_values(nw_maes),
        t_stat=t_stat,
        p_value=p_value,
    )
