"""Random field and data-generating-process tests.

The strongest oracles here are exact reconstructions: a 2-site field has
a closed-form Cholesky factor, and the mixture covariate decomposes into
its field and dependence-surface ingredients when the regime indicator
is pinned. The generator of the bundled survey file lives here too, and
is checked against that file byte for byte.
"""

import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spatialknn
from spatialknn.dataio import survey_schema, write_dataset
from spatialknn.errors import NumericalError  # noqa: F401  (raised path is hard to hit)
from spatialknn.estimator import SpatialDataset
from spatialknn.lattice import SiteSet
from spatialknn.simulate import (
    MAX_DENSE_SITES,
    DgpParams,
    FieldParams,
    gaussian_cov,
    gen_dataset,
    local_dependence_field,
    sample_grf,
)

SURVEY_CSV = Path(spatialknn.__file__).parent / "data" / "synthetic_survey.csv"


def test_gaussian_cov_values():
    assert gaussian_cov([0.0, 0.0], 5.0, 3.0) == 5.0
    # lag (3, 0) at scale 3: variance * exp(-1)
    assert gaussian_cov([3.0, 0.0], 5.0, 3.0) == pytest.approx(5.0 * math.exp(-1.0))
    assert gaussian_cov([1.0, 0.0], 2.0, 3.0) == pytest.approx(2.0 * math.exp(-1.0 / 9.0))
    # scalar lag and array of lags
    assert gaussian_cov(2.0, 1.0, 2.0) == pytest.approx(math.exp(-1.0))
    lags = np.array([[0.0, 0.0], [3.0, 0.0]])
    np.testing.assert_allclose(
        gaussian_cov(lags, 5.0, 3.0), [5.0, 5.0 * math.exp(-1.0)]
    )


def test_gaussian_cov_validation():
    with pytest.raises(ValueError, match="scale"):
        gaussian_cov([1.0], 1.0, 0.0)
    with pytest.raises(ValueError, match="variance"):
        gaussian_cov([1.0], -1.0, 1.0)


def test_field_params_validation():
    with pytest.raises(ValueError, match="variance"):
        FieldParams(0.0, 0.0, 3.0, (4, 4))
    with pytest.raises(ValueError, match="scale"):
        FieldParams(0.0, 5.0, -1.0, (4, 4))
    with pytest.raises(ValueError, match="shape"):
        FieldParams(0.0, 5.0, 3.0, (0, 4))


def test_sample_grf_two_site_closed_form():
    # 1x2 grid: distance 1 between the sites, so the covariance matrix is
    # [[v, c], [c, v]] with c = v exp(-1/s^2) and an explicit Cholesky
    # factor [[sqrt(v), 0], [c/sqrt(v), sqrt(v - c^2/v)]]
    v, s = 5.0, 3.0
    c = v * math.exp(-1.0 / s**2)
    L = np.array([[math.sqrt(v), 0.0], [c / math.sqrt(v), math.sqrt(v - c * c / v)]])
    for seed in (0, 1, 99):
        z = np.random.default_rng(seed).standard_normal(2)
        want = 1.5 + L @ z
        got = sample_grf(FieldParams(1.5, v, s, (1, 2)), seed)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sample_grf_deterministic():
    p = FieldParams(0.0, 5.0, 3.0, (6, 6))
    a = sample_grf(p, 42)
    b = sample_grf(p, 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_grf(p, 43))
    assert a.shape == (36,)


def test_sample_grf_mean_shift():
    p0 = FieldParams(0.0, 2.0, 3.0, (4, 4))
    p7 = FieldParams(7.0, 2.0, 3.0, (4, 4))
    np.testing.assert_allclose(sample_grf(p7, 5), sample_grf(p0, 5) + 7.0, atol=1e-12)


def test_sample_grf_small_variance_concentrates():
    f = sample_grf(FieldParams(3.0, 1e-12, 3.0, (5, 5)), 8)
    np.testing.assert_allclose(f, np.full(25, 3.0), atol=1e-4)


def test_sample_grf_moments_monte_carlo():
    # 300 draws on a 4x4 grid: marginal variance near 5 and the lag-1
    # correlation near exp(-1/9)
    p = FieldParams(0.0, 5.0, 3.0, (4, 4))
    draws = np.stack([sample_grf(p, seed) for seed in range(300)])
    var = draws.var(axis=0).mean()
    assert var == pytest.approx(5.0, rel=0.15)
    # neighbouring columns of the grid (lag (0, 1))
    grid = draws.reshape(300, 4, 4)
    cov = np.mean(grid[:, :, :-1] * grid[:, :, 1:])
    assert cov == pytest.approx(5.0 * math.exp(-1.0 / 9.0), rel=0.2)


def test_sample_grf_rejects_oversize_grid():
    with pytest.raises(ValueError, match=str(MAX_DENSE_SITES)):
        sample_grf(FieldParams(0.0, 5.0, 3.0, (65, 64)), 0)


def test_local_dependence_hand_oracle_3x3():
    a = 2.0
    got = local_dependence_field((3, 3), a)
    # direct double loop over raw integer positions 1..3 x 1..3
    pos = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    want = []
    for s in pos:
        acc = 0.0
        for t in pos:
            acc += math.exp(-math.hypot(s[0] - t[0], s[1] - t[1]) / a)
        want.append(acc / len(pos))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # centre site dominates
    assert got.argmax() == 4


def test_local_dependence_bounds_and_limit():
    u = local_dependence_field((5, 4), 3.0)
    assert (u > 0.0).all() and (u <= 1.0).all()
    # weaker decay, larger values, limit 1
    u2 = local_dependence_field((5, 4), 30.0)
    assert (u2 > u).all()
    np.testing.assert_allclose(local_dependence_field((5, 4), 1e9), np.ones(20), atol=1e-6)


def test_local_dependence_validation():
    with pytest.raises(ValueError, match="positive"):
        local_dependence_field((3, 3), 0.0)


def test_dgp_params_validation():
    with pytest.raises(ValueError, match="shape"):
        DgpParams(shape=(5,), a=5.0, sigma=0.1, seed=0)
    with pytest.raises(ValueError, match="a must be positive"):
        DgpParams(shape=(5, 5), a=0.0, sigma=0.1, seed=0)
    with pytest.raises(ValueError, match="sigma"):
        DgpParams(shape=(5, 5), a=5.0, sigma=-1.0, seed=0)


def test_gen_dataset_deterministic_and_shaped():
    p = DgpParams(shape=(6, 5), a=5.0, sigma=0.1, seed=123)
    d1 = gen_dataset(p)
    d2 = gen_dataset(p)
    assert len(d1) == 30
    assert d1.sites.shape == (6, 5)
    np.testing.assert_array_equal(d1.covariates, d2.covariates)
    np.testing.assert_array_equal(d1.responses, d2.responses)
    assert not np.array_equal(
        d1.covariates, gen_dataset(DgpParams((6, 5), 5.0, 0.1, 124)).covariates
    )


def test_gen_dataset_streams_reconstruct():
    # pinning the regime indicator isolates each branch of the mixture:
    # all-ones gives X = U * T exactly, with T drawn from the second of
    # the four child seeds
    p = DgpParams(shape=(5, 5), a=5.0, sigma=0.1, seed=77)
    ones = np.ones(25)
    data = gen_dataset(p, mixture_indicator=ones)
    children = np.random.SeedSequence(77).spawn(4)
    t = sample_grf(FieldParams(0.0, 5.0, 3.0, (5, 5)), children[1])
    u = local_dependence_field((5, 5), 5.0)
    np.testing.assert_allclose(data.covariates[:, 0], u * t, rtol=0, atol=1e-12)
    # all-zeros gives X = 6 + U * Z with Z at variance sigma
    zeros = gen_dataset(p, mixture_indicator=np.zeros(25))
    z = sample_grf(FieldParams(0.0, p.sigma, 3.0, (5, 5)), children[2])
    np.testing.assert_allclose(zeros.covariates[:, 0], 6.0 + u * z, atol=1e-12)


def test_gen_dataset_noise_shared_across_regimes():
    # same seed, different pinned regimes: Y - X^2 is the same noise draw
    p = DgpParams(shape=(4, 4), a=10.0, sigma=5.0, seed=3)
    d_one = gen_dataset(p, mixture_indicator=np.ones(16))
    d_zero = gen_dataset(p, mixture_indicator=np.zeros(16))
    eps_one = d_one.responses - d_one.covariates[:, 0] ** 2
    eps_zero = d_zero.responses - d_zero.covariates[:, 0] ** 2
    np.testing.assert_allclose(eps_one, eps_zero, rtol=0, atol=1e-10)
    # and the noise is small (variance 0.1 field)
    assert np.abs(eps_one).max() < 2.0


def test_gen_dataset_mixture_indicator_validation():
    p = DgpParams(shape=(3, 3), a=5.0, sigma=0.1, seed=0)
    with pytest.raises(ValueError, match="0/1"):
        gen_dataset(p, mixture_indicator=np.ones(8))
    with pytest.raises(ValueError, match="0/1"):
        gen_dataset(p, mixture_indicator=np.full(9, 0.5))


def test_gen_dataset_coin_is_fair_ish():
    # pooled over seeds, the two regimes appear about equally often;
    # regime 0 sits near covariate 6, regime 1 near 0
    xs = np.concatenate(
        [gen_dataset(DgpParams((8, 8), 5.0, 0.1, s)).covariates[:, 0] for s in range(10)]
    )
    near_six = np.abs(xs - 6.0) < 2.0
    assert 0.35 < near_six.mean() < 0.65


def survey_dataset(n_stations: int = 495, seed: int = 20240913) -> SpatialDataset:
    """The generator of the bundled survey file ``data/synthetic_survey.csv``.

    Stations are scattered over a west-African-style longitude/latitude
    box with four smooth environmental covariates (bottom/surface
    temperature and salinity, each with station-level noise). Binary
    presence labels follow a logistic rule that favours warm bottom
    water in the south, so the classes are spatially clustered yet
    noisily overlapping. Labels are classes {1, 2} with original codes
    (0, 1) recorded, class 2 = presence.
    """
    rng = np.random.default_rng(seed)
    n = int(n_stations)
    lon = rng.uniform(-17.6, -16.2, n)
    lat = rng.uniform(12.3, 14.8, n)
    sbt = (
        16.0
        + 3.0 * np.cos(2.0 * (lat - 12.0))
        + 1.5 * (lon + 17.0)
        + 0.3 * rng.standard_normal(n)
    )
    sst = sbt + 6.0 + 1.2 * np.sin(1.5 * (lon + 17.0)) + 0.4 * rng.standard_normal(n)
    sbs = 35.2 + 0.6 * np.sin(1.8 * lat) + 0.2 * rng.standard_normal(n)
    sss = 34.6 + 0.5 * np.cos(2.4 * (lon + 17.0)) + 0.25 * rng.standard_normal(n)
    score = (
        1.3 * (sbt - 16.0)
        - 1.6 * (lat - 13.5)
        + 0.8 * np.sin(4.0 * (lon + 17.0))
        - 1.2
    )
    presence = rng.random(n) < 1.0 / (1.0 + np.exp(-score))
    return SpatialDataset(
        sites=SiteSet(np.column_stack([lon, lat])),
        covariates=np.column_stack([sbt, sst, sbs, sss]),
        labels=presence.astype(np.int64) + 1,
        label_values=(0, 1),
    )


def test_survey_dataset_frozen_properties(tmp_path):
    data = survey_dataset()
    assert len(data) == 495
    assert data.d == 4
    assert data.n_classes == 2
    assert data.label_values == (0, 1)
    assert data.responses is None
    lon, lat = data.sites.coords[:, 0], data.sites.coords[:, 1]
    assert -17.6 < lon.min() and lon.max() < -16.2
    assert 12.3 < lat.min() and lat.max() < 14.8
    # both classes well represented
    counts = np.bincount(data.labels, minlength=3)[1:]
    assert counts.min() > 50
    # the generator made the bundled file, byte for byte
    out = tmp_path / "survey.csv"
    write_dataset(data, out, survey_schema())
    assert out.read_bytes() == SURVEY_CSV.read_bytes()


def test_dense_caches_hold_one_datasets_arrays_after_a_shape_change():
    shapes = ((45, 45), (44, 44), (43, 43))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for shape in shapes:
            gen_dataset(DgpParams(shape=shape, a=5.0, sigma=2.0, seed=0))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    largest = 8 * math.prod(shapes[0]) ** 2
    assert held <= 4 * largest


def test_dense_caches_hit_on_every_draw_of_one_shape_and_sigma(monkeypatch):
    calls = []
    factorize = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or factorize(m))
    for seed in range(3):  # a shape no other test draws, so the first draw misses
        gen_dataset(DgpParams(shape=(9, 11), a=5.0, sigma=2.0, seed=seed))
    assert calls == [(99, 99)] * 3
