"""Kernel catalog tests.

Point values below were computed by hand from the closed forms:

    biweight      (15/16)(1 - u^2)^2      on |u| <= 1
    epanechnikov  (3/4)(1 - u^2)          on |u| <= 1
    gaussian      exp(-u^2 / 2)           everywhere
    indicator     1                       on |u| <= 1
    parzen        1 - 6u^2 + 6|u|^3       on |u| < 1/2
                  2(1 - |u|)^3            on 1/2 <= |u| <= 1
    triangular    1 - |u|                 on |u| <= 1
"""

import math
import warnings

import numpy as np
import pytest

from spatialknn.kernels import KERNEL_NAMES, eval_scalar, validate_kernel

# name -> mass on the real line, from the closed forms above
KERNEL_INTEGRALS = {
    "biweight": 1.0,
    "epanechnikov": 1.0,
    "gaussian": math.sqrt(2.0 * math.pi),
    "indicator": 2.0,
    "parzen": 0.75,
    "triangular": 1.0,
}

# name -> {u: K(u)}, frozen by hand
HAND_VALUES = {
    "biweight": {0.0: 0.9375, 0.5: 0.52734375, 1.0: 0.0, 2.0: 0.0},
    "epanechnikov": {0.0: 0.75, 0.5: 0.5625, 1.0: 0.0, 2.0: 0.0},
    "gaussian": {0.0: 1.0, 0.5: math.exp(-0.125), 1.0: math.exp(-0.5), 2.0: math.exp(-2.0)},
    "indicator": {0.0: 1.0, 0.5: 1.0, 1.0: 1.0, 2.0: 0.0},
    "parzen": {0.0: 1.0, 0.25: 0.71875, 0.5: 0.25, 1.0: 0.0, 2.0: 0.0},
    "triangular": {0.0: 1.0, 0.5: 0.5, 1.0: 0.0, 2.0: 0.0},
}


def test_catalog_names_alphabetical():
    assert KERNEL_NAMES == tuple(sorted(KERNEL_NAMES))
    assert len(KERNEL_NAMES) == 6


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_hand_values(name):
    for u, want in HAND_VALUES[name].items():
        got = eval_scalar(name, u)
        assert got == pytest.approx(want, abs=1e-15), f"{name}({u})"


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_even_function(name):
    u = np.linspace(-3.0, 3.0, 61)
    np.testing.assert_array_equal(eval_scalar(name, u), eval_scalar(name, -u))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_closed_support(name):
    # compact kernels are positive strictly inside |u| < 1 and zero
    # beyond; the indicator is positive on the closed interval
    assert eval_scalar(name, 0.999999) > 0.0
    if name != "gaussian":
        assert eval_scalar(name, 1.0000001) == 0.0
    if name == "indicator":
        assert eval_scalar(name, 1.0) == 1.0


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_inf_argument_is_zero(name):
    assert eval_scalar(name, np.inf) == 0.0
    out = eval_scalar(name, np.array([0.0, np.inf, -np.inf]))
    assert out[1] == 0.0 and out[2] == 0.0


def test_gaussian_of_a_huge_argument_is_zero_without_warning():
    # squaring 1e200 would overflow; the argument is clamped where the
    # kernel is already 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_scalar("gaussian", 1e200) == 0.0
        np.testing.assert_array_equal(eval_scalar("gaussian", [1e200, -1e300, 40.0]), 0.0)
    assert eval_scalar("gaussian", 38.0) > 0.0


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_scalar_and_array_forms(name):
    scalar = eval_scalar(name, 0.3)
    assert isinstance(scalar, float)
    arr = eval_scalar(name, np.array([0.3, 0.7]))
    assert arr.shape == (2,)
    assert arr[0] == scalar
    # 0-d array behaves like a scalar
    assert eval_scalar(name, np.array(0.3)) == scalar
    # shape is preserved for 2-d input
    m = eval_scalar(name, np.full((3, 4), 0.3))
    assert m.shape == (3, 4)
    np.testing.assert_array_equal(m, np.full((3, 4), scalar))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_nonnegative_and_bounded(name):
    u = np.linspace(-5, 5, 1001)
    k = eval_scalar(name, u)
    assert (k >= 0.0).all()
    assert k.max() == eval_scalar(name, 0.0)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_integral_matches_catalog_constant(name):
    # trapezoid quadrature against the closed-form mass
    lim = 9.0 if name == "gaussian" else 1.0
    u = np.linspace(-lim, lim, 1_000_001)
    got = np.trapezoid(eval_scalar(name, u), u)
    assert got == pytest.approx(KERNEL_INTEGRALS[name], abs=1e-6)


def test_validate_kernel():
    for name in KERNEL_NAMES:
        assert validate_kernel(name) == name
    with pytest.raises(ValueError, match="unknown kernel"):
        validate_kernel("tricube")
    with pytest.raises(ValueError, match="epanechnikov"):
        validate_kernel("")


def test_eval_scalar_unknown_kernel():
    with pytest.raises(ValueError, match="unknown kernel"):
        eval_scalar("boxcar", 0.5)


# The masked piecewise forms the kernels had before they were written in
# clamp form and computed in place; kept here as the oracle.
def _masked_biweight(u):
    out = np.zeros_like(u)
    m = u <= 1.0
    out[m] = 0.9375 * (1.0 - u[m] ** 2) ** 2
    return out


def _masked_epanechnikov(u):
    out = np.zeros_like(u)
    m = u <= 1.0
    out[m] = 0.75 * (1.0 - u[m] ** 2)
    return out


def _masked_parzen(u):
    out = np.zeros_like(u)
    inner = u < 0.5
    outer = ~inner & (u <= 1.0)
    out[inner] = 1.0 - 6.0 * u[inner] ** 2 + 6.0 * u[inner] ** 3
    out[outer] = 2.0 * (1.0 - u[outer]) ** 3
    return out


def _masked_triangular(u):
    out = np.zeros_like(u)
    m = u <= 1.0
    out[m] = 1.0 - u[m]
    return out


MASKED_FORMS = {
    "biweight": _masked_biweight,
    "epanechnikov": _masked_epanechnikov,
    "gaussian": lambda u: np.exp(-0.5 * u**2),
    "indicator": lambda u: (u <= 1.0).astype(float),
    "parzen": _masked_parzen,
    "triangular": _masked_triangular,
}


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_in_place_forms_equal_masked_forms_bitwise(name):
    edges = np.array(
        [0.0, 0.5, np.nextafter(0.5, 0.0), 1.0, np.nextafter(1.0, 2.0), np.inf]
    )
    grid = np.random.default_rng(5).uniform(0.0, 1.5, size=(40, 50))
    for u in (edges, grid, np.concatenate([edges, grid.ravel()])):
        given = -u  # kernels are even; eval_scalar takes |u| into its own array
        got = eval_scalar(name, given)
        want = MASKED_FORMS[name](u)
        assert got.tobytes() == want.tobytes(), name
        np.testing.assert_array_equal(given, -u)  # the argument is left untouched
