"""Univariate kernel catalog.

The same six shapes serve both smoothing roles: :func:`eval_scalar`
takes a covariate distance or a site distance over its bandwidth.
Support is *closed*: compact kernels are positive up to and including
``|u| = 1``, so an indicator kernel paired with a k-th-neighbour
bandwidth keeps exactly the k nearest points. Kernels are not
normalized to unit mass; every estimator in this package is a ratio in
which the constant cancels.

:func:`eval_scalar` accepts scalars or arrays and tolerates ``inf``
arguments (which land outside every support and yield 0).
"""

from __future__ import annotations

import numpy as np

KERNEL_NAMES = (
    "biweight",
    "epanechnikov",
    "gaussian",
    "indicator",
    "parzen",
    "triangular",
)


# Each kernel receives ``|u|`` in an array that :func:`eval_scalar` owns
# and writes its values over it, so evaluating a kernel allocates no
# array beyond that one (Parzen: only copies of its two pieces, and
# masks). The other compact kernels use the clamp form
# ``max(f(u), 0)``: ``1 - u*u`` and ``1 - u`` are negative exactly when
# ``u > 1``, so the values equal the masked piecewise forms bit for bit,
# and ``fmax`` maps nan (like ``inf``) to 0.


def _biweight(u):
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.fmax(u, 0.0, out=u)
    np.multiply(u, u, out=u)
    return np.multiply(u, 0.9375, out=u)


def _epanechnikov(u):
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.fmax(u, 0.0, out=u)
    return np.multiply(u, 0.75, out=u)


def _gaussian(u):
    # exp(-0.5 * 40**2) = exp(-800) is already 0.0, so clamping at 40
    # changes no value and keeps a huge u from overflowing when squared
    np.minimum(u, 40.0, out=u)
    np.multiply(u, u, out=u)
    np.multiply(u, -0.5, out=u)
    return np.exp(u, out=u)


def _indicator(u):
    return np.less_equal(u, 1.0, out=u)


def _parzen(u):
    # Piecewise cubic: 1 - 6u^2 + 6u^3 on [0, 1/2), 2(1-u)^3 on [1/2, 1];
    # the cubics are evaluated on their own pieces only.
    inner = u < 0.5
    outer = u <= 1.0
    outer ^= inner
    a = u[inner]
    b = u[outer]
    u.fill(0.0)
    u[inner] = 1.0 - 6.0 * a**2 + 6.0 * a**3
    u[outer] = 2.0 * (1.0 - b) ** 3
    return u


def _triangular(u):
    np.subtract(1.0, u, out=u)
    return np.fmax(u, 0.0, out=u)


_KERNELS = {
    "biweight": _biweight,
    "epanechnikov": _epanechnikov,
    "gaussian": _gaussian,
    "indicator": _indicator,
    "parzen": _parzen,
    "triangular": _triangular,
}


def validate_kernel(name: str) -> str:
    """Return ``name`` if it is a catalog kernel, else raise ``ValueError``."""
    if name not in _KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; choose one of {', '.join(KERNEL_NAMES)}"
        )
    return name


def eval_scalar(name: str, u):
    """Evaluate kernel ``name`` at scalar argument(s) ``u``.

    Kernels are even functions; ``u`` may be any real (or array of
    reals) and only ``|u|`` matters.
    """
    fn = _KERNELS.get(name)
    if fn is None:
        validate_kernel(name)
    u = np.abs(np.asarray(u, dtype=float))  # a new array; the kernel overwrites it
    scalar = u.ndim == 0
    out = fn(u[None] if scalar else u)
    return float(out[0]) if scalar else out

