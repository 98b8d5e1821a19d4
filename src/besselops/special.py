"""Modified Bessel functions of the first kind and the gamma function.

Everything here is a pure function of its arguments.  The three Bessel
entry points cover the forms needed elsewhere in the package:

* ``besseli(alpha, z)``          -- I_alpha(z) itself,
* ``besseli_scaled(alpha, z)``   -- e^{-z} I_alpha(z), finite for all
  representable z (the form heat kernels are assembled from),
* ``besseli_ratio(alpha, z)``    -- z^{-alpha} I_alpha(z), finite and
  positive at z = 0.

All three accept scalars or numpy arrays for ``z``.  Orders below -1 are
rejected: the defining power series

    I_alpha(z) = sum_k (z/2)^{alpha+2k} / (k! Gamma(alpha+k+1))

requires alpha > -1.  The series has positive terms (no cancellation), so
it is used for moderate z; beyond the switch point the Hankel large-z
expansion of e^{-z} I_alpha(z) is summed to its optimally small term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BesselOrder",
    "BesselEval",
    "gamma",
    "besseli",
    "besseli_scaled",
    "besseli_ratio",
    "bessel_eval",
]

# Unscaled I overflows float64 around z ~ 709; refuse a little earlier.
_OVERFLOW_Z = 705.0

_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 500
_ASYMP_MAX_TERMS = 30

# Lanczos g=7, n=9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function via the Lanczos approximation (relative error < 1e-13).

    Uses reflection for x < 0.5; poles at nonpositive integers raise
    ``DomainError``.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at x={x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x).
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class BesselOrder:
    """Validated order for the first-kind modified Bessel family.

    The power series defining I_alpha requires alpha > -1.  Orders in
    (-1, -1/2] are accepted here even though the operator-level machinery
    restricts to orders above -1/2; shifted orders below the operator
    threshold show up inside recursions.
    """

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= -1.0:
            raise DomainError(f"Bessel order must exceed -1, got {self.alpha}")

    def __float__(self) -> float:
        return float(self.alpha)


@dataclass(frozen=True)
class BesselEval:
    """The three evaluation forms of I_alpha at a single point."""

    value: float
    scaled_value: float
    ratio_value: float


def _order(alpha) -> float:
    a = float(alpha.alpha) if isinstance(alpha, BesselOrder) else float(alpha)
    if not math.isfinite(a) or a <= -1.0:
        raise DomainError(f"Bessel order must exceed -1, got {a}")
    return a


def _check_nonneg(z: np.ndarray) -> None:
    if np.any(z < 0.0) or not np.all(np.isfinite(z)):
        raise DomainError("Bessel argument must be finite and >= 0")


def _switch_point(alpha: float) -> float:
    # Below the switch the positive-term series is exact-to-rounding; above
    # it the large-z expansion reaches ~1e-13 before its smallest term.
    return min(600.0, max(20.0, 2.0 * alpha * alpha))


def _series_block(alpha: float, zz: np.ndarray) -> np.ndarray:
    term = np.exp(alpha * np.log(0.5 * zz)) / gamma(alpha + 1.0)
    total = term.copy()
    q = 0.25 * zz * zz
    # The full check cannot pass while one element fails it, so the
    # element that converges last, the largest argument, is tested first.
    probe = int(np.argmax(zz))
    for k in range(_SERIES_MAX_TERMS):
        term *= q
        term /= (k + 1.0) * (alpha + k + 1.0)
        total += term
        if (
            k & 1
            and term[probe] <= _SERIES_TOL * total[probe]
            and np.all(term <= _SERIES_TOL * total)
        ):
            break
    return total


def _series_sum(alpha: float, z: np.ndarray) -> np.ndarray:
    """sum_k (z/2)^{alpha+2k} / (k! Gamma(alpha+k+1)); equals I_alpha(z).

    Elements are binned by magnitude so small arguments stop after a few
    terms instead of riding along with the slowest element.
    """
    out = np.empty_like(z)
    zero = z == 0.0
    if np.any(zero):
        out[zero] = 1.0 if alpha == 0.0 else (0.0 if alpha > 0.0 else np.inf)
    edges = (0.0, 1.0, 5.0, 15.0, np.inf)
    for lo, hi in zip(edges, edges[1:]):
        sel = (z > lo) & (z <= hi)
        if np.any(sel):
            out[sel] = _series_block(alpha, z[sel])
    return out


def _asymptotic_scaled(alpha: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_alpha(z) from the large-argument expansion, z well above 1.

    Sums 1/sqrt(2 pi z) * sum_k (-1)^k a_k(alpha) / z^k adaptively, stopping
    at the smallest term.  The e^{-2z} companion term is below 1e-26 for
    z >= 30 and is dropped.
    """
    mu = 4.0 * alpha * alpha
    s = np.ones_like(z)
    term = np.ones_like(z)
    prev_mag = np.full_like(z, np.inf)
    active = np.ones(z.shape, dtype=bool)
    # The full check cannot pass while one element fails it, so the
    # element that converges last, the smallest argument, is tested first.
    probe = int(np.argmin(z))
    for k in range(1, _ASYMP_MAX_TERMS + 1):
        factor = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        term = term * (-factor) / z
        mag = np.abs(term)
        # Freeze elements past their smallest term; add the rest.
        active &= mag < prev_mag
        s = np.where(active, s + term, s)
        prev_mag = mag
        if active[probe] and mag[probe] > _SERIES_TOL * abs(s[probe]):
            continue
        if not np.any(active & (mag > _SERIES_TOL * np.abs(s))):
            break
    return s / np.sqrt(2.0 * math.pi * z)


def _scaled_core(alpha: float, z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    zs = _switch_point(alpha)
    small = z <= zs
    if np.any(small):
        zz = z[small]
        out[small] = np.exp(-zz) * _series_sum(alpha, zz)
    if np.any(~small):
        out[~small] = _asymptotic_scaled(alpha, z[~small])
    return out


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def besseli_scaled(alpha, z):
    """e^{-z} I_alpha(z), finite for every representable z >= 0."""
    a = _order(alpha)
    arr, scalar = _as_array(z)
    _check_nonneg(arr)
    out = _scaled_core(a, arr)
    return float(out[0]) if scalar else out.reshape(np.shape(z))


def besseli(alpha, z):
    """I_alpha(z) for z >= 0.

    Raises ``OverflowError`` once e^z leaves float64 range; use
    ``besseli_scaled`` there.
    """
    a = _order(alpha)
    arr, scalar = _as_array(z)
    _check_nonneg(arr)
    if np.any(arr >= _OVERFLOW_Z):
        raise OverflowError(
            f"besseli overflows for z >= {_OVERFLOW_Z}; use besseli_scaled"
        )
    out = np.exp(arr) * _scaled_core(a, arr)
    return float(out[0]) if scalar else out.reshape(np.shape(z))


def besseli_ratio(alpha, z):
    """z^{-alpha} I_alpha(z); at z = 0 returns the limit 1/(2^alpha Gamma(alpha+1)).

    Never raises beyond the domain checks; for very large z the value is
    allowed to overflow to inf (the quantity itself is ~ e^z z^{-alpha-1/2}).
    """
    a = _order(alpha)
    arr, scalar = _as_array(z)
    _check_nonneg(arr)
    out = np.empty_like(arr)
    zs = _switch_point(a)
    limit = 1.0 / (2.0**a * gamma(a + 1.0))

    small = arr <= zs
    if np.any(small):
        zz = arr[small]
        # Series for z^{-alpha} I_alpha: k=0 term is the z->0 limit.
        term = np.full_like(zz, limit)
        total = term.copy()
        q = 0.25 * zz * zz
        for k in range(_SERIES_MAX_TERMS):
            term = term * q / ((k + 1.0) * (a + k + 1.0))
            total += term
            if np.all(term <= _SERIES_TOL * total):
                break
        out[small] = total
    if np.any(~small):
        zz = arr[~small]
        with np.errstate(over="ignore"):
            out[~small] = np.exp(zz - a * np.log(zz)) * _asymptotic_scaled(a, zz)
    return float(out[0]) if scalar else out.reshape(np.shape(z))


def bessel_eval(alpha, z: float) -> BesselEval:
    """All three evaluation forms at one point (value may be inf for huge z)."""
    a = _order(alpha)
    zf = float(z)
    scaled = besseli_scaled(a, zf)
    if zf >= _OVERFLOW_Z:
        value = math.inf
    else:
        value = math.exp(zf) * scaled
    return BesselEval(value=value, scaled_value=scaled, ratio_value=besseli_ratio(a, zf))
