"""The scaled modified Bessel function of the first kind, e^{-z} I_alpha(z).

Everything here is a pure function of its arguments.  Every object of the
package is built from the heat kernel

    p_t^nu(x, y) = sqrt(xy)/(2t) e^{-(x^2+y^2)/4t} I_nu(xy/2t),

so the one entry point, ``besseli_scaled(alpha, z)``, gives the scaled form
e^{-z} I_alpha(z), finite for all representable z.  It takes scalars or
numpy arrays of finite z >= 0.  Orders below -1 are rejected: the power
series (DLMF 10.25.2)

    I_alpha(z) = sum_k (z/2)^{alpha+2k} / (k! Gamma(alpha+k+1))

requires alpha > -1, so Gamma (``math.gamma``) is only ever taken at
alpha + 1 > 0, away from its poles; above order 170.6, where it overflows,
the first term is formed from ``math.lgamma``.  The series terms are
positive (no cancellation), so it serves up to the order's switch point;
the Hankel large-z expansion of e^{-z} I_alpha(z) (DLMF 10.40.1) serves
past it.  Orders are refused where its terms cannot reach 1e-17 (past 600,
above 49).

Each order and bin of z has one fixed polynomial, evaluated by Horner's
rule: the series over its first term in (z/2)^2, its degree set at the
bin's upper edge, and the Hankel sum in 1/z, its degree set at the lower
edge.  As the degrees depend on the order and the bin alone, each element
of a call is independent of its batch: a call on concatenated arguments is
bit for bit the calls on the parts.  The heat kernels rely on it twice: a
grid axis evaluates each class of its node products once, at the class's
representative (``grids.Axis.pairs``), and a time loop evaluates a block
of consecutive time nodes in one call.  ``besseli_scaled`` also takes a
sequence of orders, as a heat-kernel ladder p_t^{nu+m} needs, and does the
work of a bin that does not depend on the order once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import DomainError

__all__ = ["besseli_scaled"]

_TOL = 1e-17

# Lower edges of the series bins; the last bin ends at the switch point.
# Most heat-kernel arguments lie below 1, so the bins there are fine.
_SERIES_EDGES = (0.0, 1e-3, 0.03, 0.3, 1.0, 5.0, 15.0)
# Lower edges of the asymptotic bins above the switch point; the first bin
# starts at the switch point and the last has no upper edge.
_ASYMP_EDGES = (30.0, 60.0, 150.0, 1e3, 1e4)


def _order(alpha) -> float:
    a = float(alpha)
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


def _binned(orders: list[float], z: np.ndarray):
    """(lo, hi, is_series, rows, idx) for each bin (lo, hi] of the orders
    that holds arguments: ``rows`` are the orders with that bin, ``idx`` the
    positions of its arguments in z."""
    bins: dict[tuple[float, float, bool], list[int]] = {}
    for i, a in enumerate(orders):
        zs = _switch_point(a)
        asymp = (zs, *(e for e in _ASYMP_EDGES if e > zs), math.inf)
        for edges, is_series in (((*_SERIES_EDGES, zs), True), (asymp, False)):
            for lo, hi in zip(edges, edges[1:]):
                bins.setdefault((lo, hi, is_series), []).append(i)
    for (lo, hi, is_series), rows in bins.items():
        idx = np.flatnonzero((z > lo) & (z <= hi))
        if idx.size:
            yield lo, hi, is_series, rows, idx


def _series_unit(hi: float) -> float:
    """2^-e / 4 with 2^e <= (hi/2)^2 < 2^(e+1): the series variable of the
    bin ending at ``hi``, u = z^2 2^-e / 4 exactly, stays below 2 across the
    bin, so its coefficients neither overflow nor underflow."""
    return math.ldexp(0.25, 1 - math.frexp(0.25 * hi * hi)[1])


@lru_cache(maxsize=1024)
def _series_coeffs(alpha: float, hi: float) -> tuple[float, ...]:
    """d_k with sum_k d_k u^k = sum_k q^k Gamma(alpha+1) / (k! Gamma(alpha+k+1))
    over its first term, q = (z/2)^2 = u 2^e.

    The terms grow relative to the sum with q, so the degree is set at the
    upper edge: the last kept term is there <= 1e-17 of the sum, below half
    an ulp of it, and smaller still below the edge.  The coefficients come
    from the term ratio, never from a power of q, which overflows."""
    q, unit = 0.25 * hi * hi, 4.0 * _series_unit(hi)
    coeffs, term, total = [1.0], 1.0, 1.0
    for k in count():
        ratio = (k + 1.0) * (alpha + k + 1.0)
        coeffs.append(coeffs[-1] / (unit * ratio))
        term = term * q / ratio
        total += term
        if term <= _TOL * total:
            return tuple(coeffs)


@lru_cache(maxsize=1024)
def _hankel_coeffs(alpha: float, lo: float) -> tuple[float, ...]:
    """b_k with sqrt(2 pi z) e^{-z} I_alpha(z) ~ sum_k b_k z^{-k} for z >
    ``lo``; the e^{-2z} companion, below 5e-18 for z >= 20, is dropped.

    The terms shrink relative to the sum as z grows, so the degree is set at
    the lower edge: up to the first term there <= 1e-17 of the sum.  The
    order is refused if the terms from b_1 on stop shrinking before that."""
    mu = 4.0 * alpha * alpha
    coeffs, term, total = [1.0], 1.0, 1.0
    for k in count(1):
        factor = -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        if k > 1 and abs(factor) >= lo:  # the terms stop shrinking at lo
            raise DomainError(f"Bessel order {alpha} is too large for z > {lo}")
        coeffs.append(coeffs[-1] * factor)
        term = term * factor / lo
        total += term
        if abs(term) <= _TOL * abs(total):
            return tuple(coeffs)


def _hankel_root(z: np.ndarray, hi: float) -> np.ndarray:
    """sqrt(2 pi z); in the last bin sqrt(2 pi) sqrt(z) where 2 pi z
    overflows (z > 2.86e307), so every smaller z keeps its rounding."""
    if hi < math.inf:
        return np.sqrt(2.0 * math.pi * z)
    with np.errstate(over="ignore"):
        root = np.sqrt(2.0 * math.pi * z)
    return np.where(np.isinf(root), math.sqrt(2.0 * math.pi) * np.sqrt(z), root)


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k, with at least two coefficients."""
    out = x * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _log_half(z: np.ndarray) -> np.ndarray:
    """log(z/2) for z > 0; log(z) - log(2) below 2 * tiny, where 0.5 * z is
    inexact (5e-324 halves to 0)."""
    sub = z < 2.0 * np.finfo(float).tiny
    if sub.any():
        return np.log(np.where(sub, z, 0.5 * z)) - np.where(sub, math.log(2.0), 0.0)
    return np.log(0.5 * z)


def _first_term(alpha: float, log_half: np.ndarray, bounds) -> np.ndarray:
    """The series' first term (z/2)^alpha / Gamma(alpha + 1), inf where it
    overflows (orders near -1 at subnormal z, where u = 0: the polynomial is
    1, so the value is inf, never nan).  ``bounds`` holds the least and the
    largest log(z/2); while alpha times each is <= 700, nothing overflows.
    Above order 170.6, where Gamma(alpha + 1) overflows, it is formed as
    exp(alpha log(z/2) - lgamma(alpha + 1)), below e^300 up to z = 600."""
    try:
        gamma = math.gamma(alpha + 1.0)
    except OverflowError:
        return np.exp(alpha * log_half - math.lgamma(alpha + 1.0))
    if max(alpha * bounds[0], alpha * bounds[1]) <= 700.0:
        return np.exp(alpha * log_half) / gamma
    with np.errstate(over="ignore"):
        term = np.exp(alpha * log_half) / gamma
        over = np.isinf(term)
        # (z/2)^alpha alone may overflow while the term does not.
        half = np.exp(0.5 * alpha * log_half[over])
        term[over] = half * (half / gamma)
    return term


def _scaled_rows(orders: list[float], z: np.ndarray) -> np.ndarray:
    """Row i is e^{-z} I_{orders[i]}(z) over the checked 1-D array z; the
    orders that share a bin share its per-argument work."""
    out = np.empty((len(orders), z.size))
    zero = np.flatnonzero(z == 0.0)
    for row, a in zip(out, orders):
        row[zero] = 1.0 if a == 0.0 else (0.0 if a > 0.0 else np.inf)
    # The per-argument temporaries of a bin set the call's peak memory, so a
    # bin drops each of them once it is done with it.
    for lo, hi, is_series, rows, idx in _binned(orders, z):
        zz = z[idx]
        if not is_series:
            w, root = 1.0 / zz, _hankel_root(zz, hi)
            for i in rows:
                out[i, idx] = _horner(_hankel_coeffs(orders[i], lo), w) / root
            continue
        log_half, u, scale = _log_half(zz), zz * zz * _series_unit(hi), np.exp(-zz)
        del zz
        bounds = (np.min(log_half), np.max(log_half))
        for i in rows:
            total = _horner(_series_coeffs(orders[i], hi), u)
            total *= _first_term(orders[i], log_half, bounds)
            total *= scale
            out[i, idx] = total
    return out


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def besseli_scaled(alpha, z):
    """e^{-z} I_alpha(z), finite for every representable z >= 0 except where
    I_alpha itself overflows, at orders near -1 and subnormal z: inf there.

    ``alpha`` may be a sequence of orders; the result then has one row per
    order, ``out[i]`` bit for bit equal to ``besseli_scaled(alpha[i], z)``,
    and the work that does not depend on the order is done once.
    """
    multi = np.ndim(alpha) > 0
    orders = [_order(a) for a in alpha] if multi else [_order(alpha)]
    arr, scalar = _as_array(z)
    _check_nonneg(arr)
    rows = _scaled_rows(orders, arr.ravel())
    if multi:
        return rows.reshape((len(orders),) + np.shape(z))
    return float(rows[0, 0]) if scalar else rows[0].reshape(np.shape(z))
