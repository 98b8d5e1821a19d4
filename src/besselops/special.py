"""Modified Bessel functions of the first kind.

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

requires alpha > -1, so Gamma (``math.gamma``) is only ever taken at
alpha + 1 > 0, away from its poles.  The series has positive terms (no
cancellation), so it is used for moderate z; beyond the switch point the
Hankel large-z expansion of e^{-z} I_alpha(z) is summed to its optimally
small term.

``besseli_scaled`` also takes a sequence of orders and returns one row per
order, bit for bit the one-order values: a heat-kernel ladder p_t^{nu+m}
needs several orders on one z, so the checks, the series/asymptotic split,
the magnitude bins, log(z/2), (z/2)^2 and e^{-z} are computed once.

Each element of a call is independent of the batch it is in, so a call on
concatenated arguments is bit for bit the calls on the parts, and neither
the bin edges nor the batch's composition move a bit.  The series runs in
bins of z, each as long as its largest element needs: an element is done
once its term is <= 1e-17 of its total, below half an ulp of the total
(> 5.5e-17 of it), and its later terms are smaller still, so running on
leaves the total unchanged.  An asymptotic element freezes once its terms
stop shrinking, and while they shrink past 1e-17 of its sum they leave it
unchanged too.  Everything else (the domain check, the zero and overflow
entries, the first term, log(z/2)) is elementwise.  The heat kernels rely
on it twice: a grid axis evaluates each distinct node product once, and a
time loop evaluates a block of consecutive time nodes in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "besseli",
    "besseli_scaled",
    "besseli_ratio",
]

# Unscaled I overflows float64 around z ~ 709; refuse a little earlier.
_OVERFLOW_Z = 705.0

_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 500
_ASYMP_MAX_TERMS = 30

# Lower edges of the series bins; the last bin ends at the switch point.
# Most heat-kernel arguments lie below 1, so the bins there are fine.
_SERIES_EDGES = (0.0, 1e-3, 0.03, 0.3, 1.0, 5.0, 15.0)


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


def _series(alpha: float, term: np.ndarray, q: np.ndarray, probe: int) -> np.ndarray:
    """sum_k term_k from term_0 = ``term`` (overwritten) and
    term_{k+1} = term_k q / ((k+1)(alpha+k+1)), with q = (z/2)^2."""
    total = term.copy()
    for k in range(_SERIES_MAX_TERMS):
        term *= q
        term /= (k + 1.0) * (alpha + k + 1.0)
        total += term
        # The full check cannot pass while one element fails it, so the
        # element that converges last, the largest argument, is tested first.
        if (
            k & 1
            and term[probe] <= _SERIES_TOL * total[probe]
            and np.all(term <= _SERIES_TOL * total)
        ):
            break
    return total


def _asymptotic_scaled(alpha: float, z: np.ndarray) -> np.ndarray:
    """e^{-z} I_alpha(z) from the large-argument expansion, z well above 1.

    Sums 1/sqrt(2 pi z) * sum_k (-1)^k a_k(alpha) / z^k adaptively, stopping
    at the smallest term.  The e^{-2z} companion term is below 1e-26 for
    z >= 30 and is dropped.
    """
    mu = 4.0 * alpha * alpha
    s = np.ones_like(z)
    term = np.ones_like(z)
    mag = np.empty_like(z)
    prev_mag = np.full_like(z, np.inf)
    active = np.ones(z.shape, dtype=bool)
    # The full check cannot pass while one element fails it, so the
    # element that converges last, the smallest argument, is tested first.
    probe = int(np.argmin(z))
    for k in range(1, _ASYMP_MAX_TERMS + 1):
        factor = (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        term *= -factor
        term /= z
        np.abs(term, out=mag)
        # Freeze elements past their smallest term; add the rest.
        active &= mag < prev_mag
        np.add(s, term, out=s, where=active)
        mag, prev_mag = prev_mag, mag
        if active[probe] and prev_mag[probe] > _SERIES_TOL * abs(s[probe]):
            continue
        if not np.any(active & (prev_mag > _SERIES_TOL * np.abs(s))):
            break
    del term, mag, prev_mag, active
    root = 2.0 * math.pi * z
    np.sqrt(root, out=root)
    s /= root
    return s


def _log_half(z: np.ndarray) -> np.ndarray:
    """log(z/2) for z > 0; log(z) - log(2) below 2 * tiny, where 0.5 * z is
    inexact (5e-324 halves to 0)."""
    sub = z < 2.0 * np.finfo(float).tiny
    if sub.any():
        return np.log(np.where(sub, z, 0.5 * z)) - np.where(sub, math.log(2.0), 0.0)
    return np.log(0.5 * z)


def _first_term(alpha: float, log_half: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """The series' first term (z/2)^alpha / Gamma(alpha + 1), and where it
    overflows (an empty slice where nothing does).  ``bounds`` holds the
    least and the largest log(z/2); while alpha times each is <= 700,
    nothing overflows.  Past that (orders near -1 at subnormal z) the
    overflowed entries are zeroed in the term, so the series never meets
    inf * 0 = nan, and the caller writes inf."""
    if max(alpha * bounds[0], alpha * bounds[1]) <= 700.0:
        return np.exp(alpha * log_half) / math.gamma(alpha + 1.0), slice(0)
    with np.errstate(over="ignore"):
        term = np.exp(alpha * log_half) / math.gamma(alpha + 1.0)
        over = np.isinf(term)
        # (z/2)^alpha alone may overflow while the term does not.
        half = np.exp(0.5 * alpha * log_half[over])
        term[over] = half * (half / math.gamma(alpha + 1.0))
    over = np.isinf(term)
    term[over] = 0.0
    return term, over


def _scaled_rows(orders: list[float], z: np.ndarray) -> np.ndarray:
    """Row i is e^{-z} I_{orders[i]}(z) over the checked 1-D array z; orders
    with one switch point share the split, and all orders share the bins."""
    out = np.empty((len(orders), z.size))
    zero = np.flatnonzero(z == 0.0)
    for row, a in zip(out, orders):
        row[zero] = 1.0 if a == 0.0 else (0.0 if a > 0.0 else np.inf)
    groups: dict[float, list[int]] = {}
    for i, a in enumerate(orders):
        groups.setdefault(_switch_point(a), []).append(i)
    bins = [(lo, hi, range(len(orders))) for lo, hi in zip(_SERIES_EDGES, _SERIES_EDGES[1:])]
    bins += [(_SERIES_EDGES[-1], zs, rows) for zs, rows in groups.items()]
    # The per-argument temporaries of a bin set the call's peak memory, so a
    # bin drops each of them once it is done with it.
    for lo, hi, rows in bins:
        idx = np.flatnonzero((z > lo) & (z <= hi))
        if idx.size:
            zz = z[idx]
            log_half, q, scale = _log_half(zz), 0.25 * zz * zz, np.exp(-zz)
            probe = int(np.argmax(zz))
            del zz
            bounds = (np.min(log_half), np.max(log_half))
            for i in rows:
                term, over = _first_term(orders[i], log_half, bounds)
                total = _series(orders[i], term, q, probe)
                del term
                total *= scale
                total[over] = np.inf
                out[i, idx] = total
    for zs, rows in groups.items():
        idx = np.flatnonzero(z > zs)
        if idx.size:
            zz = z[idx]
            for i in rows:
                out[i, idx] = _asymptotic_scaled(orders[i], zz)
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
    out = np.exp(arr) * besseli_scaled(a, arr)
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
    limit = 1.0 / (2.0**a * math.gamma(a + 1.0))

    small = arr <= zs
    if np.any(small):
        zz = arr[small]
        # Series for z^{-alpha} I_alpha: k=0 term is the z->0 limit.
        out[small] = _series(a, np.full_like(zz, limit), 0.25 * zz * zz, int(np.argmax(zz)))
    if np.any(~small):
        zz = arr[~small]
        with np.errstate(over="ignore"):
            out[~small] = np.exp(zz - a * np.log(zz)) * _asymptotic_scaled(a, zz)
    return float(out[0]) if scalar else out.reshape(np.shape(z))
