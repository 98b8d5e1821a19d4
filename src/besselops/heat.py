"""Heat kernels of the Bessel operator family and their derivative calculus.

The 1-D kernel of the semigroup generated by

    L_nu = -d^2/dx^2 + (nu^2 - 1/4)/x^2        on (0, infinity)

is

    p_t^nu(x, y) = sqrt(xy)/(2t) * exp(-(x^2+y^2)/(4t)) * I_nu(xy/(2t)),

and the n-D kernel is the product over coordinates.  The kernel is always
assembled from the exponentially scaled Bessel form so the exponentials
combine into exp(-(x-y)^2/(4t)); the raw product in the display above
overflows for xy >> t and is never formed.

First-order derivative structure.  With delta_nu = d/dx - (nu+1/2)/x one has
the exact recursion

    delta_nu p_t^nu = -(x/2t) p_t^nu + (y/2t) p_t^{nu+1},

and iterating it (together with delta_nu^k[x f] = k delta^{k-1} f + x delta^k f
and delta_nu = delta_{nu+1} + 1/x) closes over finite sums

    delta_nu^l p_t^nu = sum_i  c_i x^{a_i} y^{b_i} t^{-d_i} p_t^{nu+m_i}

with rational c_i independent of nu.  ``delta_expansion`` builds that sum
symbolically (exact Fraction arithmetic); nested finite differences are used
only as test oracles.  Time derivatives and operator words in delta/delta^*
extend the same algebra and power the bound evaluators at the bottom of the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .special import besseli_scaled, gamma

__all__ = [
    "NuVector",
    "KernelPoint",
    "HeatKernelExpansion",
    "ExpansionTerm",
    "critical_function",
    "heat_kernel_1d",
    "heat_kernel_nd",
    "delta_expansion",
    "eval_delta_heat_1d",
    "delta_heat_kernel_nd",
    "delta_dt_heat_1d",
    "delta_dt_heat_nd",
    "delta_dt_heat_nd_arrays",
    "adjoint_power_heat_1d",
    "mixed_partial_delta",
    "partial_delta_coefficients",
    "bound_rhs",
]


@dataclass(frozen=True)
class NuVector:
    """Order vector of the operator family; every component exceeds -1/2."""

    nu: tuple[float, ...]

    def __post_init__(self):
        if len(self.nu) == 0:
            raise DomainError("order vector must have at least one component")
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        if any(not math.isfinite(v) or v <= -0.5 for v in self.nu):
            raise DomainError(f"every order must exceed -1/2, got {self.nu}")

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def nu_min(self) -> float:
        return min(self.nu)

    @property
    def gamma_nu(self) -> float:
        return self.nu_min + 0.5

    def shifted(self, by) -> "NuVector":
        """Componentwise shift by an int or a same-length tuple."""
        if np.isscalar(by):
            return NuVector(tuple(v + by for v in self.nu))
        return NuVector(tuple(v + s for v, s in zip(self.nu, by, strict=True)))


def as_nu_vector(nu) -> NuVector:
    if isinstance(nu, NuVector):
        return nu
    if np.isscalar(nu):
        return NuVector((float(nu),))
    return NuVector(tuple(nu))


@dataclass(frozen=True)
class KernelPoint:
    """A (time, source, target) triple with strictly positive entries."""

    t: float
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        object.__setattr__(self, "y", tuple(float(v) for v in np.atleast_1d(self.y)))
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise DomainError(f"time must be positive, got {self.t}")
        if len(self.x) != len(self.y):
            raise DomainError("x and y must have equal dimension")
        if any(v <= 0.0 for v in self.x + self.y):
            raise DomainError("all coordinates must be strictly positive")


def critical_function(x) -> float:
    """Critical radius function: one sixteenth of the smallest coordinate."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr <= 0.0):
        raise DomainError("critical_function needs strictly positive coordinates")
    return float(np.min(arr)) / 16.0


def _rho_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized critical radius over points stacked on the first axis."""
    return np.min(x, axis=0) / 16.0


# ---------------------------------------------------------------------------
# Kernel evaluation


def _check_positive(name, v):
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be strictly positive and finite")


def _p1d_shifts(nu: float, shifts, t, x, y) -> dict:
    """p_t^{nu+m} for each m in shifts, sharing the exponential prefactor.

    Entries whose Gaussian factor underflows are skipped outright; the
    polynomial coefficients downstream can never amplify them back above
    the underflow threshold.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xy = x * y
    z = xy / (2.0 * t)
    common = np.sqrt(xy) / (2.0 * t) * np.exp(-((x - y) ** 2) / (4.0 * t))
    if common.ndim > 0 and common.size > 512:
        live = common > 1e-280
        frac = float(np.count_nonzero(live)) / common.size
        if frac < 0.85:
            out = {}
            zz = z[live] if np.any(live) else z[:0]
            for m in shifts:
                vals = np.zeros_like(common)
                if zz.size:
                    vals[live] = common[live] * besseli_scaled(nu + m, zz)
                out[m] = vals
            return out
    return {m: common * besseli_scaled(nu + m, z) for m in shifts}


def _p1d(nu: float, t, x, y):
    """Overflow-safe 1-D kernel; all arguments broadcastable arrays."""
    return _p1d_shifts(nu, (0,), t, x, y)[0]


def heat_kernel_1d(nu: float, t: float, x, y):
    """1-D heat kernel p_t^nu(x, y); nu may dip to (-1, -1/2] for recursion use."""
    nu = float(nu)
    if not (nu > -1.0):
        raise DomainError(f"kernel order must exceed -1, got {nu}")
    _check_positive("t", t)
    _check_positive("x", x)
    _check_positive("y", y)
    out = _p1d(nu, t, x, y)
    return float(out) if np.isscalar(x) and np.isscalar(y) and np.isscalar(t) else out


def heat_kernel_nd(nu, q: KernelPoint) -> float:
    """Product kernel over coordinates at one space-time point."""
    nu = as_nu_vector(nu)
    if len(q.x) != nu.n:
        raise DomainError("point dimension does not match order vector")
    out = 1.0
    for j in range(nu.n):
        out *= heat_kernel_1d(nu.nu[j], q.t, q.x[j], q.y[j])
    return out


# ---------------------------------------------------------------------------
# Symbolic expansions: terms c * x^a * y^b * t^{-d} * p_t^{nu+m}


@dataclass(frozen=True)
class ExpansionTerm:
    coeff: Fraction
    xpow: int
    ypow: int
    tneg: int
    shift: int


@dataclass(frozen=True)
class HeatKernelExpansion:
    """A finite sum Sigma c_i x^{a_i} y^{b_i} t^{-d_i} p_t^{nu+m_i}."""

    terms: tuple[ExpansionTerm, ...]

    @property
    def max_shift(self) -> int:
        return max((t.shift for t in self.terms), default=0)

    def evaluate(self, nu: float, t, x, y):
        """Numeric value at (t, x, y); arguments broadcastable arrays."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shifts = sorted({term.shift for term in self.terms})
        kernels = _p1d_shifts(nu, shifts, t, x, y)
        total = 0.0
        for term in self.terms:
            mono = float(term.coeff) * x**term.xpow * y**term.ypow * t ** (-term.tneg)
            total = total + mono * kernels[term.shift]
        return total


def _merge(raw: dict[tuple[int, int, int, int], Fraction]) -> tuple[ExpansionTerm, ...]:
    terms = [
        ExpansionTerm(c, a, b, d, m)
        for (a, b, d, m), c in sorted(raw.items())
        if c != 0
    ]
    return tuple(terms)


def _apply_delta_terms(raw):
    """One application of delta_nu to a term dict (nu-independent)."""
    out: dict[tuple[int, int, int, int], Fraction] = {}

    def add(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for (a, b, d, m), c in raw.items():
        # d/dx of the monomial plus the m/x order-mismatch correction.
        if a + m != 0:
            add((a - 1, b, d, m), c * (a + m))
        # -(x/2t) p^{nu+m}
        add((a + 1, b, d + 1, m), -c / 2)
        # +(y/2t) p^{nu+m+1}
        add((a, b + 1, d + 1, m + 1), c / 2)
    return out


def _apply_dt_terms(raw, nu: Fraction):
    """One application of d/dt; coefficients pick up the base order."""
    out: dict[tuple[int, int, int, int], Fraction] = {}

    def add(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for (a, b, d, m), c in raw.items():
        if d != 0:
            add((a, b, d + 1, m), -c * d)
        add((a, b, d + 1, m), -c * (1 + nu + m))
        add((a + 2, b, d + 2, m), c / 4)
        add((a, b + 2, d + 2, m), c / 4)
        add((a + 1, b + 1, d + 2, m + 1), -c / 2)
    return out


@lru_cache(maxsize=None)
def _delta_terms_cached(ell: int) -> tuple[ExpansionTerm, ...]:
    raw = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(ell):
        raw = _apply_delta_terms(raw)
    return _merge(raw)


def delta_expansion(nu: float, ell: int) -> HeatKernelExpansion:
    """Exact expansion of delta_nu^ell p_t^nu as shifted-kernel combinations.

    The coefficients come out independent of nu; the argument is validated
    (the recursion needs nu > -1) and otherwise only fixes the base order at
    evaluation time.
    """
    if not float(nu) > -1.0:
        raise DomainError(f"base order must exceed -1, got {nu}")
    if ell < 0:
        raise DomainError("derivative order must be >= 0")
    terms = _delta_terms_cached(int(ell))
    assert len(terms) <= 2**ell * (ell + 1)
    return HeatKernelExpansion(terms)


@lru_cache(maxsize=None)
def _delta_dt_terms_cached(nu_frac: Fraction, k: int, big_m: int):
    raw = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(k):
        raw = _apply_delta_terms(raw)
    sign = Fraction(-1) ** big_m
    for _ in range(big_m):
        raw = _apply_dt_terms(raw, nu_frac)
    raw = {key: sign * c for key, c in raw.items()}
    return _merge(raw)


def delta_dt_heat_1d(nu: float, k: int, big_m: int, t, x, y):
    """delta_nu^k (L_nu)^M p_t^nu via the heat equation L p = -dp/dt."""
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"base order must exceed -1, got {nu}")
    terms = _delta_dt_terms_cached(Fraction(nu), int(k), int(big_m))
    return HeatKernelExpansion(terms).evaluate(nu, t, x, y)


def eval_delta_heat_1d(nu: float, ell: int, t, x, y):
    """Numeric delta_nu^ell p_t^nu(x, y); broadcastable arguments."""
    return delta_expansion(nu, ell).evaluate(float(nu), t, x, y)


def delta_heat_kernel_nd(nu, k, q: KernelPoint) -> float:
    """Mixed delta-derivative of the product kernel, one order per axis."""
    nu = as_nu_vector(nu)
    k = tuple(int(v) for v in np.atleast_1d(k))
    if len(k) != nu.n or any(v < 0 for v in k):
        raise DomainError("multi-index must be componentwise >= 0 and match n")
    out = 1.0
    for j in range(nu.n):
        out *= float(eval_delta_heat_1d(nu.nu[j], k[j], q.t, q.x[j], q.y[j]))
    return out


# ---------------------------------------------------------------------------
# Operator words: sums  A x^{-j} delta_base^m  applied to p_t^{base}.
#
# Writing every first-order operator relative to a fixed base order turns
# composition into bookkeeping on (j, m) pairs:
#   d/dx        (a u) = [a' + ((base+1/2)/x) a] u + a delta_base u
#   delta_w     (a u) = [a' + ((base-w)/x)  a] u + a delta_base u
#   delta_w^*   (a u) = [-a' - ((w+base+1)/x) a] u - a delta_base u
# with a(x) = A x^{-j}, a' = -j A x^{-j-1}.

_OpPoly = dict[tuple[int, int], Fraction]


def _op_identity() -> _OpPoly:
    return {(0, 0): Fraction(1)}


def _op_apply(poly: _OpPoly, shiftful: Fraction) -> _OpPoly:
    """Apply [d/dx or delta_w] written as  a u -> [a' + (shiftful/x) a] u + a delta_base u."""
    out: _OpPoly = {}

    def add(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for (j, m), coef in poly.items():
        a_term = coef * (Fraction(-j) + shiftful)
        if a_term != 0:
            add((j + 1, m), a_term)
        add((j, m + 1), coef)
    return out


def _op_apply_partial(poly: _OpPoly, base: Fraction) -> _OpPoly:
    return _op_apply(poly, base + Fraction(1, 2))


def _op_apply_delta(poly: _OpPoly, base: Fraction, w: Fraction) -> _OpPoly:
    return _op_apply(poly, base - w)


def _op_apply_delta_star(poly: _OpPoly, base: Fraction, w: Fraction) -> _OpPoly:
    # delta_w^*(a u) = [-a' - ((w+base+1)/x) a] u - a delta u
    #               = -( [a' + ((w+base+1)/x) a] u + a delta u )
    out: _OpPoly = {}

    def add(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for (j, m), coef in poly.items():
        a_term = coef * (Fraction(-j) + (w + base + 1))
        if a_term != 0:
            add((j + 1, m), -a_term)
        add((j, m + 1), -coef)
    return out


def _op_evaluate(poly: _OpPoly, base: float, t, x, y):
    x = np.asarray(x, dtype=float)
    total = 0.0
    for (j, m), coef in sorted(poly.items()):
        total = total + float(coef) * x ** (-j) * eval_delta_heat_1d(base, m, t, x, y)
    return total


@lru_cache(maxsize=None)
def _partial_delta_poly(nu_frac: Fraction, k: int, ell: int):
    poly = _op_identity()
    for _ in range(ell):
        poly = _op_apply_delta(poly, nu_frac, nu_frac)
    for _ in range(k):
        poly = _op_apply_partial(poly, nu_frac)
    return tuple(sorted(poly.items()))


def partial_delta_coefficients(nu: float, k: int) -> dict[int, float]:
    """Coefficients c_j with d^k/dx^k = sum_j c_j x^{-j} delta_nu^{k-j}.

    Derived recursively from the product rule; validated against finite
    differences in the tests rather than any printed table.
    """
    poly = dict(_partial_delta_poly(Fraction(float(nu)), int(k), 0))
    return {j: float(c) for (j, m), c in sorted(poly.items())}


def mixed_partial_delta(nu: float, k: int, ell: int, t, x, y):
    """d^k/dx^k delta_nu^ell p_t^nu(x, y), evaluated exactly."""
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"base order must exceed -1, got {nu}")
    if k < 0 or ell < 0:
        raise DomainError("derivative orders must be >= 0")
    poly = dict(_partial_delta_poly(Fraction(nu), int(k), int(ell)))
    return _op_evaluate(poly, nu, t, x, y)


@lru_cache(maxsize=None)
def _adjoint_power_poly(nu_frac: Fraction, k: int, big_m: int, shift: Fraction):
    """Word (L_nu)^M (delta_nu^*)^k in powers of delta_{nu+shift}."""
    base = nu_frac + shift
    poly = _op_identity()
    for _ in range(k):
        poly = _op_apply_delta_star(poly, base, nu_frac)
    for _ in range(big_m):
        poly = _op_apply_delta(poly, base, nu_frac)
        poly = _op_apply_delta_star(poly, base, nu_frac)
    return tuple(sorted(poly.items()))


def adjoint_power_heat_1d(nu: float, k: int, big_m: int, t, x, y):
    """(L_nu)^M (delta_nu^*)^k p_t^{nu+k+2M}(x, y)."""
    nu = float(nu)
    shift = Fraction(int(k) + 2 * int(big_m))
    poly = dict(_adjoint_power_poly(Fraction(nu), int(k), int(big_m), shift))
    return _op_evaluate(poly, nu + float(shift), t, x, y)


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def delta_dt_heat_nd_arrays(nu, k, big_m: int, t, x, y):
    """Vectorized delta_nu^k (Delta_nu)^M kernel; x, y stacked on axis 0.

    Delta_nu is the sum of the coordinate operators, so its M-th power
    expands multinomially over coordinates.
    """
    nu = as_nu_vector(nu)
    k = tuple(int(v) for v in np.atleast_1d(k))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    total = 0.0
    for comp in _compositions(int(big_m), nu.n):
        weight = math.factorial(big_m)
        for mj in comp:
            weight //= math.factorial(mj)
        prod = float(weight)
        for j in range(nu.n):
            prod = prod * delta_dt_heat_1d(nu.nu[j], k[j], comp[j], t, x[j], y[j])
        total = total + prod
    return total


def delta_dt_heat_nd(nu, k, big_m: int, q: KernelPoint) -> float:
    """delta_nu^k (Delta_nu)^M applied to the product kernel at one point."""
    x = np.asarray(q.x, dtype=float)[:, None]
    y = np.asarray(q.y, dtype=float)[:, None]
    return float(delta_dt_heat_nd_arrays(nu, k, big_m, np.asarray([q.t]), x, y)[0])


# ---------------------------------------------------------------------------
# Right-hand sides of the Gaussian-type bounds (explicit constant 1; the
# multiplicative constant is estimated by the harness, never baked in).

def _weight_1d(nu: float, t, x):
    return (1.0 + np.sqrt(t) / x) ** (-(nu + 0.5))


def _bound_rhs_arrays(kind: str, nu: NuVector, k, ell, t, x, y, c: float):
    """Vectorized bound right-hand sides; x, y stacked on the first axis.

    ``kind`` is the id of a pointwise kernel estimate: thm2_1, thm2_4,
    thm2_5, cor2_6a, cor2_6b, prop2_7, prop2_9, prop2_10 or cor2_11.
    """
    t = np.asarray(t, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d2 = np.sum((x - y) ** 2, axis=0)
    gauss = np.exp(-d2 / (c * t))
    if kind == "thm2_1":
        return (
            t**-0.5 * gauss * _weight_1d(nu.nu[0], t, x[0]) * _weight_1d(nu.nu[0], t, y[0])
        )
    if kind == "thm2_4":
        ell = int(ell)
        return (
            t ** (-(ell + 1) / 2.0)
            * gauss
            * _weight_1d(nu.nu[0], t, x[0])
            * _weight_1d(nu.nu[0], t, y[0])
        )
    if kind == "thm2_5":
        k = int(k)
        ell = int(ell)
        return (
            (t ** (-k / 2.0) + x[0] ** (-float(k)))
            * t ** (-(ell + 1) / 2.0)
            * gauss
            * _weight_1d(nu.nu[0], t, x[0])
            * _weight_1d(nu.nu[0], t, y[0])
        )
    if kind in ("cor2_6a", "cor2_6b"):
        # Shared by both displayed estimates; ell carries the power M.
        k = int(k)
        big_m = int(ell)
        return t ** (-(k + 2 * big_m + 1) / 2.0) * gauss
    if kind == "prop2_7":
        ell = int(ell)
        return t ** (-ell / 2.0) / x[0] * gauss
    if kind == "prop2_9":
        ll = np.atleast_1d(ell).astype(int)
        n = nu.n
        w = (1.0 + np.sqrt(t) / _rho_arr(x) + np.sqrt(t) / _rho_arr(y)) ** (
            -nu.gamma_nu
        )
        return t ** (-(n + int(np.sum(ll))) / 2.0) * gauss * w
    if kind == "prop2_10":
        kk = np.atleast_1d(k).astype(int)
        ll = np.atleast_1d(ell).astype(int)
        n = nu.n
        w = (1.0 + np.sqrt(t) / _rho_arr(x) + np.sqrt(t) / _rho_arr(y)) ** (
            -nu.gamma_nu
        )
        lead = t ** (-float(np.sum(kk)) / 2.0) + _rho_arr(x) ** (-float(np.sum(kk)))
        return lead * t ** (-(n + int(np.sum(ll))) / 2.0) * gauss * w
    if kind == "cor2_11":
        kk = np.atleast_1d(k).astype(int)
        big_m = int(ell)
        n = nu.n
        return t ** (-(int(np.sum(kk)) + 2 * big_m + n) / 2.0) * gauss
    raise DomainError(f"unknown bound kind {kind!r}; expected a pointwise inequality id")


def bound_rhs(kind: str, nu, k, ell, q: KernelPoint, c: float) -> float:
    """Right-hand side of the selected kernel estimate, with constant 1.

    ``kind`` is a pointwise inequality id (see ``_bound_rhs_arrays``) and
    ``c`` the candidate exponential rate.  For the cor2_6a, cor2_6b and
    cor2_11 kinds the ``ell`` slot carries the operator power M.
    """
    nu = as_nu_vector(nu)
    if not (c > 0.0):
        raise DomainError("rate constant c must be positive")
    x = np.asarray(q.x, dtype=float)[:, None]
    y = np.asarray(q.y, dtype=float)[:, None]
    out = _bound_rhs_arrays(kind, nu, k, ell, np.asarray([q.t]), x, y, float(c))
    return float(out[0])
