"""Heat kernels of the Bessel operator family and their derivative calculus.

The 1-D kernel of the semigroup generated by

    L_nu = -d^2/dx^2 + (nu^2 - 1/4)/x^2        on (0, infinity)

is

    p_t^nu(x, y) = sqrt(xy)/(2t) * exp(-(x^2+y^2)/(4t)) * I_nu(xy/(2t)),

and the n-D kernel is the product over coordinates.  The kernel is always
assembled from the exponentially scaled Bessel form so the exponentials
combine into exp(-(x-y)^2/(4t)); the raw product in the display above
overflows for xy >> t and is never formed.

Operator words.  Every word in d/dx, delta_w = d/dx - (w+1/2)/x, its adjoint
delta_w^* = -d/dx - (w+1/2)/x and L, applied to p_t^beta, compiles to one
normal form with exact rational (Fraction) coefficients:

    sum_i  c_i x^{a_i} y^{b_i} t^{-d_i} p_t^{beta+m_i}.

Each operator in x is one letter (s, e) = s*(delta_beta + e/x):

    delta_w: (+1, beta - w)    d/dx: (+1, beta + 1/2)    delta_w^*: (-1, w + beta + 1)

and moves through a term by the exact recursion

    delta_beta p_t^{beta+m} = (m/x - x/2t) p_t^{beta+m} + (y/2t) p_t^{beta+m+1}.

The letter L = -d/dt commutes with the x letters and, by the heat equation,
is L_beta on p_t^beta itself.

One evaluator: ``_combine`` sums a word's monomials (``_monomials``) over
a ladder {m: p_t^{beta+m}}, symmetric in (x, y) bit for bit, so words and
argument orders can share it; ``step = 1`` reads p_t^{(beta+1)+m} =
p_t^{beta+(m+1)}.  A time loop draws its ladders from one stream per
axis (``_ladders``), which evaluates the Bessel functions of consecutive
time nodes in one call per block of at least ``_BESSEL_BLOCK`` arguments;
a one-time evaluation (``_p1d_shifts``) draws a stream of one node.  A
word summed at many times (``_pair_word``, for ``riesz``) keeps its
monomials, and ``_word_products`` yields its product over the axes at
each time node.  One dead-entry rule serves every ladder: an entry is +0
where its Gaussian factor exp(-(x-y)^2/4t) underflows to 0.0, and as
computed elsewhere.  A sampled batch evaluates every entry; on a grid axis
the ladders cover only the prefix of the distance-sorted node pairs on
which the Gaussian factor is not exactly 0, evaluate the Bessel functions
once per product class of that prefix (node products equal to within 2^-44
relative), and the monomials are summed on that prefix.
Finite differences are test oracles.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError
from .special import besseli_scaled

__all__ = [
    "NuVector",
    "KernelPoint",
    "HeatKernelExpansion",
    "ExpansionTerm",
    "critical_function",
    "heat_kernel_1d",
    "delta_expansion",
    "eval_delta_heat_1d",
    "delta_heat_difference_1d",
    "delta_heat_kernel_nd",
    "delta_dt_heat_1d",
    "delta_dt_heat_nd_arrays",
    "adjoint_power_heat_1d",
    "mixed_partial_delta",
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
        _check_positive("time", self.t)
        if len(self.x) != len(self.y):
            raise DomainError("x and y must have equal dimension")
        _check_positive("coordinates", self.x, self.y)


def critical_function(x) -> float:
    """Critical radius function: one sixteenth of the smallest coordinate
    (``_rho_arr`` of the one point)."""
    _check_positive("coordinates", x)
    return float(_rho_arr(np.atleast_1d(x)))


def _rho_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized critical radius over points stacked on the first axis:
    one sixteenth of each point's smallest coordinate."""
    return np.min(x, axis=0) / 16.0


# ---------------------------------------------------------------------------
# Kernel evaluation


def _check_positive(name, *values):
    for v in values:
        arr = np.asarray(v, dtype=float)
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be strictly positive and finite")


# exp(-u) is exactly 0.0 in float64 for u above about 745.13.
_EXP_ZERO = 746.0

# A ladder stream evaluates its Bessel functions in one call per block of
# consecutive time nodes holding at least this many arguments.  Below it the
# evaluator's fixed work per call (a mask and a gather per bin of z, and
# each bin's table lookups) outweighs its arithmetic; above it the
# per-argument temporaries, about 100 bytes each, only raise the peak memory.
_BESSEL_BLOCK = 2**14


def _ladders(nu: float, shifts, times, xy, d2, unique=None):
    """Yields {m: p_t^{nu+m}} for each t in ``times``, from the pair geometry
    xy = x*y and d2 = (x-y)**2, each ladder sharing its exponential prefactor.

    The Bessel arguments z = xy/2t of consecutive time nodes are collected
    until they number at least ``_BESSEL_BLOCK`` (or the nodes run out), and
    all orders nu + m of the block come from one ``besseli_scaled`` call on
    them; a block of one node is evaluated on its own arguments, with no
    copy.  Each element of that call is independent of the batch it is in
    (``special``), so a ladder is bit for bit the one its node would get
    alone.  A node is finished when it is yielded: its rows are gathered
    and scaled by the prefactor in place.  Both inputs are symmetric in
    (x, y) bit for bit, so one ladder serves both argument orders.

    ``unique = (distinct, inverse)`` are the product classes of a grid axis
    (``grids.Axis.pairs``, with d2 ascending and the classes numbered by
    first use): xy is within 2^-44 relative of distinct[inverse], and the
    Bessel functions run on the representatives ``distinct`` while the
    prefactor takes each pair's own xy.  Past the prefix cut =
    searchsorted(d2, 746 * 4t) the Gaussian factor is exactly 0.0, so the
    prefactor is formed, and the rows are gathered and scaled, on the first
    cut pairs only; a caller reads the entries past them as +0, which is
    what the full rows hold there.  Those pairs use the first u classes, u
    counted from the first pair of each class, and the Bessel functions run
    once on each of them, so a pending node keeps only its u arguments.
    sqrt(xy) and those first pairs are formed once per stream.  On the
    sampled batches (``unique`` None, t a scalar or an array that
    broadcasts with xy) every entry is evaluated, so each is bit for bit
    its one-pair value whatever batch it is in; as on a grid, an entry is
    +0 where its Gaussian factor underflows to exactly 0.0.
    """
    orders = [nu + m for m in shifts]
    if unique is None:
        node = partial(_sampled_node, xy=xy, d2=d2)
    else:
        node = _grid_nodes(xy, d2, *unique)
    args, finishes, size = [], [], 0
    for t in times:
        z, finish = node(t)
        args.append(z)
        finishes.append(finish)
        size += z.size
        if size >= _BESSEL_BLOCK:
            yield from _finish_block(orders, shifts, args, finishes)
            args, finishes, size = [], [], 0
    if args:
        del node, xy, d2  # batch-sized temporaries of the pointwise callers
        yield from _finish_block(orders, shifts, args, finishes)


def _finish_block(orders, shifts, args, finishes):
    """One ``besseli_scaled`` call on the pending nodes' arguments ``args``,
    which it empties, then each node's ladder from its slice of the rows."""
    if len(args) == 1:
        yield dict(zip(shifts, finishes[0](besseli_scaled(orders, args.pop()))))
        return
    shapes = [z.shape for z in args]
    z = np.concatenate([z.ravel() for z in args])
    args.clear()  # copied into z: the call holds each argument once
    rows = besseli_scaled(orders, z)
    del z
    start = 0
    for shape, finish in zip(shapes, finishes):
        stop = start + math.prod(shape)
        # A copy: a ladder the caller keeps must not keep the block's rows.
        part = rows[:, start:stop].reshape((len(orders),) + shape).copy()
        start = stop
        yield dict(zip(shifts, finish(part)))


def _grid_nodes(xy, d2, distinct, inverse):
    """``node(t)`` = (z, finish) of a grid ladder at time t; ``finish(rows)``
    takes the Bessel rows on z and returns the ladder's rows on the live
    prefix.  The per-pair geometry the nodes share is formed here, once."""
    root = np.sqrt(xy)
    # The position of each class's first pair (classes are numbered by
    # first use): the pairs before cut use the classes whose first pair is
    # before it.  Kept in place of the running maximum of ``inverse``, which
    # would hold 4 bytes per pair for the life of the stream.
    firsts = np.searchsorted(np.maximum.accumulate(inverse), np.arange(distinct.size))

    def node(t):
        cut = int(np.searchsorted(d2, _EXP_ZERO * 4.0 * t))
        z = distinct[: int(np.searchsorted(firsts, cut))] / (2.0 * t)

        def finish(rows):
            common = root[:cut] / (2.0 * t)
            common *= np.exp(d2[:cut] / (-4.0 * t))
            out = np.take(rows, inverse[:cut], axis=1)
            out *= common
            return out

        return z, finish

    return node


def _sampled_node(t, xy, d2):
    """(z, finish) of a ladder on a batch of pairs at time t (see
    ``_grid_nodes``), every entry evaluated."""
    common = np.sqrt(xy) / (2.0 * t) * np.exp(-d2 / (4.0 * t))
    z = xy / (2.0 * t)

    def scale(rows):
        rows *= common
        return rows

    return z, scale


def _p1d_shifts(nu: float, shifts, t, x, y) -> dict:
    """p_t^{nu+m}(x, y) for each m in shifts: the ladder stream
    (``_ladders``) of the one time t; all arguments broadcastable arrays."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return next(_ladders(nu, shifts, (t,), x * y, (x - y) ** 2))


def heat_kernel_1d(nu: float, t: float, x, y):
    """1-D heat kernel p_t^nu(x, y); nu may dip to (-1, -1/2] for recursion use."""
    nu = float(nu)
    if not (nu > -1.0):
        raise DomainError(f"kernel order must exceed -1, got {nu}")
    _check_positive("t", t)
    _check_positive("coordinates", x, y)
    out = _p1d_shifts(nu, (0,), t, x, y)[0]
    return float(out) if np.isscalar(x) and np.isscalar(y) and np.isscalar(t) else out


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
    def shifts(self) -> list[int]:
        """The distinct shifts m of the terms, ascending."""
        return sorted({term.shift for term in self.terms})

    def evaluate(self, nu: float, t, x, y):
        """Numeric value at (t, x, y); arguments broadcastable arrays."""
        monomials = _monomials(self.terms, x, y)
        t = np.asarray(t, dtype=float)
        return _combine(monomials, t, _p1d_shifts(nu, self.shifts, t, x, y))


def _monomials(terms, x, y, both: bool = False):
    """(d, m, monos) for each term c x^a y^b t^{-d} p_t^{nu+m}, monos = (c x^a) y^b
    on the pairs (x, y) and, when ``both``, a second row on (y, x).  Each is
    formed when it is reached.  Refuses coordinates off (0, inf)."""
    _check_positive("coordinates", x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    orders = ((x, y), (y, x)) if both else ((x, y),)

    def monos(e: ExpansionTerm):
        rows = [float(e.coeff) * a**e.xpow * b**e.ypow for a, b in orders]
        return np.stack(rows) if both else rows[0]

    return ((e.tneg, e.shift, monos(e)) for e in terms)


def _combine(monomials, t, ladder: dict, step: int = 0):
    """sum_i monos_i t^{-d_i} p_t^{nu+m_i} over a ladder {m: p_t^{nu+m}}.
    ``step = 1`` reads p_t^{(nu+1)+m} = p_t^{nu+m+1}, from a ladder over the
    shifts m and m + 1 (``_stepped``).  The sum is formed in place: a fresh
    temporary per operation costs more than the arithmetic on grid-sized
    pair batches."""
    total = None
    for d, m, monos in monomials:
        term = monos * t ** (-d)
        term *= ladder[m + step]
        if total is None:
            total = term
        else:
            total += term
    return total


def _stepped(shifts) -> list[int]:
    return sorted({*shifts, *(m + 1 for m in shifts)})


@dataclass
class _PairWord:
    """A word summed at many times, on a batch of pairs: its monomials
    (``_monomials``, kept) and its ladder geometry x*y and (x-y)**2, formed
    once, or taken with the product classes from a grid axis
    (``unique``, see ``_ladders``), whose ladders cover only the prefix of
    pairs where the Gaussian factor is not 0.  The coefficients do not
    depend on nu.
    """

    shifts: list[int]
    monomials: tuple
    xy: np.ndarray
    d2: np.ndarray
    unique: tuple | None = None


def _pair_word(expansion: HeatKernelExpansion, x, y, both=False, pairs=None):
    """The word on the pairs (x, y); ``pairs`` is the (xy, d2, distinct,
    inverse, i, j) of a grid axis on the same pairs, in the same order
    (``grids.Axis.pairs``)."""
    monomials = tuple(_monomials(expansion.terms, x, y, both))
    if pairs is None:
        return _PairWord(expansion.shifts, monomials, x * y, (x - y) ** 2)
    xy, d2, distinct, inverse = pairs[:4]
    return _PairWord(expansion.shifts, monomials, xy, d2, (distinct, inverse))


def _word_products(nu, words, times, difference_axis=None):
    """Yields prod_j word_j at each t in ``times``, one row per argument
    order, from one ladder stream per axis (``_ladders``).  On
    ``difference_axis`` the factor is the word of order nu_j minus that of
    order nu_j + 1, from ladders one step longer.

    A grid word's rows cover the prefix of its pairs that its ladder covers,
    so a product takes at most one grid word.  Each axis's last ladder is
    kept until its next one is built: freed earlier, its pages go back to
    the system between time nodes and return as page faults (at n = 512 a
    1-D grid Riesz build by this loop took 60% more faults and about 6% more
    time).
    """
    shifts = [_stepped(w.shifts) if j == difference_axis else w.shifts for j, w in enumerate(words)]
    streams = [
        _ladders(nu_j, s, times, w.xy, w.d2, w.unique) for nu_j, s, w in zip(nu, shifts, words)
    ]
    for t, *ladders in zip(times, *streams):
        out = None
        for j, (word, ladder) in enumerate(zip(words, ladders)):
            monomials = word.monomials
            if word.unique is not None:
                cut = ladder[shifts[j][0]].shape[-1]
                monomials = tuple((d, m, monos[..., :cut]) for d, m, monos in monomials)
            if j == difference_axis:
                # Built first, the shifted word leaves the heap fewer pages to
                # return between time nodes (a third fewer page faults at n = 384).
                shifted = _combine(monomials, t, ladder, 1)
                factor = _combine(monomials, t, ladder)
                factor -= shifted
                del shifted  # not held across the yield
            else:
                factor = _combine(monomials, t, ladder)
            if out is None:
                out = factor
            else:
                out *= factor
        yield out


def _merge(raw: dict[tuple[int, int, int, int], Fraction]) -> tuple[ExpansionTerm, ...]:
    return tuple(ExpansionTerm(c, *key) for key, c in sorted(raw.items()) if c != 0)


def _apply_x_terms(raw, e, s: int):
    """One application of the x letter s*(delta_beta + e/x) to a term dict."""
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (a, b, d, m), c in raw.items():
        # d/dx of the monomial, the m/x order mismatch and the letter's e/x.
        if a + m + e != 0:
            out[a - 1, b, d, m] += s * c * (a + m + e)
        # -(x/2t) p^{beta+m}
        out[a + 1, b, d + 1, m] += -s * c / 2
        # +(y/2t) p^{beta+m+1}
        out[a, b + 1, d + 1, m + 1] += s * c / 2
    return out


def _apply_dt_terms(raw, nu: Fraction):
    """One application of d/dt; coefficients pick up the base order."""
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (a, b, d, m), c in raw.items():
        if d != 0:
            out[a, b, d + 1, m] += -c * d
        out[a, b, d + 1, m] += -c * (1 + nu + m)
        out[a + 2, b, d + 2, m] += c / 4
        out[a, b + 2, d + 2, m] += c / 4
        out[a + 1, b + 1, d + 2, m + 1] += -c / 2
    return out


# ---------------------------------------------------------------------------
# Operator words (module docstring): tuples of letters in operator order, the
# last letter acting first.  An x letter is (s, e); the time letter is
# ("L", beta), with beta the base order that the d/dt rule needs.

_DELTA = (1, 0)  # delta_beta, the x letter of the base order itself


@lru_cache(maxsize=None)
def _compile(word: tuple) -> tuple[ExpansionTerm, ...]:
    """Normal form of a word applied to p_t^beta, as merged terms."""
    raw = {(0, 0, 0, 0): Fraction(1)}
    for s, e in reversed(word):
        if s == "L":
            raw = {key: -c for key, c in _apply_dt_terms(raw, e).items()}
        else:
            raw = _apply_x_terms(raw, e, s)
    return _merge(raw)


def _check_orders(nu: float, *orders: int) -> None:
    if not nu > -1.0:
        raise DomainError(f"base order must exceed -1, got {nu}")
    if any(v < 0 for v in orders):
        raise DomainError("derivative orders must be >= 0")


def _multi(k, n: int) -> tuple[int, ...]:
    """k as a tuple of n ints >= 0; anything else is refused."""
    k = tuple(int(v) for v in np.atleast_1d(k))
    if len(k) == 1 and n > 1:
        raise DomainError("multi-index length must match dimension")
    if len(k) != n or any(v < 0 for v in k):
        raise DomainError("multi-index must be componentwise >= 0 and match n")
    return k


def delta_expansion(nu: float, ell: int) -> HeatKernelExpansion:
    """Exact expansion of delta_nu^ell p_t^nu as shifted-kernel combinations.

    The coefficients come out independent of nu; the argument is validated
    (the recursion needs nu > -1) and otherwise only fixes the base order at
    evaluation time.
    """
    _check_orders(float(nu), ell)
    return HeatKernelExpansion(_compile((_DELTA,) * int(ell)))


def eval_delta_heat_1d(nu: float, ell: int, t, x, y):
    """Numeric delta_nu^ell p_t^nu(x, y); broadcastable arguments."""
    return delta_expansion(nu, ell).evaluate(float(nu), t, x, y)


def delta_heat_difference_1d(nu: float, ell: int, t, x, y):
    """delta_nu^ell p_t^nu - delta_{nu+1}^ell p_t^{nu+1}: one step of
    ``_word_products`` with the order difference on its one axis.

    The coefficients of delta_beta^ell p_t^beta do not depend on beta, so
    both terms combine one ladder, the second one step up (``_combine``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    word = _pair_word(delta_expansion(nu, ell), x, y)
    return next(_word_products((float(nu),), (word,), (np.asarray(t, dtype=float),), 0))


def _delta_dt_expansion(nu: float, k: int, big_m: int) -> HeatKernelExpansion:
    """Expansion of delta_nu^k (L_nu)^M p_t^nu."""
    _check_orders(nu, k, big_m)
    # -d/dt commutes with delta, so the time letters may stand on the left.
    word = (("L", Fraction(nu)),) * int(big_m) + (_DELTA,) * int(k)
    return HeatKernelExpansion(_compile(word))


def delta_dt_heat_1d(nu: float, k: int, big_m: int, t, x, y):
    """delta_nu^k (L_nu)^M p_t^nu via the heat equation L p = -dp/dt."""
    nu = float(nu)
    return _delta_dt_expansion(nu, k, big_m).evaluate(nu, t, x, y)


def mixed_partial_delta(nu: float, k: int, ell: int, t, x, y):
    """d^k/dx^k delta_nu^ell p_t^nu(x, y), evaluated exactly."""
    nu = float(nu)
    _check_orders(nu, k, ell)
    word = ((1, Fraction(nu) + Fraction(1, 2)),) * int(k) + (_DELTA,) * int(ell)
    return HeatKernelExpansion(_compile(word)).evaluate(nu, t, x, y)


def adjoint_power_heat_1d(nu: float, k: int, big_m: int, t, x, y):
    """(L_nu)^M (delta_nu^*)^k p_t^{nu+k+2M}(x, y), with L_nu = delta_nu^* delta_nu."""
    nu = float(nu)
    _check_orders(nu, k, big_m)
    shift = int(k) + 2 * int(big_m)
    # delta_nu and delta_nu^* relative to the base order beta = nu + shift.
    delta, star = (1, shift), (-1, 2 * Fraction(nu) + shift + 1)
    word = (star, delta) * int(big_m) + (star,) * int(k)
    return HeatKernelExpansion(_compile(word)).evaluate(nu + shift, t, x, y)


def delta_heat_kernel_nd(nu, k, q: KernelPoint) -> float:
    """Mixed delta-derivative of the product kernel, one order per axis:
    ``delta_dt_heat_nd_arrays`` at M = 0 on the one point.  k = 0 is the
    product of ``heat_kernel_1d`` over the axes, bit for bit."""
    x, y = np.array(q.x)[:, None], np.array(q.y)[:, None]
    return float(delta_dt_heat_nd_arrays(nu, k, 0, q.t, x, y)[0])


def delta_dt_heat_nd_arrays(nu, k, big_m: int, t, x, y):
    """Vectorized delta_nu^k (Delta_nu)^M kernel; x, y stacked on axis 0.

    Delta_nu is the sum of the coordinate operators, so its M-th power
    expands multinomially over coordinates.  The sum starts from its first
    product: at M = 0 it is the product, bit for bit, the sign of a 0 too.
    """
    nu = as_nu_vector(nu)
    k = _multi(k, nu.n)
    t = np.asarray(t, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] != nu.n or y.shape[0] != nu.n:
        raise DomainError("point dimension does not match order vector")
    # the compositions of M into n parts, in lexicographic order
    comps = [c for c in itertools.product(range(int(big_m) + 1), repeat=nu.n) if sum(c) == big_m]
    # factors[j][M_j] = delta^{k_j} L^{M_j} p^{nu_j} on axis j, every power
    # combined from one ladder over the union of the words' shifts.
    factors = []
    for j in range(nu.n):
        words = {c[j]: _delta_dt_expansion(nu.nu[j], k[j], c[j]) for c in comps}
        shifts = sorted({m for e in words.values() for m in e.shifts})
        monomials = {mj: _monomials(e.terms, x[j], y[j]) for mj, e in words.items()}
        ladder = _p1d_shifts(nu.nu[j], shifts, t, x[j], y[j])
        factors.append({mj: _combine(mono, t, ladder) for mj, mono in monomials.items()})
    total = None
    for comp in comps:
        prod = float(math.factorial(big_m) // math.prod(map(math.factorial, comp)))
        for j in range(nu.n):
            prod = prod * factors[j][comp[j]]
        total = prod if total is None else total + prod
    return total


# ---------------------------------------------------------------------------
# Right-hand sides of the Gaussian-type bounds (explicit constant 1; the
# multiplicative constant is estimated by the harness, never baked in).

def _weight_1d(nu: float, t, x):
    return (1.0 + np.sqrt(t) / x) ** (-(nu + 0.5))


def _lead(k_total: int, t, r):
    """The lead factor t^{-|k|/2} + r^{-|k|} of the mixed-derivative bounds."""
    return t ** (-k_total / 2.0) + r ** (-float(k_total))


def _total(multi) -> int:
    """|multi|, of an integer or a multi-index."""
    return int(np.sum(np.atleast_1d(multi).astype(int)))


def _bound_rhs_arrays(kind: str, nu: NuVector, k, ell, t, x, y):
    """Vectorized ``bound_rhs`` as a function of the rate c; x, y stacked
    on the first axis.

    Every factor that does not depend on c (the lead, the power of t, the
    weights and |x-y|^2) is formed once here, and the returned ``rhs(c)``
    forms only exp(-|x-y|^2/(ct)).  It multiplies in the order of the
    written-out product, ``pre`` (lead times the power of t) times the
    Gaussian, then each weight, so every array is bit for bit the product
    formed whole for that c.  A family member without a lead factor has
    lead 1.0, an exact product."""
    t = np.asarray(t, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    neg_d2 = -np.sum((x - y) ** 2, axis=0)
    if kind in ("thm2_1", "thm2_4", "thm2_5"):
        ell = 0 if kind == "thm2_1" else int(ell)
        lead = _lead(int(k), t, x[0]) if kind == "thm2_5" else 1.0
        pre = lead * t ** (-(ell + 1) / 2.0)
        weights = (_weight_1d(nu.nu[0], t, x[0]), _weight_1d(nu.nu[0], t, y[0]))
    elif kind in ("cor2_6a", "cor2_6b", "cor2_11"):
        n = nu.n if kind == "cor2_11" else 1
        pre = t ** (-(_total(k) + 2 * int(ell) + n) / 2.0)
        weights = ()
    elif kind == "prop2_7":
        pre = t ** (-int(ell) / 2.0) / x[0]
        weights = ()
    elif kind in ("prop2_9", "prop2_10"):
        lead = _lead(_total(k), t, _rho_arr(x)) if kind == "prop2_10" else 1.0
        pre = lead * t ** (-(nu.n + _total(ell)) / 2.0)
        weights = ((1.0 + np.sqrt(t) / _rho_arr(x) + np.sqrt(t) / _rho_arr(y)) ** (-nu.gamma_nu),)
    else:
        raise DomainError(f"unknown bound kind {kind!r}; expected a pointwise inequality id")

    def rhs(c: float):
        out = pre * np.exp(neg_d2 / (c * t))
        for w in weights:
            out = out * w
        return out

    return rhs


def bound_rhs(kind: str, nu, k, ell, q: KernelPoint, c: float) -> float:
    """Right-hand side of the selected kernel estimate, with constant 1.

    ``kind`` is a pointwise inequality id and ``c`` the candidate
    exponential rate.  Each id is one of four families, each a formula
    times exp(-|x-y|^2/(ct)):

    * weighted 1-D, t^{-(l+1)/2} w(x) w(y), w = (1 + sqrt(t)/x)^{-(nu+1/2)}:
      thm2_4; thm2_1 is thm2_4 at l = 0; thm2_5 has the lead t^{-k/2} + x^{-k};
    * Gaussian, t^{-(|k|+2M+n)/2}: cor2_11; cor2_6a and cor2_6b are cor2_11
      at n = 1.  The ``ell`` slot carries the operator power M;
    * prop2_7, t^{-l/2}/x;
    * rho-weighted, t^{-(n+|l|)/2} (1 + sqrt(t)/rho(x) + sqrt(t)/rho(y))^{-gamma_nu}:
      prop2_9; prop2_10 has the lead t^{-|k|/2} + rho(x)^{-|k|}.
    """
    nu = as_nu_vector(nu)
    if not (c > 0.0):
        raise DomainError("rate constant c must be positive")
    x = np.asarray(q.x, dtype=float)[:, None]
    y = np.asarray(q.y, dtype=float)[:, None]
    out = _bound_rhs_arrays(kind, nu, k, ell, np.asarray([q.t]), x, y)(float(c))
    return float(out[0])
