"""Fractional inverse powers and higher-order Riesz transforms.

The negative power L^{-s} of the Bessel operator is realized through the
heat-semigroup subordination integral

    L^{-s} = (1/Gamma(s)) int_0^inf u^{s-1} e^{-uL} du,

so the order-k Riesz kernel is the time integral

    R_k(x, y) = (1/Gamma(|k|/2)) int_0^inf t^{|k|/2} delta^k p_t(x, y) dt/t,

discretized on a log-uniform time grid (the dt/t measure makes plain
trapezoid in log t the natural rule).  No principal-value machinery is
used: the time cutoff regularizes the diagonal, and all off-diagonal
quantities converge as the plan refines.

Every subordination integral here goes through the word evaluator of
``heat``: the word delta^k of each axis on a batch of pairs
(``heat._pair_word``), one ladder per axis and time node, and for
R_nu - R_{nu+e_j} the same ladder read one step up on axis j.  Each axis's
ladders come from one stream over the time nodes, which evaluates the
Bessel functions of consecutive nodes in one call per block
(``heat._word_products``, ``heat._ladders``).  The terms cancel near the
diagonal, so they are combined per time node, before the time sum.  This
module keeps only the time sums: ``_riesz_quadrature`` (batches and the
n >= 2 sweeps, with the tail indicator) and the n-D ``riesz_apply``.  Its
grid words take their ladder geometry from the axis (``grids.Axis.pairs``,
the node pairs sorted by distance), so at each time node the ladder, the
word and the time sum cover only the prefix of pairs whose Gaussian factor
is not exactly 0, with the Bessel functions run once per product class of
that prefix; the matrices hold +0 past it.

The 1-D grid matrices need no time sum and no Bessel call
(``_mellin_matrix``).  On a log-uniform axis a 1-D Riesz transform is a
convolution in u = log x with an exact Mellin symbol, so
``riesz_matrix`` and ``riesz_difference_matrix`` are the exact transforms
of the piecewise-linear interpolant in log x, read at the nodes: a
Toeplitz matrix of weights from one FFT.  The public grid transforms
refuse any k_j >= 2 and in n-D a k_j = 0 axis beside a k_j > 0 one
(``grid_multi_index``), and in 1-D an axis that is not log-uniform.
No matrix is kept between calls: ``riesz_matrix`` builds on every call, and
a caller with many functions builds it once and applies it to each of them
(``riesz_apply`` on a sequence) or to their stack.

In 1-D the kernel needs no Bessel call and no time grid
(``riesz_kernel_1d``).  At k = 2 it is delta^2 applied to the Green's
function of L_nu, an elementary closed form.  At other orders the time
integral of each term of the word has a closed form once the Bessel
function is written by Schlafli's integral, which leaves a smooth angular
integral (``_schlafli_kernel``).  The Calderon-Zygmund sweeps
(``cz_bound_check`` and the thm1_5_size and thm1_5_smooth campaigns,
through ``_cz_sides``) use it for n = 1; their subordination plan governs
only n >= 2.  Both kernel evaluators check their arguments in
``_kernel_args``.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, GridError
from .grids import (
    Grid,
    GridFunction,
    _check_semigroup,
    _contract,
    _one_grid,
    _semigroup_values,
    _weighted_matrices,
)
from .heat import NuVector, _check_positive, _multi, _pair_word, _word_products, as_nu_vector, delta_expansion
from .sampling import _drift, _level_maxima, _ratios, _verdict, _worst, make_rng, sample_smooth_triples

__all__ = [
    "SubordinationPlan",
    "DEFAULT_PLAN",
    "riesz_kernel",
    "riesz_kernel_batch",
    "riesz_kernel_1d",
    "SCHLAFLI_NODES",
    "riesz_matrix",
    "riesz_apply",
    "fractional_inverse_apply",
    "riesz_difference_batch",
    "riesz_difference_matrix",
    "grid_multi_index",
    "CzSamplePlan",
    "cz_bound_check",
]


# Evaluations warn when the boundary-node contributions of the time
# quadrature exceed this fraction of the absolutely accumulated integral.
TAIL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SubordinationPlan:
    """Log-uniform time quadrature for the subordination integrals."""

    t_min: float = 1e-6
    t_max: float = 1e4
    nodes_per_decade: int = 24

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise DomainError("need 0 < t_min < t_max")
        if self.nodes_per_decade < 2:
            raise DomainError("need at least 2 nodes per decade")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, w) with sum_i w_i g(t_i) ~ int g(t) dt/t."""
        decades = math.log10(self.t_max / self.t_min)
        count = max(2, int(round(decades * self.nodes_per_decade))) + 1
        u = np.linspace(math.log(self.t_min), math.log(self.t_max), count)
        w = np.full(count, u[1] - u[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.exp(u), w


DEFAULT_PLAN = SubordinationPlan()


def _kernel_args(nu, k, x, y):
    """(nu, k, x, y) of a kernel evaluation: the n orders, a multi-index
    with |k| >= 1 and (n, count) arrays of coordinates in (0, inf) with no
    pair on the diagonal; anything else is refused (``DomainError``)."""
    nu = as_nu_vector(nu)
    k = _multi(k, nu.n)
    if sum(k) < 1:
        raise DomainError("Riesz kernels need |k| >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] != nu.n or y.shape[0] != nu.n:
        raise DomainError("point dimension does not match order vector")
    _check_positive("coordinates", x, y)
    if np.any(np.all(x == y, axis=0)):
        raise DomainError("diagonal evaluation x == y is not defined")
    return nu.nu, k, x, y


def _riesz_quadrature(
    nu, k, x, y, plan: SubordinationPlan, both: bool, difference_axis=None
) -> np.ndarray:
    """Rows R(x, y) and, if ``both``, R(y, x) over batches x, y of shape (n, count);
    the kernel of R_nu - R_{nu+e_j} instead when ``difference_axis`` is j.

    p_t^{nu+m} is symmetric in (x, y) bit for bit, so each axis's ladder is
    evaluated once per time node and combined for both argument orders.  The
    tail indicator compares the boundary-node contributions to the
    absolutely accumulated integral (the signed total may cancel to zero,
    legitimately, e.g. the order-2 kernel on the x < y side in 1-D).
    """
    nu, k, x, y = _kernel_args(nu, k, x, y)
    words = [_pair_word(delta_expansion(0.0, k_j), x_j, y_j, both) for k_j, x_j, y_j in zip(k, x, y)]
    t_nodes, w = plan.nodes()
    half = sum(k) / 2.0
    total = np.zeros((2 if both else 1, x.shape[1]))
    abs_total = np.zeros_like(total)
    first = last = None
    products = _word_products(nu, words, t_nodes, difference_axis)
    for t, wi, contrib in zip(t_nodes, w, products):
        contrib *= wi * t**half
        total += contrib
        abs_total += np.abs(contrib)
        if first is None:
            first = contrib
        last = contrib
    tail = float(np.max(_ratios(np.abs(first) + np.abs(last), abs_total)))
    if tail > TAIL_TOLERANCE:
        warnings.warn(
            f"subordination tail indicator {tail:.2e} above "
            f"{TAIL_TOLERANCE:.0e}; widen the plan",
            RuntimeWarning,
            stacklevel=3,
        )
    return total / math.gamma(half)


def riesz_kernel_batch(nu, k, x, y, plan: SubordinationPlan = DEFAULT_PLAN):
    """Riesz kernel over batches: x, y of shape (n, count); warns when the
    subordination tail indicator exceeds the plan's tolerance."""
    return _riesz_quadrature(nu, k, x, y, plan, both=False)[0]


def riesz_kernel(nu, k, x, y, plan: SubordinationPlan = DEFAULT_PLAN) -> float:
    """Off-diagonal Riesz kernel value at a single pair of points."""
    x = np.asarray(np.atleast_1d(x), dtype=float)[:, None]
    y = np.asarray(np.atleast_1d(y), dtype=float)[:, None]
    return float(riesz_kernel_batch(nu, k, x, y, plan)[0])


# ---------------------------------------------------------------------------
# The exact time integral in 1-D (Green's function and Schlafli's integral)

# Gauss nodes of the four pieces of ``_schlafli_kernel``: theta in [0, pi/2]
# (graded), theta in [pi/2, pi], and u before and after u0 = |log(x/y)|.
SCHLAFLI_NODES = (30, 12, 24, 32)


def _orthonormal_recurrence(x, a, b, p0):
    """(p_n, p_n', sum_{m<n} p_m^2) at x, from the orthonormal recurrence
    b_{m+1} p_{m+1} = (x - a_m) p_m - b_m p_{m-1} (a[m] = a_m, b[m] = b_{m+1})."""
    p, dp = np.full_like(x, p0), np.zeros_like(x)
    prev, dprev, norm = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for m in range(a.size):
        bm = b[m - 1] if m else 0.0
        norm += p * p
        p, prev, dp, dprev = (
            ((x - a[m]) * p - bm * prev) / b[m],
            p,
            (p + (x - a[m]) * dp - bm * dprev) / b[m],
            dp,
        )
    return p, dp, norm


@lru_cache(maxsize=None)
def _gauss(n: int, laguerre: bool) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Laguerre rule (weight e^{-r} on [0, inf)) or
    Gauss-Legendre rule (weight 1 on [-1, 1]).

    The nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    recurrence (Golub and Welsch, Math. Comp. 23, 1969), polished by Newton
    steps on the recurrence; the weights are the Christoffel numbers
    1 / sum p_m(x)^2, a sum of positive terms, accurate where the derivative
    formulas lose digits.  Each rule is built once per process, and only
    ``_schlafli_kernel`` (k != 2) asks for one: no bundled campaign does.
    """
    m = np.arange(1.0, n + 1.0)
    if laguerre:
        a, b, p0 = 2.0 * m - 1.0, m, 1.0
    else:
        a, b, p0 = np.zeros(n), m / np.sqrt(4.0 * m * m - 1.0), math.sqrt(0.5)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    for _ in range(4):
        p, dp, _ = _orthonormal_recurrence(x, a, b, p0)
        x = x - p / dp
    return x, 1.0 / _orthonormal_recurrence(x, a, b, p0)[2]


@lru_cache(maxsize=None)
def _schlafli_word(k: int) -> tuple:
    """delta^k in the variables of Schlafli's integral, grouped by time power.

    Each term c x^a y^m t^{-d} p_t^{nu+m} of ``delta_expansion`` has y to
    the power of its shift m (the word has no adjoint letters).  Under the
    theta integral p^{nu+m} brings cos((nu+m) theta), so a group of one
    s = k/2 - d sums to Re e^{i nu theta} sum c x^a z^m with z = y e^{i theta};
    under the u integral z = -y e^{-u}.  Re-expanded in w = x - z, the
    near-diagonal cancellation between the terms happens here, in exact
    arithmetic.  Per s: (s, ((c, alpha, j), ...)) for the polynomial
    sum c x^alpha w^j, with the time integral's Gamma(1-s) 4^{1-s} in c.
    """
    groups = defaultdict(lambda: defaultdict(Fraction))
    for term in delta_expansion(0.0, k).terms:
        assert term.ypow == term.shift
        s, m = Fraction(k, 2) - term.tneg, term.shift
        for j in range(m + 1):
            groups[s][term.xpow + m - j, j] += term.coeff * math.comb(m, j) * (-1) ** j
    return tuple(
        (
            float(s),
            tuple(
                (float(c) * math.gamma(1 - s) * 4.0 ** float(1 - s), a, j)
                for (a, j), c in sorted(poly.items())
                if c
            ),
        )
        for s, poly in sorted(groups.items())
    )


def riesz_kernel_1d(nu, k, x, y, both: bool = False) -> np.ndarray:
    """Rows R(x, y) and, if ``both``, R(y, x) of the 1-D Riesz kernel, with
    the time integral done exactly: no Bessel function and no time grid.

    At k = 2 the kernel is delta^2 L_nu^{-1}, and L_nu^{-1} has the Green's
    function x_<^{nu+1/2} x_>^{1/2-nu} / (2 nu) (Muckenhoupt and Stein,
    Trans. AMS 118, 1965).  delta annihilates x^{nu+1/2}, so
    R(x, y) = (2 nu + 1) y^{nu+1/2} x^{-nu-3/2} for x > y and exactly 0 for
    x < y, analytic in nu > -1/2 (at nu <= 0 the time integral of delta^2 p_t
    still converges, though that of p_t does not).  Other orders go through
    Schlafli's integral (``_schlafli_kernel``).  Each row is computed from
    its own argument order alone, so it equals a one-order call bit for bit.
    Arrays x, y of shape (count,) or (1, count); the result has shape
    (rows, count).
    """
    if as_nu_vector(nu).n != 1:
        raise DomainError("the exact kernel is one-dimensional")
    (nu,), (k,), (x,), (y,) = _kernel_args(nu, k, x, y)
    if k != 2:
        return _schlafli_kernel(nu, k, x, y, both)
    pairs = ((x, y), (y, x)) if both else ((x, y),)
    # (y/x)^{nu+1/2} / x: the ratio is at most 1 where it is kept and 0
    # elsewhere, so no power of the discarded side can overflow.
    return np.stack(
        [(2.0 * nu + 1.0) * np.where(a > b, b / a, 0.0) ** (nu + 0.5) / a for a, b in pairs]
    )


def _schlafli_kernel(nu: float, k: int, x, y, both: bool) -> np.ndarray:
    """``riesz_kernel_1d`` at any order k >= 1, on arguments it has checked:
    rows R(x, y) and, if ``both``, R(y, x), by Schlafli's integral.

    Schlafli's integral (Watson, Bessel Functions, 6.22) writes p_t^mu as
    sqrt(xy)/(2t) [(1/pi) int_0^pi e^{-Q/4t} cos(mu theta) dtheta
    - (sin(mu pi)/pi) int_0^inf e^{-P/4t - mu u} du] with
    Q = (x-y)^2 + 4xy sin^2(theta/2) and P = x^2 + y^2 + 2xy cosh u.  In a
    term c x^a y^b t^{-d} p_t^{nu+m} of the word, the time integral
    int t^{s-1} e^{-Q/4t} dt/t = Gamma(1-s) (Q/4)^{s-1}, s = k/2 - d < 1, is
    exact.  The remaining integrals are Gauss rules with SCHLAFLI_NODES points:
    theta in [0, pi/2] through sin(theta/2) = (eps/2) sinh v,
    eps = |x-y|/sqrt(xy), where Q = (x-y)^2 cosh^2 v resolves the
    near-diagonal peak; theta in [pi/2, pi] plain; u split at |log(x/y)|,
    where the integrand's decay rate turns from nu to nu + 1 - s, Legendre
    before and Laguerre at the rate nu + 1 - s after.  Everything shared by
    the two argument orders is symmetric in (x, y) bit for bit, so each row
    equals a one-order call.
    """
    groups = _schlafli_word(k)
    nodes = SCHLAFLI_NODES
    # Under the theta integral |w|^2 = Q, so a term of the word is
    # c x^alpha Q^{s-1+j/2} cos(nu theta + j arg w).
    powers = {s - 1.0 + 0.5 * j for s, terms in groups for _, _, j in terms}
    pairs = ((x, y), (y, x)) if both else ((x, y),)
    alphas = {a for _, terms in groups for _, a, _ in terms}
    mono = [{a: first**a if a else 1.0 for a in alphas} for first, _ in pairs]
    d2 = (x - y) ** 2
    xy = x * y
    total = np.zeros((len(pairs), x.size))

    def theta_node(theta, sh, ch, q, weight):
        """One theta node; sh, ch = sin, cos(theta/2)."""
        q_to = {p: q**p for p in powers}
        for row, (a, b) in enumerate(pairs):
            # arg(a - b e^{i theta}), with a - b cos(theta) = (a - b) + 2b sin^2(theta/2)
            arg = np.arctan2(-2.0 * b * sh * ch, (a - b) + 2.0 * b * sh * sh)
            acc = 0.0
            for s, terms in groups:
                for c, al, j in terms:
                    wave = np.cos(nu * theta + j * arg)
                    acc = acc + c * mono[row][al] * q_to[s - 1.0 + 0.5 * j] * wave
            total[row] += weight * acc

    eps = np.sqrt(d2 / xy)
    v_max = np.arcsinh(math.sqrt(2.0) / eps)
    for r, wr in zip(*_gauss(nodes[0], False)):
        v = 0.5 * (r + 1.0) * v_max
        cosh = np.cosh(v)
        sh = 0.5 * eps * np.sinh(v)
        ch = np.sqrt(1.0 - sh * sh)
        jac = 0.5 * wr * v_max * eps * cosh / ch
        theta_node(2.0 * np.arcsin(sh), sh, ch, d2 * cosh * cosh, jac / math.pi)
    for r, wr in zip(*_gauss(nodes[1], False)):
        theta = 0.25 * math.pi * (r + 3.0)
        sh, ch = math.sin(0.5 * theta), math.cos(0.5 * theta)
        theta_node(theta, sh, ch, d2 + 4.0 * xy * sh * sh, 0.25 * wr)

    whole = round(nu)
    sin_nu = math.sin(math.pi * (nu - whole)) * (-1.0) ** whole
    if sin_nu != 0.0:
        # With E = e^{-u}: P e^{-u} = (x + yE)(y + xE), and w = a + bE.
        u0 = np.abs(np.log(x) - np.log(y))

        def u_nodes(lam):
            """(u, weight times e^{-lam u}) per node, one node at a time."""
            for r, wr in zip(*_gauss(nodes[2], False)):
                u = 0.5 * (r + 1.0) * u0
                yield u, 0.5 * wr * u0 * np.exp(-lam * u)
            tail = np.exp(-lam * u0) / lam
            for r, wr in zip(*_gauss(nodes[3], True)):
                yield u0 + r / lam, wr * tail

        for s, terms in groups:
            for u, weight in u_nodes(nu + 1.0 - s):
                e = np.exp(-u)
                factors = (x + y * e, y + x * e)
                scale = (sin_nu / math.pi) * weight * (factors[0] * factors[1]) ** (s - 1.0)
                for row in range(len(pairs)):
                    total[row] -= scale * sum(
                        c * mono[row][al] * factors[row] ** j for c, al, j in terms
                    )
    return total * (np.sqrt(xy) / (2.0 * math.gamma(0.5 * k)))


def _axis_word(k_j: int, axis):
    """The pair word on the node pairs i <= j of one axis (``grids.Axis.pairs``,
    sorted by distance), for both triangles: row 0 is (x, y) = (x_i, x_j),
    row 1 is (x_j, x_i).  The ladder geometry is the axis's own, so each time
    node works on the prefix of pairs its Gaussian factor reaches, and the
    Bessel functions run on the product classes of that prefix."""
    i, j = axis.pairs[4:]
    x = axis.nodes
    return _pair_word(delta_expansion(0.0, k_j), x[i], x[j], both=True, pairs=axis.pairs)


# On an n-D grid the diagonal i = j is evaluated too, and for k_j >= 3 the
# terms of delta^k cancel there to rounding noise: at n = 128 it reaches 0.13
# of the matrix's largest entry.  k_j = 2 is refused too: the time nodes
# below the grid's resolution leave unresolved spikes on the diagonal.  The
# 1-D Mellin matrices (``_mellin_matrix``) resolve every k, but the public
# 1-D transforms keep the same refusal, so one rule covers every grid
# transform; k_j = 1 is what every bundled campaign uses.
_GRID_K_MAX = 1


def grid_multi_index(k, n: int) -> tuple[int, ...]:
    """The order multi-index of an n-D grid transform (``heat._multi``); refuses
    (``DomainError``) the orders the grid does not resolve: any k_j above
    ``_GRID_K_MAX``, and for n >= 2 an axis with k_j = 0 beside one with
    k_j > 0.  On a decaying function with an exact transform, the 2-D
    transforms with k = (1, 0) and (2, 0) are off by 0.43 to 1.4e3 times
    the exact maximum at 96^2 and 192^2 nodes."""
    k = _multi(k, n)
    if max(k) > _GRID_K_MAX:
        raise DomainError(
            f"grid Riesz transforms need every k_j <= {_GRID_K_MAX}, got {k}: "
            "the diagonal entries of higher orders are unresolved on a grid"
        )
    if sum(k) and 0 in k:
        raise DomainError(
            f"grid Riesz transforms need k_j >= 1 on every axis once |k| >= 1, got {k}: "
            "the grid does not resolve an axis with k_j = 0"
        )
    return k


# ---------------------------------------------------------------------------
# 1-D grid transforms: a discrete Mellin convolution on the log grid

# Stirling's series for log Gamma: B_{2j} / (2j (2j - 1)), j = 1..7; past
# Re z = 10 the first omitted term is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# The Euler-Maclaurin formula for the Hurwitz zeta: B_{2j} / (2j)!, j = 1..5.
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
# Whole alias blocks of the folded multiplier evaluated before the tail
# sum takes over; against 96 blocks, the tail's first-order form leaves at
# most 2e-8 of the largest entry at n = 512 and 2e-6 at n = 64 (k = 1 to 5
# on the default box).
_ALIASES = 3
# The weights decay like exp(-(nu + 1) |m| h) on the side x > y, the slower
# one, and nu + 1 > 1/2, so a period P >= n + 2 _WRAP / h leaves the
# wrapped-around weights below exp(-_WRAP), about 2e-16 of the largest, at
# every order; with one period for every nu, the weights are linear in the
# symbol, and the matrix of R_nu - R_{nu+1} is the difference of theirs to
# rounding.
_WRAP = 36.0
# A 1-D grid transform needs log steps equal to within this fraction: a
# grid written to CSV and read back keeps its nodes to the last bit, and a
# geometric axis rounds its log steps to about 1e-13 of them.
_LOG_STEP_RTOL = 1e-9


def _log_gamma(z):
    """log Gamma(z) for complex z with Re z > 0, up to a multiple of 2 pi i:
    the recurrence Gamma(z) = Gamma(z + J) / (z (z + 1) ... (z + J - 1)) up to
    Re z >= 10, then Stirling's series."""
    z = np.asarray(z, dtype=complex)
    shift = max(0, math.ceil(10.0 - float(np.min(z.real))))
    prod = np.ones_like(z)
    for j in range(shift):
        prod *= z + j
    w = z + shift
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for coeff in reversed(_STIRLING):
        series = series * inv2 + coeff
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series / w - np.log(prod)


def _hurwitz_zeta(s: int, x):
    """sum_{j >= 0} (x + j)^{-s} for s >= 2 and real x > 0: the recurrence up
    to x >= 10, then the Euler-Maclaurin formula."""
    x = np.asarray(x, dtype=float)
    shift = max(0, math.ceil(10.0 - float(np.min(x))))
    total = np.zeros_like(x)
    for j in range(shift):
        total += (x + j) ** -s
    w = x + shift
    total += w ** (1 - s) / (s - 1) + 0.5 * w**-s
    rising, power = float(s), w ** (-s - 1)
    for i, coeff in enumerate(_EULER_MACLAURIN):
        total += coeff * rising * power
        rising *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power = power / (w * w)
    return total


def _mellin_symbol(nu: float, k: int, tau):
    """m_k(1/2 + i tau), the Mellin symbol of the 1-D R^k_nu:
    R^k x^{-s} = m_k(s) x^{-s} on the line s = 1/2 + i tau.

    From L_nu x^{-s} = (nu - s - 1/2)(nu + s + 1/2) x^{-s-2} and
    delta_nu x^{-p} = -(p + nu + 1/2) x^{-p-1},
    m_k(s) = prod_{j=1}^{k} (j - s - nu - 1/2) 2^{-k}
    Gamma(A - k/2) / Gamma(A) Gamma(B) / Gamma(B + k/2), with
    A = (nu + s + 1/2)/2 and B = (nu - s + 3/2)/2.  Each factor of the product
    cancels against one of the Gamma ratio's in closed form, so with
    k = 2q + e, e in {0, 1},
    m_k = (-1)^{q+e} prod_{i<q} (2i + e - nu - i tau) / (2i + e + nu + 1 - i tau)
    times, for odd k, Gamma(A + 1/2) Gamma(B) / (Gamma(A) Gamma(B + 1/2)).
    On the line B is the conjugate of A, so that factor is rho / conj(rho),
    rho = Gamma(A + 1/2) / Gamma(A): a phase, |m_1| = 1.  Nothing is evaluated
    at a pole (at nu = 1, k = 2, tau = 0 the uncancelled form is 0 times a
    pole of Gamma(A - 1)), and at k = 2 this is (nu + i tau)/(nu + 1 - i tau).
    """
    tau = np.asarray(tau, dtype=float)
    q, odd = divmod(k, 2)
    out = np.full(tau.shape, (-1.0) ** (q + odd), dtype=complex)
    for i in range(q):
        out *= (2 * i + odd - nu - 1j * tau) / (2 * i + odd + nu + 1.0 - 1j * tau)
    if odd:
        a = 0.5 * (nu + 1.0 + 1j * tau)
        out *= np.exp(2j * (_log_gamma(a + 0.5) - _log_gamma(a)).imag)
    return out


def _mellin_weights(symbol, limit: complex, h: float, n: int) -> np.ndarray:
    """The weights c_m, read as c[m] for |m| < n, of a dilation-invariant
    operator on the P1 hat functions of a log grid of step h.

    With g(u) = e^{u/2} f(e^u), the operator is the convolution whose Fourier
    multiplier is symbol(-omega), and its exact value at node i on the
    piecewise-linear g_h = sum_j g_j hat_j is sum_j c_{i-j} g_j, with
    c_m = (1/2 pi) int symbol(-theta/h) sinc^2(theta/2) e^{i m theta} d theta.
    Folded onto [-pi, pi] that is the P-point inverse DFT of
    S(theta) = sum_l F(theta + 2 pi l), F(theta) = symbol(-theta/h) sinc^2(theta/2),
    for P large enough that c_{m +- P} is negligible (``_WRAP``).  The blocks
    |l| <= _ALIASES are evaluated, and the rest is summed in closed form
    (``_hurwitz_zeta``) with the multiplier written limit + d / theta past
    them, where ``limit`` is its value at theta -> +inf (the conjugate at
    -inf) and d is read off the last block.
    The whole multiplier is folded: split into a sign function and a
    remainder, each part's weights would decay only like 1/m.  ``symbol``
    takes real tau and satisfies symbol(-tau) = conj(symbol(tau)), so the
    weights are real and only theta >= 0 is evaluated.
    """
    period = 2 * math.ceil(0.5 * max(2 * n, n + 2.0 * _WRAP / h))
    q = np.arange(_ALIASES * period + period // 2 + 1)
    values = symbol(-2.0 * math.pi * q / (period * h))
    folded = values * np.sinc(q / period) ** 2
    p = np.arange(period // 2 + 1)
    total = folded[p]
    for l in range(1, _ALIASES + 1):
        total += folded[p + l * period] + np.conj(folded[l * period - p])
    t = p / period
    above, below = _ALIASES + 1 + t, _ALIASES + 1 - t
    d_above = (values[p + _ALIASES * period] - limit) * (2.0 * math.pi * (_ALIASES + t))
    d_below = np.conj(values[_ALIASES * period - p] - limit) * (2.0 * math.pi * (_ALIASES - t))
    tail = (
        limit * _hurwitz_zeta(2, above)
        + np.conj(limit) * _hurwitz_zeta(2, below)
        + (d_above * _hurwitz_zeta(3, above) + d_below * _hurwitz_zeta(3, below)) / (2.0 * math.pi)
    )
    total += (np.sin(math.pi * t) / math.pi) ** 2 * tail
    return np.fft.irfft(total, period)


def _mellin_matrix(nu: float, k: int, h: float, n: int, difference: bool = False) -> np.ndarray:
    """The n x n matrix of R^k_nu (of R_nu - R_{nu+1} when ``difference``) on
    a log grid of step h: A[i, j] = x_i^{-1/2} c_{i-j} x_j^{1/2} with the
    weights of ``_mellin_weights``, so A @ f is the exact transform of the
    piecewise-linear interpolant of x^{1/2} f in log x, times x^{-1/2}, at
    the nodes.  x_j / x_i = e^{(j-i)h}, so every diagonal is one number and A
    is Toeplitz, bit for bit: one copy of a strided view of its 2n - 1
    diagonals.  Any k >= 1; no plan, ladder or Bessel call."""
    q, odd = divmod(k, 2)
    # m_k tends to (-1)^q i^odd as omega = -tau -> +inf; the difference to 0.
    limit = 0.0 if difference else (-1.0) ** q * (1j if odd else 1.0)

    def symbol(tau):
        m = _mellin_symbol(nu, k, tau)
        return m - _mellin_symbol(nu + 1.0, k, tau) if difference else m

    c = _mellin_weights(symbol, limit, h, n)
    m = np.arange(1 - n, n)
    diagonals = c[m] * np.exp(-0.5 * h * m)
    return sliding_window_view(diagonals, n)[:, ::-1].copy()


def _log_grid_args(nu, k, grid: Grid) -> tuple[float, int, float]:
    """(nu, k, h) of a 1-D grid matrix: refuses (``GridError``) a grid of more
    than one axis, an order vector of another dimension and an axis whose
    log steps differ by more than ``_LOG_STEP_RTOL``; refuses
    (``DomainError``) the orders ``grid_multi_index`` refuses and k = 0.
    h is the mean log step."""
    nu = as_nu_vector(nu)
    if grid.ndim != 1:
        raise GridError("assembled matrices are for 1-D grids")
    if nu.n != grid.ndim:
        raise GridError("order vector dimension does not match grid")
    k_0 = grid_multi_index(k, 1)[0]
    if k_0 < 1:
        raise DomainError("Riesz kernels need |k| >= 1")
    u = np.log(grid.axes[0].nodes)
    h = float(u[-1] - u[0]) / (u.size - 1)
    if np.max(np.abs(np.diff(u) - h)) > _LOG_STEP_RTOL * h:
        raise GridError("1-D grid transforms need a log-uniform axis (equal steps in log x)")
    return nu.nu[0], k_0, h


def riesz_matrix(nu, k, grid: Grid) -> np.ndarray:
    """Assembled 1-D transform matrix A, A @ f ~ R^k f at the nodes, built on
    every call: the Mellin convolution of ``_mellin_matrix`` on the grid's
    log-uniform axis (anything else is refused, see ``_log_grid_args``)."""
    nu_0, k_0, h = _log_grid_args(nu, k, grid)
    return _mellin_matrix(nu_0, k_0, h, grid.shape[0])


def riesz_apply(nu, k, f, plan: SubordinationPlan = DEFAULT_PLAN):
    """Riesz transform of a grid function: in 1-D by ``riesz_matrix`` (the
    Mellin convolution on a log-uniform axis; ``plan`` unused), in n-D by
    subordination quadrature on ``plan``.

    |k| = 0 is the identity (useful as the degenerate case in spot checks);
    any k_j >= 2, and in n-D a k_j = 0 axis beside a k_j > 0 one, is
    refused (``grid_multi_index``), and so is a 1-D axis that is not
    log-uniform (``GridError``).

    ``f`` may also be a sequence of grid functions on one grid; the result
    is then a list with one transform per function, each bit for bit its
    one-function value.  The 1-D matrix, or in n-D each time node's axis
    matrices, are built once per call and applied to each function in turn
    (one matrix-vector product per function: a product with their stack
    would sum in another order).

    In n-D, time nodes with sqrt(t) below the local node spacing contribute
    unresolved near-diagonal spikes; for smooth inputs those contributions
    largely cancel, but accuracy-sensitive callers should choose
    plan.t_min around the square of the coarsest relevant spacing.
    """
    nu = as_nu_vector(nu)
    k = grid_multi_index(k, nu.n)
    single = isinstance(f, GridFunction)
    functions = [f] if single else list(f)
    if not functions:
        return []
    grid = _one_grid(functions)
    if nu.n != grid.ndim:
        raise GridError("order vector dimension does not match grid")
    if sum(k) == 0:
        out = functions
    elif grid.ndim == 1:
        mat = riesz_matrix(nu, k, grid)
        out = [GridFunction(grid, mat @ g.values) for g in functions]
    else:
        out = [GridFunction(grid, acc) for acc in _nd_apply(nu, k, grid, functions, plan)]
    return out[0] if single else out


def _nd_apply(nu: NuVector, k, grid: Grid, functions, plan: SubordinationPlan):
    """The n-D transforms of ``functions``: per time node, each axis matrix
    is written once, into that axis's one buffer (``grids._weighted_matrices``),
    and contracted with each function's values on its own (``grids._contract``)."""
    axes = grid.axes
    t_nodes, w = plan.nodes()
    streams = [
        _word_products((nu_j,), (_axis_word(k_j, axis),), t_nodes)
        for nu_j, k_j, axis in zip(nu.nu, k, axes)
    ]
    half = sum(k) / 2.0
    writers = [_weighted_matrices(axis, 2) for axis in axes]
    accs = [np.zeros(grid.shape) for _ in functions]
    for t, wi, *axis_rows in zip(t_nodes, w, *streams):
        mats = [write(rows) for write, rows in zip(writers, axis_rows)]
        for g, acc in zip(functions, accs):
            acc += wi * t**half * _contract(mats, g.values)
    return [acc / math.gamma(half) for acc in accs]


def fractional_inverse_apply(
    nu,
    s: float,
    f: GridFunction,
    plan: SubordinationPlan = DEFAULT_PLAN,
) -> GridFunction:
    """L^{-s} f by subordination: (1/Gamma(s)) int u^s e^{-uL} f du/u.

    The [0, t_min] piece is completed analytically with e^{-uL} f ~ f,
    contributing f t_min^s / Gamma(s+1); this matters for s < 1, where the
    u^{s-1} weight concentrates mass at small times the grid cannot
    resolve, and lets callers pick t_min near the squared node spacing.
    """
    if not s > 0.0:
        raise DomainError("power s must be positive")
    u_nodes, w = plan.nodes()
    nu, _ = _check_semigroup(nu, f.grid, u_nodes)
    acc = np.zeros(f.grid.shape)
    for u, wi, vals in zip(u_nodes, w, _semigroup_values(nu, u_nodes, f.grid, f.values)):
        acc += wi * u**s * vals
    acc /= math.gamma(s)
    acc += f.values * plan.t_min**s / math.gamma(s + 1.0)
    return GridFunction(f.grid, acc)


def riesz_difference_batch(
    nu, k, axis_index: int, x, y, plan: SubordinationPlan = DEFAULT_PLAN
):
    """Kernel of R_nu - R_{nu+e_j}: one quadrature of the integrand
    difference, one ladder per axis and time node; warns like
    ``riesz_kernel_batch``."""
    nu = as_nu_vector(nu)
    j = int(axis_index)
    if not 0 <= j < nu.n:
        raise DomainError("axis index out of range")
    return _riesz_quadrature(nu, k, x, y, plan, both=False, difference_axis=j)[0]


def riesz_difference_matrix(nu, k, axis_index: int, grid: Grid) -> np.ndarray:
    """Assembled 1-D matrix of R_nu - R_{nu+1}, built on every call: the
    Mellin convolution of ``_mellin_matrix`` with the symbol m_nu - m_{nu+1},
    refused as ``riesz_matrix`` refuses, and for an axis index other than 0.
    """
    nu_0, k_0, h = _log_grid_args(nu, k, grid)
    if int(axis_index) != 0:
        raise DomainError("axis index out of range")
    return _mellin_matrix(nu_0, k_0, h, grid.shape[0], difference=True)


# ---------------------------------------------------------------------------
# Calderon-Zygmund bound sweeps


@dataclass(frozen=True)
class CzSamplePlan:
    """Sampling plan for the off-diagonal kernel bound sweeps."""

    count: int = 10000
    seed: int = 0
    levels: int = 3
    box: tuple[float, float] = (0.1, 10.0)
    min_separation: float = 1e-2

    def __post_init__(self):
        if self.count < 100:
            raise DomainError("sample count must be at least 100")
        if self.levels < 2:
            raise DomainError("need at least 2 refinement levels")


def _cz_triples(n: int, sample_plan: CzSamplePlan):
    """The nested (x, y, y') samples shared by the size and smoothness sweeps."""
    max_count = sample_plan.count * 2 ** (sample_plan.levels - 1)
    rng = make_rng(sample_plan.seed)
    x, y, yp, _ = sample_smooth_triples(
        rng, max_count, n, sample_plan.box, sample_plan.min_separation
    )
    return x, y, yp


def _sweep_kernels(nu: NuVector, k, x, y, plan: SubordinationPlan, both: bool):
    """R(x, y) and, if ``both``, R(y, x): the exact time integral in 1-D,
    the plan's quadrature in higher dimensions."""
    if nu.n == 1:
        return riesz_kernel_1d(nu, k, x, y, both)
    return _riesz_quadrature(nu, k, x, y, plan, both)


def _side(ratio, sample_plan: CzSamplePlan, points=None, **extra) -> dict:
    """One fitted side of the sweeps: the level maxima of ``ratio``, their
    drift, ``extra`` entries and, given ``points`` (name -> samples), the
    coordinates of the worst sample."""
    levels = _level_maxima(ratio, sample_plan.count, sample_plan.levels)
    side = {"C_hat": levels[-1], "per_refinement_C": levels, "drift": _drift(levels), **extra}
    if points:
        side["worst_sample"] = _worst(ratio, **points)
    return side


def _cz_sides(nu: NuVector, k, sample_plan: CzSamplePlan, plan, size: bool, smooth: bool):
    """The requested sides of ``cz_bound_check``: the size side needs only
    R(x, y), the smoothness sides both pair batches.  The thm1_5_size and
    thm1_5_smooth campaigns each ask for their own side only."""
    n = nu.n
    x, y, yp = _cz_triples(n, sample_plan)
    rows = _sweep_kernels(nu, k, x, y, plan, both=smooth)
    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    sides = {}
    if size:
        sides["size"] = _side(np.abs(rows[0]) * d**n, sample_plan, {"x": x, "y": y})
    if smooth:
        r_xy, r_yx = rows
        r_xyp, r_ypx = _sweep_kernels(nu, k, x, yp, plan, both=True)
        dp = np.sqrt(np.sum((y - yp) ** 2, axis=0))
        num = np.maximum(np.abs(r_xy - r_xyp), np.abs(r_yx - r_ypx))

        def smooth_side(gam, points=None):
            return _side(_ratios(num, (dp / d) ** gam / d**n), sample_plan, points, exponent=gam)

        sides["smooth"] = smooth_side(min(1.0, nu.gamma_nu), {"x": x, "y": y, "y_prime": yp})
        sides["smooth_raw_exponent"] = smooth_side(nu.gamma_nu)
    return sides


def cz_bound_check(
    nu,
    k,
    sample_plan: CzSamplePlan = CzSamplePlan(),
    plan: SubordinationPlan = DEFAULT_PLAN,
) -> dict:
    """Empirical size and smoothness bounds for the Riesz kernel.

    Size: sup |R(x,y)| |x-y|^n over off-diagonal pairs.  Smoothness: the
    first- and second-argument difference quotients against
    (|y-y'|/|x-y|)^gamma / |x-y|^n with gamma = min(1, nu_min + 1/2); the
    unclipped exponent nu_min + 1/2 is fitted alongside for comparison.
    Each quotient is scored by ``sampling._ratios``.
    Refinement doubles the (nested) sample count; the verdict is
    ``sampling._verdict`` over both primary constants' levels with the
    larger of their drifts.  R(x, y), R(y, x), R(x, y') and R(y', x) come
    from two kernel batches, one per sampled pair: in 1-D the exact time
    integral (``riesz_kernel_1d``, ``plan`` unused), for n >= 2 the
    subordination quadrature of ``plan``.
    """
    sides = _cz_sides(as_nu_vector(nu), k, sample_plan, plan, size=True, smooth=True)
    size, smooth = sides["size"], sides["smooth"]
    verdict = _verdict(
        size["per_refinement_C"] + smooth["per_refinement_C"], max(size["drift"], smooth["drift"])
    )
    return {**sides, "verdict": verdict}
