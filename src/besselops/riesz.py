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
n >= 2 sweeps, with the tail indicator), ``_grid_matrix`` (the 1-D grid
matrices, one ladder per time node on the node pairs i <= j for both
triangles) and the n-D ``riesz_apply``.  The grid words take their ladder
geometry from the axis (``grids.Axis.pairs``, the node pairs sorted by
distance), so at each time node the ladder, the word and the time sum
cover only the prefix of pairs whose Gaussian factor is not exactly 0,
with the Bessel functions run once per product class of that prefix;
the matrices hold +0 past it.  A caller whose functions vanish off a few
nodes passes them as ``riesz_matrix``'s ``support``, and the build runs on
the pairs that touch them only (``grids._pairs_touching``).  The public
grid transforms refuse any k_j >= 2, whose diagonal the grid does not
resolve, and in n-D a k_j = 0 axis beside a k_j > 0 one
(``grid_multi_index``).
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

from .errors import DomainError, GridError
from .grids import (
    Grid,
    GridFunction,
    _check_semigroup,
    _contract,
    _one_grid,
    _pairs_touching,
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


def _axis_word(k_j: int, axis, pairs):
    """The pair word on the node pairs i <= j of ``pairs`` (one axis's
    ``grids.Axis.pairs``, sorted by distance, or a restriction of them), for
    both triangles: row 0 is (x, y) = (x_i, x_j), row 1 is (x_j, x_i).  The
    ladder geometry is the axis's own, so each time node works on the prefix
    of pairs its Gaussian factor reaches, and the Bessel functions run on
    the product classes of that prefix."""
    i, j = pairs[4:]
    x = axis.nodes
    return _pair_word(delta_expansion(0.0, k_j), x[i], x[j], both=True, pairs=pairs)


def _grid_matrix(
    nu: float, k: int, axis, plan: SubordinationPlan, difference: bool, support=None
):
    """A[i, j] ~ R_nu(x_i, x_j) w_j on a 1-D axis, or the kernel of
    R_nu - R_{nu+1} when ``difference``.

    Per time node one ladder on the triangle i <= j serves both triangles,
    and only its prefix of pairs with a nonzero Gaussian factor is summed;
    the dense matrix is written once, after the loop.  Given a boolean node
    mask ``support``, only the pairs with i or j in it are built
    (``grids._pairs_touching``): the rows and columns of the masked nodes
    are bit for bit those of the whole matrix, and every other entry is +0.
    """
    pairs = _pairs_touching(axis, support)
    word = _axis_word(k, axis, pairs)
    t_nodes, w = plan.nodes()
    half = k / 2.0
    total = np.zeros((2, pairs[0].size))
    products = _word_products((nu,), (word,), t_nodes, 0 if difference else None)
    for t, wi, rows in zip(t_nodes, w, products):
        rows *= wi * t**half
        total[:, : rows.shape[-1]] += rows
    # The loop sets the peak memory: its stream (which zip leaves
    # suspended), word and last rows go before the gather builds its map.
    del products, word, rows
    out = _weighted_matrices(axis, pairs, 2)(total)
    out /= math.gamma(half)
    return out


# On a grid the diagonal i = j is evaluated too, and for k_j >= 3 the terms
# of delta^k cancel there to rounding noise: at n = 128 it reaches 0.13 of
# the matrix's largest entry.  k_j = 2 is refused too: the time nodes below
# the grid's resolution leave unresolved spikes on the diagonal, and on a
# decaying function with an exact transform (nu = 0.6) the 1-D k = 2 error
# is 30, 14 and 6.1 times the exact maximum at n = 192, 384 and 768.
# k_j = 1 is what every bundled campaign uses; the private assembly
# ``_grid_matrix`` takes any k.
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


def _one_axis(nu, k, grid: Grid):
    nu = as_nu_vector(nu)
    if grid.ndim != 1:
        raise GridError("assembled matrices are for 1-D grids")
    k_0 = grid_multi_index(k, 1)[0]
    if k_0 < 1:
        raise DomainError("Riesz kernels need |k| >= 1")
    return nu.nu[0], k_0


def riesz_matrix(
    nu, k, grid: Grid, plan: SubordinationPlan = DEFAULT_PLAN, *, support=None
) -> np.ndarray:
    """Assembled 1-D transform matrix A[i, j] ~ R(x_i, x_j) w_j, built on
    every call.

    ``support`` is a boolean mask over the grid's nodes (default: every
    node).  With a mask, only the entries in a row or column of a masked
    node are built, each bit for bit its value in the whole matrix, and the
    others are +0; so ``A @ F`` is the whole matrix's product, bit for bit,
    for any F that vanishes off the mask.  A mask that is not a boolean
    array of the grid's length is refused (``GridError``).
    """
    nu_0, k_0 = _one_axis(nu, k, grid)
    return _grid_matrix(nu_0, k_0, grid.axes[0], plan, difference=False, support=support)


def riesz_apply(nu, k, f, plan: SubordinationPlan = DEFAULT_PLAN):
    """Riesz transform of a grid function by subordination quadrature.

    |k| = 0 is the identity (useful as the degenerate case in spot checks);
    any k_j >= 2, and in n-D a k_j = 0 axis beside a k_j > 0 one, is
    refused (``grid_multi_index``).

    ``f`` may also be a sequence of grid functions on one grid; the result
    is then a list with one transform per function, each bit for bit its
    one-function value.  The 1-D matrix, or in n-D each time node's axis
    matrices, are built once per call and applied to each function in turn
    (one matrix-vector product per function: a product with their stack
    would sum in another order).

    Time nodes with sqrt(t) below the local node spacing contribute
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
        mat = riesz_matrix(nu, k, grid, plan)
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
        _word_products((nu_j,), (_axis_word(k_j, axis, axis.pairs),), t_nodes)
        for nu_j, k_j, axis in zip(nu.nu, k, axes)
    ]
    half = sum(k) / 2.0
    writers = [_weighted_matrices(axis, axis.pairs, 2) for axis in axes]
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


def riesz_difference_matrix(
    nu, k, axis_index: int, grid: Grid, plan: SubordinationPlan = DEFAULT_PLAN
) -> np.ndarray:
    """Assembled 1-D matrix A[i, j] ~ (R_nu - R_{nu+1})(x_i, x_j) w_j.

    One Bessel ladder per time node on the triangle i <= j serves both
    orders and both triangles.
    """
    nu_0, k_0 = _one_axis(nu, k, grid)
    if int(axis_index) != 0:
        raise DomainError("axis index out of range")
    return _grid_matrix(nu_0, k_0, grid.axes[0], plan, difference=True)


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
