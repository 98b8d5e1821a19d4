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

Grid application reuses the same quadrature: for 1-D grids the kernel
matrix is assembled once and cached; in higher dimensions each time node
factorizes into per-axis kernel contractions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GridError
from .grids import Grid, GridFunction, apply_semigroup
from .heat import (
    NuVector,
    _p1d_shifts,
    as_nu_vector,
    delta_expansion,
    delta_heat_difference_1d,
    eval_delta_heat_1d,
)
from .sampling import make_rng, sample_smooth_triples
from .special import besseli_scaled, gamma

__all__ = [
    "SubordinationPlan",
    "DEFAULT_PLAN",
    "riesz_kernel",
    "riesz_kernel_batch",
    "riesz_matrix",
    "riesz_apply",
    "fractional_inverse_apply",
    "riesz_difference_kernel",
    "riesz_difference_batch",
    "riesz_difference_matrix",
    "CzSamplePlan",
    "cz_size_sweep",
    "cz_smooth_sweep",
    "cz_bound_check",
]


@dataclass(frozen=True)
class SubordinationPlan:
    """Log-uniform time quadrature for the subordination integrals.

    ``tail_tolerance`` is the stored tail-error bound: evaluations warn
    when the boundary-node contributions exceed this fraction of the
    absolutely accumulated integral.
    """

    t_min: float = 1e-6
    t_max: float = 1e4
    nodes_per_decade: int = 24
    transform: str = "log-uniform"
    tail_tolerance: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise DomainError("need 0 < t_min < t_max")
        if self.nodes_per_decade < 2:
            raise DomainError("need at least 2 nodes per decade")
        if self.transform != "log-uniform":
            raise DomainError("only the log-uniform transform is implemented")
        if not self.tail_tolerance > 0.0:
            raise DomainError("tail tolerance must be positive")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, w) with sum_i w_i g(t_i) ~ int g(t) dt/t."""
        decades = math.log10(self.t_max / self.t_min)
        count = max(2, int(round(decades * self.nodes_per_decade))) + 1
        u = np.linspace(math.log(self.t_min), math.log(self.t_max), count)
        w = np.full(count, u[1] - u[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.exp(u), w

    def refined(self, factor: int = 2) -> "SubordinationPlan":
        return replace(self, nodes_per_decade=self.nodes_per_decade * factor)


DEFAULT_PLAN = SubordinationPlan()


def _multi(k, n: int) -> tuple[int, ...]:
    k = tuple(int(v) for v in np.atleast_1d(k))
    if len(k) == 1 and n > 1:
        raise DomainError("multi-index length must match dimension")
    if len(k) != n or any(v < 0 for v in k):
        raise DomainError("multi-index must be componentwise >= 0 and match n")
    return k


def _integrand_batch(nu: NuVector, k, t: float, x: np.ndarray, y: np.ndarray):
    """prod_j delta^{k_j} p_t^{nu_j}(x_j, y_j) over a batch of points."""
    out = 1.0
    for j in range(nu.n):
        out = out * eval_delta_heat_1d(nu.nu[j], k[j], t, x[j], y[j])
    return out


def _riesz_quadrature(nu, k, x, y, plan: SubordinationPlan, both: bool) -> np.ndarray:
    """Rows R(x, y) and, if ``both``, R(y, x) over batches x, y of shape (n, count).

    p_t^{nu+m} is symmetric in (x, y) bit for bit (x*y and (x-y)**2 are),
    so each axis's ladder is evaluated once per time node and combined for
    both argument orders.  The tail indicator compares the boundary-node
    contributions to the absolutely accumulated integral (the signed total
    may cancel to zero, legitimately, e.g. the order-2 kernel on the x < y
    side in 1-D).
    """
    nu = as_nu_vector(nu)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    k = _multi(k, nu.n)
    order = sum(k)
    if order < 1:
        raise DomainError("Riesz kernels need |k| >= 1")
    if np.any(np.all(x == y, axis=0)):
        raise DomainError("diagonal evaluation x == y is not defined")
    expansions = [delta_expansion(v, kj) for v, kj in zip(nu.nu, k)]
    pairs = ((x, y), (y, x)) if both else ((x, y),)
    t_nodes, w = plan.nodes()
    half = order / 2.0
    total = np.zeros((len(pairs), x.shape[1]))
    abs_total = np.zeros_like(total)
    first = last = None
    for i, (t, wi) in enumerate(zip(t_nodes, w)):
        ladders = [
            _p1d_shifts(v, e.shifts, t, x[j], y[j])
            for j, (v, e) in enumerate(zip(nu.nu, expansions))
        ]
        contrib = np.empty_like(total)
        for row, (a, b) in enumerate(pairs):
            integrand = 1.0
            for j, e in enumerate(expansions):
                integrand = integrand * e.combine(ladders[j], t, a[j], b[j])
            contrib[row] = wi * t**half * integrand
        total += contrib
        abs_total += np.abs(contrib)
        if i == 0:
            first = contrib
        last = contrib
    with np.errstate(invalid="ignore", divide="ignore"):
        tail = float(
            np.max(
                np.where(abs_total > 0, (np.abs(first) + np.abs(last)) / abs_total, 0.0)
            )
        )
    if tail > plan.tail_tolerance:
        warnings.warn(
            f"subordination tail indicator {tail:.2e} above "
            f"{plan.tail_tolerance:.0e}; widen the plan",
            RuntimeWarning,
            stacklevel=3,
        )
    return total / gamma(half)


def riesz_kernel_batch(nu, k, x, y, plan: SubordinationPlan = DEFAULT_PLAN):
    """Riesz kernel over batches: x, y of shape (n, count); warns when the
    subordination tail indicator exceeds the plan's tolerance."""
    return _riesz_quadrature(nu, k, x, y, plan, both=False)[0]


def riesz_kernel(nu, k, x, y, plan: SubordinationPlan = DEFAULT_PLAN) -> float:
    """Off-diagonal Riesz kernel value at a single pair of points."""
    nu = as_nu_vector(nu)
    x = np.asarray(np.atleast_1d(x), dtype=float)[:, None]
    y = np.asarray(np.atleast_1d(y), dtype=float)[:, None]
    return float(riesz_kernel_batch(nu, k, x, y, plan)[0])


_RIESZ_MATRIX_CACHE: dict = {}
_AXIS_PRE_CACHE: dict = {}


def _axis_precompute(axis):
    """t-independent pairwise node data, upper triangle only (symmetric)."""
    key = axis.cache_key()
    hit = _AXIS_PRE_CACHE.get(key)
    if hit is not None:
        return hit
    x = axis.nodes
    iu = np.triu_indices(x.size)
    xy_u = (x[:, None] * x[None, :])[iu]
    d2_u = ((x[:, None] - x[None, :]) ** 2)[iu]
    sq_u = np.sqrt(xy_u)
    pre = (iu, xy_u, d2_u, sq_u)
    if len(_AXIS_PRE_CACHE) > 64:
        _AXIS_PRE_CACHE.clear()
    _AXIS_PRE_CACHE[key] = pre
    return pre


def _axis_delta_matrix(nu_j: float, k_j: int, t: float, axis) -> np.ndarray:
    """delta^{k_j} p_t^{nu_j}(x_i, x_j) w_j, exploiting kernel symmetry.

    The shifted kernels p^{nu+m} are symmetric in (x, y); only the
    monomial coefficients of the derivative expansion break symmetry, so
    Bessel evaluations run on the upper triangle and are mirrored.
    """
    x = axis.nodes
    n = x.size
    iu, xy_u, d2_u, sq_u = _axis_precompute(axis)
    common = sq_u / (2.0 * t) * np.exp(-d2_u / (4.0 * t))
    live = common > 1e-280
    any_dead = not bool(np.all(live))
    expansion = delta_expansion(nu_j, k_j)
    z_u = xy_u / (2.0 * t)
    kernels = {}
    for m in expansion.shifts:
        if any_dead:
            vals = np.zeros_like(common)
            if np.any(live):
                vals[live] = common[live] * besseli_scaled(nu_j + m, z_u[live])
        else:
            vals = common * besseli_scaled(nu_j + m, z_u)
        full = np.empty((n, n))
        full[iu] = vals
        full.T[iu] = vals
        kernels[m] = full
    acc = np.zeros((n, n))
    for term in expansion.terms:
        mono = float(term.coeff) * t ** (-term.tneg)
        acc += mono * np.multiply.outer(x**term.xpow, x**term.ypow) * kernels[term.shift]
    return acc * axis.weights[None, :]


def riesz_matrix(nu, k, grid: Grid, plan: SubordinationPlan = DEFAULT_PLAN) -> np.ndarray:
    """Assembled 1-D transform matrix A[i, j] ~ R(x_i, x_j) w_j (cached)."""
    nu = as_nu_vector(nu)
    if grid.ndim != 1:
        raise GridError("assembled matrices are for 1-D grids")
    k = _multi(k, 1)
    key = (grid.cache_key(), nu.nu, k, plan)
    hit = _RIESZ_MATRIX_CACHE.get(key)
    if hit is not None:
        return hit
    t_nodes, w = plan.nodes()
    half = sum(k) / 2.0
    acc = np.zeros((grid.axes[0].size, grid.axes[0].size))
    for t, wi in zip(t_nodes, w):
        acc += wi * t**half * _axis_delta_matrix(nu.nu[0], k[0], t, grid.axes[0])
    acc /= gamma(half)
    acc.setflags(write=False)
    _RIESZ_MATRIX_CACHE[key] = acc
    return acc


def riesz_apply(nu, k, f: GridFunction, plan: SubordinationPlan = DEFAULT_PLAN) -> GridFunction:
    """Riesz transform of a grid function by subordination quadrature.

    |k| = 0 is the identity (useful as the degenerate case in spot checks).

    Time nodes with sqrt(t) below the local node spacing contribute
    unresolved near-diagonal spikes; for smooth inputs those contributions
    largely cancel, but accuracy-sensitive callers should choose
    plan.t_min around the square of the coarsest relevant spacing.
    """
    nu = as_nu_vector(nu)
    if nu.n != f.grid.ndim:
        raise GridError("order vector dimension does not match grid")
    k = _multi(k, nu.n)
    order = sum(k)
    if order == 0:
        return f
    if f.grid.ndim == 1:
        mat = riesz_matrix(nu, k, f.grid, plan)
        return GridFunction(f.grid, mat @ f.values)
    t_nodes, w = plan.nodes()
    half = order / 2.0
    acc = np.zeros(f.grid.shape)
    for t, wi in zip(t_nodes, w):
        vals = f.values
        for j in range(f.grid.ndim):
            mat = _axis_delta_matrix(nu.nu[j], k[j], t, f.grid.axes[j])
            vals = np.moveaxis(np.tensordot(mat, vals, axes=(1, j)), 0, j)
        acc += wi * t**half * vals
    return GridFunction(f.grid, acc / gamma(half))


def fractional_inverse_apply(
    nu,
    s: float,
    f: GridFunction,
    plan: SubordinationPlan = DEFAULT_PLAN,
    small_u_completion: bool = True,
) -> GridFunction:
    """L^{-s} f by subordination: (1/Gamma(s)) int u^s e^{-uL} f du/u.

    The [0, t_min] piece is completed analytically with e^{-uL} f ~ f,
    contributing f t_min^s / Gamma(s+1); this matters for s < 1, where the
    u^{s-1} weight concentrates mass at small times the grid cannot
    resolve, and lets callers pick t_min near the squared node spacing.
    """
    nu = as_nu_vector(nu)
    if not s > 0.0:
        raise DomainError("power s must be positive")
    u_nodes, w = plan.nodes()
    acc = np.zeros(f.grid.shape)
    for u, wi in zip(u_nodes, w):
        acc += wi * u**s * apply_semigroup(nu, u, f).values
    acc /= gamma(s)
    if small_u_completion:
        acc += f.values * plan.t_min**s / gamma(s + 1.0)
    return GridFunction(f.grid, acc)


def riesz_difference_batch(
    nu, k, axis_index: int, x, y, plan: SubordinationPlan = DEFAULT_PLAN
):
    """Kernel of R_nu - R_{nu+e_j}, one quadrature of the integrand difference."""
    nu = as_nu_vector(nu)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    k = _multi(k, nu.n)
    order = sum(k)
    if order < 1:
        raise DomainError("Riesz kernels need |k| >= 1")
    j = int(axis_index)
    if not 0 <= j < nu.n:
        raise DomainError("axis index out of range")
    nu_shift = nu.shifted(tuple(1 if i == j else 0 for i in range(nu.n)))
    t_nodes, w = plan.nodes()
    half = order / 2.0
    total = np.zeros(x.shape[1])
    for t, wi in zip(t_nodes, w):
        diff = _integrand_batch(nu, k, t, x, y) - _integrand_batch(nu_shift, k, t, x, y)
        total += wi * t**half * diff
    return total / gamma(half)


def riesz_difference_kernel(
    nu, k, axis_index: int, x, y, plan: SubordinationPlan = DEFAULT_PLAN
) -> float:
    nu = as_nu_vector(nu)
    x = np.asarray(np.atleast_1d(x), dtype=float)[:, None]
    y = np.asarray(np.atleast_1d(y), dtype=float)[:, None]
    return float(riesz_difference_batch(nu, k, axis_index, x, y, plan)[0])


def riesz_difference_matrix(
    nu, k, axis_index: int, grid: Grid, plan: SubordinationPlan = DEFAULT_PLAN
) -> np.ndarray:
    """Assembled 1-D difference-operator matrix (not cached; cheap enough)."""
    nu = as_nu_vector(nu)
    if grid.ndim != 1:
        raise GridError("assembled matrices are for 1-D grids")
    k = _multi(k, 1)
    x = grid.axes[0].nodes
    t_nodes, w = plan.nodes()
    half = sum(k) / 2.0
    acc = np.zeros((x.size, x.size))
    for t, wi in zip(t_nodes, w):
        diff = delta_heat_difference_1d(nu.nu[0], k[0], t, x[:, None], x[None, :])
        acc += wi * t**half * diff
    return acc * grid.axes[0].weights[None, :] / gamma(half)


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


def _drift(values) -> float:
    """Largest relative step between consecutive refinement levels; inf
    once a level is not finite."""
    worst = 0.0
    for a, b in zip(values, values[1:]):
        if math.isfinite(a) and a > 0:
            worst = max(worst, abs(b - a) / a)
        elif not math.isfinite(a) or not math.isfinite(b):
            worst = math.inf
    return worst


def _level_maxima(values, base: int, levels: int) -> list[float]:
    """Maxima over the nested prefixes of base * 2**lev entries."""
    return [float(np.max(values[: base * 2**lev])) for lev in range(levels)]


def _cz_triples(n: int, sample_plan: CzSamplePlan):
    """The nested (x, y, y') samples shared by the size and smoothness sweeps."""
    max_count = sample_plan.count * 2 ** (sample_plan.levels - 1)
    rng = make_rng(sample_plan.seed)
    x, y, yp, _ = sample_smooth_triples(
        rng, max_count, n, sample_plan.box, sample_plan.min_separation
    )
    return x, y, yp


def _size_side(n: int, x, y, r_xy, sample_plan: CzSamplePlan) -> dict:
    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    size_ratio = np.abs(r_xy) * d**n
    levels = _level_maxima(size_ratio, sample_plan.count, sample_plan.levels)
    worst = int(np.argmax(size_ratio))
    return {
        "C_hat": levels[-1],
        "per_refinement_C": levels,
        "drift": _drift(levels),
        "worst_sample": {"x": x[:, worst].tolist(), "y": y[:, worst].tolist()},
    }


def cz_size_sweep(nu, k, sample_plan: CzSamplePlan, plan: SubordinationPlan) -> dict:
    """The size side of ``cz_bound_check``: sup |R(x,y)| |x-y|^n, from
    R(x, y) alone."""
    nu = as_nu_vector(nu)
    x, y, _ = _cz_triples(nu.n, sample_plan)
    r_xy = _riesz_quadrature(nu, k, x, y, plan, both=False)[0]
    return _size_side(nu.n, x, y, r_xy, sample_plan)


def _smooth_sweep(nu: NuVector, k, sample_plan: CzSamplePlan, plan: SubordinationPlan):
    """The smoothness sides, plus the samples and R(x, y) they computed."""
    n = nu.n
    gam = min(1.0, nu.gamma_nu)
    gam_raw = nu.gamma_nu
    x, y, yp = _cz_triples(n, sample_plan)
    r_xy, r_yx = _riesz_quadrature(nu, k, x, y, plan, both=True)
    r_xyp, r_ypx = _riesz_quadrature(nu, k, x, yp, plan, both=True)

    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    dp = np.sqrt(np.sum((y - yp) ** 2, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        holder_rhs = (dp / d) ** gam / d**n
        holder_rhs_raw = (dp / d) ** gam_raw / d**n
        smooth_num = np.maximum(np.abs(r_xy - r_xyp), np.abs(r_yx - r_ypx))
        smooth_ratio = np.where(dp > 0, smooth_num / holder_rhs, 0.0)
        smooth_ratio_raw = np.where(dp > 0, smooth_num / holder_rhs_raw, 0.0)

    levels = _level_maxima(smooth_ratio, sample_plan.count, sample_plan.levels)
    raw_levels = _level_maxima(smooth_ratio_raw, sample_plan.count, sample_plan.levels)
    worst = int(np.argmax(smooth_ratio))
    sides = {
        "smooth": {
            "C_hat": levels[-1],
            "per_refinement_C": levels,
            "drift": _drift(levels),
            "exponent": gam,
            "worst_sample": {
                "x": x[:, worst].tolist(),
                "y": y[:, worst].tolist(),
                "y_prime": yp[:, worst].tolist(),
            },
        },
        "smooth_raw_exponent": {
            "C_hat": raw_levels[-1],
            "per_refinement_C": raw_levels,
            "drift": _drift(raw_levels),
            "exponent": gam_raw,
        },
    }
    return sides, x, y, r_xy


def cz_smooth_sweep(nu, k, sample_plan: CzSamplePlan, plan: SubordinationPlan) -> dict:
    """The "smooth" and "smooth_raw_exponent" entries of ``cz_bound_check``."""
    return _smooth_sweep(as_nu_vector(nu), k, sample_plan, plan)[0]


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
    Refinement doubles the (nested) sample count; the verdict applies the
    < 5% drift rule to both primary constants.  R(x, y), R(y, x), R(x, y')
    and R(y', x) come from two ladder batches, one per sampled pair.
    """
    nu = as_nu_vector(nu)
    sides, x, y, r_xy = _smooth_sweep(nu, k, sample_plan, plan)
    size = _size_side(nu.n, x, y, r_xy, sample_plan)
    smooth = sides["smooth"]
    stable = size["drift"] < 0.05 and smooth["drift"] < 0.05
    # The last level's maximum runs over every sample, so it is finite
    # exactly when every ratio is.
    finite = math.isfinite(size["C_hat"]) and math.isfinite(smooth["C_hat"])
    verdict = "stable" if (stable and finite) else ("violated" if not finite else "unstable")
    return {"size": size, **sides, "verdict": verdict}
