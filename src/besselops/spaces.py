"""Atoms, localized oscillation norms, coverings, and decompositions.

The critical radius rho(x) = min_j(x_j)/16 separates two regimes
throughout: balls below the critical radius require moment cancellation
(atoms) or polynomial correction (oscillation norms); balls at or above
it are judged by raw size.  Everything here works on sampled functions,
with grid quadrature standing in for integrals; integrals over balls that
stick out of the grid box are clipped to the box (``minimizing_polynomial``
warns when it clips one).

The (p, rho)-atom rule lives here, one copy of each part: ``_moment_order``,
``_check_p_range``, the construction ``_atom`` and the centred moment check
``_ball_moments``.  Below the critical radius one fit serves both the
oscillation norm and the moment cancellation of atoms: ``_moment_solve``
solves the moment equations of each function in the ball's scaled basis,
on the Gram matrix that ``_moment_gram`` checks (as for each annulus of
``atom_dual_decompose``); ``_moment_fit`` evaluates the fit in that basis,
``minimizing_polynomial`` expands it in raw monomials.
``bmo_norm`` also takes a stack of functions on one grid: the part of each
ball that does not depend on the function (its mask, volume and branch,
and below the critical radius its moment basis and Gram matrix) is formed
once, and the sums over the ball run on all functions at once, bit for
bit the one-function values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError, GridError, UnderResolvedError
from .grids import Grid, GridFunction, _one_grid
from .heat import _rho_arr, as_nu_vector, critical_function
from .sampling import _median

__all__ = [
    "Ball",
    "AtomCandidate",
    "AtomVerdict",
    "PolyND",
    "BallSampler",
    "CoveringResult",
    "DecompositionResult",
    "critical_function",
    "multi_indices",
    "unit_ball_volume",
    "validate_p_rho_atom",
    "validate_f_atom",
    "minimizing_polynomial",
    "bmo_norm",
    "vitali_covering",
    "atom_dual_decompose",
]


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@lru_cache(maxsize=None)
def multi_indices(n: int, max_order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices of length n with |alpha| <= max_order."""
    out = [()]
    for _ in range(n):
        out = [prefix + (k,) for prefix in out for k in range(max_order + 1)]
    return tuple(sorted(a for a in out if sum(a) <= max_order))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with strictly positive, finite center coordinates and
    a positive, finite radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(float(v) for v in np.atleast_1d(self.center))
        )
        if not self.center:
            raise DomainError("ball center must have at least one coordinate")
        if not all(0.0 < v < math.inf for v in self.center):
            raise DomainError("ball center must have positive, finite coordinates")
        if not 0.0 < self.radius < math.inf:
            raise DomainError("ball radius must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def critical_radius(self) -> float:
        """rho(center) = min_j(center_j)/16 (``heat._rho_arr``); the
        coordinates were checked here, so ``critical_function`` is not called."""
        return float(_rho_arr(np.asarray(self.center)))

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.n) * self.radius**self.n

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over points stacked on the first axis (n, ...)."""
        c = np.asarray(self.center).reshape((self.n,) + (1,) * (points.ndim - 1))
        return np.sum((points - c) ** 2, axis=0) <= self.radius**2


@dataclass(frozen=True)
class AtomCandidate:
    """A sampled candidate atom with its supporting ball and exponent p."""

    f: GridFunction
    ball: Ball
    p: float

    def __post_init__(self):
        if self.ball.n != self.f.grid.ndim:
            raise GridError("ball dimension does not match grid")
        if not 0.0 < self.p <= 1.0:
            raise DomainError("p must lie in (0, 1]")


def _node_stack(grid: Grid) -> np.ndarray:
    return np.stack(grid.node_mesh, axis=0)


def _moment_order(n: int, p: float) -> int:
    """omega = floor(n(1/p - 1)): a (p, rho)-atom on a subcritical ball has
    vanishing moments of every order up to omega."""
    return math.floor(n * (1.0 / p - 1.0))


def _check_p_range(n: int, p: float, nu, error=DomainError) -> None:
    """Raise ``error`` unless p > n/(n + nu_min + 1/2).  The exponent is the
    unclipped nu_min + 1/2: the transform of an atom with a nonzero moment
    against y^(nu+1/2) decays as x^(-nu-3/2), so its L^p(0, inf) quasi-norm
    is infinite at and below the bound."""
    nuv = as_nu_vector(nu)
    if not p > n / (n + nuv.gamma_nu):
        raise error(f"p={p} below the admissible range for nu={nuv.nu}")


def _monomials(points: np.ndarray, alpha) -> np.ndarray:
    out = np.ones(points.shape[1:])
    for j, a in enumerate(alpha):
        if a:
            out = out * points[j] ** a
    return out


@dataclass(frozen=True)
class AtomVerdict:
    valid: bool
    support_ok: bool
    size_ok: bool
    cancellation_ok: bool
    cancellation_required: bool
    kind: str = ""
    diagnostics: dict = field(default_factory=dict, compare=False)


def _atom(grid: Grid, prof: np.ndarray, mask: np.ndarray, ball: Ball, p: float) -> AtomCandidate:
    """The (p, rho)-atom of the profile ``prof`` (0 off ``mask``) on ``ball``:
    below the critical radius ``_moment_fit`` removes the moments up to
    ``_moment_order`` on ``mask``; the sup is scaled to 0.9 |B|^{-1/p}.
    ``UnderResolvedError`` when nothing is left, or as ``_moment_gram``."""
    prof = np.array(prof, dtype=float)
    if ball.radius < ball.critical_radius:
        indices = multi_indices(grid.ndim, _moment_order(grid.ndim, p))
        pts, w = _node_stack(grid)[:, mask], grid.weight_array[mask]
        prof[mask] -= _moment_fit(prof[mask][None], pts, w, ball, indices)[0]
    sup = float(np.max(np.abs(prof)))
    if sup == 0.0:
        raise UnderResolvedError("atom support under-resolved; increase grid_nodes")
    vals = prof * (0.9 * ball.volume ** (-1.0 / p) / sup)
    return AtomCandidate(GridFunction(grid, vals), ball, p)


def _ball_moments(vals: np.ndarray, grid: Grid, ball: Ball, indices) -> dict[str, float]:
    """Centred moments sum(w * vals * ((x - c)/r)^alpha) over the ball's
    nodes, in the scaled basis ``_moment_fit`` solves in, each relative to
    the L^1 norm of ``vals`` on the ball; keyed by ``str(alpha)``."""
    pts = _node_stack(grid)
    mask = ball.contains(pts)
    w, v = grid.weight_array[mask], vals[mask]
    l1 = max(float(np.sum(w * np.abs(v))), 1e-300)
    cols = _scaled_basis(pts[:, mask], ball.center, ball.radius, indices)
    return {str(alpha): float(np.sum(w * v * col)) / l1 for alpha, col in zip(indices, cols)}


# Slack of the atom sup bound, and the largest centred moment relative to
# the atom's L^1 norm on its ball (``_ball_moments``) that counts as 0.
_SUP_TOL = 1e-12
_MOMENT_TOL = 1e-10


def validate_p_rho_atom(a: AtomCandidate, nu=None, restrict_radius: bool = False) -> AtomVerdict:
    """Check the three atom conditions against the candidate's ball.

    Support inside the ball; sup bound |B|^{-1/p} up to ``_SUP_TOL``;
    vanishing moments up to ``_moment_order`` required only when the radius
    is subcritical (r < rho(center)): each centred moment
    |sum w a ((x - c)/r)^alpha| / ||a||_1 on the ball (``_ball_moments``,
    signed in ``diagnostics["moments"]``) at most ``_MOMENT_TOL``.
    ``restrict_radius`` additionally demands r <= rho(center), the stricter
    convention.  ``nu`` (optional) enables ``_check_p_range``.
    """
    grid = a.f.grid
    n = grid.ndim
    if nu is not None:
        _check_p_range(n, a.p, nu)
    mask = a.ball.contains(_node_stack(grid))
    vals = a.f.values
    support_ok = bool(np.all(vals[~mask] == 0.0))
    sup_bound = a.ball.volume ** (-1.0 / a.p)
    size_ok = bool(np.max(np.abs(vals)) <= sup_bound * (1.0 + _SUP_TOL))

    rho = a.ball.critical_radius
    required = a.ball.radius < rho
    omega = _moment_order(n, a.p)
    moments = _ball_moments(vals, grid, a.ball, multi_indices(n, omega)) if required else {}
    cancellation_ok = all(abs(m) <= _MOMENT_TOL for m in moments.values())
    radius_ok = (not restrict_radius) or a.ball.radius <= rho
    valid = support_ok and size_ok and cancellation_ok and radius_ok
    return AtomVerdict(
        valid=valid,
        support_ok=support_ok,
        size_ok=size_ok,
        cancellation_ok=cancellation_ok,
        cancellation_required=required,
        kind="p-rho",
        diagnostics={
            "sup": float(np.max(np.abs(vals))),
            "sup_bound": sup_bound,
            "rho": rho,
            "radius": a.ball.radius,
            "radius_ok": radius_ok,
            "moment_order": omega if required else None,
            "moments": moments,
            "l1": float(np.sum(grid.weight_array * np.abs(vals))),
        },
    )


def validate_f_atom(f: GridFunction) -> AtomVerdict:
    """1-D two-kind atom check: normalized left indicator, or a mean-zero
    bounded bump on an interval.

    Verdicts are grid-tolerant: the indicator jump may straddle one node,
    and interval lengths are inferred from the support extent.
    """
    if f.grid.ndim != 1:
        raise GridError("these atoms are one-dimensional")
    x = f.grid.axes[0].nodes
    w = f.grid.axes[0].weights
    vals = f.values
    amax = float(np.max(np.abs(vals)))
    if amax == 0.0:
        return AtomVerdict(False, False, False, False, False, kind="none")
    support = np.abs(vals) > 1e-12 * amax
    idx = np.nonzero(support)[0]
    first, last = int(idx[0]), int(idx[-1])

    # Kind (a): constant 1/delta from the left edge of the domain.
    if first == 0:
        level = _median(vals[support])
        if level > 0.0:
            delta = 1.0 / level
            inside = x < delta
            boundary = np.abs(x - delta) <= f.grid.axes[0].spacing_max
            flat = np.all(
                np.abs(vals[inside & ~boundary] - level) <= 1e-9 * level
            ) and np.all(np.abs(vals[~inside & ~boundary]) <= 1e-12 * level)
            if flat and delta <= x[-1]:
                return AtomVerdict(
                    True, True, True, True, False, kind="indicator",
                    diagnostics={"delta": delta},
                )

    # Kind (b): supported on an interval, mean zero, sup <= 1/|I|.
    mean = float(np.sum(w * vals))
    l1 = float(np.sum(w * np.abs(vals)))
    mean_ok = bool(abs(mean) <= 1e-8 * l1)
    length = float(x[last] - x[first])
    gap = f.grid.axes[0].spacing_max
    length_est = max(length, gap)
    size_ok = bool(amax <= (1.0 + 1e-9) / length_est)
    valid = mean_ok and size_ok
    return AtomVerdict(
        valid, True, size_ok, mean_ok, True, kind="interval" if valid else "none",
        diagnostics={"interval": (float(x[first]), float(x[last])), "mean": mean},
    )


# ---------------------------------------------------------------------------
# Minimizing polynomials and the localized oscillation norm


@dataclass
class PolyND:
    """Polynomial with raw-monomial coefficients indexed by multi-indices."""

    coeffs: dict[tuple[int, ...], float]
    residual: float = 0.0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(points.shape[1:])
        for alpha, c in self.coeffs.items():
            out += c * _monomials(points, alpha)
        return out


def _scaled_basis(points, center, radius, indices):
    cols = []
    c = np.asarray(center).reshape((len(center),) + (1,) * (points.ndim - 1))
    scaled = (points - c) / radius
    for alpha in indices:
        cols.append(_monomials(scaled, alpha))
    return cols


def _weighted_gram(cols, w) -> np.ndarray:
    """Gram matrix of the columns under the weights, entry by entry.

    Each entry is its own ``sum(w * a * b)``; a matrix-product form would
    round differently and move reported constants in the last digits.
    """
    return np.array([[float(np.sum(w * ca * cb)) for cb in cols] for ca in cols])


def _expand_scaled_coeffs(coeffs, center, radius, indices, n):
    """Convert coefficients in ((x-c)/r)^beta to raw monomial coefficients."""
    raw: dict[tuple[int, ...], float] = {}
    for alpha, c in zip(indices, coeffs):
        scale = c / radius ** sum(alpha)
        # expand prod_j (x_j - c_j)^{a_j}
        per_axis = []
        for j, aj in enumerate(alpha):
            terms_j = [
                (kj, math.comb(aj, kj) * (-center[j]) ** (aj - kj))
                for kj in range(aj + 1)
            ]
            per_axis.append(terms_j)
        for combo in product(*per_axis):
            expo = tuple(k for k, _ in combo)
            coef = scale
            for _, b in combo:
                coef *= b
            raw[expo] = raw.get(expo, 0.0) + coef
    return raw


# Largest condition number of a ball's moment Gram matrix that is solved.
_COND_LIMIT = 1e10


def _moment_gram(pts, w, ball: Ball, indices):
    """Scaled basis columns, their Gram matrix and its condition on the
    ball's nodes ``pts`` with weights ``w``; ``UnderResolvedError`` when the
    ball holds too few nodes or the Gram matrix is numerically singular.
    None depends on the function fitted."""
    if w.size < len(indices):
        raise UnderResolvedError(
            f"ball holds {w.size} nodes; need at least {len(indices)}"
        )
    cols = _scaled_basis(pts, ball.center, ball.radius, indices)
    gram = _weighted_gram(cols, w)
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise UnderResolvedError(f"moment matrix condition {cond:.2e} too large")
    return cols, gram, cond


def minimizing_polynomial(g: GridFunction, ball: Ball, max_degree: int) -> PolyND:
    """The unique polynomial of the given degree matching all moments of g
    on the ball: int_B (g - P) x^alpha dx = 0 for |alpha| <= max_degree.

    Solved in a centered, radius-scaled basis for conditioning; raises
    ``UnderResolvedError`` when the ball holds too few nodes or the moment
    matrix is numerically singular.
    """
    grid = g.grid
    n = grid.ndim
    if max_degree < 0:
        raise DomainError("degree must be >= 0")
    nodes = _node_stack(grid)
    mask = ball.contains(nodes)
    if _clipped_to_box(grid, ball):
        warnings.warn("ball clipped to the grid box", RuntimeWarning, stacklevel=2)
    indices = multi_indices(n, max_degree)
    w, vals = grid.weight_array[mask], g.values[mask]
    _, gram, rhs, sol = _moment_solve(vals[None], nodes[:, mask], w, ball, indices)
    rhs, sol = rhs[0], sol[:, 0]
    resid = gram @ sol - rhs
    scale = np.maximum(np.abs(rhs), float(np.sum(w * np.abs(vals))) + 1e-300)
    return PolyND(
        _expand_scaled_coeffs(sol, ball.center, ball.radius, indices, n),
        residual=float(np.max(np.abs(resid) / scale)),
    )


def _moment_solve(vals, pts, w, ball: Ball, indices):
    """(basis columns, Gram matrix, moments, coefficients) of the moment
    equations of each row of ``vals`` (functions x the ball's nodes ``pts``,
    weights ``w``) in the ball's scaled basis, as functions x basis and basis
    x functions; ``UnderResolvedError`` as ``_moment_gram``.

    Each moment is the row sum of ``w * col * vals``, the pairwise sum the
    one-function ``np.sum`` takes; each function is solved on its own, since
    a multi-right-hand-side solve need not round alike.
    """
    cols, gram, _ = _moment_gram(pts, w, ball, indices)
    rhs = np.stack([np.sum(w * ca * vals, axis=1) for ca in cols], axis=1)
    sol = np.stack([np.linalg.solve(gram, row) for row in rhs], axis=1)
    return cols, gram, rhs, sol


def _moment_fit(vals, pts, w, ball: Ball, indices) -> np.ndarray:
    """The minimizing polynomial of each row of ``vals`` (``_moment_solve``)
    evaluated on the ball's nodes."""
    cols, _, _, sol = _moment_solve(vals, pts, w, ball, indices)
    out = np.zeros(vals.shape)
    for c, col in zip(sol, cols):
        out += c[:, None] * col
    return out


def _clipped_to_box(grid: Grid, ball: Ball) -> bool:
    for j, (lo, hi) in enumerate(grid.box):
        if ball.center[j] - ball.radius < lo or ball.center[j] + ball.radius > hi:
            return True
    return False


@dataclass(frozen=True)
class BallSampler:
    """Deterministic stratified ball family: strided node centers, radii
    log-spaced from twice the coarsest spacing to the box diameter, so both
    the subcritical and supercritical branches are populated."""

    grid: Grid
    n_centers: int = 24
    n_radii: int = 10

    def balls(self):
        shape = self.grid.shape
        total = int(np.prod(shape))
        stride = max(1, total // self.n_centers)
        pts = self.grid.points()
        spacing = max(ax.spacing_max for ax in self.grid.axes)
        diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.grid.box))
        radii = np.geomspace(2.0 * spacing, diam, self.n_radii)
        for i in range(0, total, stride):
            center = tuple(pts[i])
            for r in radii:
                yield Ball(center, float(r))


def bmo_norm(
    f, s: float, max_degree: int, sampler: BallSampler | None = None
) -> float | list[float]:
    """Localized oscillation norm estimate over a sampled family of balls.

    Subcritical balls (r < rho(center)) measure the L^2 deviation from the
    minimizing polynomial; balls at or above the critical radius measure
    raw L^2 size.  Both are normalized by |B|^{s/n} (true ball volume) and
    averaged over B intersected with the grid box.  Under-resolved balls
    are skipped with a warning.  A sampled maximum is a lower proxy for
    the supremum; callers judge stability by refining the sampler.

    ``f`` may also be a sequence of grid functions on one grid; the result
    is then a list with one value per function, each bit for bit its
    one-function value.  Each ball's mask, volume, branch and (below the
    critical radius) moment basis and Gram matrix are formed once for the
    whole sequence, which is one pass over ``sampler.balls()`` and at most
    one warning.
    """
    if s < 0.0:
        raise DomainError("s must be >= 0")
    if max_degree < math.floor(s):
        raise DomainError("polynomial degree must be at least floor(s)")
    single = isinstance(f, GridFunction)
    functions = [f] if single else list(f)
    if not functions:
        return []
    grid = _one_grid(functions)
    values = np.stack([g.values.ravel() for g in functions])
    sampler = sampler or BallSampler(grid)
    n = grid.ndim
    nodes = _node_stack(grid)
    weights = grid.weight_array
    indices = multi_indices(n, max_degree)
    best = np.zeros(len(functions))
    skipped = 0
    for ball in sampler.balls():
        mask = ball.contains(nodes)
        w = weights[mask]
        if float(w.sum()) <= 0.0:
            skipped += 1
            continue
        # C-contiguous rows, so each row sum is the pairwise sum of one
        # function's ``np.sum`` (``values[:, mask]`` comes out column-major).
        dev = np.compress(mask.ravel(), values, axis=1)
        if ball.radius < ball.critical_radius:
            try:
                dev = dev - _moment_fit(dev, nodes[:, mask], w, ball, indices)
            except UnderResolvedError:
                skipped += 1
                continue
        volume = ball.volume
        mean_sq = (w * dev**2).sum(axis=1) / volume
        val = volume ** (-s / n) * np.sqrt(np.maximum(mean_sq, 0.0))
        best = np.where(val > best, val, best)  # max(best, val), keeping best on nan
    if skipped:
        warnings.warn(
            f"{skipped} under-resolved balls skipped", RuntimeWarning, stacklevel=2
        )
    out = best.tolist()
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Critical-radius covering with partition of unity


@dataclass
class CoveringResult:
    """Covering of a box by critical-radius balls plus indicator partition.

    Partition functions are stored sparsely (node indices per ball); use
    ``psi(i)`` to materialize one as a GridFunction.
    """

    grid: Grid
    box: tuple[tuple[float, float], ...]
    centers: list[tuple[float, ...]]
    radii: list[float]
    node_in_box: np.ndarray
    cover_count: np.ndarray
    supports: list[np.ndarray]
    max_overlap: int

    def psi(self, i: int) -> GridFunction:
        vals = np.zeros(self.grid.shape)
        flat = vals.reshape(-1)
        sup = self.supports[i]
        flat[sup] = 1.0 / self.cover_count.reshape(-1)[sup]
        return GridFunction(self.grid, vals)

    def partition_sum(self) -> GridFunction:
        vals = np.zeros(int(np.prod(self.grid.shape)))
        for sup in self.supports:
            vals[sup] += 1.0 / self.cover_count.reshape(-1)[sup]
        return GridFunction(self.grid, vals.reshape(self.grid.shape))

    def min_pairwise_fifth_gap(self) -> float:
        """min over pairs of dist(c_i, c_j) - (r_i + r_j)/5 (>= 0 required)."""
        c = np.asarray(self.centers)
        r = np.asarray(self.radii)
        d = np.sqrt(np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1))
        gap = d - (r[:, None] + r[None, :]) / 5.0
        np.fill_diagonal(gap, np.inf)
        return float(np.min(gap))


def vitali_covering(box, grid: Grid) -> CoveringResult:
    """Cover the box by balls B(x, rho(x)) with pairwise disjoint 1/5-balls.

    Greedy construction on grid nodes in descending critical radius:
    select a node unless an already selected full ball covers it.  Every
    node ends up covered, selected centers have disjoint fifth-balls, and
    the measured overlap count is reported.  The box must sit strictly
    inside the open orthant (the critical radius vanishes on the boundary,
    which would force infinitely many balls).
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != grid.ndim:
        raise GridError("box dimension does not match grid")
    for lo, hi in box:
        if not 0.0 < lo < hi:
            raise DomainError("box must satisfy 0 < lo < hi per axis")
    pts = grid.points()
    in_box = np.ones(pts.shape[0], dtype=bool)
    for j, (lo, hi) in enumerate(box):
        in_box &= (pts[:, j] >= lo) & (pts[:, j] <= hi)
    idx = np.nonzero(in_box)[0]
    if idx.size == 0:
        raise GridError("no grid nodes inside the box")
    box_pts = pts[idx]
    rho = _rho_arr(box_pts.T)
    order = np.argsort(-rho, kind="stable")

    covered = np.zeros(idx.size, dtype=bool)
    cover_count = np.zeros(idx.size, dtype=np.int64)
    centers: list[tuple[float, ...]] = []
    radii: list[float] = []
    supports: list[np.ndarray] = []
    for oi in order:
        if covered[oi]:
            continue
        c = box_pts[oi]
        r = rho[oi]
        centers.append(tuple(c))
        radii.append(float(r))
        inside = np.sum((box_pts - c) ** 2, axis=1) <= r * r
        covered |= inside
        cover_count += inside
        supports.append(idx[np.nonzero(inside)[0]])

    full_count = np.zeros(int(np.prod(grid.shape)), dtype=np.int64)
    full_count[idx] = cover_count
    return CoveringResult(
        grid=grid,
        box=box,
        centers=centers,
        radii=radii,
        node_in_box=in_box.reshape(grid.shape),
        cover_count=full_count.reshape(grid.shape),
        supports=supports,
        max_overlap=int(np.max(cover_count)),
    )


# ---------------------------------------------------------------------------
# Dyadic-annulus dual-basis decomposition


@dataclass
class DecompositionResult:
    a1: GridFunction
    a2: dict[tuple[int, tuple[int, ...]], GridFunction]
    a3: dict[tuple[int, ...], GridFunction]
    j0: int
    omega: int
    certificates: dict


def atom_dual_decompose(a: AtomCandidate) -> DecompositionResult:
    """Split an atom into a moment-free part plus dyadic-annulus pieces.

    With omega = ``_moment_order`` and j0 the first dyadic level at which
    2^{j0} r reaches the critical radius of the center, the projection of
    the atom onto polynomials of degree <= omega on the ball telescopes
    across annuli via the dual bases of the centered monomials under the
    normalized annulus averages.  The output reproduces the atom exactly on
    grid nodes: a = a1 + sum a2_{j,alpha} + sum a3_alpha, where a1 keeps
    the support and gains vanishing moments, each a2 piece has vanishing
    moments on its annulus pair, and the a3 pieces live at the critical
    scale.  Each annulus Gram matrix passes ``_moment_gram``, and its
    condition number and a Gram-Schmidt basis (with one
    re-orthogonalization) are reported, with a1's ``_ball_moments``.
    """
    grid = a.f.grid
    n = grid.ndim
    ball = a.ball
    rho = ball.critical_radius
    if ball.radius >= rho:
        raise DomainError("decomposition needs a subcritical ball (r < rho)")
    omega = _moment_order(n, a.p)
    indices = multi_indices(n, omega)
    j0 = max(1, math.ceil(math.log2(rho / ball.radius)))
    pts = _node_stack(grid)
    w = grid.weight_array
    centered = pts - np.asarray(ball.center).reshape((n,) + (1,) * grid.ndim)
    dist = np.sqrt(np.sum(centered**2, axis=0))
    # annulus j holds 2^(j-1) r < |x - c| <= 2^j r; annulus 0 the whole ball
    lows = [-1.0] + [2**j * ball.radius for j in range(j0 - 1)]
    masks = [(dist <= 2**j * ball.radius) & (dist > lo) for j, lo in enumerate(lows)]

    # Raw moments of the atom against centered monomials.
    I_alpha = {
        alpha: float(np.sum(w * a.f.values * _monomials(centered, alpha)))
        for alpha in indices
    }

    duals = []  # per level: dict alpha -> values on the full grid (masked)
    conds = []
    gs_sup = []
    measures = [float(np.sum(w[m])) for m in masks]
    for j, mask in enumerate(masks):
        radius_j = 2**j * ball.radius
        ww = w[mask] / measures[j]  # normalized average inner product
        cols, gram, cond = _moment_gram(pts[:, mask], ww, Ball(ball.center, radius_j), indices)
        conds.append(cond)
        # Orthonormal basis via Gram-Schmidt with one re-orthogonalization
        # (certificate only; the dual basis below drives the decomposition).
        basis = []
        for ca in cols:
            v = ca.copy()
            for u in basis:
                v -= float(np.sum(ww * v * u)) * u
            for u in basis:
                v -= float(np.sum(ww * v * u)) * u
            norm = math.sqrt(float(np.sum(ww * v * v)))
            basis.append(v / norm)
        gs_sup.append(max(float(np.max(np.abs(u))) for u in basis))
        inv = np.linalg.inv(gram)
        level = {}
        for ai, alpha in enumerate(indices):
            vals = np.zeros(pts.shape[1:])
            combo = np.zeros(int(np.count_nonzero(mask)))
            for bi in range(len(indices)):
                combo += inv[ai, bi] * cols[bi]
            # duals against raw centered monomials need the radius rescale
            vals[mask] = combo / radius_j ** sum(alpha)
            level[alpha] = vals
        duals.append(level)

    projection = np.zeros(grid.shape)
    for alpha in indices:
        projection += I_alpha[alpha] * duals[0][alpha] / measures[0]
    a1 = GridFunction(grid, a.f.values - projection)

    a2 = {}
    for alpha in indices:
        for j in range(j0 - 1):
            piece = I_alpha[alpha] * (
                duals[j][alpha] / measures[j] - duals[j + 1][alpha] / measures[j + 1]
            )
            a2[(j, alpha)] = GridFunction(grid, piece)
    a3 = {
        alpha: GridFunction(grid, I_alpha[alpha] * duals[j0 - 1][alpha] / measures[j0 - 1])
        for alpha in indices
    }

    # Certificates.
    recon = a1.values + sum(p.values for p in a2.values()) + sum(
        p.values for p in a3.values()
    )
    recon_resid = float(np.max(np.abs(recon - a.f.values)))
    pairing_resid = 0.0
    for j, (mask, level) in enumerate(zip(masks, duals)):
        ww = w[mask] / measures[j]
        for ai, alpha in enumerate(indices):
            for bi, beta in enumerate(indices):
                got = float(
                    np.sum(ww * level[alpha][mask] * _monomials(centered[:, mask], beta))
                )
                pairing_resid = max(pairing_resid, abs(got - (1.0 if ai == bi else 0.0)))
    dual_sup = {
        (j, alpha): float(np.max(np.abs(duals[j][alpha]))) * (2**j * ball.radius) ** sum(alpha)
        for j in range(j0)
        for alpha in indices
    }
    # Scaled sup norms of the a2 pieces against the dyadic atom bound.
    lam = {}
    for (j, alpha), piece in a2.items():
        vol_j = unit_ball_volume(n) * (2**j * ball.radius) ** n
        lam[(j, alpha)] = float(np.max(np.abs(piece.values))) * vol_j ** (1.0 / a.p)
    rates = [
        lam[(j, alpha)] ** (1.0 / j)
        for (j, alpha) in lam
        if j >= 1 and lam[(j, alpha)] > 0
    ]
    certificates = {
        "reconstruction_residual": recon_resid,
        "dual_pairing_residual": pairing_resid,
        "a1_moment_residuals": _ball_moments(a1.values, grid, ball, indices),
        "gram_condition_numbers": conds,
        "orthonormal_sup_norms": gs_sup,
        "dual_sup_certificates": {str(k): v for k, v in dual_sup.items()},
        "a2_scaled_sup": {str(k): v for k, v in lam.items()},
        "a2_measured_rate": max(rates) if rates else 0.0,
    }
    return DecompositionResult(a1=a1, a2=a2, a3=a3, j0=j0, omega=omega, certificates=certificates)
