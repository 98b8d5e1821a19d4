"""Configuration-driven verification campaigns.

Every campaign evaluates one inequality family over a deterministic,
seeded, nested sample plan and fits the existential constants: for a
candidate exponential rate c in the config grid, C(c) is the maximum of
lhs/rhs(c) over the samples (``sampling._ratios``); the reported rate is the
smallest c whose C(c) is refinement-stable, found by trying the grid in
ascending order (``_fit_c``), or, when none is, the c minimizing C(c) times
a stability penalty.  The verdict follows the refinement ladder and drift
gate of ``sampling``.  ``_report`` builds the report of every
runner whose constant is its last level maximum; thm1_6ii builds its own.
Inequalities whose right-hand side carries no exponential rate (prop2_8,
thm1_5_size, thm1_5_smooth and the operator campaigns, whose runners call
``riesz``, ``grids`` and ``spaces`` themselves) ignore the c grid.

Each inequality id is declared once, as an entry of ``SPECS``; its default
config is the bundled ``configs/<id>.json``.

Reports are canonical JSON: identical (config, seed) pairs produce byte
identical files.  Wall-clock runtime is therefore excluded from the
report; the CLI writes it to a sidecar instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import (
    GridFunction,
    T_GRID_DEFAULT,
    _maximal_values,
    default_grid,
    lp_norm,
)
from .heat import (
    NuVector,
    _bound_rhs_arrays,
    _pair_word,
    _word_products,
    adjoint_power_heat_1d,
    critical_function,
    delta_dt_heat_1d,
    delta_dt_heat_nd_arrays,
    delta_expansion,
    delta_heat_difference_1d,
    eval_delta_heat_1d,
    mixed_partial_delta,
)
from .riesz import (
    DEFAULT_PLAN,
    CzSamplePlan,
    SubordinationPlan,
    _cz_sides,
    grid_multi_index,
    riesz_apply,
    riesz_difference_matrix,
    riesz_matrix,
)
from .sampling import (
    UNIFORMITY_GATE,
    _drift,
    _level_maxima,
    _median,
    _ratios,
    _verdict,
    _worst,
    loguniform,
    make_rng,
    sample_kernel_points,
)
from .spaces import Ball, BallSampler, _atom, _check_p_range, bmo_norm

__all__ = [
    "INEQUALITY_IDS",
    "CampaignConfig",
    "BoundReport",
    "run_campaign",
    "default_config",
    "bundled_config_path",
]

@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: inequality id, parameters, sampling and fitting plan."""

    inequality: str
    nu: tuple[float, ...] = (0.5,)
    k: tuple[int, ...] = (1,)
    ell: tuple[int, ...] = (0,)
    big_m: int = 0
    p: float = 1.0
    s: float = 0.0
    epsilon: float = 0.5
    samples: int = 10000
    seed: int = 0
    refine_levels: int = 3
    c_grid: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 32.0)
    t_range: tuple[float, float] = (1e-4, 1e2)
    box: tuple[float, float] = (1e-2, 20.0)
    grid_nodes: int = 384
    plan_t_min: float = DEFAULT_PLAN.t_min
    plan_t_max: float = DEFAULT_PLAN.t_max
    plan_nodes_per_decade: int = DEFAULT_PLAN.nodes_per_decade
    atom_count: int = 50
    corpus_size: int = 10
    min_separation: float = 1e-2

    def __post_init__(self):
        if self.inequality not in INEQUALITY_IDS:
            raise ConfigError(f"unknown inequality id {self.inequality!r}")
        object.__setattr__(self, "nu", tuple(float(v) for v in np.atleast_1d(self.nu)))
        object.__setattr__(self, "k", tuple(int(v) for v in np.atleast_1d(self.k)))
        object.__setattr__(self, "ell", tuple(int(v) for v in np.atleast_1d(self.ell)))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        object.__setattr__(self, "t_range", tuple(float(v) for v in self.t_range))
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))
        if self.samples < 100:
            raise ConfigError("sample count must be at least 100")
        if self.refine_levels < 2:
            raise ConfigError("need at least 2 refinement levels")
        if not self.c_grid or not all(0.0 < c < math.inf for c in self.c_grid):
            raise ConfigError("c grid must be a nonempty list of finite rates > 0")

    @property
    def nu_vector(self) -> NuVector:
        return NuVector(self.nu)

    @property
    def plan(self) -> SubordinationPlan:
        return SubordinationPlan(
            self.plan_t_min, self.plan_t_max, self.plan_nodes_per_decade
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, source) -> "CampaignConfig":
        if isinstance(source, str) and source.lstrip().startswith("{"):
            payload = json.loads(source)
        else:
            try:
                with open(source) as fh:
                    payload = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class BoundReport:
    """Fitted constants and verdict for one inequality campaign."""

    inequality: str
    params: dict
    C_hat: float
    c_hat: float
    worst_sample: dict
    per_refinement_C: list[float]
    refinement_delta: float
    verdict: str
    notes: list[str] = field(default_factory=list)

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


def _selection_levels(ratios: np.ndarray, config) -> list[float]:
    """Finer internal refinement ladder used only to pick c.

    Slowly divergent suprema can sneak under the drift gate on three coarse
    levels; starting the ladder at a quarter of the base count exposes
    them without changing the constants reported on the coarse ladder.
    """
    base = max(100, config.samples // 4)
    counts = []
    cnt = base
    top = config.samples * 2 ** (config.refine_levels - 1)
    while cnt < top:
        counts.append(cnt)
        cnt *= 2
    counts.append(top)
    return [float(np.max(ratios[:c])) for c in counts]


def _fit_c(lhs, rhs_of_c, config):
    """Smallest c in the grid with a refinement-stable C(c); returns
    (c_hat, levels, ratios, rhs) of that c.

    ``rhs_of_c(c)`` builds the right-hand side of one rate.  The rates are
    tried in ascending order, each built only when reached, and the search
    stops at the first stable one: the smallest stable c, so the result is
    bit for bit that of building every c first.  When no rate is stable,
    every c has been built and the fit minimizes C(c) * (1 + drift(c)) over
    the grid in its own order, so the report still names the least-bad
    candidate.
    """
    results = {}
    for c in sorted(set(config.c_grid)):
        rhs = rhs_of_c(c)
        ratios = _ratios(lhs, rhs)
        levels = _level_maxima(ratios, config.samples, config.refine_levels)
        if _verdict(levels, _drift(_selection_levels(ratios, config))) == "stable":
            return c, levels, ratios, rhs
        results[c] = (levels, ratios, rhs)
    scores = []
    for c in config.c_grid:
        levels = results[c][0]
        top = levels[-1]
        scores.append(top * (1.0 + _drift(levels)) if math.isfinite(top) else math.inf)
    c_hat = config.c_grid[int(np.argmin(scores))]
    return (c_hat, *results[c_hat])


def _report(config, levels, worst_sample, params, notes=(), c_hat=0.0, verdict=None):
    """The report of a campaign whose constant is its last level maximum;
    the verdict is ``_verdict`` of the levels unless one is passed in."""
    drift = _drift(levels)
    return BoundReport(
        inequality=config.inequality,
        params=_params_dict(config, **params),
        C_hat=levels[-1],
        c_hat=c_hat,
        worst_sample=worst_sample,
        per_refinement_C=levels,
        refinement_delta=drift,
        verdict=verdict or _verdict(levels, drift),
        notes=list(notes),
    )


def _params_dict(config: CampaignConfig, **extra) -> dict:
    out = {
        "nu": list(config.nu),
        "k": list(config.k),
        "ell": list(config.ell),
        "big_m": config.big_m,
        "samples": config.samples,
        "seed": config.seed,
        "refine_levels": config.refine_levels,
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Pointwise kernel-estimate campaigns


def _sample_box(config: CampaignConfig, count: int):
    rng = make_rng(config.seed)
    return sample_kernel_points(rng, count, len(config.nu), config.t_range, config.box)


def _sample_prop2_7(config: CampaignConfig, count: int):
    """The region y/2 < x < 2y with x >= sqrt(t)."""
    rng = make_rng(config.seed)
    x0 = loguniform(rng, config.box[0], config.box[1], count)
    y0 = x0 * 2.0 ** rng.uniform(-1.0, 1.0, count)
    t = (x0 * loguniform(rng, 1e-3, 1.0, count)) ** 2
    return t, x0[None, :], y0[None, :]


def _pointwise_campaign(config: CampaignConfig, collect: bool):
    spec = SPECS[config.inequality]
    nu = config.nu_vector
    count = config.samples * 2 ** (config.refine_levels - 1)
    t, x, y = spec.sampler(config, count)
    lhs = np.abs(spec.lhs(config, t, x, y))
    k_slot, ell_slot = spec.rhs(config)
    rhs_of_c = _bound_rhs_arrays(config.inequality, nu, k_slot, ell_slot, t, x, y)
    c_hat, levels, ratios, rhs = _fit_c(lhs, rhs_of_c, config)
    worst_sample = _worst(ratios, t=t, x=x, y=y, lhs=lhs, rhs=rhs, ratio=ratios)
    params = {"t_range": list(config.t_range), "box": list(config.box)}
    report = _report(config, levels, worst_sample, params, c_hat=c_hat)
    samples = None
    if collect:
        samples = _sample_rows(t, x, y, lhs, rhs, ratios)
    return report, samples


def _sample_rows(t, x, y, lhs, rhs, ratios):
    header = (
        ["t"]
        + [f"x{j+1}" for j in range(x.shape[0])]
        + [f"y{j+1}" for j in range(y.shape[0])]
        + ["lhs", "rhs", "ratio"]
    )
    rows = [header]
    for i in range(t.size):
        rows.append(
            [repr(float(t[i]))]
            + [repr(float(v)) for v in x[:, i]]
            + [repr(float(v)) for v in y[:, i]]
            + [repr(float(lhs[i])), repr(float(rhs[i])), repr(float(ratios[i]))]
        )
    return rows


# ---------------------------------------------------------------------------
# Integrated difference bound (three-region rhs, no exponential rate)


def _prop2_8_campaign(config: CampaignConfig, collect: bool):
    nu0 = config.nu_vector.nu[0]
    k = config.k[0]
    eps = config.epsilon
    count = config.samples * 2 ** (config.refine_levels - 1)
    rng = make_rng(config.seed)
    x = loguniform(rng, config.box[0], config.box[1], count)
    y = x * 2.0 ** rng.uniform(-3.0, 3.0, count)

    word = _pair_word(delta_expansion(nu0, k), x, y)
    t_nodes, w = config.plan.nodes()
    half = k / 2.0
    lhs = np.zeros(count)
    for t, wi, diff in zip(t_nodes, w, _word_products((nu0,), (word,), t_nodes, 0)):
        lhs += wi * t**half * np.abs(diff)

    mid = (y / 2.0 < x) & (x < 2.0 * y)
    upper = x >= 2.0 * y
    rhs = np.where(
        mid,
        (1.0 + (x / np.abs(x - y)) ** eps) / x,
        np.where(upper, 1.0 / x, 1.0 / y),
    )
    ratios = _ratios(lhs, rhs)
    levels = _level_maxima(ratios, config.samples, config.refine_levels)
    worst_sample = _worst(ratios, x=x[None], y=y[None], lhs=lhs, rhs=rhs, ratio=ratios)
    report = _report(
        config,
        levels,
        worst_sample,
        {"epsilon": eps, "box": list(config.box)},
        ["rhs carries no exponential rate; c grid unused"],
    )
    samples = None
    if collect:
        t_dummy = np.zeros(count)
        samples = _sample_rows(t_dummy, x[None, :], y[None, :], lhs, rhs, ratios)
    return report, samples


# ---------------------------------------------------------------------------
# Riesz kernel bound campaigns


def _thm1_5_campaign(config: CampaignConfig, collect: bool):
    """Runs only the sweep that the id reports: R(x, y) for the size bound,
    the two pair batches for the smoothness bound."""
    size = config.inequality == "thm1_5_size"
    sweep_box = (max(config.box[0], 0.05), min(config.box[1], 10.0))
    sides = _cz_sides(
        config.nu_vector,
        config.k,
        CzSamplePlan(
            count=config.samples,
            seed=config.seed,
            levels=config.refine_levels,
            box=sweep_box,
            min_separation=config.min_separation,
        ),
        config.plan,
        size=size,
        smooth=not size,
    )
    side = sides["size" if size else "smooth"]
    notes = ["rhs carries no exponential rate; c grid unused"]
    if not size:
        notes.append(
            "holder exponent min(1, nu_min + 1/2) = "
            + repr(side["exponent"])
            + "; unclipped-exponent fit: C_hat = "
            + repr(sides["smooth_raw_exponent"]["C_hat"])
        )
    notes.append(
        "kernel: exact time integral, from the Green's function of L_nu at k = 2 and "
        "Schlafli's integral otherwise; the plan is unused in 1-D"
        if config.nu_vector.n == 1
        else "kernel: subordination quadrature on the plan's time grid"
    )
    report = _report(
        config, side["per_refinement_C"], side["worst_sample"], {"box": list(sweep_box)}, notes
    )
    return report, None


# ---------------------------------------------------------------------------
# Operator bound campaigns: atoms (thm1_6i) and oscillation norms (thm1_6ii)


def _random_atom(rng, grid, p: float):
    """One random atom on B(c, r), r <= rho(c): a drawn ball and profile,
    made an atom by ``spaces._atom``."""
    x = grid.axes[0].nodes
    c = float(loguniform(rng, 0.7, 7.0, ()))
    rho = critical_function((c,))
    # keep the ball resolvable: at least ~3 local spacings, never above rho
    spacing = c * math.log(grid.axes[0].hi / grid.axes[0].lo) / (grid.axes[0].size - 1)
    r = min(max(rho * (0.3 + 0.7 * float(rng.uniform())), 3.0 * spacing), rho)
    dist = np.abs(x - c)
    mask = dist < 0.95 * r
    if int(np.count_nonzero(mask)) < 4:
        mask = dist < r
    u = dist / r
    shape1 = np.cos((1.5 + 2.0 * float(rng.uniform())) * math.pi * u)
    shape2 = np.sin(math.pi * u + float(rng.uniform()))
    prof = np.where(mask, (0.95 - u) * (shape1 + 0.5 * shape2), 0.0)
    return _atom(grid, prof, mask, Ball((c,), r), p)


def _random_corpus(rng, grid, count: int):
    """``count`` sums of three random Gaussian bumps on the grid, each with a
    centre drawn per coordinate, cut to 0 wherever a coordinate is more
    than 8 from 3."""
    mesh = grid.node_mesh
    outside = np.any([np.abs(x - 3.0) > 8.0 for x in mesh], axis=0)
    out = []
    for _ in range(count):
        vals = np.zeros(grid.shape)
        for _ in range(3):
            c = [float(loguniform(rng, 0.3, 9.0, ())) for _ in mesh]
            width = float(loguniform(rng, 0.05, 1.0, ()))
            amp = float(rng.uniform(-1.0, 1.0))
            d2 = sum((x - c_j) ** 2 for x, c_j in zip(mesh, c))
            vals += amp * np.exp(-d2 / width**2)
        vals[outside] = 0.0  # keep support compact
        out.append(GridFunction(grid, vals))
    return out


def _thm1_6i_campaign(config: CampaignConfig, collect: bool):
    """Uniform-boundedness check of the transform on random atoms.

    For each atom a: apply the order-k transform, then the maximal
    function at the shifted order nu + k + 2M, and take the L^p quasi-norm.
    Reports the ratio max/median on each nested prefix of atoms (uniform
    iff <= ``UNIFORMITY_GATE``) and notes the max, the nested-prefix
    maxima, and the sensitivity of the worst quasi-norm to doubling the
    time-grid density (the finite time grid undershoots the true
    supremum).

    The atoms and the Riesz matrix are 1-D; the registry's ``one_axis``
    refuses n >= 2.  All atoms are drawn first and stacked as the columns
    of one array, so the transform and each semigroup kernel act on every
    atom in one matrix product; each kernel is built once per call.  The
    Riesz matrix (a Mellin convolution, no time plan) is dropped after its
    product.  A p at or below the paper's range (``spaces._check_p_range``)
    is refused with ``ConfigError`` before any atom is drawn.
    """
    nu = config.nu_vector
    k = grid_multi_index(config.k, 1)
    p, atom_count, levels = config.p, config.atom_count, config.refine_levels
    _check_p_range(1, p, nu, ConfigError)
    grid = default_grid(1, nodes_per_axis=config.grid_nodes, box=config.box)
    nu_shifted = nu.shifted(tuple(kj + 2 * config.big_m for kj in k))
    rng = make_rng(config.seed)
    atoms = [_random_atom(rng, grid, p) for _ in range(atom_count * 2 ** (levels - 1))]
    stack = np.stack([atom.f.values for atom in atoms], axis=-1)
    if sum(k):
        stack = riesz_matrix(nu, k, grid) @ stack
    maxed = _maximal_values(nu_shifted, T_GRID_DEFAULT, grid, stack)
    norms = np.array([lp_norm(GridFunction(grid, col), p) for col in maxed.T])
    worst = int(np.argmax(norms))
    prefixes = (norms[: atom_count * 2**lev] for lev in range(levels))
    ratios = [float(np.max(prefix) / _median(prefix)) for prefix in prefixes]
    # time-grid sensitivity on the worst atom: T_GRID_DEFAULT is the even-m
    # half of the dense grid, whose maximum the stack already holds
    dense = tuple(2.0 ** (m / 2.0) for m in range(-20, 13))
    rest = tuple(t for t in dense if t not in T_GRID_DEFAULT)
    base = float(norms[worst])
    fine_max = np.maximum(maxed[:, worst], _maximal_values(nu_shifted, rest, grid, stack[:, worst]))
    fine = lp_norm(GridFunction(grid, fine_max), p)
    mx = float(np.max(norms))
    # The certified quantity is uniform boundedness over the atom family;
    # the max itself keeps exploring atom space, so no drift gate applies.
    # A ratio that is not finite fails the gate.
    uniform = all(r <= UNIFORMITY_GATE for r in ratios)
    notes = [
        f"C_hat is the uniformity ratio max/median (gate: <= {UNIFORMITY_GATE:g})",
        "max quasi-norm: " + repr(mx),
        "per-refinement max quasi-norms: " + repr(_level_maxima(norms, atom_count, levels)),
        "time-grid density sensitivity: " + repr(abs(fine - base) / base if base > 0 else 0.0),
    ]
    worst_atom = {
        "center": list(atoms[worst].ball.center),
        "radius": atoms[worst].ball.radius,
        "norm": mx,
    }
    report = _report(
        config,
        ratios,
        worst_atom,
        {"p": p, "atom_count": atom_count},
        notes,
        verdict="stable" if uniform else "violated",
    )
    return report, None


def _thm1_6ii_campaign(config: CampaignConfig, collect: bool):
    """Advisory ratio table for the transform on the oscillation norm.

    The sampled-supremum norm proxy is sampler dependent, so this check
    reports ratios and their refinement behavior without any hard gate.
    Each sampler takes one ``bmo_norm`` pass over the stack of its
    functions and their transforms, whose rows are independent bit for bit,
    so each ball's mask and Gram matrix are formed once for both; a ratio
    whose denominator is 0 is skipped, not scored as ``sampling._ratios``
    scores it (inf or 0), so a function of norm 0 leaves no entry in the
    table.  The whole corpus is
    transformed by one ``riesz_apply`` call, which builds the transform
    once, and each transform serves both samplers.
    """
    nu = config.nu_vector
    k = grid_multi_index(config.k, nu.n)
    s = config.s
    grid = default_grid(nu.n, nodes_per_axis=config.grid_nodes, box=config.box)
    max_degree = max(0, math.floor(s))
    corpus = _random_corpus(make_rng(config.seed), grid, config.corpus_size)

    def sampled_ratios(functions, sampler):
        norms = bmo_norm([*functions, *transforms[: len(functions)]], s, max_degree, sampler)
        denoms, nums = norms[: len(functions)], norms[len(functions) :]
        return [num / d for num, d in zip(nums, denoms) if d != 0.0]

    transforms = riesz_apply(nu, k, corpus, config.plan)
    ratios = sampled_ratios(corpus, BallSampler(grid, 16, 8))
    fine_ratios = sampled_ratios(
        corpus[: max(2, config.corpus_size // 3)], BallSampler(grid, 32, 16)
    )
    levels = [max(ratios, default=0.0), max(fine_ratios, default=0.0)]
    drift = _drift([v for v in levels if v > 0] or [0.0])
    report = BoundReport(
        inequality="thm1_6ii",
        params=_params_dict(config, s=s, corpus_size=config.corpus_size),
        C_hat=levels[0],
        c_hat=0.0,
        worst_sample={"ratios": ratios},
        per_refinement_C=levels,
        refinement_delta=drift,
        verdict="stable" if all(map(math.isfinite, ratios)) else "violated",
        notes=["advisory only: sampled oscillation norms are sampler dependent"],
    )
    return report, None


def _thm4_1_campaign(config: CampaignConfig, collect: bool):
    nu = config.nu_vector
    grid = default_grid(1, nodes_per_axis=config.grid_nodes, box=config.box)
    mat = riesz_difference_matrix(nu, config.k, 0, grid)
    rng = make_rng(config.seed)
    total = config.corpus_size * 2 ** (config.refine_levels - 1)
    corpus = _random_corpus(rng, grid, total)
    norms = [(lp_norm(GridFunction(grid, mat @ f.values), 2.0), lp_norm(f, 2.0)) for f in corpus]
    ratios_arr = _ratios(*np.array(norms).T)
    levels = _level_maxima(ratios_arr, config.corpus_size, config.refine_levels)
    report = _report(
        config,
        levels,
        _worst(ratios_arr, corpus_index=np.arange(total), ratio=ratios_arr),
        {"corpus_size": config.corpus_size},
        ["L^2 operator-norm sweep of the order-shift difference"],
    )
    return report, None


# ---------------------------------------------------------------------------
# The registry: one entry per inequality id


@dataclass(frozen=True)
class Spec:
    """How the campaign of one inequality id runs.

    ``runner(config, collect)`` returns (BoundReport, sample rows or None).
    The pointwise kernel estimates share ``_pointwise_campaign``: it draws
    points with ``sampler(config, count)``, takes the signed left-hand side
    from ``lhs(config, t, x, y)`` and the (k, ell) arguments of
    ``heat._bound_rhs_arrays`` from ``rhs(config)``.  ``per_axis`` names
    the config's multi-indices that carry one entry per axis of ``nu``;
    ``one_axis`` marks a runner that reads axis 0 of ``nu`` only.
    ``run_campaign`` refuses a config whose lengths differ from these.
    """

    lhs: Callable | None = None
    rhs: Callable | None = None
    sampler: Callable = _sample_box
    runner: Callable = _pointwise_campaign
    per_axis: tuple[str, ...] = ()
    one_axis: bool = False


# The lambdas look up heat functions by module-global name at call time, so
# a rebinding of those names (as call tracing does) reaches every campaign.
SPECS: dict[str, Spec] = {
    "thm2_1": Spec(
        lhs=lambda c, t, x, y: eval_delta_heat_1d(c.nu[0], 0, t, x[0], y[0]),
        rhs=lambda c: (0, 0),
        one_axis=True,
    ),
    "thm2_4": Spec(
        lhs=lambda c, t, x, y: eval_delta_heat_1d(c.nu[0], c.ell[0], t, x[0], y[0]),
        rhs=lambda c: (0, c.ell[0]),
        one_axis=True,
    ),
    "thm2_5": Spec(
        lhs=lambda c, t, x, y: mixed_partial_delta(c.nu[0], c.k[0], c.ell[0], t, x[0], y[0]),
        rhs=lambda c: (c.k[0], c.ell[0]),
        one_axis=True,
    ),
    "cor2_6a": Spec(
        lhs=lambda c, t, x, y: delta_dt_heat_1d(c.nu[0], c.k[0], c.big_m, t, x[0], y[0]),
        rhs=lambda c: (c.k[0], c.big_m),
        one_axis=True,
    ),
    "cor2_6b": Spec(
        lhs=lambda c, t, x, y: adjoint_power_heat_1d(c.nu[0], c.k[0], c.big_m, t, x[0], y[0]),
        rhs=lambda c: (c.k[0], c.big_m),
        one_axis=True,
    ),
    "prop2_7": Spec(
        lhs=lambda c, t, x, y: delta_heat_difference_1d(c.nu[0], c.ell[0], t, x[0], y[0]),
        rhs=lambda c: (0, c.ell[0]),
        sampler=_sample_prop2_7,
        one_axis=True,
    ),
    "prop2_8": Spec(runner=_prop2_8_campaign, one_axis=True),
    "prop2_9": Spec(
        lhs=lambda c, t, x, y: delta_dt_heat_nd_arrays(c.nu_vector, c.ell, 0, t, x, y),
        rhs=lambda c: (0, c.ell),
        per_axis=("ell",),
    ),
    "prop2_10": Spec(
        lhs=lambda c, t, x, y: math.prod(
            mixed_partial_delta(c.nu[j], c.k[j], c.ell[j], t, x[j], y[j])
            for j in range(len(c.nu))
        ),
        rhs=lambda c: (c.k, c.ell),
        per_axis=("k", "ell"),
    ),
    "cor2_11": Spec(
        lhs=lambda c, t, x, y: delta_dt_heat_nd_arrays(c.nu_vector, c.k, c.big_m, t, x, y),
        rhs=lambda c: (c.k, c.big_m),
        per_axis=("k",),
    ),
    "thm1_5_size": Spec(runner=_thm1_5_campaign),
    "thm1_5_smooth": Spec(runner=_thm1_5_campaign),
    "thm1_6i": Spec(runner=_thm1_6i_campaign, one_axis=True),
    "thm1_6ii": Spec(runner=_thm1_6ii_campaign),
    "thm4_1": Spec(runner=_thm4_1_campaign, one_axis=True),
}

INEQUALITY_IDS = tuple(SPECS)


def run_campaign(config: CampaignConfig, collect_samples: bool = False):
    """Run one campaign; returns (BoundReport, sample rows or None).

    Deterministic for fixed (config, seed): identical inputs produce byte
    identical canonical reports.  Refuses, before sampling
    (``ConfigError``), a per-axis multi-index whose length is not the
    dimension of ``nu``, and for a 1-D id an ``nu``, ``k`` or ``ell`` of
    more than one entry.
    """
    spec = SPECS[config.inequality]
    for name in ("nu", "k", "ell") if spec.one_axis else ():
        if len(getattr(config, name)) != 1:
            raise ConfigError(
                f"{config.inequality} runs in one dimension; {name} must have one entry"
            )
    for name in spec.per_axis:
        if len(getattr(config, name)) != len(config.nu):
            raise ConfigError(f"{name} multi-index must match dimension")
    return spec.runner(config, collect_samples)


def default_config(inequality: str) -> CampaignConfig:
    """The bundled default campaign for one inequality id."""
    return CampaignConfig.from_json(str(bundled_config_path(inequality)))


def bundled_config_path(inequality: str):
    """Path of the bundled JSON config for an inequality id."""
    from importlib import resources

    if inequality not in INEQUALITY_IDS:
        raise ConfigError(f"unknown inequality id {inequality!r}")
    return resources.files("besselops") / "configs" / f"{inequality}.json"
