"""Correctness checks of campaign reports, computed without besselops.

Every report whose worst sample can be recomputed is recomputed here from
scipy and the paper's formulas:

* the 1-D heat kernel p_t^nu(x, y) = sqrt(xy)/(2t) e^{-(x-y)^2/4t}
  ive(nu, xy/2t) from ``scipy.special.ive``;
* delta-derivatives from the first-order recursion
  delta_nu p^{nu+m} = -(x/2t) p^{nu+m} + (y/2t) p^{nu+m+1} + (m/x) p^{nu+m},
  applied to plain (coefficient, power of x, order shift) term lists, and
  d/dx = delta_nu + (nu + 1/2)/x (``selftest.py`` checks the recursion
  against mpmath numerical differentiation);
* subordination integrals by ``scipy.integrate.quad`` in u = log t over
  the campaign plan's window [plan_t_min, plan_t_max].

The campaigns integrate with a log-t trapezoid over the same window, so
the tolerances below only have to cover the trapezoid's own error, not the
mass outside the window.  For the operator campaigns, which have no
closed-form worst sample, the checks are the properties the theorems give.
"""

from __future__ import annotations

import json
import math

from scipy import integrate, special

# Relative tolerances.  Both sides integrate over the same plan window, so
# what the window leaves out is common to both; the tolerances cover the
# trapezoid's discretization error and float64 Bessel evaluation.  The
# largest discrepancy measured over campaign seeds 0-15 is in brackets.
RTOL_EXACT = 1e-13  # ratio == lhs/rhs, C_hat == top constant [0]
RTOL_POINTWISE = 1e-10  # closed-form lhs/rhs at one (t, x, y) [6.4e-13]
RTOL_RIESZ = 1e-10  # 24 nodes/decade, integrand analytic in log t [8.4e-15]
RTOL_PROP2_8 = 1e-8  # 16 nodes/decade of |f|, kinks where f changes sign [1.1e-11]
UNIFORM_GATE = 10.0  # thm1_6i: max/median of the atom norms


def _ive(nu: float, z: float) -> float:
    """e^{-z} I_nu(z); scipy returns nan from z = 2^31 on, where two terms
    of the large-argument expansion (DLMF 10.40.1) are exact in float64."""
    if z < 1e9:
        return float(special.ive(nu, z))
    mu = 4.0 * nu * nu
    return (1.0 - (mu - 1.0) / (8.0 * z) + (mu - 1.0) * (mu - 9.0) / (128.0 * z * z)) / math.sqrt(
        2.0 * math.pi * z
    )


def heat_kernel(nu: float, t: float, x: float, y: float) -> float:
    gauss = math.exp(-((x - y) ** 2) / (4.0 * t))
    if gauss == 0.0:
        return 0.0
    return math.sqrt(x * y) / (2.0 * t) * gauss * _ive(nu, x * y / (2.0 * t))


def _derive(terms, nu: float, t: float, y: float, extra: float):
    """Apply delta_nu + extra/x to sum c x^a p^{nu+m}; terms are (c, a, m)."""
    out = []
    for c, a, m in terms:
        if a + m + extra != 0:
            out.append((c * (a + m + extra), a - 1, m))
        out.append((-c / (2.0 * t), a + 1, m))
        out.append((c * y / (2.0 * t), a, m + 1))
    return out


def derivative_kernel(nu: float, ell: int, t: float, x: float, y: float, dx: int = 0) -> float:
    """d^dx/dx^dx delta_nu^ell p_t^nu(x, y)."""
    terms = [(1.0, 0, 0)]
    for _ in range(ell):
        terms = _derive(terms, nu, t, y, 0.0)
    for _ in range(dx):
        terms = _derive(terms, nu, t, y, nu + 0.5)
    return sum(c * x**a * heat_kernel(nu + m, t, x, y) for c, a, m in terms)


def _log_t_integral(f, t_min: float, t_max: float, x: float, y: float) -> float:
    """int_{t_min}^{t_max} f(t) dt/t, split where the integrand turns over."""
    lo, hi = math.log(t_min), math.log(t_max)
    turns = sorted(
        u for u in (math.log((x - y) ** 2), math.log(x * y)) if lo < u < hi
    )
    edges = [lo, *turns, hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = integrate.quad(
            lambda u: f(math.exp(u)), a, b, epsabs=0.0, epsrel=1e-12, limit=500
        )
        total += val
    return total


def riesz_kernel(nu: float, k: int, x: float, y: float, window) -> float:
    """R_k(x, y) = Gamma(k/2)^-1 int t^{k/2} delta^k p_t(x, y) dt/t (1-D)."""
    half = k / 2.0
    val = _log_t_integral(
        lambda t: t**half * derivative_kernel(nu, k, t, x, y), *window, x, y
    )
    return val / math.gamma(half)


def _window(config: dict):
    return float(config["plan_t_min"]), float(config["plan_t_max"])


def _close(problems, what, got, want, rtol):
    if not (math.isfinite(got) and math.isclose(got, want, rel_tol=rtol, abs_tol=0.0)):
        rel = abs(got - want) / abs(want) if want else math.inf
        problems.append(f"{what}: report {got!r}, recomputed {want!r} (rel {rel:.2e} > {rtol:g})")


def _gauss_weights(nu, t, x, y, c):
    gauss = math.exp(-((x - y) ** 2) / (c * t))
    wx = (1.0 + math.sqrt(t) / x) ** (-(nu + 0.5))
    wy = (1.0 + math.sqrt(t) / y) ** (-(nu + 0.5))
    return gauss, wx * wy


def _pointwise_lhs_rhs(ineq: str, report: dict):
    """(lhs, rhs) of the 1-D pointwise estimates with an exact recomputation."""
    if ineq not in ("thm2_1", "thm2_4", "thm2_5", "prop2_7"):
        return None
    p = report["params"]
    ws = report["worst_sample"]
    nu, k, ell = p["nu"][0], p["k"][0], p["ell"][0]
    t, x, y = ws["t"], ws["x"][0], ws["y"][0]
    c = report["c_hat"]
    gauss, weights = _gauss_weights(nu, t, x, y, c)
    if ineq == "thm2_1":
        return abs(heat_kernel(nu, t, x, y)), t**-0.5 * gauss * weights
    if ineq == "thm2_4":
        lhs = abs(derivative_kernel(nu, ell, t, x, y))
        return lhs, t ** (-(ell + 1) / 2.0) * gauss * weights
    if ineq == "thm2_5":
        lhs = abs(derivative_kernel(nu, ell, t, x, y, dx=k))
        lead = t ** (-k / 2.0) + x ** (-float(k))
        return lhs, lead * t ** (-(ell + 1) / 2.0) * gauss * weights
    lhs = abs(derivative_kernel(nu, ell, t, x, y) - derivative_kernel(nu + 1.0, ell, t, x, y))
    return lhs, t ** (-ell / 2.0) / x * gauss


def _prop2_8_lhs_rhs(report: dict, config: dict):
    p = report["params"]
    nu, k, eps = p["nu"][0], p["k"][0], p["epsilon"]
    x, y = report["worst_sample"]["x"][0], report["worst_sample"]["y"][0]
    half = k / 2.0
    lhs = _log_t_integral(
        lambda t: t**half
        * abs(derivative_kernel(nu, k, t, x, y) - derivative_kernel(nu + 1.0, k, t, x, y)),
        *_window(config),
        x,
        y,
    )
    if y / 2.0 < x < 2.0 * y:
        rhs = (1.0 + (x / abs(x - y)) ** eps) / x
    else:
        rhs = 1.0 / max(x, y)
    return lhs, rhs


def _thm1_5_value(ineq: str, report: dict, config: dict) -> float:
    p = report["params"]
    nu, k = p["nu"][0], p["k"][0]
    ws = report["worst_sample"]
    x, y = ws["x"][0], ws["y"][0]
    window = _window(config)
    d = abs(x - y)
    if ineq == "thm1_5_size":
        return abs(riesz_kernel(nu, k, x, y, window)) * d
    yp = ws["y_prime"][0]
    gam = min(1.0, nu + 0.5)
    num = max(
        abs(riesz_kernel(nu, k, x, y, window) - riesz_kernel(nu, k, x, yp, window)),
        abs(riesz_kernel(nu, k, y, x, window) - riesz_kernel(nu, k, yp, x, window)),
    )
    return num / ((abs(y - yp) / d) ** gam / d)


def check_report(report: dict, config: dict) -> list[str]:
    """Problems found in one campaign report; an empty list means it passed.

    ``config`` is the campaign's JSON config with the seed it ran at.
    """
    problems: list[str] = []
    ineq = config["inequality"]
    if report.get("inequality") != ineq:
        return [f"report is for {report.get('inequality')!r}, expected {ineq!r}"]
    if report["params"]["seed"] != config["seed"]:
        problems.append(f"report seed {report['params']['seed']} != {config['seed']}")
    c_hat = report["C_hat"]
    levels = report["per_refinement_C"]
    if not (math.isfinite(c_hat) and c_hat > 0.0):
        return problems + [f"C_hat {c_hat!r} is not finite and positive"]
    if not all(math.isfinite(v) for v in levels):
        problems.append(f"per-refinement constants not finite: {levels!r}")
    ws = report["worst_sample"]
    if ineq == "thm1_6ii":
        ratios = ws["ratios"]
        if not ratios or not all(math.isfinite(r) and r > 0.0 for r in ratios):
            problems.append("oscillation-norm ratios must be finite and positive")
        else:
            _close(problems, "C_hat vs max ratio", c_hat, max(ratios), RTOL_EXACT)
        return problems
    _close(problems, "C_hat vs top per-refinement constant", c_hat, levels[-1], RTOL_EXACT)
    if {"lhs", "rhs"} <= ws.keys():
        _close(problems, "worst ratio vs lhs/rhs", ws["ratio"], ws["lhs"] / ws["rhs"], RTOL_EXACT)
    if "ratio" in ws:
        _close(problems, "C_hat vs worst ratio", c_hat, ws["ratio"], RTOL_EXACT)
    if ineq == "thm1_6i":
        if not all(r <= UNIFORM_GATE for r in levels):
            problems.append(f"max/median {levels!r} above {UNIFORM_GATE}")
    elif ineq in ("thm1_5_size", "thm1_5_smooth"):
        _close(problems, f"{ineq} C_hat", c_hat, _thm1_5_value(ineq, report, config), RTOL_RIESZ)
    elif ineq == "prop2_8":
        lhs, rhs = _prop2_8_lhs_rhs(report, config)
        _close(problems, "prop2_8 worst lhs", ws["lhs"], lhs, RTOL_PROP2_8)
        _close(problems, "prop2_8 worst rhs", ws["rhs"], rhs, RTOL_POINTWISE)
    else:
        pair = _pointwise_lhs_rhs(ineq, report)
        if pair is not None:
            _close(problems, f"{ineq} worst lhs", ws["lhs"], pair[0], RTOL_POINTWISE)
            _close(problems, f"{ineq} worst rhs", ws["rhs"], pair[1], RTOL_POINTWISE)
    return problems


# Identical report text at identical config is checked once per process.
_VERIFIED: dict[tuple[str, str], list[str]] = {}


def check_report_text(text: str, config: dict) -> list[str]:
    key = (text, json.dumps(config, sort_keys=True))
    if key not in _VERIFIED:
        _VERIFIED[key] = check_report(json.loads(text), config)
    return _VERIFIED[key]
