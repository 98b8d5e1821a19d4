"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest

from besselops.campaigns import CampaignConfig, default_config, run_campaign
from besselops.grids import (
    GridFunction,
    default_grid,
    apply_semigroup,
)
from besselops.heat import NuVector, eval_delta_heat_1d, heat_kernel_1d
from besselops.riesz import (
    SubordinationPlan,
    fractional_inverse_apply,
    riesz_kernel_batch,
)
from besselops.sampling import make_rng
from besselops.spaces import (
    AtomCandidate,
    Ball,
    atom_dual_decompose,
    minimizing_polynomial,
    multi_indices,
    validate_f_atom,
    validate_p_rho_atom,
    vitali_covering,
)
from besselops.special import besseli_scaled

from atom_fixtures import (
    bundled_ball_atoms,
    bundled_line_atoms,
    decomposition_fixture,
)
from eigenfunctions import EigenfunctionSpec, eigenfunction_gridfn


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_bessel_identity_suite():
    started = time.perf_counter()
    rng = make_rng(101)
    alpha = rng.uniform(-0.49, 5.0, 1000)
    z = np.exp(rng.uniform(np.log(1e-2), np.log(3e2), 1000))
    worst_exact = 0.0
    ordering_ok = True
    for a, zz in zip(alpha, z):
        lhs = besseli_scaled(a, zz) - besseli_scaled(a + 2.0, zz)
        rhs = 2.0 * (a + 1.0) / zz * besseli_scaled(a + 1.0, zz)
        worst_exact = max(worst_exact, abs(lhs / rhs - 1.0))
        mid = besseli_scaled(a, zz) - besseli_scaled(a + 1.0, zz)
        ordering_ok &= 0.0 < mid < 2.0 * (a + 1.0) / zz * besseli_scaled(a + 1.0, zz)

    def ratio(a, zz, order):  # z^{-a} I_order(z)
        return zz ** (-a) * math.exp(zz) * besseli_scaled(order, zz)

    worst_fd = 0.0
    for a in (-0.3, 0.0, 0.5, 1.0, 2.0, 3.5):
        for zz in (0.1, 0.5, 1.0, 5.0, 20.0, 50.0):
            h = 1e-5
            fd = (ratio(a, zz + h, a) - ratio(a, zz - h, a)) / (2 * h)
            exact = ratio(a, zz, a + 1.0)
            worst_fd = max(worst_fd, abs(fd / exact - 1.0))
    elapsed = time.perf_counter() - started
    report(
        1,
        "Bessel identity suite",
        worst_exact <= 1e-12 and ordering_ok and worst_fd <= 1e-6 and elapsed < 5.0,
        f"exact={worst_exact:.2e} fd={worst_fd:.2e} runtime={elapsed:.2f}s",
    )


def test_criterion_02_dirichlet_kernel_oracle():
    started = time.perf_counter()
    rng = make_rng(102)
    t = np.exp(rng.uniform(np.log(0.01), np.log(10.0), 10000))
    x = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 10000))
    y = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 10000))
    ours = heat_kernel_1d(0.5, t, x, y)
    image = (4.0 * math.pi * t) ** -0.5 * (
        np.exp(-((x - y) ** 2) / (4 * t)) - np.exp(-((x + y) ** 2) / (4 * t))
    )
    live = image > 1e-300
    rel = np.max(np.abs(ours[live] / image[live] - 1.0))
    dead_ok = bool(np.all(ours[~live] <= 1e-300))
    elapsed = time.perf_counter() - started
    report(
        2,
        "Dirichlet image-kernel oracle",
        rel <= 1e-10 and dead_ok and elapsed < 10.0,
        f"rel={rel:.2e} runtime={elapsed:.2f}s",
    )


def test_criterion_03_semigroup_law():
    u = np.linspace(math.log(1e-3), math.log(40.0), 4096)
    zz = np.exp(u)
    w = (u[1] - u[0]) * zz
    w[0] *= 0.5
    w[-1] *= 0.5
    rng = make_rng(103)
    worst = 0.0
    for _ in range(20):
        t, s = rng.choice([0.5, 1.0], size=2)
        x, y = rng.uniform(0.5, 4.0, size=2)
        nu = rng.choice([0.3, 0.8, 1.5])
        comp = float(np.sum(w * heat_kernel_1d(nu, t, x, zz) * heat_kernel_1d(nu, s, zz, y)))
        exact = heat_kernel_1d(nu, t + s, x, y)
        worst = max(worst, abs(comp / exact - 1.0))
    # sub-Markov mass (nu >= 1/2; below, the attractive potential makes
    # the mass exceed one -- see the decisions ledger)
    um = np.linspace(math.log(1e-4), math.log(60.0), 8192)
    ym = np.exp(um)
    wm = (um[1] - um[0]) * ym
    wm[0] *= 0.5
    wm[-1] *= 0.5
    mass_max = 0.0
    for nu in (0.5, 0.9, 1.5):
        for t in (0.05, 0.5, 2.0):
            for x in (0.1, 1.0, 4.1, 9.7):
                mass_max = max(mass_max, float(np.sum(wm * heat_kernel_1d(nu, t, x, ym))))
    report(
        3,
        "semigroup law and mass bound",
        worst <= 1e-6 and mass_max <= 1.0 + 1e-8,
        f"chapman-kolmogorov rel={worst:.2e} max mass={mass_max:.10f}",
    )


def test_criterion_04_eigen_relation():
    worst = 0.0
    for n, lam, nu in [(1, (1.0,), (0.5,)), (2, (0.6, 0.8), (0.5, 1.5))]:
        g = default_grid(n, nodes_per_axis=512)
        nuv = NuVector(nu)
        spec = EigenfunctionSpec(lam)
        phi = eigenfunction_gridfn(nuv, spec, g)
        t = 0.5
        out = apply_semigroup(nuv, t, phi)
        target = math.exp(-t * spec.norm2) * phi.values
        m = (g.axes[0].nodes >= 0.3) & (g.axes[0].nodes <= 6.0)
        interior = m if n == 1 else np.outer(m, m)
        err = np.max(np.abs(out.values - target)[interior]) / np.max(
            np.abs(target[interior])
        )
        worst = max(worst, err)
    report(4, "semigroup eigen-relation", worst <= 1e-4, f"rel={worst:.2e}")


def test_criterion_05_delta_expansion_vs_finite_differences():
    # Nested differences amplify the rounding of the kernel values by about
    # h^-ell: in double precision that is ~1e-9 absolute at ell = 3 and
    # h = 2e-3, up to 1.6e-5 of the smallest oracle values here.  So the
    # kernel (by mpmath's Bessel I) and the differences are taken to 30
    # digits, and the oracle's error is its O(h^4) truncation alone.
    def kernel(nu, t, x, y):
        gauss = mpmath.exp(-(x * x + y * y) / (4 * t))
        return mpmath.sqrt(x * y) / (2 * t) * gauss * mpmath.besseli(nu, x * y / (2 * t))

    def fd_delta(gfun, nu, h):
        return lambda xx: (gfun(xx + h) - gfun(xx - h)) / (2 * h) - (nu + 0.5) / xx * gfun(xx)

    def nested(nu, ell, t, x, y, h):
        g = lambda xx: kernel(nu, t, xx, y)
        for _ in range(ell):
            g = fd_delta(g, nu, h)
        return g(x)

    rng = make_rng(105)
    worst = 0.0
    with mpmath.workdps(30):
        for nu in (-0.3, 0.5, 2.0):
            for ell in (1, 2, 3):
                t = np.exp(rng.uniform(np.log(0.5), np.log(3.0), 100))
                x = rng.uniform(0.8, 4.0, 100)
                y = rng.uniform(0.8, 4.0, 100)
                for ti, xi, yi in zip(t, x, y):
                    exact = float(eval_delta_heat_1d(nu, ell, ti, xi, yi))
                    mp_args = [mpmath.mpf(float(v)) for v in (nu, ti, xi, yi)]
                    v1 = nested(*mp_args[:1], ell, *mp_args[1:], mpmath.mpf(4e-3))
                    v2 = nested(*mp_args[:1], ell, *mp_args[1:], mpmath.mpf(2e-3))
                    oracle = float((4 * v2 - v1) / 3)
                    denom = max(abs(oracle), 1e-12)
                    worst = max(worst, abs(exact - oracle) / denom)
    report(5, "delta expansion vs nested differences", worst <= 1e-5, f"rel={worst:.2e}")


def test_criterion_06_gaussian_bound_campaigns():
    started = time.perf_counter()
    runs = [CampaignConfig(inequality="thm2_1", nu=(0.3,), samples=10000)]
    for ell in (1, 2, 3):
        runs.append(CampaignConfig(inequality="thm2_4", nu=(0.6,), ell=(ell,), samples=10000))
    runs.append(
        CampaignConfig(inequality="prop2_9", nu=(0.5, 1.5), ell=(1, 1), samples=10000)
    )
    for which in ("cor2_6a", "cor2_6b"):
        for k in (0, 1, 2):
            for big_m in (0, 1):
                runs.append(
                    CampaignConfig(
                        inequality=which, nu=(0.8,), k=(k,), big_m=big_m, samples=10000
                    )
                )
    verdicts = {}
    for cfg in runs:
        rep, _ = run_campaign(cfg)
        key = f"{cfg.inequality}[k={cfg.k},ell={cfg.ell},M={cfg.big_m}]"
        verdicts[key] = rep.verdict
    elapsed = time.perf_counter() - started
    bad = {k: v for k, v in verdicts.items() if v != "stable"}
    report(
        6,
        "Gaussian bound campaigns",
        not bad and elapsed < 300.0,
        f"{len(runs)} campaigns, runtime={elapsed:.1f}s"
        + (f", failing: {bad}" if bad else ""),
    )


def test_criterion_07_riesz_cz_bounds():
    plan = SubordinationPlan(1e-6, 1e8, 24)
    configs = [
        CampaignConfig(
            inequality="thm1_5_size", nu=(0.7,), k=(2,), samples=2500,
            plan_t_min=1e-8, plan_t_max=1e8, plan_nodes_per_decade=24,
        ),
        CampaignConfig(
            inequality="thm1_5_smooth", nu=(0.7,), k=(2,), samples=2500,
            plan_t_min=1e-8, plan_t_max=1e8, plan_nodes_per_decade=24,
        ),
        CampaignConfig(
            inequality="thm1_5_size", nu=(0.5, 1.5), k=(1, 1), samples=6000,
            plan_t_min=1e-8, plan_t_max=1e8, plan_nodes_per_decade=24,
        ),
        CampaignConfig(
            inequality="thm1_5_smooth", nu=(0.5, 1.5), k=(1, 1), samples=6000,
            plan_t_min=1e-8, plan_t_max=1e8, plan_nodes_per_decade=24,
        ),
    ]
    bad = {}
    for cfg in configs:
        rep, _ = run_campaign(cfg)
        if rep.verdict != "stable":
            bad[f"{cfg.inequality}[nu={cfg.nu},k={cfg.k}]"] = rep.verdict

    # closed-form oracle match at nu = 1/2, k = 1
    rng = make_rng(107)
    xs, ys = [], []
    while len(xs) < 100:
        x, y = 10.0 ** rng.uniform(-1, 1, 2)
        if abs(x - y) >= 0.05:
            xs.append(x)
            ys.append(y)
    x = np.asarray(xs)[None, :]
    y = np.asarray(ys)[None, :]
    vals = riesz_kernel_batch(NuVector((0.5,)), (1,), x, y, plan)
    K = np.log((x[0] + y[0]) / np.abs(x[0] - y[0])) / math.pi
    oracle = (1.0 / (x[0] + y[0]) - 1.0 / (x[0] - y[0])) / math.pi - K / x[0]
    rel = float(np.max(np.abs(vals - oracle) / np.abs(oracle)))
    report(
        7,
        "Riesz Calderon-Zygmund bounds and closed-form oracle",
        not bad and rel <= 1e-8,
        f"oracle rel={rel:.2e}" + (f", failing: {bad}" if bad else ""),
    )


def test_criterion_08_fractional_power_spectral_identity():
    nu = NuVector((0.8,))
    g = default_grid(1, nodes_per_axis=768, box=(1e-2, 60.0))
    spec = EigenfunctionSpec((1.0 / 3.0,))
    phi = eigenfunction_gridfn(nu, spec, g)
    xnodes = g.axes[0].nodes
    interior = (xnodes >= 0.5) & (xnodes <= 6.0)
    worst = 0.0
    for s in (0.5, 1.0):
        out = fractional_inverse_apply(nu, s, phi, SubordinationPlan(1e-2, 100.0, 16))
        target = spec.norm2 ** (-s) * phi.values
        err = np.max(np.abs(out.values - target)[interior]) / np.max(
            np.abs(target[interior])
        )
        worst = max(worst, err)
    report(8, "fractional inverse spectral identity", worst <= 1e-3, f"rel={worst:.2e}")


def test_criterion_09_riesz_difference_bound():
    bad = {}
    for k in (0, 1, 2):
        cfg = CampaignConfig(
            inequality="prop2_8", nu=(0.6,), k=(k,), epsilon=0.5, samples=2000,
            plan_t_min=1e-8, plan_t_max=1e6, plan_nodes_per_decade=16,
        )
        rep, _ = run_campaign(cfg)
        if rep.verdict != "stable":
            bad[f"k={k}"] = rep.verdict
    report(9, "integrated order-shift difference bound", not bad, repr(bad) if bad else "")


def test_criterion_10_function_space_suite():
    # minimizing polynomial residuals and idempotence
    rng = make_rng(110)
    g = default_grid(2, nodes_per_axis=96)
    f = GridFunction(g, rng.normal(size=g.shape))
    ball = Ball((2.0, 3.0), 1.0)
    poly = minimizing_polynomial(f, ball, 2)
    pts = np.stack(g.node_mesh)
    mask = ball.contains(pts)
    w = g.weight_array[mask]
    dev = f.values[mask] - poly.evaluate(pts[:, mask])
    scale = float(np.sum(w * np.abs(f.values[mask])))
    resid = max(
        abs(float(np.sum(w * dev * np.prod(pts[:, mask] ** np.asarray(a)[:, None], axis=0))))
        / (scale * 4.0 ** sum(a))
        for a in multi_indices(2, 2)
    )
    p2 = minimizing_polynomial(GridFunction(g, poly.evaluate(pts)), ball, 2)
    idem = max(
        abs(p2.coeffs.get(a, 0.0) - c) for a, c in poly.coeffs.items()
    )
    # atom fixtures
    fixtures_ok = True
    for label, atom, expected in bundled_ball_atoms():
        fixtures_ok &= validate_p_rho_atom(atom).valid == expected
    for label, fn, expected in bundled_line_atoms():
        fixtures_ok &= validate_f_atom(fn).valid == expected
    # coverings
    cover_ok = True
    for n, nodes in [(1, 2048), (2, 128)]:
        cov = vitali_covering(tuple((0.5, 8.0) for _ in range(n)), default_grid(n, nodes_per_axis=nodes))
        psum = cov.partition_sum().values
        cover_ok &= float(np.max(np.abs(psum[cov.node_in_box] - 1.0))) <= 1e-12
        cover_ok &= cov.min_pairwise_fifth_gap() > 0.0
    report(
        10,
        "function-space suite",
        resid <= 1e-10 and idem <= 1e-10 and fixtures_ok and cover_ok,
        f"moment resid={resid:.2e} idempotence={idem:.2e}",
    )


def test_criterion_11_dual_basis_decomposition():
    atom = decomposition_fixture(big_n=1)
    result = atom_dual_decompose(atom)
    certs = result.certificates
    n, p, big_n = 1, 1.0, 1
    threshold = 2.0 ** (-(2 * big_n + n - n / p) + 0.1)
    recon_ok = certs["reconstruction_residual"] <= 1e-10
    moments_ok = all(abs(v) <= 1e-10 for v in certs["a1_moment_residuals"].values())
    rate = certs["a2_measured_rate"]
    report(
        11,
        "dyadic dual-basis decomposition",
        recon_ok and moments_ok and 0.0 < rate <= threshold,
        f"recon={certs['reconstruction_residual']:.2e} rate={rate:.4f} <= {threshold:.4f}",
    )


def test_criterion_12_hardy_spot_check():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep, _ = run_campaign(default_config("thm1_6i"))
        advisory, _ = run_campaign(default_config("thm1_6ii"))
    ok = rep.verdict == "stable" and rep.C_hat <= 10.0
    advisory_ok = bool(advisory.notes) and "advisory" in advisory.notes[0]
    report(
        12,
        "Hardy-space spot check (BMO check advisory)",
        ok and advisory_ok,
        f"max/median={rep.C_hat:.3f}, advisory max ratio={advisory.C_hat:.3f}",
    )


def test_criterion_13_determinism():
    ok = True
    details = []
    for ineq in ("thm2_1", "prop2_8", "thm1_5_size"):
        cfg = default_config(ineq)
        rep1, rows1 = run_campaign(cfg, collect_samples=True)
        rep2, rows2 = run_campaign(cfg, collect_samples=True)
        same = rep1.canonical_json() == rep2.canonical_json() and rows1 == rows2
        ok &= same
        details.append(f"{ineq}:{'ok' if same else 'DIFFERS'}")
    report(13, "byte-identical reports", ok, " ".join(details))
