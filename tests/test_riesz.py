"""Riesz transform and fractional-power tests.

Oracles: the closed-form order-1 and order-2 kernels at nu = 1/2 (from
the image-kernel logarithm and from the Green's function min(x, y)); a
30-digit mpmath evaluation of the time integral; the eigenfunction mapping
R phi_lam^{nu} = -phi_lam^{nu+1}; the exact transform of
x^(nu+1/2) exp(-x^2/2) by Weber's integral; the spectral identity for
fractional inverses; plan/grid refinement.  The subordination quadrature
and the exact 1-D kernel (the Green's function of L_nu at k = 2,
Schlafli's integral otherwise) are checked against the same oracles, and
Schlafli's integral at k = 2 against the Green's function.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import loggamma, zeta

import besselops.grids as grids
import besselops.heat as heat
import besselops.riesz as riesz
import besselops.sampling as sampling
from besselops.campaigns import default_config
from besselops.errors import DomainError, GridError
from besselops.grids import (
    Axis,
    Grid,
    GridFunction,
    default_grid,
    gridfunction_from_csv,
    gridfunction_to_csv,
    log_axis,
    lp_norm,
    uniform_axis,
)
from besselops.heat import NuVector
from besselops.riesz import (
    SCHLAFLI_NODES,
    CzSamplePlan,
    SubordinationPlan,
    _cz_sides,
    _cz_triples,
    _riesz_quadrature,
    _schlafli_kernel,
    cz_bound_check,
    fractional_inverse_apply,
    riesz_apply,
    riesz_difference_batch,
    riesz_difference_matrix,
    riesz_kernel,
    riesz_kernel_1d,
    riesz_kernel_batch,
    riesz_matrix,
)
from besselops.sampling import _drift
from conftest import class_ladder, class_products, underflow_regime
from eigenfunctions import EigenfunctionSpec, eigenfunction_gridfn

WIDE_PLAN = SubordinationPlan(t_min=1e-6, t_max=1e8, nodes_per_decade=24)


def dirichlet_riesz_oracle(x, y):
    """delta_{1/2} applied to the log potential (1/pi) log((x+y)/|x-y|)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.log((x + y) / np.abs(x - y)) / math.pi
        dK = (1.0 / (x + y) - 1.0 / (x - y)) / math.pi
        return dK - K / x


def order_two_oracle(x, y):
    """R_2 at nu = 1/2: delta_{1/2} = d/dx - 1/x applied twice to the Green's
    function min(x, y) of -d^2/dx^2 with the Dirichlet condition at 0."""
    return np.where(x > y, 2.0 * y / x**2, 0.0)


def off_diagonal_pairs(seed, count, separation):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    while len(xs) < count:
        x, y = 10.0 ** rng.uniform(-1, 1, 2)
        if abs(x - y) >= separation:
            xs.append(x)
            ys.append(y)
    return np.asarray(xs), np.asarray(ys)


class TestRieszKernel:
    def test_dirichlet_closed_form(self):
        x, y = off_diagonal_pairs(4, 100, 0.05)
        x, y = x[None, :], y[None, :]
        vals = riesz_kernel_batch(NuVector((0.5,)), (1,), x, y, WIDE_PLAN)
        oracle = dirichlet_riesz_oracle(x[0], y[0])
        assert np.max(np.abs(vals - oracle) / np.abs(oracle)) <= 1e-8
        # scalar wrapper agrees
        assert riesz_kernel(0.5, 1, x[0, 0], y[0, 0], WIDE_PLAN) == pytest.approx(
            float(vals[0]), rel=1e-14
        )

    def test_order_two_closed_form(self):
        # WIDE_PLAN's own truncation misses 1e-11 on these pairs: e^{-25}
        # from t_min = 1e-6 at |x - y| = 0.01, and a t^{-3/2} tail beyond
        # t_max = 1e8 near x, y ~ 10.  Two more decades each way clear both.
        x, y = off_diagonal_pairs(6, 200, 0.01)
        oracle = order_two_oracle(x, y)
        plan = SubordinationPlan(t_min=1e-8, t_max=1e10, nodes_per_decade=24)
        sub = riesz_kernel_batch(0.5, (2,), x[None, :], y[None, :], plan)
        exact = riesz_kernel_1d(0.5, 2, x, y)[0]
        for vals in (sub, exact):
            assert np.max(np.abs(vals - oracle) * np.abs(x - y)) <= 1e-11

    def test_size_envelope_off_diagonal(self):
        rng = np.random.default_rng(9)
        nu = NuVector((0.7,))
        x, y = off_diagonal_pairs(9, 200, 0.02)
        x, y = x[None, :], y[None, :]
        vals = riesz_kernel_batch(nu, (2,), x, y, WIDE_PLAN)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals) * np.abs(x[0] - y[0])) < 10.0

    def test_plan_refinement_stability(self):
        # Two admissible plans (tails fully inside) agree to quadrature
        # accuracy, far below the 0.5%-per-refinement contract.
        x, y = 1.3, 2.9
        fine_plan = SubordinationPlan(
            WIDE_PLAN.t_min, WIDE_PLAN.t_max, 2 * WIDE_PLAN.nodes_per_decade
        )
        for k, nu in [((1,), 0.7), ((2,), 0.7)]:
            base = riesz_kernel(nu, k, x, y, WIDE_PLAN)
            fine = riesz_kernel(nu, k, x, y, fine_plan)
            assert abs(fine - base) <= 1e-6 * max(abs(base), 1e-6)
            assert abs(fine - base) <= 5e-3 * max(abs(base), 1e-6)

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            riesz_kernel(0.5, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            riesz_kernel(0.5, 0, 1.0, 2.0)

    def test_narrow_plan_warns_on_tail(self):
        narrow = SubordinationPlan(t_min=1e-2, t_max=1e2, nodes_per_decade=24)
        with pytest.warns(RuntimeWarning):
            riesz_kernel(0.5, 1, 1.0, 1.2, narrow)

    @pytest.mark.parametrize(
        "x, y", [(-1.0, -2.0), (-1.0, 2.0), (0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)]
    )
    def test_coordinates_off_the_half_line_refused(self, x, y):
        calls = (
            lambda: riesz_kernel(0.7, 2, x, y),
            lambda: riesz_kernel_batch(0.7, 2, [[x]], [[y]]),
            lambda: riesz_difference_batch(0.7, (1,), 0, [[x]], [[y]]),
            lambda: riesz_kernel_1d(0.7, 2, [x], [y]),
        )
        for call in calls:
            with pytest.raises(DomainError, match="strictly positive"):
                call()

    def test_points_of_another_dimension_refused(self):
        # One row per axis of nu: a point with fewer or more coordinates
        # would drop an axis of the product or a coordinate of the point.
        calls = (
            lambda: riesz_kernel_batch((0.5, 0.7), (1, 1), [[1.0, 2.0]], [[1.5, 2.5]]),
            lambda: riesz_difference_batch((0.5, 0.7), (1, 1), 0, [[1.0, 2.0]], [[1.5, 2.5]]),
            lambda: riesz_kernel_batch(0.5, 1, [[1.0], [2.0]], [[1.5], [2.5]]),
            lambda: riesz_kernel_1d(0.5, 1, [[1.0], [2.0]], [[1.5], [2.5]]),
        )
        for call in calls:
            with pytest.raises(DomainError, match="dimension"):
                call()


# 30-digit reference for the exact 1-D kernel: the time integral
# (1/Gamma(k/2)) int t^{k/2} delta^k p_t dt/t by the trapezoid rule in log t
# with step 1/4, from where the Gaussian factor is below e^-80 to
# max(32, 40/(nu+1)) units past log(xy/2).  The integrand is analytic in a
# strip about the real log t axis, so the rule converges geometrically; at
# this step it is within 4e-16 of adaptive tanh-sinh at 30 digits, in
# |R| |x - y|.  Past log(xy/2) the k = 2 integrand falls only like
# t^{-(nu+1)} (k = 1 and 3 like t^{-(nu+3/2)}), so the window runs until
# (xy/2t)^{nu+1} < e^-40, which 32 units reach for nu >= 1/4.  At
# nu = -0.3 that is 57 units: doubling them moves the oracle by 1e-15 in
# |R| |x - y|, where stopping at 32 leaves it off by 3.8e-8.  The pairs
# reach eps = |x-y|/sqrt(xy) = 1e-3 and y/x from 1e-5 to 2e2.
MP_PAIRS = (
    (1.0, 1.001), (1.0, 0.999), (3.0, 3.003), (0.2, 0.2002), (1.0, 1.05), (2.0, 1.7),
    (0.5, 1.5), (1.0, 0.3), (4.0, 9.0), (10.0, 0.5), (0.05, 10.0), (0.1, 19.4),
    (2.0, 0.01), (1.0, 1e-3), (4.0, 4e-5), (1.0, 1e-5),
)


def _mp_time_integral(nu, x, y, ks=(1, 2, 3), step=0.25):
    with mpmath.workdps(30):
        x, y, nu, step = (mpmath.mpf(v) for v in (x, y, nu, step))
        lo = mpmath.log((x - y) ** 2 / 320)
        count = int((mpmath.log(x * y / 2) + max(32, 40 / (nu + 1)) - lo) / step) + 1
        words = {}  # k: [(c x^a y^b, d, m)] for the terms c x^a y^b t^-d p^{nu+m}
        for k in ks:
            words[k] = []
            for e in heat.delta_expansion(0.5, k).terms:
                c = mpmath.mpf(e.coeff.numerator) / e.coeff.denominator
                words[k].append((c * x**e.xpow * y**e.ypow, e.tneg, e.shift))
        total = dict.fromkeys(ks, mpmath.mpf(0))
        for i in range(count):
            t = mpmath.exp(lo + i * step)
            z = x * y / (2 * t)
            pre = mpmath.sqrt(x * y) / (2 * t) * mpmath.exp(-((x - y) ** 2) / (4 * t) - z)
            # I_{nu+m+2} = I_{nu+m} - 2 (nu+m+1)/z I_{nu+m+1}: the digits it
            # loses at small z are those of terms far below p^nu there.
            bessel = [mpmath.besseli(nu, z), mpmath.besseli(nu + 1, z)]
            for m in range(max(ks) - 1):
                bessel.append(bessel[m] - 2 * (nu + m + 1) / z * bessel[m + 1])
            p = [pre * i for i in bessel]
            for k in ks:
                word = mpmath.fsum(c * t**-d * p[m] for c, d, m in words[k])
                total[k] += t ** (mpmath.mpf(k) / 2) * word
        return {k: float(step * total[k] / mpmath.gamma(mpmath.mpf(k) / 2)) for k in ks}


@pytest.fixture(scope="module")
def mp_time_integrals():
    """{nu: {k: array of R_k over MP_PAIRS}}."""
    out = {}
    for nu in (-0.3, 0.6, 0.7, 1.0):
        rows = [_mp_time_integral(nu, x, y) for x, y in MP_PAIRS]
        out[nu] = {k: np.array([r[k] for r in rows]) for k in (1, 2, 3)}
    return out


class TestExactKernel1D:
    """``riesz_kernel_1d``: the time integral in closed form (the Green's
    function at k = 2, Schlafli's integral otherwise)."""

    # nu = 1.0 has sin(nu pi) = 0: no u integral at all.  The k = 2 closed
    # form measures at most 8.3e-16 at each nu, where Schlafli's integral
    # at k = 2 measured 1.5e-14 (nu > 0) and 7.6e-11 (nu = -0.3).  At
    # nu = -0.3, k = 1 and 3 measure 1.6e-13 and 4.3e-13.
    @pytest.mark.parametrize("nu", [-0.3, 0.6, 0.7, 1.0])
    @pytest.mark.parametrize("k, tol", [(1, 1e-12), (2, 1e-14), (3, 1e-12)])
    def test_against_mpmath_time_integral(self, mp_time_integrals, nu, k, tol):
        x = np.array([p[0] for p in MP_PAIRS])
        y = np.array([p[1] for p in MP_PAIRS])
        vals = riesz_kernel_1d(nu, k, x, y)[0]
        assert np.max(np.abs(vals - mp_time_integrals[nu][k]) * np.abs(x - y)) <= tol

    @pytest.mark.parametrize("nu", [-0.45, 0.0, 0.7, 5.5])
    def test_order_two_vanishes_below_the_diagonal(self, nu):
        # delta annihilates the Green's function's x^{nu+1/2} branch.
        x, y = off_diagonal_pairs(3, 400, 0.01)
        r_xy, r_yx = riesz_kernel_1d(nu, 2, x, y, both=True)
        for vals, below in ((r_xy, x < y), (r_yx, y < x)):
            assert below.any() and (~below).any()
            assert np.all(vals[below] == 0.0)
            assert np.all(vals[~below] > 0.0)

    @pytest.mark.parametrize("k, tol", [(1, 1e-13), (2, 1e-11), (3, 2e-11)])
    def test_subordination_far_field(self, k, tol):
        # The subordination quadrature against the exact time integral where
        # the wide plan resolves every pair (|x - y| >= 0.1, no tail warning).
        # k = 3 has the coefficients 3/4, 3/2 and 3/8, the first that are not
        # powers of two.
        x, y = off_diagonal_pairs(11, 300, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sub = riesz_kernel_batch(0.7, k, x[None, :], y[None, :], WIDE_PLAN)
        exact = riesz_kernel_1d(0.7, k, x, y)[0]
        assert np.max(np.abs(sub - exact) * np.abs(x - y)) <= tol

    def test_dirichlet_closed_form(self):
        x, y = off_diagonal_pairs(4, 200, 0.01)
        vals = riesz_kernel_1d(NuVector((0.5,)), (1,), x[None, :], y[None, :])[0]
        assert np.max(np.abs(vals - dirichlet_riesz_oracle(x, y)) * np.abs(x - y)) <= 1e-12

    # The samples of the bundled thm1_5 campaigns at seed 0.
    THM1_5_PLAN = CzSamplePlan(count=2500, seed=0, levels=3, box=(0.1, 10.0), min_separation=0.01)

    @pytest.mark.parametrize("k", [1, 2])
    def test_nested_rule_on_the_thm1_5_samples(self, monkeypatch, k):
        # Schlafli's integral with the committed node counts against doubled
        # counts (nu = 0.7).  k = 1 measures 2.3e-15.
        x, y, yp = (v[0] for v in _cz_triples(1, self.THM1_5_PLAN))
        for b in (y, yp):
            base = _schlafli_kernel(0.7, k, x, b, True)
            with monkeypatch.context() as m:
                m.setattr(riesz, "SCHLAFLI_NODES", tuple(2 * n for n in SCHLAFLI_NODES))
                fine = _schlafli_kernel(0.7, k, x, b, True)
            assert not np.array_equal(fine, base)
            assert np.max(np.abs(fine - base) * np.abs(x - b)) <= 1e-13

    @pytest.mark.parametrize("nu", [0.0, 0.7, 2.5])
    def test_order_two_closed_form_is_the_schlafli_integral(self, nu):
        # Measured 1.3e-14 on the (x, y) pairs and 1.7e-14 on the (x, y')
        # pairs, almost all of it Schlafli's residue where the kernel is 0.
        x, y, yp = (v[0] for v in _cz_triples(1, self.THM1_5_PLAN))
        for b in (y, yp):
            exact = riesz_kernel_1d(nu, 2, x, b, both=True)
            quadrature = _schlafli_kernel(nu, 2, x, b, True)
            assert np.max(np.abs(exact - quadrature) * np.abs(x - b)) <= 3e-14

    def test_no_bessel_call_and_refusals(self, monkeypatch):
        calls = []
        monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: calls.append(alpha))
        x, y = off_diagonal_pairs(2, 50, 0.01)
        assert np.all(np.isfinite(riesz_kernel_1d(0.7, 2, x, y, both=True)))
        with pytest.raises(DomainError):
            riesz_kernel_1d(0.7, 0, x, y)
        for k in (1, 2):
            with pytest.raises(DomainError):
                riesz_kernel_1d(0.7, k, x, np.where(np.arange(50) == 3, x, y))
        with pytest.raises(DomainError):
            riesz_kernel_1d(NuVector((0.5, 1.5)), (1, 1), x, y)
        with pytest.raises(DomainError):
            riesz_kernel_1d(0.7, 1, -x, y)
        assert calls == []


class TestGaussRules:
    """``riesz._gauss`` at the node counts of ``SCHLAFLI_NODES``, against
    numpy's rules (the eigenvalues of a companion matrix and one Newton
    step, no code shared with ``riesz``) and against exact moments."""

    RULES = [(n, False) for n in SCHLAFLI_NODES[:3]] + [(SCHLAFLI_NODES[3], True)]

    # numpy's weights measure up to 3.7e-13 from these (Laguerre, 32 nodes),
    # its nodes up to 9.2e-15; the moments are off by at most 4.7e-15.
    @pytest.mark.parametrize("n, laguerre", RULES)
    def test_against_numpy(self, n, laguerre):
        x, w = riesz._gauss(n, laguerre)
        want_x, want_w = (laggauss if laguerre else leggauss)(n)
        np.testing.assert_allclose(x, want_x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(w, want_w, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, laguerre", RULES)
    def test_exact_moments(self, n, laguerre):
        # An n-point Gauss rule integrates every polynomial of degree up to
        # 2n - 1 exactly: int_{-1}^{1} x^{2j} = 2/(2j + 1) (the odd moments
        # vanish) and int_0^inf x^j e^{-x} = j!.
        x, w = riesz._gauss(n, laguerre)
        for j in range(2 * n):
            got = float(np.sum(w * x**j))
            if laguerre:
                assert got == pytest.approx(math.factorial(j), rel=1e-13)
            elif j % 2:
                assert abs(got) <= 1e-15
            else:
                assert got == pytest.approx(2.0 / (j + 1), rel=1e-13)


class TestRieszApply:
    def test_zero_function(self):
        g = default_grid(1, nodes_per_axis=128)
        z = GridFunction(g, np.zeros(g.shape))
        out = riesz_apply(0.8, (1,), z)
        assert np.all(out.values == 0.0)

    def test_eigenfunction_mapping(self):
        # R phi_lam^{nu} = -phi_lam^{nu+1} for |k| = 1 (exact in the
        # continuum).  The kernel decays only polynomially and phi does not
        # decay, so the domain is kept wide; lam is small enough that the
        # alternating J series stays accurate (z <= 20).
        # t_min sits near the square of the coarsest spacing so every time
        # node is resolved by the grid.
        nu = 1.0
        g = default_grid(1, nodes_per_axis=768, box=(1e-2, 60.0))
        spec = EigenfunctionSpec((1.0 / 3.0,))
        phi = eigenfunction_gridfn(NuVector((nu,)), spec, g)
        out = riesz_apply(NuVector((nu,)), (1,), phi, SubordinationPlan(1e-4, 1e3, 16))
        target = -eigenfunction_gridfn(NuVector((nu + 1.0,)), spec, g).values
        x = g.axes[0].nodes
        interior = (x >= 1.0) & (x <= 8.0)
        err = np.max(np.abs(out.values - target)[interior])
        assert err <= 5e-3 * np.max(np.abs(target[interior]))

    def test_transform_matches_the_principal_value_oracle(self):
        # At nu = 1/2 the kernel is the closed form of
        # ``dirichlet_riesz_oracle``: (1/pi)[1/(x+y) - 1/(x-y)] - K/x with
        # K = (1/pi) log((x+y)/|x-y|).  Integrated over the box with the
        # 1/(y-x) part as a principal value and the log parts with their
        # singularity as a weight (QUADPACK), it gives R f exactly.
        lo, hi = 0.25, 8.0
        g = Grid((log_axis(lo, hi, 512),))
        x = g.axes[0].nodes

        def f(y):
            return np.exp(-((y - 2.0) ** 2) / 0.5)

        def exact(x0):
            def part(fn, a, b, **kw):
                return quad(fn, a, b, epsabs=0.0, epsrel=1e-12, limit=200, **kw)[0]

            log_abs = part(f, lo, x0, weight="alg-logb", wvar=(0, 0)) + part(
                f, x0, hi, weight="alg-loga", wvar=(0, 0)
            )
            total = (
                part(lambda y: f(y) / (x0 + y), lo, hi)
                + part(f, lo, hi, weight="cauchy", wvar=x0)
                - part(lambda y: np.log(x0 + y) * f(y), lo, hi) / x0
                + log_abs / x0
            )
            return total / math.pi

        ours = riesz_matrix(NuVector((0.5,)), (1,), g) @ f(x)
        picks = np.flatnonzero((x >= 0.5) & (x <= 6.0))[::8]
        oracle = np.array([exact(x[i]) for i in picks])
        err = np.max(np.abs(ours[picks] - oracle)) / np.max(np.abs(oracle))
        assert err <= 1e-4

    def test_l2_bound_sweep_stable(self):
        nu = NuVector((0.8,))
        ratios = {}
        rng = np.random.default_rng(21)
        centers = rng.uniform(1.0, 6.0, 30)
        widths = rng.uniform(0.2, 1.5, 30)
        for npts in (256, 512):
            g = default_grid(1, nodes_per_axis=npts)
            x = g.axes[0].nodes
            fs = [GridFunction(g, np.exp(-((x - c) ** 2) / s)) for c, s in zip(centers, widths)]
            ratios[npts] = max(
                lp_norm(rf, 2.0) / lp_norm(f, 2.0) for f, rf in zip(fs, riesz_apply(nu, (1,), fs))
            )
        assert ratios[512] < 5.0
        assert abs(ratios[512] - ratios[256]) / ratios[256] < 0.1

    def test_adjoint_consistency(self):
        g = default_grid(1, nodes_per_axis=256)
        x = g.axes[0].nodes
        w = g.axes[0].weights
        f = np.exp(-((x - 2.0) ** 2))
        h = np.exp(-((x - 3.0) ** 2) / 2.0)
        mat = riesz_matrix(NuVector((0.6,)), (1,), g)
        rf = mat @ f
        # transpose-kernel application: (R* h)_i = sum_j K(x_j, x_i) w_j h_j
        kern = mat / w[None, :]
        rstar_h = kern.T @ (w * h)
        lhs = float(np.sum(w * rf * h))
        rhs = float(np.sum(w * f * rstar_h))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_2d_apply_runs_and_is_linear(self):
        g = default_grid(2, nodes_per_axis=48)
        xm, ym = g.node_mesh
        f1 = GridFunction(g, np.exp(-((xm - 2) ** 2) - (ym - 3) ** 2))
        f2 = GridFunction(g, np.exp(-((xm - 4) ** 2) / 2 - (ym - 1) ** 2))
        nu = NuVector((0.5, 1.5))
        plan = SubordinationPlan(1e-4, 1e3, 8)
        a = riesz_apply(nu, (1, 1), f1, plan).values
        b = riesz_apply(nu, (1, 1), f2, plan).values
        combo = riesz_apply(nu, (1, 1), GridFunction(g, f1.values + 2 * f2.values), plan)
        assert np.allclose(combo.values, a + 2 * b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "nu, k, nodes",
        [((0.8,), (1,), 96), ((0.6, 1.1), (1, 1), 24), ((0.6, 1.1), (0, 0), 24)],
        ids=["1d", "2d", "order0"],
    )
    def test_sequence_is_the_one_function_calls(self, nu, k, nodes):
        g = default_grid(len(nu), nodes_per_axis=nodes)
        rng = np.random.default_rng(4)
        fs = tuple(GridFunction(g, rng.standard_normal(g.shape)) for _ in range(3))
        plan = SubordinationPlan(1e-4, 1e3, 4)
        got = riesz_apply(nu, k, fs, plan)
        assert isinstance(got, list) and len(got) == len(fs)
        for f, rf in zip(fs, got):
            assert rf.grid is g
            assert np.array_equal(rf.values, riesz_apply(nu, k, f, plan).values)
        assert riesz_apply(nu, k, [], plan) == []

    def test_sequence_builds_one_matrix_and_refuses_mixed_grids(self, monkeypatch):
        builds = []
        mellin_matrix = riesz._mellin_matrix

        def counted(*args, **kwargs):
            builds.append(args)
            return mellin_matrix(*args, **kwargs)

        monkeypatch.setattr(riesz, "_mellin_matrix", counted)
        plan = SubordinationPlan(1e-4, 1e3, 4)
        g = Grid((log_axis(1e-2, 20.0, 64),))
        fs = [GridFunction(g, np.sin(m * g.axes[0].nodes)) for m in (1, 2, 3)]
        riesz_apply(0.6, (1,), fs, plan)
        assert len(builds) == 1
        riesz_apply(0.6, (1,), [], plan)
        assert len(builds) == 1
        # Same size, other nodes; and another size.  The uniform axis is
        # refused on its own too, as no log-uniform axis.
        uniform = Grid((uniform_axis(1e-2, 20.0, 64),))
        for other in (uniform, default_grid(1, nodes_per_axis=65)):
            f = GridFunction(other, np.ones(other.shape))
            with pytest.raises(GridError, match="one grid"):
                riesz_apply(0.6, (1,), [*fs, f], plan)
        with pytest.raises(GridError, match="log-uniform"):
            riesz_apply(0.6, (1,), GridFunction(uniform, np.ones(64)), plan)
        assert len(builds) == 1


# The mpmath oracle for the assembled 1-D matrices: the same discretized sum
# (1/Gamma(k/2)) sum_t w_t t^{k/2} D(t, x_i, x_j) w_j at 40 digits, on the
# whole diagonal and a spread of off-diagonal pairs of a 48-node grid.
ORACLE_NU = 0.6
ORACLE_PLAN = SubordinationPlan(1e-6, 1e4, 8)
ORACLE_GRID = default_grid(1, nodes_per_axis=48)
ORACLE_PAIRS = (
    [(i, i) for i in range(48)]
    + [(i, i + 1) for i in range(0, 47, 5)]
    + [(i, i + 4) for i in range(0, 44, 6)]
    + [(0, 47), (10, 30), (20, 40), (33, 45)]
)


def _mp_word(name, t, x, y, p):
    """D(t, x, y) from the ladder p[m] = p_t^{nu+m}(x, y), by hand from
    delta_nu p^{nu+m} = (m/x - x/2t) p^{nu+m} + (y/2t) p^{nu+m+1}."""
    if name == "k1":
        return (y * p[1] - x * p[0]) / (2 * t)
    if name == "k2":
        return (
            (x * x / (4 * t * t) - 1 / (2 * t)) * p[0]
            + (y / (2 * t * x) - x * y / (2 * t * t)) * p[1]
            + y * y / (4 * t * t) * p[2]
        )
    # delta_nu p^nu - delta_{nu+1} p^{nu+1}
    return (y * p[1] - x * p[0]) / (2 * t) - (y * p[2] - x * p[1]) / (2 * t)


@pytest.fixture(scope="module")
def mp_ladders():
    """{(i, j): [(t, w_t, [p^{nu}, p^{nu+1}, p^{nu+2}]) per live node]}."""
    x = ORACLE_GRID.axes[0].nodes
    t_nodes, w = ORACLE_PLAN.nodes()
    out = {}
    with mpmath.workdps(40):
        nu = mpmath.mpf(ORACLE_NU)
        for i, j in ORACLE_PAIRS:
            xi, xj = mpmath.mpf(x[i]), mpmath.mpf(x[j])
            rows = []
            for t, wt in zip(t_nodes, w):
                t = mpmath.mpf(t)
                if (xi - xj) ** 2 / (4 * t) > 800:
                    continue  # the Gaussian factor is below e^-800
                z = xi * xj / (2 * t)
                pre = mpmath.sqrt(xi * xj) / (2 * t) * mpmath.exp(-(xi**2 + xj**2) / (4 * t))
                i0, i1 = mpmath.besseli(nu, z), mpmath.besseli(nu + 1, z)
                i2 = i0 - 2 * (nu + 1) / z * i1
                rows.append((t, mpmath.mpf(wt), [pre * i0, pre * i1, pre * i2]))
            out[i, j] = rows
    return out


def _mp_entry(name, k, ladder, xa, xb, wb):
    with mpmath.workdps(40):
        xa, xb = mpmath.mpf(xa), mpmath.mpf(xb)
        total = mpmath.fsum(
            wt * t ** (mpmath.mpf(k) / 2) * _mp_word(name, t, xa, xb, p) for t, wt, p in ladder
        )
        return float(total * mpmath.mpf(wb) / mpmath.gamma(mpmath.mpf(k) / 2))


def prefix_arguments(axis, times) -> list:
    """Per time node t, the Bessel arguments of a grid ladder: the first u
    product-class representatives of the axis over 2t, u counted as the
    classes of the pairs i <= j with d2 < 746 * 4t."""
    _, d2, distinct, inverse, _, _ = axis.pairs
    return [distinct[: np.unique(inverse[d2 < 746.0 * 4.0 * t]).size] / (2.0 * t) for t in times]


def _all_pairs_rows(nu, k, axis, plan, difference=False, own_products=False):
    """Per time node t, the word rows on every pair of the triangle, in the
    order of ``np.triu_indices``, each ladder written out on every pair
    (``class_ladder``): the Bessel functions at the pair's class
    representative, or with ``own_products`` at its own product x_i x_j,
    no prefix and no Bessel call across nodes."""
    iu = np.triu_indices(axis.size)
    x = axis.nodes
    a, b = x[iu[0]], x[iu[1]]
    bessel_xy = a * b if own_products else class_products(axis)[iu]
    expansion = heat.delta_expansion(0.0, k)
    monomials = tuple(heat._monomials(expansion.terms, a, b, both=True))
    shifts = heat._stepped(expansion.shifts) if difference else expansion.shifts
    for t, wi in zip(*plan.nodes()):
        ladder = class_ladder(nu, shifts, t, a, b, bessel_xy)
        rows = heat._combine(monomials, t, ladder)
        if difference:
            rows -= heat._combine(monomials, t, ladder, 1)
        yield t, wi, rows


def _all_pairs_dense(axis, rows):
    iu = np.triu_indices(axis.size)
    out = np.empty((axis.size, axis.size))
    out[iu] = rows[0]
    out.T[iu] = rows[1]
    return out * axis.weights[None, :]


def all_pairs_matrix(nu, k, axis, plan, difference=False, own_products=False):
    """``riesz_matrix`` (or ``riesz_difference_matrix``) from all the pairs."""
    total = 0.0
    for t, wi, rows in _all_pairs_rows(nu, k, axis, plan, difference, own_products):
        rows *= wi * t ** (k / 2.0)
        total = total + rows
    return _all_pairs_dense(axis, total) / math.gamma(k / 2.0)


def all_pairs_apply(nu, k, f, plan, own_products=False):
    """The n-D ``riesz_apply`` from all the pairs of every axis."""
    axes = f.grid.axes
    per_axis = [
        _all_pairs_rows(nu_j, k_j, ax, plan, own_products=own_products)
        for nu_j, k_j, ax in zip(nu, k, axes)
    ]
    half = sum(k) / 2.0
    acc = np.zeros(f.grid.shape)
    for nodes in zip(*per_axis):
        vals = f.values
        for j, ((t, wi, rows), axis) in enumerate(zip(nodes, axes)):
            vals = np.moveaxis(np.tensordot(_all_pairs_dense(axis, rows), vals, axes=(1, j)), 0, j)
        acc += wi * t**half * vals
    return acc / math.gamma(half)


def ladder_matrix(nu, k, g, plan, difference=False):
    """The 1-D time sum (1/Gamma(k/2)) sum_t w_t t^{k/2} D_t(x_i, x_j) w_j of
    the grid words each axis of the n-D ``riesz_apply`` sums: the word
    (``riesz._axis_word``) on the axis's live prefix at each time node
    (``heat._word_products``), summed, then gathered once
    (``grids._weighted_matrices``)."""
    axis = g.axes[0]
    t_nodes, w = plan.nodes()
    total = np.zeros((2, axis.pairs[0].size))
    products = heat._word_products((nu,), (riesz._axis_word(k, axis),), t_nodes, 0 if difference else None)
    for t, wi, rows in zip(t_nodes, w, products):
        rows *= wi * t ** (k / 2.0)
        total[:, : rows.shape[-1]] += rows
    out = grids._weighted_matrices(axis, 2)(total)
    out /= math.gamma(k / 2.0)
    return out


def nd_apply(nu, k, f, plan):
    """The n-D transform of one function by the private loop ``riesz_apply``
    calls, which also takes the orders it refuses (any k_j = 2)."""
    return riesz._nd_apply(NuVector(nu), k, f.grid, [f], plan)[0]


def underflow_regimes(axis, times) -> set:
    """The underflow regimes of the axis's pairs at the given times
    (``underflow_regime``): none, some or most of them past the cut."""
    return {underflow_regime(axis.pairs[1], t) for t in times}


class TestGridLadders:
    """The grid words each axis of the n-D ``riesz_apply`` sums, summed on
    one axis (``ladder_matrix``) or in n-D (``nd_apply``)."""

    @pytest.mark.parametrize("name, k", [("k1", 1), ("k2", 2), ("diff", 1)])
    def test_against_mpmath(self, mp_ladders, name, k):
        g = ORACLE_GRID
        mat = ladder_matrix(ORACLE_NU, k, g, ORACLE_PLAN, difference=name == "diff")
        x, w = g.axes[0].nodes, g.axes[0].weights
        scale = np.max(np.abs(mat))
        worst_diag = worst_off = 0.0
        for (i, j), ladder in mp_ladders.items():
            for a, b in {(i, j), (j, i)}:
                err = abs(mat[a, b] - _mp_entry(name, k, ladder, x[a], x[b], w[b])) / scale
                if a == b:
                    worst_diag = max(worst_diag, err)
                else:
                    worst_off = max(worst_off, err)
        assert worst_off <= 1e-14
        # The diagonal cancels between the terms of each time node.
        assert worst_diag <= 1e-8

    def test_one_bessel_call_per_block_of_time_nodes(self, monkeypatch, bessel_calls):
        # The time nodes' arguments are evaluated together, a block of at
        # least _BESSEL_BLOCK of them per call: the 25 nodes here hold 3,137
        # arguments, one call at the module's block and six at 500.
        plan = SubordinationPlan(1e-4, 1e2, 4)
        g = default_grid(1, nodes_per_axis=64)
        nodes = prefix_arguments(g.axes[0], plan.nodes()[0])
        assert sum(z.size for z in nodes) == 3137
        for block, calls in ((heat._BESSEL_BLOCK, 1), (500, 6)):
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
            bessel_calls.clear()
            ladder_matrix(1.0, 1, g, plan)
            assert [orders for orders, _ in bessel_calls] == [[1.0, 2.0]] * calls
            bessel_calls.assert_blocks(nodes)

    def test_difference_evaluates_the_triangle_once_per_node(self, bessel_calls):
        n = 40
        plan = SubordinationPlan(1e-4, 1e2, 4)
        g = default_grid(1, nodes_per_axis=n)
        ladder_matrix(0.6, 1, g, plan, difference=True)
        # Shifts 0, 1 and 2 in one call per block of time nodes, on each
        # node's prefix of the triangle's product classes, once.
        assert all(orders == [0.6, 0.6 + 1, 0.6 + 2] for orders, _ in bessel_calls)
        nodes = prefix_arguments(g.axes[0], plan.nodes()[0])
        assert max(z.size for z in nodes) <= n * (n + 1) // 2
        bessel_calls.assert_blocks(nodes)

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    @pytest.mark.parametrize("k, difference", [(1, False), (2, False), (1, True)])
    def test_distinct_products_match_the_per_pair_build(self, axis, k, difference):
        # The grid words evaluate their Bessel functions once per product
        # class, on the live prefix of the distance-sorted pairs; the
        # reference evaluates them on every pair of the triangle, at its
        # class's representative.  The plan's time nodes take every
        # underflow regime: none, some or most pairs past the cut.
        g = Grid((axis,))
        plan = SubordinationPlan(1e-6, 1e4, 8)
        assert underflow_regimes(axis, plan.nodes()[0]) == {"none", "some", "most"}
        grid_build = ladder_matrix(0.6, k, g, plan, difference)
        assert np.array_equal(grid_build, all_pairs_matrix(0.6, k, axis, plan, difference))

    @pytest.mark.parametrize("nu", [1.0, -0.2])
    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 48), uniform_axis(0.05, 10.0, 40)], ids=["log", "uniform"]
    )
    def test_matrices_match_the_per_pair_build_at_other_orders(self, axis, nu):
        g = Grid((axis,))
        plan = SubordinationPlan(1e-5, 1e3, 6)
        assert underflow_regimes(axis, plan.nodes()[0]) == {"none", "some", "most"}
        for k in (1, 2):
            assert np.array_equal(ladder_matrix(nu, k, g, plan), all_pairs_matrix(nu, k, axis, plan))
        diff = ladder_matrix(nu, 1, g, plan, difference=True)
        assert np.array_equal(diff, all_pairs_matrix(nu, 1, axis, plan, difference=True))

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    def test_nd_apply_matches_the_per_pair_build(self):
        g = Grid((log_axis(1e-2, 20.0, 40), uniform_axis(0.05, 10.0, 36)))
        f = GridFunction.from_callable(g, lambda x, y: np.exp(-((x - 2.0) ** 2) - y))
        plan = SubordinationPlan(1e-5, 1e3, 4)
        for axis in g.axes:
            assert underflow_regimes(axis, plan.nodes()[0]) == {"none", "some", "most"}
        grid_apply = nd_apply((0.6, 1.1), (1, 2), f, plan)
        assert np.array_equal(grid_apply, all_pairs_apply((0.6, 1.1), (1, 2), f, plan))

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), log_axis(1e-2, 20.0, 256)], ids=["log64", "log256"]
    )
    @pytest.mark.parametrize("nu", [0.6, -0.2])
    def test_matrices_are_near_the_own_product_build(self, axis, nu):
        # Against the build with the Bessel functions on each pair's own
        # product x_i x_j, the class representatives move every entry by
        # rounding only, in every underflow regime of the pairs.
        g = Grid((axis,))
        plan = SubordinationPlan(1e-6, 1e4, 8)
        assert underflow_regimes(axis, plan.nodes()[0]) == {"none", "some", "most"}
        for k, difference in ((1, False), (2, False), (1, True)):
            mat = ladder_matrix(nu, k, g, plan, difference)
            own = all_pairs_matrix(nu, k, axis, plan, difference, own_products=True)
            assert np.max(np.abs(mat - own)) <= 1e-13 * np.max(np.abs(own)), (k, difference)

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    def test_nd_apply_is_near_the_own_product_build(self):
        g = Grid((log_axis(1e-2, 20.0, 40), log_axis(0.05, 10.0, 36)))
        f = GridFunction.from_callable(g, lambda x, y: np.exp(-((x - 2.0) ** 2) - y))
        plan = SubordinationPlan(1e-5, 1e3, 4)
        for axis in g.axes:
            assert underflow_regimes(axis, plan.nodes()[0]) == {"none", "some", "most"}
        grid_apply = nd_apply((0.6, 1.1), (1, 2), f, plan)
        own = all_pairs_apply((0.6, 1.1), (1, 2), f, plan, own_products=True)
        assert np.max(np.abs(grid_apply - own)) <= 1e-13 * np.max(np.abs(own))

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    def test_grid_ladders_cover_the_live_prefix(self, monkeypatch):
        # Each grid ladder a stream yields has rows on the first cut pairs,
        # cut being the count of pairs with d2 < 746 * 4t, and exp(-d2/4t) is
        # exactly 0 on every pair it leaves out; at the early time nodes that
        # is most pairs.
        calls = []
        ladders = heat._ladders

        def recorded(nu, shifts, times, xy, d2, unique=None):
            for t, ladder in zip(times, ladders(nu, shifts, times, xy, d2, unique)):
                (shape,) = {row.shape for row in ladder.values()}
                calls.append((t, d2, *shape))
                yield ladder

        monkeypatch.setattr(heat, "_ladders", recorded)
        plan = SubordinationPlan(1e-5, 1e3, 4)
        g1 = default_grid(1, nodes_per_axis=64)
        g2 = Grid((log_axis(1e-2, 20.0, 24), uniform_axis(0.05, 10.0, 20)))
        ladder_matrix(0.6, 1, g1, plan)
        ladder_matrix(0.6, 2, g1, plan, difference=True)
        nd_apply((0.6, 1.1), (1, 2), GridFunction(g2, np.ones(g2.shape)), plan)
        axes = (*g1.axes, *g2.axes)
        assert len(calls) == 4 * plan.nodes()[0].size
        for t, d2, cut in calls:
            assert any(d2 is ax.pairs[1] for ax in axes)
            assert cut == np.searchsorted(d2, 746.0 * 4.0 * t)
            assert np.all(np.exp(-d2[cut:] / (4.0 * t)) == 0.0)
        assert min(cut / d2.size for _, d2, cut in calls) < 0.5

    def test_bessel_points_per_node_are_the_distinct_products(self, bessel_calls):
        # The Bessel calls run on the product classes of the pairs i <= j
        # with d2 < 746 * 4t, the prefix each ladder covers, node after node:
        # fewer at the early nodes, where the Gaussian factor underflows on
        # the pairs far from the diagonal.
        plan = SubordinationPlan(1e-4, 1e2, 4)
        g = default_grid(1, nodes_per_axis=64)
        _, d2, distinct, inverse, _, _ = g.axes[0].pairs
        assert distinct.size == 127
        times = plan.nodes()[0]
        expected = [np.unique(inverse[d2 < 746.0 * 4.0 * t]).size for t in times]
        assert expected[0] < 127 == expected[-1]
        ladder_matrix(1.0, 1, g, plan)
        bessel_calls.assert_blocks([distinct[:u] / (2.0 * t) for u, t in zip(expected, times)])

    def test_nd_apply_bessel_points_are_the_distinct_products(self, monkeypatch, bessel_calls):
        # One ladder stream per axis; every pair is live from t = 1 on, so
        # each node evaluates all of its axis's product classes.  A small
        # block interleaves the two streams' calls.
        plan = SubordinationPlan(1.0, 1e2, 4)
        g = Grid((log_axis(1e-2, 20.0, 40), uniform_axis(0.05, 10.0, 12)))
        f = GridFunction(g, np.ones(g.shape))
        assert g.axes[0].pairs[2].size < 40 * 41 // 2
        times = plan.nodes()[0]
        for block, calls in ((heat._BESSEL_BLOCK, 2), (200, 6)):
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
            bessel_calls.clear()
            riesz_apply((0.6, 1.1), (1, 1), f, plan)
            assert len(bessel_calls) == calls
            for nu, axis in zip((0.6, 1.1), g.axes):
                axis_calls = type(bessel_calls)(c for c in bessel_calls if c[0] == [nu, nu + 1])
                axis_calls.assert_blocks([axis.pairs[2] / (2.0 * t) for t in times])

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    @pytest.mark.parametrize("k, difference", [(1, False), (2, False), (1, True)])
    def test_grid_and_pointwise_paths_are_one_quadrature(self, k, difference):
        n = 48
        g = default_grid(1, nodes_per_axis=n)
        plan = SubordinationPlan(1e-4, 1e4, 8)
        x, w = g.axes[0].nodes, g.axes[0].weights
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        mat = ladder_matrix(0.6, k, g, plan, difference)
        if difference:
            points = riesz_difference_batch(0.6, (k,), 0, x[i][None], x[j][None], plan)
        else:
            points = riesz_kernel_batch(0.6, (k,), x[i][None], x[j][None], plan)
        kernel = mat / w[None, :]
        assert np.max(np.abs(kernel[i, j] - points)) <= 1e-14 * np.max(np.abs(kernel))


class TestGridMatrices:
    """The public 1-D grid matrices: Mellin convolutions on a log-uniform axis."""

    def test_weighted_norm_tends_to_the_isometry(self):
        # In 1-D, R_nu = delta_nu L_nu^{-1/2} is an L^2 isometry (|m_1| = 1);
        # sigma is 1.00287 at n = 256.
        sigma = {}
        for n in (128, 256):
            g = default_grid(1, nodes_per_axis=n)
            sw = np.sqrt(g.axes[0].weights)
            mat = riesz_matrix(1.0, (1,), g)
            sigma[n] = np.linalg.norm(sw[:, None] * mat / sw[None, :], 2)
        assert abs(sigma[256] - 1.0) < abs(sigma[128] - 1.0)
        assert sigma[256] < 1.0035

    def test_difference_is_the_matrix_difference(self):
        g = default_grid(1, nodes_per_axis=96)
        diff = riesz_difference_matrix(0.6, (1,), 0, g)
        parts = riesz_matrix(0.6, (1,), g) - riesz_matrix(1.6, (1,), g)
        assert np.max(np.abs(diff - parts)) <= 1e-12 * np.max(np.abs(parts))

    def test_difference_norm_is_below_the_symbol_supremum(self):
        # The weighted sigma_max of the difference matrix against the exact
        # L^2 norm sup |m_nu - m_{nu+1}| = 0.30122 at nu = 0.6.
        tau = np.linspace(-20.0, 20.0, 40001)
        sup = np.max(np.abs(riesz._mellin_symbol(0.6, 1, tau) - riesz._mellin_symbol(1.6, 1, tau)))
        assert sup == pytest.approx(0.30122, abs=5e-6)
        for n in (192, 384):
            g = default_grid(1, nodes_per_axis=n)
            sw = np.sqrt(g.axes[0].weights)
            mat = riesz_difference_matrix(0.6, (1,), 0, g)
            assert np.linalg.norm(sw[:, None] * mat / sw[None, :], 2) <= sup

    def test_matrices_make_no_bessel_call(self, bessel_calls):
        g = default_grid(1, nodes_per_axis=96)
        f = GridFunction(g, np.ones(g.shape))
        riesz_matrix(1.0, (1,), g)
        riesz_difference_matrix(0.6, (1,), 0, g)
        riesz_apply(0.8, (1,), [f, f])
        riesz._mellin_matrix(0.6, 3, 0.05, 96)
        assert bessel_calls == []

    @pytest.mark.parametrize("difference", [False, True])
    def test_matrix_is_toeplitz_in_the_scaled_variables(self, difference):
        # A[i, j] = x_i^{-1/2} c_{i-j} x_j^{1/2}, with x_j / x_i = e^{(j-i)h}
        # taken on the log grid: every diagonal is one number, bit for bit,
        # and x_i^{1/2} A[i, j] x_j^{-1/2} is the weight c_{i-j}.
        n = 80
        g = default_grid(1, nodes_per_axis=n)
        x = g.axes[0].nodes
        if difference:
            mat = riesz_difference_matrix(0.6, (1,), 0, g)
        else:
            mat = riesz_matrix(0.6, (1,), g)
        assert np.array_equal(mat[1:, 1:], mat[:-1, :-1])
        scaled = np.sqrt(x)[:, None] * mat / np.sqrt(x)[None, :]
        i, j = np.indices(mat.shape)
        for m in (-(n - 1), -7, -1, 0, 1, 7, n - 1):
            diag = scaled[i - j == m]
            assert np.max(np.abs(diag - diag[0])) <= 1e-13 * np.max(np.abs(scaled))

    def test_one_dimensional_apply_does_not_depend_on_the_plan(self):
        g = default_grid(1, nodes_per_axis=64)
        f = GridFunction(g, np.exp(-((g.axes[0].nodes - 3.0) ** 2)))
        want = riesz_apply(0.8, (1,), f).values
        for plan in (SubordinationPlan(1e-4, 1e3, 4), SubordinationPlan(1e-8, 1e6, 48)):
            assert np.array_equal(riesz_apply(0.8, (1,), f, plan).values, want)
        assert np.array_equal(riesz_matrix(0.8, (1,), g) @ f.values, want)

    @pytest.mark.parametrize("difference", [False, True])
    def test_order_zero_refused_before_any_ladder(self, monkeypatch, difference):
        calls = []
        monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: calls.append(alpha))
        g = default_grid(1, nodes_per_axis=32)
        with pytest.raises(DomainError):
            if difference:
                riesz_difference_matrix(0.6, (0,), 0, g)
            else:
                riesz_matrix(0.6, (0,), g)
        assert calls == []

    def test_orders_above_one_refused_before_any_ladder(self, monkeypatch):
        calls = []
        monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: calls.append(alpha))
        g1, g2 = default_grid(1, nodes_per_axis=32), default_grid(2, nodes_per_axis=8)
        f1, f2 = GridFunction(g1, np.ones(g1.shape)), GridFunction(g2, np.ones(g2.shape))
        refused = (
            lambda: riesz_matrix(0.6, (2,), g1),
            lambda: riesz_matrix(0.6, (3,), g1),
            lambda: riesz_difference_matrix(0.6, (2,), 0, g1),
            lambda: riesz_difference_matrix(0.6, (3,), 0, g1),
            lambda: riesz_apply(0.6, (2,), f1),
            lambda: riesz_apply(0.6, (2,), [f1, f1]),
            lambda: riesz_apply(0.6, (4,), f1),
            lambda: riesz_apply((0.6, 0.7), (1, 2), f2),
            lambda: riesz_apply((0.6, 0.7), (1, 3), f2),
            lambda: riesz_apply((0.6, 0.7), (2, 0), f2),
        )
        for call in refused:
            with pytest.raises(DomainError, match="k_j <= 1"):
                call()
        assert calls == []

    def test_nd_axis_of_order_zero_refused_before_any_ladder(self, monkeypatch):
        # An n-D transform with a k_j = 0 axis beside a k_j > 0 one is
        # refused; |k| = 0 stays the identity.
        calls = []
        monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: calls.append(alpha))
        g = default_grid(2, nodes_per_axis=8)
        f = GridFunction(g, np.ones(g.shape))
        for k in ((1, 0), (0, 1)):
            with pytest.raises(DomainError, match="k_j >= 1 on every axis"):
                riesz_apply((0.6, 0.7), k, f)
            with pytest.raises(DomainError, match="k_j >= 1 on every axis"):
                riesz_apply((0.6, 0.7), k, [f, f])
        assert riesz_apply((0.6, 0.7), (0, 0), f) is f
        assert calls == []

    def test_difference_matrix_refuses_other_axes(self):
        g = default_grid(1, nodes_per_axis=32)
        for axis in (7, 1, -1):
            with pytest.raises(DomainError):
                riesz_difference_matrix(0.6, (1,), axis, g)

    def test_order_vector_of_another_dimension_refused(self):
        # A nu of two orders on a 1-D grid, as riesz_apply refuses it.
        g = default_grid(1, nodes_per_axis=32)
        with pytest.raises(GridError, match="dimension"):
            riesz_matrix((0.5, 0.7), 1, g)
        with pytest.raises(GridError, match="dimension"):
            riesz_difference_matrix((0.5, 0.7), 1, 0, g)
        with pytest.raises(GridError, match="dimension"):
            riesz_apply((0.5, 0.7), (1, 1), GridFunction(g, np.ones(g.shape)))

    def test_axes_that_are_not_log_uniform_refused(self):
        # A uniform axis, and a geometric one whose log steps are bent by 1e-7.
        bent = np.geomspace(1e-2, 20.0, 64) * np.exp(1e-7 * np.sin(np.arange(64.0)))
        for g in (Grid((uniform_axis(1e-2, 20.0, 64),)), Grid((Axis(bent),))):
            f = GridFunction(g, np.ones(g.shape))
            for call in (
                lambda: riesz_matrix(0.6, (1,), g),
                lambda: riesz_difference_matrix(0.6, (1,), 0, g),
                lambda: riesz_apply(0.6, (1,), f),
                lambda: riesz_apply(0.6, (1,), [f, f]),
            ):
                with pytest.raises(GridError, match="log-uniform"):
                    call()

    def test_log_axes_written_and_read_back_pass(self):
        # A default grid through CSV keeps its nodes bit for bit; a geometric
        # axis with rounding of 1e-12 in its log steps passes too.
        g = default_grid(1, nodes_per_axis=64, box=(0.03, 7.0))
        f = GridFunction(g, np.exp(-((g.axes[0].nodes - 3.0) ** 2)))
        back = gridfunction_from_csv(gridfunction_to_csv(f))
        assert np.array_equal(riesz_apply(0.8, (1,), back).values, riesz_apply(0.8, (1,), f).values)
        nodes = np.geomspace(1e-2, 20.0, 64) * (1.0 + 1e-12 * np.sin(np.arange(64.0)))
        riesz_matrix(0.8, (1,), Grid((Axis(nodes),)))


class TestMellinSymbol:
    """The symbol m_k(1/2 + i tau), its log-Gamma and the weights' alias tail."""

    TAU = np.concatenate([-np.geomspace(1e-3, 3e3, 200), [0.0], np.geomspace(1e-3, 3e3, 200)])

    @pytest.mark.parametrize("nu", [-0.3, 0.0, 0.6, 1.0, 2.5])
    def test_order_one_is_a_phase(self, nu):
        # R_nu is an L^2 isometry: |m_1| = 1 (at nu = 0 and tau = 0 too,
        # where the uncancelled form is 0 times a pole).
        assert np.max(np.abs(np.abs(riesz._mellin_symbol(nu, 1, self.TAU)) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("nu", [-0.3, 0.6, 1.0, 2.5])
    def test_order_two_is_its_rational_form(self, nu):
        # (nu + i tau)/(nu + 1 - i tau); at nu = 1, tau = 0 it is 1/2, where
        # the uncancelled form is 0 times a pole of Gamma(A - 1).
        want = (nu + 1j * self.TAU) / (nu + 1.0 - 1j * self.TAU)
        got = riesz._mellin_symbol(nu, 2, self.TAU)
        assert np.max(np.abs(got - want)) <= 1e-15
        if nu == 1.0:
            assert riesz._mellin_symbol(1.0, 2, np.array([0.0]))[0] == 0.5

    @pytest.mark.parametrize("nu", [0.6, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_order_is_the_gamma_product(self, nu, k):
        # The uncancelled form prod_j (j - s - nu - 1/2) 2^-k Gamma(A - k/2)
        # Gamma(B) / (Gamma(A) Gamma(B + k/2)), A = (nu + s + 1/2)/2,
        # B = (nu - s + 3/2)/2, from scipy, away from its removable points.
        tau = np.linspace(-50.0, 50.0, 1001)
        s = 0.5 + 1j * tau
        a, b = (nu + s + 0.5) / 2.0, (nu - s + 1.5) / 2.0
        prod = np.prod([j - s - nu - 0.5 for j in range(1, k + 1)], axis=0)
        want = prod * 2.0**-k * np.exp(
            loggamma(a - k / 2.0) - loggamma(a) + loggamma(b) - loggamma(b + k / 2.0)
        )
        assert np.max(np.abs(riesz._mellin_symbol(nu, k, tau) - want)) <= 1e-12

    def test_log_gamma_matches_scipy_modulo_2_pi_i(self):
        re, im = np.meshgrid(np.linspace(0.05, 30.0, 60), np.linspace(-3e3, 3e3, 121))
        z = (re + 1j * im).ravel()
        want = loggamma(z)
        diff = riesz._log_gamma(z) - want
        diff -= 2j * math.pi * np.round(diff.imag / (2.0 * math.pi))
        # A few ulps of values up to 2.2e4 (6.1e-15 relative measured).
        assert np.max(np.abs(diff) / np.maximum(1.0, np.abs(want))) <= 1e-14

    @pytest.mark.parametrize("s", [2, 3])
    def test_hurwitz_zeta_matches_scipy(self, s):
        x = np.linspace(0.5, 50.0, 400)
        assert np.max(np.abs(riesz._hurwitz_zeta(s, x) / zeta(s, x) - 1.0)) <= 1e-13

    @pytest.mark.parametrize(
        "nu, k, difference", [(1.0, 1, False), (0.6, 2, False), (0.6, 3, False), (0.6, 1, True)]
    )
    def test_alias_tail_is_the_sum_of_many_blocks(self, monkeypatch, nu, k, difference):
        # Summed in closed form past the third alias block, the multiplier
        # gives the weights of 40 evaluated blocks to 3.1e-7 of the largest
        # at h = 0.06 (the difference; 2.5e-8 at k = 1).
        mat = riesz._mellin_matrix(nu, k, 0.06, 128, difference)
        monkeypatch.setattr(riesz, "_ALIASES", 40)
        many = riesz._mellin_matrix(nu, k, 0.06, 128, difference)
        assert np.max(np.abs(mat - many)) <= 5e-7 * np.max(np.abs(many))


def weber_riesz_reference(x):
    """R f at ``x`` for f(x) = x^(3/2) exp(-x^2/2), nu = 1, k = 1.

    By Weber's first exponential integral (Watson, Bessel Functions, 13.3),
    f_a(x) = x^(nu+1/2) exp(-x^2/2a) has e^(-tL) f_a =
    (a/b)^(nu+1) x^(nu+1/2) exp(-x^2/2b) with b = a + 2t, and delta_nu acts
    on x^(nu+1/2) h as x^(nu+1/2) h'.  So at a = 1, R f is
    Gamma(1/2)^-1 int t^(-1/2) b^-2 (-x^(5/2)/b) exp(-x^2/2b) dt, here by
    the trapezoid rule in u = log t, step 0.02 on [-70, 40].
    """
    u = np.arange(-70.0, 40.0 + 1e-9, 0.02)
    w = np.full(u.size, 0.02)
    w[[0, -1]] *= 0.5
    t = np.exp(u)[:, None]
    b = 1.0 + 2.0 * t
    g = np.sqrt(t) * b**-2.0 * (-(x**2.5) / b) * np.exp(-(x**2) / (2.0 * b))
    return w @ g / math.gamma(0.5)


def k1_kernel(nu, r):
    """The kernel of L_nu^{-1/2} at y/x = r (homogeneous of degree 0):
    Gamma(nu + 1/2) / (sqrt(pi) Gamma(nu + 1)) rho^(nu+1/2)
    2F1(1/2, nu + 1/2; nu + 1; rho^2), rho = min(r, 1/r)."""
    rho = min(r, 1 / r)
    c = mpmath.gamma(nu + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu + 1))
    return c * rho ** (nu + 0.5) * mpmath.hyp2f1(0.5, nu + 0.5, nu + 1, rho * rho)


def indicator_riesz_reference(nu, a, b, x):
    """R f(x) for f the indicator of [a, b], k = 1, x not a or b.

    With F(x) = int_a^b k(y/x) dy = x G, G = int_{a/x}^{b/x} k (``k1_kernel``),
    R f = x^(nu+1/2) (x^(-nu-1/2) F)' = (1/2 - nu) G - (b/x) k(b/x) + (a/x) k(a/x);
    G is an mpmath quadrature split at the log singularity r = 1."""
    lo, hi = a / x, b / x
    with mpmath.workdps(15):
        g = mpmath.quad(lambda r: k1_kernel(nu, r), [lo, 1, hi] if lo < 1 < hi else [lo, hi])
        return float((0.5 - nu) * g - hi * k1_kernel(nu, hi) + lo * k1_kernel(nu, lo))


def midpoint_indicator(n):
    """A default grid of n nodes and the indicator of about [1, 2] on it,
    its jumps at the log-midpoints of the cells holding 1 and 2: the
    grid, the indicator's values, its ends a, b, and each node's distance
    in log x to the nearer jump."""
    g = default_grid(1, nodes_per_axis=n)
    x = g.axes[0].nodes
    u = np.log(x)
    ia, ib = np.searchsorted(x, [1.0, 2.0])
    ua, ub = 0.5 * (u[ia - 1] + u[ia]), 0.5 * (u[ib - 1] + u[ib])
    a, b = math.exp(ua), math.exp(ub)
    return g, ((x > a) & (x < b)).astype(float), a, b, np.minimum(np.abs(u - ua), np.abs(u - ub))


class TestExactReference:
    """The 1-D grid transforms against exact values: Weber's integral on the
    bundled grid campaigns' grids, and the indicator of [1, 2]."""

    def test_reference_against_quad(self):
        xs = np.array([0.01, 0.1, 1.0, 3.0, 20.0])
        for x, got in zip(xs, weber_riesz_reference(xs)):
            def integrand(t):
                b = 1.0 + 2.0 * t
                return t**-0.5 * b**-2.0 * (-(x**2.5) / b) * math.exp(-x * x / (2.0 * b))

            want = sum(
                quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for lo, hi in ((0.0, 1.0), (1.0, math.inf))
            ) / math.gamma(0.5)
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    # The error is that of the box [0.01, 20] (f is 1e-3 of its maximum at
    # 0.01); on [1e-4, 20] it is 2.4e-4 at 512 nodes.
    @pytest.mark.parametrize("ineq, measured", [("thm1_6i", 2.6006e-3), ("thm1_6ii", 2.4270e-3)])
    def test_bundled_grid_error_does_not_depend_on_the_plan(self, ineq, measured):
        cfg = default_config(ineq)
        g = default_grid(1, nodes_per_axis=cfg.grid_nodes, box=cfg.box)
        x = g.axes[0].nodes
        f = x**1.5 * np.exp(-(x**2) / 2.0)
        exact = weber_riesz_reference(x)
        got = riesz_matrix(1.0, (1,), g) @ f
        err = np.max(np.abs(got - exact))
        assert err <= 1.01 * measured * np.max(np.abs(exact))
        # No time plan: the transform is the same, bit for bit, under any.
        plan = cfg.plan
        fine = SubordinationPlan(plan.t_min, plan.t_max, 4 * plan.nodes_per_decade)
        for p in (plan, fine):
            assert np.array_equal(riesz_apply(1.0, (1,), GridFunction(g, f), p).values, got)

    def test_indicator_order_one_away_from_its_jumps(self):
        # Second order at the nodes more than 0.2 in log x from the jumps
        # (6.0e-4 and 1.37e-4 measured).  At the two nodes next to a jump
        # no method on samples converges: the samples do not say where in
        # the cell the jump is, and the piecewise-linear interpolant differs
        # from the step by an odd sawtooth whose transform there is
        # (1 - log 2)/pi.
        errors = []
        for n, measured in ((192, 6.0e-4), (384, 1.37e-4)):
            g, f, a, b, dist = midpoint_indicator(n)
            x = g.axes[0].nodes
            got = riesz_matrix(1.0, (1,), g) @ f
            far = np.flatnonzero((dist > 0.2) & (x > 0.2) & (x < 10.0))
            picks = far[:: far.size // 24]
            exact = np.array([indicator_riesz_reference(1.0, a, b, x[i]) for i in picks])
            errors.append(np.max(np.abs(got[picks] - exact)) / np.max(np.abs(exact)))
            assert errors[-1] <= 1.1 * measured
            step = (math.log(x[-1]) - math.log(x[0])) / (n - 1)
            for i in np.flatnonzero(dist < step):
                err = got[i] - indicator_riesz_reference(1.0, a, b, x[i])
                assert abs(abs(err) - (1.0 - math.log(2.0)) / math.pi) <= 2e-3
        assert errors[0] / errors[1] > 3.5

    def test_indicator_order_two_by_the_private_matrix(self):
        # R^2 f = -f + (2 nu + 1) x^(-nu-3/2) int_0^x y^(nu+1/2) f, exact at
        # every node; second order (3.8e-5, 9.2e-6, 2.3e-6 measured).  The
        # public transforms refuse k = 2, so ``_mellin_matrix`` is called directly.
        nu, c = 0.6, 2.1
        for n, measured in ((192, 3.82e-5), (384, 9.25e-6), (768, 2.33e-6)):
            g, f, a, b, _ = midpoint_indicator(n)
            x = g.axes[0].nodes
            integral = np.where(x > a, (np.minimum(x, b) ** c - a**c) / c, 0.0)
            exact = -f + (2.0 * nu + 1.0) * x ** (-nu - 1.5) * integral
            step = (math.log(x[-1]) - math.log(x[0])) / (n - 1)
            got = riesz._mellin_matrix(nu, 2, step, n) @ f
            assert np.max(np.abs(got - exact)) <= 1.05 * measured * np.max(np.abs(exact))


class TestFractionalInverse:
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_spectral_identity(self, s):
        # Box wide enough that boundary pollution of the truncated
        # eigenfunction arrives only after u_max ((hi - x)^2/16 > 100 on
        # the interior), and lam small enough for the J series (z <= 20).
        nu = NuVector((0.8,))
        g = default_grid(1, nodes_per_axis=768, box=(1e-2, 60.0))
        spec = EigenfunctionSpec((1.0 / 3.0,))
        phi = eigenfunction_gridfn(nu, spec, g)
        out = fractional_inverse_apply(nu, s, phi, SubordinationPlan(1e-2, 100.0, 16))
        target = spec.norm2 ** (-s) * phi.values
        x = g.axes[0].nodes
        interior = (x >= 0.5) & (x <= 6.0)
        err = np.max(np.abs(out.values - target)[interior]) / np.max(
            np.abs(target[interior])
        )
        assert err <= 1e-3

    def test_composition(self):
        # Composition needs the intermediate result to decay inside the
        # box, i.e. a reasonably large order: the tail of L^{-s} f falls
        # off like x^{1/2 - nu}.
        nu = NuVector((1.5,))
        g = default_grid(1, nodes_per_axis=512, box=(1e-2, 40.0))
        x = g.axes[0].nodes
        f = GridFunction(g, np.exp(-((x - 2.5) ** 2) / 0.4))
        plan = SubordinationPlan(1e-3, 1e3, 16)
        once = fractional_inverse_apply(nu, 1.0, f, plan)
        twice = fractional_inverse_apply(
            nu, 0.5, fractional_inverse_apply(nu, 0.5, f, plan), plan
        )
        interior = (x >= 0.3) & (x <= 8.0)
        scale = np.max(np.abs(once.values[interior]))
        assert np.max(np.abs(once.values - twice.values)[interior]) <= 1e-3 * scale

    def test_zero(self):
        g = default_grid(1, nodes_per_axis=64)
        z = GridFunction(g, np.zeros(g.shape))
        out = fractional_inverse_apply(0.5, 0.5, z, SubordinationPlan(1e-3, 1e2, 8))
        assert np.all(out.values == 0.0)


class TestRieszDifference:
    def test_consistency_with_kernel_difference(self):
        nu = NuVector((0.6,))
        x = np.array([[1.0, 1.7]])
        y = np.array([[1.4, 0.9]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = riesz_difference_batch(nu, (1,), 0, x, y, WIDE_PLAN)
            parts = riesz_kernel_batch(nu, (1,), x, y, WIDE_PLAN) - riesz_kernel_batch(
                NuVector((1.6,)), (1,), x, y, WIDE_PLAN
            )
        assert np.allclose(direct, parts, rtol=1e-10)

    def test_difference_smaller_than_parts_near_diagonal(self):
        # The order-shift difference loses the singular diagonal behavior:
        # it stays bounded by C/x near x ~ y while each part blows up.
        # WIDE_PLAN's t_min = 1e-6 truncates the pair at |x - y| = 2e-3
        # (tail indicator 1.45e-3); t_min = 1e-8 resolves every pair.
        nu = NuVector((0.6,))
        x = np.full((1, 16), 2.0)
        y = np.array([[2.0 * (1.0 + d) for d in np.geomspace(1e-3, 0.4, 16)]])
        plan = SubordinationPlan(t_min=1e-8, t_max=1e8, nodes_per_decade=24)
        diff = riesz_difference_batch(nu, (1,), 0, x, y, plan)
        assert np.all(np.abs(diff) * x[0] < 5.0)

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    @pytest.mark.parametrize("j", [0, 1])
    def test_two_axis_difference_is_the_kernel_difference(self, j):
        nu = NuVector((0.6, 1.1))
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 3.0, (2, 64))
        y = rng.uniform(0.3, 3.0, (2, 64))
        direct = riesz_difference_batch(nu, (1, 1), j, x, y, WIDE_PLAN)
        shifted = nu.shifted(tuple(int(i == j) for i in range(2)))
        parts = riesz_kernel_batch(nu, (1, 1), x, y, WIDE_PLAN) - riesz_kernel_batch(
            shifted, (1, 1), x, y, WIDE_PLAN
        )
        np.testing.assert_allclose(direct, parts, rtol=1e-10, atol=0.0)

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    def test_one_ladder_per_axis_and_time_node(self, monkeypatch):
        # k = (1, 1): shifts {0, 1, 2} on the difference axis, {0, 1} on the
        # other, each axis's ladder in one Bessel call per time node (two
        # full products, one per order vector, would take four).  At most
        # 512 pairs, so no ladder skips its underflowed entries.
        calls = []
        bessel = heat.besseli_scaled

        def counted(alpha, z):
            calls.append(list(alpha))
            return bessel(alpha, z)

        monkeypatch.setattr(heat, "besseli_scaled", counted)
        rng = np.random.default_rng(7)
        x = rng.uniform(0.3, 3.0, (2, 64))
        y = rng.uniform(0.3, 3.0, (2, 64))
        plan = SubordinationPlan(1e-4, 1e2, 4)
        riesz_difference_batch(NuVector((0.6, 1.1)), (1, 1), 0, x, y, plan)
        assert 0 < len(calls) <= 2 * plan.nodes()[0].size
        assert sum(map(len, calls)) <= 5 * plan.nodes()[0].size

    def test_tail_warning_on_truncated_near_diagonal_pairs(self):
        nu = NuVector((0.6,))
        with pytest.warns(RuntimeWarning, match="subordination tail indicator"):
            riesz_difference_batch(nu, (1,), 0, [[2.0]], [[2.004]], WIDE_PLAN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            riesz_difference_batch(nu, (1,), 0, [[1.0, 1.7, 0.5]], [[2.0, 0.9, 3.0]], WIDE_PLAN)

    def test_zero_shift_vanishes(self):
        # difference of identical operators is exactly zero
        a = riesz_kernel(NuVector((0.6,)), (1,), 1.0, 2.0, WIDE_PLAN)
        b = riesz_kernel(NuVector((0.6,)), (1,), 1.0, 2.0, WIDE_PLAN)
        assert a - b == 0.0


class TestCzBoundCheck:
    def test_small_sweep_stable_1d(self):
        report = cz_bound_check(
            NuVector((0.7,)),
            (2,),
            CzSamplePlan(count=400, seed=3, levels=2, min_separation=5e-2),
            WIDE_PLAN,
        )
        assert report["verdict"] == "stable"
        assert report["size"]["C_hat"] > 0.0
        assert report["smooth"]["exponent"] == 1.0
        assert report["smooth_raw_exponent"]["exponent"] == pytest.approx(1.2)

    def test_returns_a_fresh_copy(self):
        args = (
            NuVector((0.7,)),
            (2,),
            CzSamplePlan(count=100, seed=5, levels=2, min_separation=5e-2),
            SubordinationPlan(t_min=1e-6, t_max=1e8, nodes_per_decade=4),
        )
        first = cz_bound_check(*args)
        expected = list(first["size"]["per_refinement_C"])
        first["size"]["per_refinement_C"][0] = -1.0
        assert cz_bound_check(*args)["size"]["per_refinement_C"] == expected

    def test_split_sweeps_match_the_full_check(self):
        args = (
            NuVector((0.7,)),
            (2,),
            CzSamplePlan(count=100, seed=5, levels=2, min_separation=5e-2),
            SubordinationPlan(t_min=1e-6, t_max=1e8, nodes_per_decade=4),
        )
        full = cz_bound_check(*args)
        assert _cz_sides(*args, size=True, smooth=False) == {"size": full["size"]}
        smooth = _cz_sides(*args, size=False, smooth=True)
        assert smooth == {key: full[key] for key in ("smooth", "smooth_raw_exponent")}

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    @pytest.mark.parametrize("nu,k", [((0.7,), (2,)), ((0.5, 1.5), (1, 1))])
    def test_pair_loop_reverse_order_is_bit_equal(self, nu, k):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 6.0, (len(nu), 700))
        y = rng.uniform(0.1, 6.0, (len(nu), 700))
        plan = SubordinationPlan(t_min=1e-6, t_max=1e8, nodes_per_decade=6)
        r_xy, r_yx = _riesz_quadrature(NuVector(nu), k, x, y, plan, both=True)
        assert np.array_equal(r_xy, riesz_kernel_batch(nu, k, x, y, plan))
        assert np.array_equal(r_yx, riesz_kernel_batch(nu, k, y, x, plan))

    def test_exact_kernel_reverse_order_is_bit_equal(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.1, 6.0, 700)
        y = rng.uniform(0.1, 6.0, 700)
        for nu, k in [(0.7, 2), (0.6, 1), (1.0, 2)]:
            r_xy, r_yx = riesz_kernel_1d(nu, k, x, y, both=True)
            assert np.array_equal(r_xy, riesz_kernel_1d(nu, k, x, y)[0])
            assert np.array_equal(r_yx, riesz_kernel_1d(nu, k, y, x)[0])

    @pytest.mark.parametrize(
        "size, smooth, verdict",
        [
            ([1.0, 1.01], [2.0, 2.02], "stable"),
            ([1.0, 1.2], [2.0, 2.02], "unstable"),
            ([1.0, 1.01], [2.0, 2.5], "unstable"),
            ([1.0, math.inf], [2.0, 2.02], "violated"),
            ([1.0, 1.2], [2.0, math.nan], "violated"),
        ],
    )
    def test_verdict_reads_both_sides(self, monkeypatch, size, smooth, verdict):
        # Violated once either side's last level is not finite, else stable
        # only when both sides drift less than the gate.
        def sides(*args, **kwargs):
            return {
                name: {"per_refinement_C": levels, "drift": _drift(levels)}
                for name, levels in (("size", size), ("smooth", smooth))
            }

        monkeypatch.setattr(riesz, "_cz_sides", sides)
        assert cz_bound_check(NuVector((0.7,)), (1,))["verdict"] == verdict

    def test_scores_quotients_with_the_one_ratio_rule(self):
        assert riesz._ratios is sampling._ratios

    def test_drift_of_non_finite_levels_is_inf(self):
        assert _drift([math.inf, math.inf]) == math.inf

    def test_rejects_tiny_plans(self):
        with pytest.raises(DomainError):
            CzSamplePlan(count=10)
        with pytest.raises(DomainError):
            CzSamplePlan(levels=1)
