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

import besselops.heat as heat
import besselops.riesz as riesz
import besselops.sampling as sampling
from besselops.campaigns import default_config
from besselops.errors import DomainError, GridError
from besselops.grids import (
    Grid,
    GridFunction,
    default_grid,
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

    def test_offdiagonal_part_matches_oracle_convolution(self):
        # Off-diagonal part of the assembled transform against direct
        # quadrature with the closed-form kernel (diagonal node skipped).
        g = Grid((log_axis(0.25, 8.0, 512),))
        x = g.axes[0].nodes
        w = g.axes[0].weights
        f = np.exp(-((x - 2.0) ** 2) / 0.5)
        mat = riesz_matrix(NuVector((0.5,)), (1,), g, WIDE_PLAN).copy()
        np.fill_diagonal(mat, 0.0)
        ours = mat @ f
        kern = dirichlet_riesz_oracle(x[:, None], x[None, :])
        np.fill_diagonal(kern, 0.0)
        oracle = kern @ (w * f)
        interior = (x >= 0.5) & (x <= 6.0)
        scale = np.max(np.abs(oracle[interior]))
        assert np.max(np.abs(ours - oracle)[interior]) <= 1e-4 * scale

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
        grid_matrix = riesz._grid_matrix

        def counted(*args, **kwargs):
            builds.append(args)
            return grid_matrix(*args, **kwargs)

        monkeypatch.setattr(riesz, "_grid_matrix", counted)
        plan = SubordinationPlan(1e-4, 1e3, 4)
        g = Grid((log_axis(1e-2, 20.0, 64),))
        fs = [GridFunction(g, np.sin(m * g.axes[0].nodes)) for m in (1, 2, 3)]
        riesz_apply(0.6, (1,), fs, plan)
        assert len(builds) == 1
        riesz_apply(0.6, (1,), [], plan)
        assert len(builds) == 1
        # Same size, other nodes; and another size.
        for other in (Grid((uniform_axis(1e-2, 20.0, 64),)), default_grid(1, nodes_per_axis=65)):
            f = GridFunction(other, np.ones(other.shape))
            with pytest.raises(GridError, match="one grid"):
                riesz_apply(0.6, (1,), [*fs, f], plan)
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


def grid_matrix(nu, k, g, plan, difference=False, support=None):
    """The 1-D grid matrix of order k: the public builds for the orders they
    accept, and the private assembly they call for k = 2, which they refuse."""
    if k > riesz._GRID_K_MAX:
        return riesz._grid_matrix(nu, k, g.axes[0], plan, difference, support)
    if difference:
        return riesz_difference_matrix(nu, (k,), 0, g, plan)
    return riesz_matrix(nu, (k,), g, plan, support=support)


def node_mask(name, n, seed=0):
    """An empty mask, one node, a random 30% of the nodes, or every node."""
    if name == "empty":
        return np.zeros(n, dtype=bool)
    if name == "one":
        return np.arange(n) == n // 3
    if name == "random":
        return np.random.default_rng(seed).random(n) < 0.3
    return np.ones(n, dtype=bool)


def nd_apply(nu, k, f, plan):
    """The n-D transform of one function by the private loop ``riesz_apply``
    calls, which also takes the orders it refuses (any k_j = 2)."""
    return riesz._nd_apply(NuVector(nu), k, f.grid, [f], plan)[0]


def underflow_regimes(axis, times) -> set:
    """The underflow regimes of the axis's pairs at the given times
    (``underflow_regime``): none, some or most of them past the cut."""
    return {underflow_regime(axis.pairs[1], t) for t in times}


class TestGridMatrices:
    @pytest.mark.parametrize("name, k", [("k1", 1), ("k2", 2), ("diff", 1)])
    def test_against_mpmath(self, mp_ladders, name, k):
        g = ORACLE_GRID
        mat = grid_matrix(ORACLE_NU, k, g, ORACLE_PLAN, difference=name == "diff")
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

    def test_weighted_norm_tends_to_the_isometry(self):
        # In 1-D, R_nu = delta_nu L_nu^{-1/2} is an L^2 isometry.
        plan = SubordinationPlan(1e-6, 1e4, 12)
        sigma = {}
        for n in (128, 256):
            g = default_grid(1, nodes_per_axis=n)
            sw = np.sqrt(g.axes[0].weights)
            mat = riesz_matrix(1.0, (1,), g, plan)
            sigma[n] = np.linalg.norm(sw[:, None] * mat / sw[None, :], 2)
        assert abs(sigma[256] - 1.0) < abs(sigma[128] - 1.0)
        assert sigma[256] < 1.04

    def test_difference_is_the_matrix_difference(self):
        g = default_grid(1, nodes_per_axis=96)
        plan = SubordinationPlan(1e-6, 1e4, 12)
        diff = riesz_difference_matrix(0.6, (1,), 0, g, plan)
        parts = riesz_matrix(0.6, (1,), g, plan) - riesz_matrix(1.6, (1,), g, plan)
        assert np.max(np.abs(diff - parts)) <= 1e-12 * np.max(np.abs(parts))

    def test_difference_evaluates_the_triangle_once_per_node(self, bessel_calls):
        n = 40
        plan = SubordinationPlan(1e-4, 1e2, 4)
        g = default_grid(1, nodes_per_axis=n)
        riesz_difference_matrix(0.6, (1,), 0, g, plan)
        # Shifts 0, 1 and 2 in one call per block of time nodes, on each
        # node's prefix of the triangle's product classes, once.
        assert all(orders == [0.6, 0.6 + 1, 0.6 + 2] for orders, _ in bessel_calls)
        nodes = prefix_arguments(g.axes[0], plan.nodes()[0])
        assert max(z.size for z in nodes) <= n * (n + 1) // 2
        bessel_calls.assert_blocks(nodes)

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
            riesz_matrix(1.0, (1,), g, plan)
            assert [orders for orders, _ in bessel_calls] == [[1.0, 2.0]] * calls
            bessel_calls.assert_blocks(nodes)

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
            lambda: riesz_matrix(0.6, (3,), g1, support=np.ones(32, dtype=bool)),
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
        grid_build = grid_matrix(0.6, k, g, plan, difference)
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
            assert np.array_equal(grid_matrix(nu, k, g, plan), all_pairs_matrix(nu, k, axis, plan))
        diff = riesz_difference_matrix(nu, (1,), 0, g, plan)
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
        builds = [
            (riesz_matrix(nu, (1,), g, plan), (1, False)),
            (grid_matrix(nu, 2, g, plan), (2, False)),
            (riesz_difference_matrix(nu, (1,), 0, g, plan), (1, True)),
        ]
        for mat, (k, difference) in builds:
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
        riesz_matrix(0.6, (1,), g1, plan)
        grid_matrix(0.6, 2, g1, plan, difference=True)
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
        riesz_matrix(1.0, (1,), g, plan)
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

    @pytest.mark.parametrize("mask", ["empty", "one", "random", "all"])
    @pytest.mark.parametrize("nu, k", [(1.0, 1), (0.7, 2)])
    def test_support_builds_the_masked_rows_and_columns(self, nu, k, mask):
        # Built on the pairs that touch the mask, the rows and columns of the
        # masked nodes are those of the whole matrix and the rest is +0, so
        # the product with a stack that vanishes off the mask is the whole
        # matrix's, bit for bit.  The plan's time nodes take every underflow
        # regime of the pairs.
        n = 96
        g = default_grid(1, nodes_per_axis=n)
        plan = SubordinationPlan(1e-6, 1e4, 8)
        assert underflow_regimes(g.axes[0], plan.nodes()[0]) == {"none", "some", "most"}
        support = node_mask(mask, n)
        whole = grid_matrix(nu, k, g, plan)
        built = grid_matrix(nu, k, g, plan, support=support)

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        assert np.array_equal(bits(built[:, support]), bits(whole[:, support]))
        assert np.array_equal(bits(built[support]), bits(whole[support]))
        assert np.all(bits(built[np.ix_(~support, ~support)]) == 0)
        stack = np.random.default_rng(1).standard_normal((n, 5))
        stack[~support] = 0.0
        assert np.array_equal(bits(built @ stack), bits(whole @ stack))
        if mask == "all":
            assert np.array_equal(bits(built), bits(whole))
        if mask == "empty":
            assert np.all(bits(built) == 0)

    def test_support_refuses_what_is_not_a_boolean_node_mask(self, monkeypatch):
        # An integer array would index the pairs, not mask the nodes.
        calls = []
        monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: calls.append(alpha))
        g = default_grid(1, nodes_per_axis=32)
        bad = (
            np.ones(32, dtype=int),
            np.arange(8),
            np.ones(31, dtype=bool),
            np.ones((32, 1), dtype=bool),
        )
        for support in bad:
            with pytest.raises(GridError, match="boolean mask of shape"):
                riesz_matrix(1.0, (1,), g, support=support)
        assert calls == []

    def test_difference_matrix_refuses_other_axes(self):
        g = default_grid(1, nodes_per_axis=32)
        for axis in (7, 1, -1):
            with pytest.raises(DomainError):
                riesz_difference_matrix(0.6, (1,), axis, g)

    @pytest.mark.filterwarnings("ignore:subordination tail indicator")
    @pytest.mark.parametrize("k, difference", [(1, False), (2, False), (1, True)])
    def test_grid_and_pointwise_paths_are_one_quadrature(self, k, difference):
        n = 48
        g = default_grid(1, nodes_per_axis=n)
        plan = SubordinationPlan(1e-4, 1e4, 8)
        x, w = g.axes[0].nodes, g.axes[0].weights
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        mat = grid_matrix(0.6, k, g, plan, difference)
        if difference:
            points = riesz_difference_batch(0.6, (k,), 0, x[i][None], x[j][None], plan)
        else:
            points = riesz_kernel_batch(0.6, (k,), x[i][None], x[j][None], plan)
        kernel = mat / w[None, :]
        assert np.max(np.abs(kernel[i, j] - points)) <= 1e-14 * np.max(np.abs(kernel))


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


class TestExactReference:
    """The grid transform of the bundled grid campaigns against an exact
    value, and the share of its error that the time quadrature makes."""

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

    # The error is the spatial one: the same to four digits at 4, 6, 12, 24
    # and 48 time nodes per decade.
    @pytest.mark.parametrize("ineq, measured", [("thm1_6i", 8.733e-3), ("thm1_6ii", 1.470e-2)])
    def test_bundled_plan_error_is_the_spatial_error(self, ineq, measured):
        cfg = default_config(ineq)
        g = default_grid(1, nodes_per_axis=cfg.grid_nodes, box=cfg.box)
        x = g.axes[0].nodes
        f = x**1.5 * np.exp(-(x**2) / 2.0)
        exact = weber_riesz_reference(x)
        plan = cfg.plan
        fine = SubordinationPlan(plan.t_min, plan.t_max, 4 * plan.nodes_per_decade)
        got = riesz_matrix(1.0, (1,), g, plan) @ f
        err = np.max(np.abs(got - exact))
        assert err <= 1.01 * measured * np.max(np.abs(exact))
        # the time quadrature's share: 0.11% (thm1_6i) and 0.06% (thm1_6ii)
        assert np.max(np.abs(got - riesz_matrix(1.0, (1,), g, fine) @ f)) <= 0.01 * err


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
        nu = NuVector((0.6,))
        x = np.full((1, 16), 2.0)
        y = np.array([[2.0 * (1.0 + d) for d in np.geomspace(1e-3, 0.4, 16)]])
        diff = riesz_difference_batch(nu, (1,), 0, x, y, WIDE_PLAN)
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
