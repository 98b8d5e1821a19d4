"""Riesz transform and fractional-power tests.

Oracles: the closed-form order-1 kernel at nu = 1/2 from the image-kernel
logarithm; the eigenfunction mapping R phi_lam^{nu} = -phi_lam^{nu+1};
the spectral identity for fractional inverses; plan/grid refinement.
"""

import math
import warnings

import numpy as np
import pytest

from besselops.errors import DomainError
from besselops.grids import (
    EigenfunctionSpec,
    Grid,
    GridFunction,
    default_grid,
    eigenfunction_gridfn,
    log_axis,
    lp_norm,
)
from besselops.heat import NuVector
from besselops.riesz import (
    CzSamplePlan,
    SubordinationPlan,
    _drift,
    _riesz_quadrature,
    cz_bound_check,
    cz_size_sweep,
    cz_smooth_sweep,
    fractional_inverse_apply,
    riesz_apply,
    riesz_difference_batch,
    riesz_difference_kernel,
    riesz_kernel,
    riesz_kernel_batch,
    riesz_matrix,
)

WIDE_PLAN = SubordinationPlan(t_min=1e-6, t_max=1e8, nodes_per_decade=24)


def dirichlet_riesz_oracle(x, y):
    """delta_{1/2} applied to the log potential (1/pi) log((x+y)/|x-y|)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.log((x + y) / np.abs(x - y)) / math.pi
        dK = (1.0 / (x + y) - 1.0 / (x - y)) / math.pi
        return dK - K / x


class TestRieszKernel:
    def test_dirichlet_closed_form(self):
        rng = np.random.default_rng(4)
        xs, ys = [], []
        while len(xs) < 100:
            x, y = 10.0 ** rng.uniform(-1, 1, 2)
            if abs(x - y) >= 0.05:
                xs.append(x)
                ys.append(y)
        x = np.asarray(xs)[None, :]
        y = np.asarray(ys)[None, :]
        vals = riesz_kernel_batch(NuVector((0.5,)), (1,), x, y, WIDE_PLAN)
        oracle = dirichlet_riesz_oracle(x[0], y[0])
        assert np.max(np.abs(vals - oracle) / np.abs(oracle)) <= 1e-8
        # scalar wrapper agrees
        assert riesz_kernel(0.5, 1, x[0, 0], y[0, 0], WIDE_PLAN) == pytest.approx(
            float(vals[0]), rel=1e-14
        )

    def test_size_envelope_off_diagonal(self):
        rng = np.random.default_rng(9)
        nu = NuVector((0.7,))
        xs, ys = [], []
        while len(xs) < 200:
            x, y = 10.0 ** rng.uniform(-1, 1, 2)
            if abs(x - y) >= 0.02:
                xs.append(x)
                ys.append(y)
        x = np.asarray(xs)[None, :]
        y = np.asarray(ys)[None, :]
        vals = riesz_kernel_batch(nu, (2,), x, y, WIDE_PLAN)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals) * np.abs(x[0] - y[0])) < 10.0

    def test_plan_refinement_stability(self):
        # Two admissible plans (tails fully inside) agree to quadrature
        # accuracy, far below the 0.5%-per-refinement contract.
        x, y = 1.3, 2.9
        for k, nu in [((1,), 0.7), ((2,), 0.7)]:
            base = riesz_kernel(nu, k, x, y, WIDE_PLAN)
            fine = riesz_kernel(nu, k, x, y, WIDE_PLAN.refined())
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
            worst = 0.0
            for c, s in zip(centers, widths):
                f = GridFunction(g, np.exp(-((x - c) ** 2) / s))
                rf = riesz_apply(nu, (1,), f)
                worst = max(worst, lp_norm(rf, 2.0) / lp_norm(f, 2.0))
            ratios[npts] = worst
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

    def test_scalar_wrapper(self):
        v = riesz_difference_kernel(NuVector((0.6,)), (2,), 0, 1.0, 2.0, WIDE_PLAN)
        assert math.isfinite(v)

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
        assert cz_size_sweep(*args) == full["size"]
        smooth = cz_smooth_sweep(*args)
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

    def test_drift_of_non_finite_levels_is_inf(self):
        assert _drift([math.inf, math.inf]) == math.inf

    def test_rejects_tiny_plans(self):
        with pytest.raises(DomainError):
            CzSamplePlan(count=10)
        with pytest.raises(DomainError):
            CzSamplePlan(levels=1)
