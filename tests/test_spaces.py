"""Function-space machinery tests: atoms, minimizing polynomials, the
localized oscillation norm, coverings, and the dyadic decomposition."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from besselops.errors import DomainError, GridError, UnderResolvedError
from besselops.grids import Grid, GridFunction, default_grid, log_axis, uniform_axis
from besselops.heat import _rho_arr, critical_function
from besselops.spaces import (
    AtomCandidate,
    Ball,
    BallSampler,
    PolyND,
    atom_dual_decompose,
    bmo_norm,
    minimizing_polynomial,
    multi_indices,
    unit_ball_volume,
    validate_f_atom,
    validate_p_rho_atom,
    vitali_covering,
)

from atom_fixtures import (
    bundled_ball_atoms,
    bundled_line_atoms,
    decomposition_fixture,
)


class TestBallsAndIndices:
    def test_volume(self):
        assert Ball((1.0,), 2.0).volume == pytest.approx(4.0)
        assert Ball((1.0, 1.0), 1.5).volume == pytest.approx(math.pi * 2.25)

    def test_multi_indices(self):
        assert multi_indices(2, 1) == ((0, 0), (0, 1), (1, 0))
        assert len(multi_indices(2, 2)) == 6

    def test_invalid_balls(self):
        with pytest.raises(DomainError):
            Ball((0.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            Ball((1.0,), 0.0)

    @pytest.mark.parametrize(
        "center, radius",
        [
            ((math.nan,), 1.0),
            ((1.0, math.inf), 1.0),
            ((2.0, -math.inf), 1.0),
            ((1.0,), math.inf),
            ((1.0,), math.nan),
            ((), 1.0),
        ],
    )
    def test_non_finite_balls_refused(self, center, radius):
        with pytest.raises(DomainError):
            Ball(center, radius)

    @pytest.mark.parametrize(
        "center", [(3.0,), (0.7, 0.3), (5e-324, 2.0), (1e308, 7.1, 0.013), (np.float64(2.5),)]
    )
    def test_critical_radius_is_the_critical_function(self, center):
        ball = Ball(center, 1.0)
        assert type(ball.critical_radius) is float
        assert ball.critical_radius == critical_function(ball.center)


class TestAtomValidators:
    def test_bundled_ball_fixtures(self):
        for label, atom, expected in bundled_ball_atoms():
            verdict = validate_p_rho_atom(atom)
            assert verdict.valid == expected, label

    def test_bundled_line_fixtures(self):
        for label, f, expected in bundled_line_atoms():
            verdict = validate_f_atom(f)
            assert verdict.valid == expected, label

    def test_f_atom_check_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma for its nan check; the left-indicator
        # branch takes its level from sampling._median instead.
        code = (
            "import sys\n"
            "from atom_fixtures import bundled_line_atoms\n"
            "from besselops.spaces import validate_f_atom\n"
            "label, f, _ = bundled_line_atoms()[0]\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert validate_f_atom(f).kind == 'indicator', label\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_failure_reasons_are_specific(self):
        atoms = {label: (a, e) for label, a, e in bundled_ball_atoms()}
        v_mean = validate_p_rho_atom(atoms["invalid-mean"][0])
        assert v_mean.support_ok and v_mean.size_ok and not v_mean.cancellation_ok
        v_size = validate_p_rho_atom(atoms["invalid-size"][0])
        assert v_size.support_ok and v_size.cancellation_ok and not v_size.size_ok

    def test_restrict_radius_flag(self):
        label, atom, _ = bundled_ball_atoms()[0]
        # r = rho exactly: allowed under both conventions.
        assert validate_p_rho_atom(atom, restrict_radius=True).valid
        big = Ball(atom.ball.center, 2.0 * atom.ball.radius)
        # enlarged support ball, values rescaled to the bigger sup bound
        vals = atom.f.values * (
            big.volume ** (-1.0 / atom.p) / atom.ball.volume ** (-1.0 / atom.p)
        )
        bigger = AtomCandidate(GridFunction(atom.f.grid, vals), big, atom.p)
        assert validate_p_rho_atom(bigger).valid
        assert not validate_p_rho_atom(bigger, restrict_radius=True).valid

    def test_l1_normalization_bound(self):
        # Holder consequence of the sup bound: ||a||_1 <= |B|^{1-1/p}.
        for label, atom, expected in bundled_ball_atoms():
            if not expected:
                continue
            g = atom.f.grid
            l1 = float(np.sum(g.weight_array * np.abs(atom.f.values)))
            assert l1 <= atom.ball.volume ** (1.0 - 1.0 / atom.p) * (1.0 + 1e-12)

    @pytest.mark.parametrize("cancelled", [True, False], ids=["cancelled", "order4_left"])
    def test_translate_far_from_the_origin_gets_the_same_verdict(self, cancelled):
        # One profile on 19 nodes of a uniform grid, at c/r = 17 and at
        # c/r = 200.  Its centred moments are the same up to rounding; its
        # moments about the origin grow as c^alpha, and at p = 0.2
        # (omega = 4) their rounding alone exceeds 1e-10 r^4 ||a||_1 far out.
        g = Grid((uniform_axis(1.0, 41.0, 4001),))  # spacing 0.01
        r, p = 0.1, 0.2
        offsets = np.arange(-9, 10)
        u = offsets * 0.01 / r
        prof = (0.95 - np.abs(u)) * np.cos(2.5 * math.pi * u + 0.3)
        basis = np.vander(u, 5 if cancelled else 4, increasing=True)
        prof = prof - basis @ np.linalg.lstsq(basis, prof, rcond=None)[0]
        verdicts = []
        for i0 in (70, 1900):
            ball = Ball((g.axes[0].nodes[i0],), r)
            vals = np.zeros(g.shape)
            vals[i0 + offsets] = prof * (0.9 * ball.volume ** (-1.0 / p) / np.max(np.abs(prof)))
            verdicts.append(validate_p_rho_atom(AtomCandidate(GridFunction(g, vals), ball, p)))
        near, far = verdicts
        for v in verdicts:
            assert v.support_ok and v.size_ok and v.cancellation_required
            assert v.cancellation_ok == v.valid == cancelled, v.diagnostics["moments"]
        assert far.diagnostics["moments"] == pytest.approx(near.diagnostics["moments"], abs=1e-12)

    def test_p_range_check(self):
        _, atom, _ = bundled_ball_atoms()[0]
        validate_p_rho_atom(atom, nu=(0.5,))  # fine: p=1 always admissible
        small_p = AtomCandidate(atom.f, atom.ball, 0.6)
        with pytest.raises(DomainError):
            validate_p_rho_atom(small_p, nu=(-0.45,))  # n/(n+gam) = 1/1.05 > 0.6


class TestMinimizingPolynomial:
    def test_degree_zero_is_mean(self):
        g = default_grid(1, nodes_per_axis=512)
        x = g.axes[0].nodes
        f = GridFunction(g, np.sin(x))
        ball = Ball((3.0,), 0.8)
        poly = minimizing_polynomial(f, ball, 0)
        w = g.weight_array
        mask = ball.contains(np.stack(g.node_mesh))
        mean = float(np.sum(w[mask] * f.values[mask]) / np.sum(w[mask]))
        assert poly.coeffs[(0,)] == pytest.approx(mean, rel=1e-12)

    def test_reproduces_polynomials(self):
        g = default_grid(2, nodes_per_axis=96)
        xm, ym = g.node_mesh
        f = GridFunction(g, 1.5 - 0.3 * xm + 0.2 * ym + 0.05 * xm * ym)
        ball = Ball((3.0, 4.0), 1.2)
        poly = minimizing_polynomial(f, ball, 2)
        expect = {(0, 0): 1.5, (1, 0): -0.3, (0, 1): 0.2, (1, 1): 0.05}
        for alpha, c in expect.items():
            assert poly.coeffs.get(alpha, 0.0) == pytest.approx(c, abs=1e-10)
        for alpha, c in poly.coeffs.items():
            if alpha not in expect:
                assert abs(c) <= 1e-9

    def test_residual_moments_random(self):
        rng = np.random.default_rng(8)
        g = default_grid(2, nodes_per_axis=96)
        f = GridFunction(g, rng.normal(size=g.shape))
        ball = Ball((2.0, 3.0), 1.0)
        poly = minimizing_polynomial(f, ball, 2)
        # direct residual-moment oracle
        pts = np.stack(g.node_mesh)
        mask = ball.contains(pts)
        w = g.weight_array[mask]
        dev = f.values[mask] - poly.evaluate(pts[:, mask])
        scale = float(np.sum(w * np.abs(f.values[mask])))
        for alpha in multi_indices(2, 2):
            mono = np.ones(dev.shape)
            for j, a in enumerate(alpha):
                mono *= pts[j][mask] ** a
            resid = float(np.sum(w * dev * mono))
            assert abs(resid) <= 1e-10 * scale * 4.0 ** sum(alpha)

    def test_projection_idempotent(self):
        g = default_grid(1, nodes_per_axis=512)
        x = g.axes[0].nodes
        f = GridFunction(g, np.exp(-((x - 3.0) ** 2)))
        ball = Ball((3.0,), 0.9)
        p1 = minimizing_polynomial(f, ball, 2)
        pts = np.stack(g.node_mesh)
        p2 = minimizing_polynomial(GridFunction(g, p1.evaluate(pts)), ball, 2)
        for alpha in p1.coeffs:
            assert p2.coeffs[alpha] == pytest.approx(p1.coeffs[alpha], abs=1e-10)

    def test_under_resolved(self):
        g = default_grid(1, nodes_per_axis=64)
        f = GridFunction(g, np.ones(g.shape))
        with pytest.raises(UnderResolvedError):
            minimizing_polynomial(f, Ball((5.0,), 0.01), 2)


class ListedBalls:
    """A duck-typed ball sampler over a fixed list of balls."""

    def __init__(self, balls):
        self._balls = list(balls)

    def balls(self):
        return iter(self._balls)


class TestBmoNorm:
    def test_polynomial_under_small_balls_is_zero(self):
        g = default_grid(1, nodes_per_axis=512)
        x = g.axes[0].nodes
        f = GridFunction(g, 1.0 + 0.5 * x)

        class SmallBalls:
            def balls(self):
                for c in (2.0, 4.0, 8.0):
                    rho = critical_function((c,))
                    yield Ball((c,), 0.5 * rho)

        assert bmo_norm(f, 0.0, 1, SmallBalls()) <= 1e-9

    def test_constant_branches(self):
        g = default_grid(1, nodes_per_axis=512)
        one = GridFunction(g, np.ones(g.shape))

        class SmallOnly:
            def balls(self):
                yield Ball((4.0,), 0.1)

        class WithLarge:
            def balls(self):
                yield Ball((4.0,), 0.1)
                yield Ball((4.0,), 1.0)  # rho(4) = 0.25 <= 1: large branch

        assert bmo_norm(one, 0.0, 0, SmallOnly()) <= 1e-12
        # large ball fully inside the box: mean square of 1 over B is 1,
        # up to O(spacing/r) indicator-quadrature error at the ball edge
        val = bmo_norm(one, 0.0, 0, WithLarge())
        assert val == pytest.approx(1.0, rel=1.5e-2)

    def test_polynomial_invariance_small_balls(self):
        g = default_grid(1, nodes_per_axis=512)
        x = g.axes[0].nodes
        f = GridFunction(g, np.log(x))
        shifted = GridFunction(g, np.log(x) + 2.0 - 0.7 * x)

        class SmallBalls:
            def balls(self):
                for c in (1.0, 2.0, 4.0, 8.0):
                    yield Ball((c,), 0.3 * critical_function((c,)))

        a = bmo_norm(f, 0.0, 1, SmallBalls())
        b = bmo_norm(shifted, 0.0, 1, SmallBalls())
        assert a == pytest.approx(b, abs=1e-9)

    def test_log_min_coordinate_stable_under_refinement(self):
        g = default_grid(1, nodes_per_axis=384)
        f = GridFunction(g, np.log(g.axes[0].nodes))
        coarse = bmo_norm(f, 0.0, 1, BallSampler(g, n_centers=16, n_radii=8))
        fine = bmo_norm(f, 0.0, 1, BallSampler(g, n_centers=32, n_radii=16))
        assert fine > 0.0
        assert abs(fine - coarse) <= 0.10 * fine

    @staticmethod
    def stack_cases():
        """(grid, functions, samplers) on a 1-D log grid and a small 2-D
        uniform grid.  The subcritical samplers hold balls of 0 to 23 nodes
        (empty in 2-D, too few nodes for degree 1 or 2, an ill-conditioned
        Gram matrix at degree 2 in 2-D) and one ball clipped by the box;
        ``BallSampler`` adds the supercritical branch."""
        rng = np.random.default_rng(11)
        cases = []
        g1 = default_grid(1, nodes_per_axis=256)
        g2 = Grid((uniform_axis(4.0, 10.0, 48), uniform_axis(4.0, 10.0, 40)))
        for g, centers, clipped in (
            (g1, [(0.3,), (2.0,), (7.0,)], Ball((19.9,), 1.2)),
            (g2, [(6.0, 7.0), (8.0, 5.0)], Ball((9.9, 9.8), 0.5)),
        ):
            x = g.node_mesh[0]
            functions = [
                GridFunction(g, np.sin(3.0 * x) * np.prod(g.node_mesh, axis=0)),
                GridFunction(g, rng.normal(size=g.shape)),
                GridFunction(g, np.zeros(g.shape)),
                GridFunction(g, 1.0 - 0.5 * x + 0.25 * x**2),
            ]
            balls = [
                Ball(c, frac * critical_function(c)) for c in centers for frac in (0.2, 0.6, 0.95)
            ]
            balls.append(clipped)
            assert all(b.radius < critical_function(b.center) for b in balls)
            cases.append((g, functions, (ListedBalls(balls), BallSampler(g, 8, 6))))
        return cases

    @pytest.mark.parametrize("s, degree", [(0.0, 0), (0.0, 2), (0.5, 1), (1.5, 1), (1.5, 2)])
    def test_stack_matches_one_call_per_function(self, s, degree):
        for g, functions, samplers in self.stack_cases():
            for sampler in samplers:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    stacked = bmo_norm(functions, s, degree, sampler)
                stacked_messages = [str(w.message) for w in caught]
                assert len(stacked_messages) <= 1
                singles = []
                for f in functions:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        singles.append(bmo_norm(f, s, degree, sampler))
                    assert [str(w.message) for w in caught] == stacked_messages
                assert np.array_equal(stacked, singles)
                assert all(type(v) is float for v in stacked + singles)
                assert stacked[2] == 0.0 and stacked[0] > 0.0

    def test_stack_fits_subcritical_balls_and_warns_once(self):
        # Every subcritical sampler above fits some balls and skips others.
        for g, functions, (sampler, _) in self.stack_cases():
            total = len(list(sampler.balls()))
            for degree in (0, 1, 2):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    bmo_norm(functions, 0.0, degree, sampler)
                if degree == 0 and g.ndim == 1:
                    assert caught == []
                    continue
                (w,) = caught
                skipped = int(str(w.message).split()[0])
                assert str(w.message) == f"{skipped} under-resolved balls skipped"
                assert 0 < skipped < total

    def test_stack_of_nothing_and_mixed_grids(self):
        g = default_grid(1, nodes_per_axis=64)
        assert bmo_norm([], 0.0, 0) == []
        # Another size; and the same size on other nodes.
        for a, b in (
            (g, default_grid(1, nodes_per_axis=65)),
            (Grid((log_axis(1e-2, 20.0, 64),)), Grid((uniform_axis(1e-2, 20.0, 64),))),
        ):
            with pytest.raises(GridError):
                bmo_norm([GridFunction(a, np.ones(a.shape)), GridFunction(b, np.ones(b.shape))], 0.0, 0)
        with pytest.raises(DomainError):
            bmo_norm([], -1.0, 0)

    def test_reads_the_ball_critical_radius(self, monkeypatch):
        # The balls checked their centres; the norm does not check them again.
        import besselops.heat as heat
        import besselops.spaces as spaces

        g = default_grid(1, nodes_per_axis=512)
        f = GridFunction(g, np.sin(g.axes[0].nodes))
        sampler = ListedBalls(Ball((c,), r) for c in (2.0, 4.0) for r in (0.12, 0.2, 2.0))
        assert {b.radius < b.critical_radius for b in sampler.balls()} == {True, False}
        expected = bmo_norm(f, 0.0, 1, sampler)

        def refused(x):
            raise AssertionError("critical_function called")

        monkeypatch.setattr(spaces, "critical_function", refused)
        monkeypatch.setattr(heat, "critical_function", refused)
        assert bmo_norm(f, 0.0, 1, sampler) == expected > 0.0

    def test_default_sampler_and_degree_check(self):
        g = default_grid(1, nodes_per_axis=256)
        f = GridFunction(g, np.sin(g.axes[0].nodes))
        with pytest.raises(DomainError):
            bmo_norm(f, 1.5, 0)


class TestVitaliCovering:
    @pytest.mark.parametrize("n,nodes", [(1, 2048), (2, 128)])
    def test_covering_properties(self, n, nodes):
        g = default_grid(n, nodes_per_axis=nodes)
        box = tuple((0.5, 8.0) for _ in range(n))
        cov = vitali_covering(box, g)
        # (i)+(v): partition sums to one exactly on box nodes
        psum = cov.partition_sum().values
        assert np.max(np.abs(psum[cov.node_in_box] - 1.0)) <= 1e-12
        assert np.all(psum[~cov.node_in_box] == 0.0)
        # (ii): fifth-radius balls pairwise disjoint (center-distance test)
        assert cov.min_pairwise_fifth_gap() > 0.0
        # (iii): overlap bounded
        assert cov.max_overlap <= 64
        # (iv): each partition function lives on its ball and is in [0, 1]
        i = len(cov.centers) // 2
        psi = cov.psi(i).values
        assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
        pts = np.stack(g.node_mesh)
        ball = Ball(cov.centers[i], cov.radii[i])
        assert np.all(psi[~ball.contains(pts)] == 0.0)

    def test_overlap_refinement_independent(self):
        box = ((0.5, 8.0),)
        cov1 = vitali_covering(box, default_grid(1, nodes_per_axis=1024))
        cov2 = vitali_covering(box, default_grid(1, nodes_per_axis=2048))
        assert abs(cov1.max_overlap - cov2.max_overlap) <= 2

    def test_radii_match_critical_function(self):
        # One critical radius: the covering radii, critical_function,
        # _rho_arr and Ball.critical_radius agree bit for bit.
        for box, nodes in ((((0.5, 8.0),), 512), (((0.5, 8.0), (0.7, 6.0)), 32)):
            cov = vitali_covering(box, default_grid(len(box), nodes_per_axis=nodes))
            rho = _rho_arr(np.array(cov.centers).T).tolist()
            assert len(rho) == len(cov.radii) > 1
            for c, r, rho_c in zip(cov.centers, cov.radii, rho):
                assert r == rho_c == critical_function(c) == Ball(c, r).critical_radius

    def test_rejects_boundary_box(self):
        g = default_grid(1, nodes_per_axis=64)
        with pytest.raises(DomainError):
            vitali_covering(((0.0, 8.0),), g)


class TestDualDecomposition:
    def test_fixture_certificates(self):
        atom = decomposition_fixture(big_n=1)
        result = atom_dual_decompose(atom)
        certs = result.certificates
        assert result.j0 == 5
        assert result.omega == 0
        assert certs["reconstruction_residual"] <= 1e-10
        assert certs["dual_pairing_residual"] <= 1e-10
        for resid in certs["a1_moment_residuals"].values():
            assert abs(resid) <= 1e-10
        # decay of the scaled sup norms of the annulus pieces
        n, p, big_n = 1, 1.0, 1
        threshold = 2.0 ** (-(2 * big_n + n - n / p) + 0.1)
        assert 0.0 < certs["a2_measured_rate"] <= threshold

    def test_a1_is_an_atom_with_cancellation(self):
        atom = decomposition_fixture()
        result = atom_dual_decompose(atom)
        # a1 keeps the support ball and has vanishing moments
        v = validate_p_rho_atom(AtomCandidate(result.a1, atom.ball, atom.p))
        assert v.support_ok and v.cancellation_ok

    def test_a2_pieces_have_vanishing_moments(self):
        atom = decomposition_fixture()
        result = atom_dual_decompose(atom)
        g = atom.f.grid
        w = g.weight_array
        x = g.axes[0].nodes
        for (j, alpha), piece in result.a2.items():
            m = float(np.sum(w * piece.values))
            assert abs(m) <= 1e-12 * max(np.max(np.abs(piece.values)), 1.0)

    def test_supercritical_rejected(self):
        g = default_grid(1, nodes_per_axis=256)
        ball = Ball((4.0,), 1.0)  # rho(4) = 0.25 < 1
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(DomainError):
            atom_dual_decompose(AtomCandidate(f, ball, 1.0))

    def test_under_resolved_annulus(self):
        g = Grid((uniform_axis(3.0, 5.5, 65),))
        center = 4.0
        rho = critical_function((center,))
        ball = Ball((center,), rho / 32.0)
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(UnderResolvedError):
            atom_dual_decompose(AtomCandidate(f, ball, 1.0))
