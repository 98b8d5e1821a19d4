"""Heat kernel and derivative-expansion tests.

Independent oracles:
* at nu = 1/2 the kernel equals the Dirichlet image kernel
  (4 pi t)^{-1/2} (e^{-(x-y)^2/4t} - e^{-(x+y)^2/4t});
* nested central finite differences of delta_nu = d/dx - (nu+1/2)/x;
* finite differences in t for the time-derivative algebra;
* mpmath Taylor expansions of an mpmath kernel for the operator words.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from besselops import heat
from besselops.errors import DomainError
from besselops.grids import log_axis, uniform_axis
from besselops.heat import (
    KernelPoint,
    NuVector,
    adjoint_power_heat_1d,
    bound_rhs,
    critical_function,
    delta_dt_heat_1d,
    delta_dt_heat_nd_arrays,
    delta_expansion,
    delta_heat_difference_1d,
    delta_heat_kernel_nd,
    eval_delta_heat_1d,
    heat_kernel_1d,
    mixed_partial_delta,
)
from conftest import underflow_regime


def dirichlet_kernel(t, x, y):
    return (4.0 * math.pi * t) ** -0.5 * (
        np.exp(-((x - y) ** 2) / (4.0 * t)) - np.exp(-((x + y) ** 2) / (4.0 * t))
    )


def fd_delta(g, nu, h=1e-4):
    """One central-difference application of delta_nu to a callable of x."""

    def out(x):
        return (g(x + h) - g(x - h)) / (2.0 * h) - (nu + 0.5) / x * g(x)

    return out


def fd_delta_power(nu, ell, t, y, h=1e-4):
    """delta_nu^ell p_t^nu(., y) by nested differences; returns callable."""
    g = lambda x: heat_kernel_1d(nu, t, x, y)
    for _ in range(ell):
        g = fd_delta(g, nu, h)
    return g


def fd_delta_power_richardson(nu, ell, t, x, y, h=4e-3):
    """Nested differences with one Richardson step to kill the O(h^2) error.

    Nesting three central differences amplifies roundoff like eps/h^3, so h
    cannot be pushed small; extrapolating h and h/2 reaches ~1e-6 relative.
    """
    v1 = fd_delta_power(nu, ell, t, y, h)(x)
    v2 = fd_delta_power(nu, ell, t, y, h / 2.0)(x)
    return (4.0 * v2 - v1) / 3.0


class TestKernel1D:
    def test_dirichlet_oracle(self):
        assert heat_kernel_1d(0.5, 1.0, 1.0, 2.0) == pytest.approx(
            dirichlet_kernel(1.0, 1.0, 2.0), rel=1e-12
        )
        assert heat_kernel_1d(0.5, 1.0, 1.0, 2.0) == pytest.approx(0.18996, abs=1e-5)
        rng = np.random.default_rng(7)
        t = 10.0 ** rng.uniform(-2, 1, 400)
        x = 10.0 ** rng.uniform(-1, 1, 400)
        y = 10.0 ** rng.uniform(-1, 1, 400)
        ours = heat_kernel_1d(0.5, t, x, y)
        assert np.allclose(ours, dirichlet_kernel(t, x, y), rtol=1e-10)

    def test_symmetry_and_scaling(self):
        for nu in (-0.3, 0.0, 0.5, 2.0):
            a = heat_kernel_1d(nu, 0.7, 1.3, 3.1)
            b = heat_kernel_1d(nu, 0.7, 3.1, 1.3)
            assert a == pytest.approx(b, rel=1e-14)
            lam = 3.0
            left = heat_kernel_1d(nu, lam**2 * 0.7, lam * 1.3, lam * 3.1)
            assert left == pytest.approx(a / lam, rel=1e-12)

    def test_positivity_and_overflow_safety(self):
        # xy >> t regime where the raw Bessel product form overflows.
        v = heat_kernel_1d(1.0, 1e-6, 5.0, 5.0)
        assert math.isfinite(v) and v > 0.0

    def test_monotone_in_order(self):
        t, x, y = 0.31, 1.7, 2.9
        vals = [heat_kernel_1d(nu, t, x, y) for nu in (-0.4, 0.6, 1.6, 2.6)]
        # Not comparable across arbitrary orders, but +1 shifts decrease:
        for nu in (-0.4, 0.0, 1.0):
            assert heat_kernel_1d(nu + 1.0, t, x, y) <= heat_kernel_1d(nu, t, x, y)
        assert all(v > 0 for v in vals)

    def test_difference_identity(self):
        # p^nu - p^{nu+2} = 4(nu+1) t/(xy) p^{nu+1}, exactly: substituting
        # z = xy/2t into I_a - I_{a+2} = 2(a+1)/z I_{a+1} gives the factor 4.
        rng = np.random.default_rng(3)
        for _ in range(50):
            nu = rng.uniform(-0.9, 3.0)
            t = 10.0 ** rng.uniform(-2, 1)
            x = 10.0 ** rng.uniform(-1, 1)
            y = 10.0 ** rng.uniform(-1, 1)
            lhs = heat_kernel_1d(nu, t, x, y) - heat_kernel_1d(nu + 2.0, t, x, y)
            rhs = 4.0 * (nu + 1.0) * t / (x * y) * heat_kernel_1d(nu + 1.0, t, x, y)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert lhs > 0.0

    def test_domain_errors(self):
        for bad in [(-1.0, 1, 1, 1), (0.5, 0, 1, 1), (0.5, 1, -1, 1), (0.5, 1, 1, 0)]:
            with pytest.raises(DomainError):
                heat_kernel_1d(*bad)


@pytest.mark.parametrize(
    "x, y", [(-1.0, -2.0), (-1.0, 2.0), (0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)]
)
def test_coordinates_off_the_half_line_refused(monkeypatch, x, y):
    # The twin of the Riesz test of the same name: every word is refused by
    # the shared coordinate check, before any Bessel ladder.
    ladders = []
    monkeypatch.setattr(heat, "besseli_scaled", lambda alpha, z: ladders.append(alpha))
    calls = (
        lambda: eval_delta_heat_1d(0.7, 1, 1.0, x, y),
        lambda: eval_delta_heat_1d(0.7, 1, 1.0, y, x),
        lambda: mixed_partial_delta(0.7, 1, 1, 1.0, x, y),
        lambda: delta_dt_heat_1d(0.7, 1, 1, 1.0, x, y),
        lambda: delta_heat_difference_1d(0.7, 1, 1.0, x, y),
        lambda: adjoint_power_heat_1d(0.7, 1, 1, 1.0, x, y),
        lambda: delta_dt_heat_nd_arrays((0.7, 1.2), (1, 0), 1, 1.0, [[x], [1.0]], [[y], [1.5]]),
        lambda: KernelPoint(1.0, (1.0, x), (2.0, y)),
        lambda: critical_function((x, y)),
    )
    for call in calls:
        with pytest.raises(DomainError, match="strictly positive"):
            call()
    assert ladders == []


def kernel_nd(nu, q):
    """The product kernel at one point: the mixed delta-derivative at k = 0."""
    return delta_heat_kernel_nd(nu, (0,) * nu.n, q)


def product_of_1d_kernels(nu, q):
    """prod_j p_t^{nu_j}(x_j, y_j), multiplied up from 1.0 in axis order."""
    out = 1.0
    for j in range(nu.n):
        out *= heat_kernel_1d(nu.nu[j], q.t, q.x[j], q.y[j])
    return out


class TestKernelND:
    def test_product_structure(self):
        q = KernelPoint(0.8, (1.0, 2.0), (1.5, 0.7))
        nu = NuVector((0.5, 0.5))
        expected = dirichlet_kernel(0.8, 1.0, 1.5) * dirichlet_kernel(0.8, 2.0, 0.7)
        assert kernel_nd(nu, q) == pytest.approx(expected, rel=1e-12)

    def test_reduces_to_1d(self):
        q = KernelPoint(0.8, (1.2,), (0.9,))
        assert kernel_nd(NuVector((1.1,)), q) == heat_kernel_1d(1.1, 0.8, 1.2, 0.9)

    def test_coordinate_permutation(self):
        nu = NuVector((0.3, 1.7))
        q = KernelPoint(0.5, (1.0, 2.0), (2.5, 0.4))
        nu_p = NuVector((1.7, 0.3))
        q_p = KernelPoint(0.5, (2.0, 1.0), (0.4, 2.5))
        assert kernel_nd(nu, q) == pytest.approx(kernel_nd(nu_p, q_p), rel=1e-14)

    @pytest.mark.parametrize(
        "nu, q",
        [
            (NuVector((0.5,)), KernelPoint(1.0, (1.0, 2.0), (1.5, 7.0))),
            (NuVector((0.5, 0.5)), KernelPoint(1.0, (1.0,), (1.5,))),
        ],
        ids=["point_longer", "point_shorter"],
    )
    def test_point_dimension_must_match(self, nu, q):
        x, y = np.array(q.x)[:, None], np.array(q.y)[:, None]
        for k in ((0,) * nu.n, (1,) * nu.n):
            with pytest.raises(DomainError, match="point dimension"):
                delta_heat_kernel_nd(nu, k, q)
            with pytest.raises(DomainError, match="point dimension"):
                delta_dt_heat_nd_arrays(nu, k, 1, q.t, x, y)

    @pytest.mark.parametrize("k", [1, (1,), (1, 0, 0), (1, -1)], ids=str)
    def test_multi_index_must_match_and_be_nonnegative(self, k):
        nu, q = NuVector((0.5, 1.5)), KernelPoint(1.0, (1.0, 2.0), (1.5, 0.7))
        with pytest.raises(DomainError, match="multi-index"):
            delta_heat_kernel_nd(nu, k, q)
        with pytest.raises(DomainError, match="multi-index"):
            delta_dt_heat_nd_arrays(nu, k, 1, 1.0, np.array([[1.0], [2.0]]), np.array([[1.5], [0.7]]))

    def test_nu_vector_accessors(self):
        nu = NuVector((0.5, 1.5, -0.2))
        assert nu.n == 3
        assert nu.nu_min == -0.2
        assert nu.gamma_nu == pytest.approx(0.3)
        with pytest.raises(DomainError):
            NuVector((0.5, -0.5))


class TestDeltaExpansion:
    def test_identity_and_first_order(self):
        e0 = delta_expansion(0.5, 0)
        assert len(e0.terms) == 1
        t0 = e0.terms[0]
        assert (t0.coeff, t0.xpow, t0.ypow, t0.tneg, t0.shift) == (1, 0, 0, 0, 0)

        e1 = delta_expansion(0.5, 1)
        got = {(t.xpow, t.ypow, t.tneg, t.shift): t.coeff for t in e1.terms}
        assert got == {(1, 0, 1, 0): Fraction(-1, 2), (0, 1, 1, 1): Fraction(1, 2)}

    def test_term_count_bound(self):
        for ell in range(7):
            e = delta_expansion(1.0, ell)
            assert len(e.terms) <= 2**ell * (ell + 1)

    @pytest.mark.parametrize("nu", [-0.3, 0.5, 2.0])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_against_nested_finite_differences(self, nu, ell):
        rng = np.random.default_rng(17)
        pts = zip(
            10.0 ** rng.uniform(-0.3, 0.5, 20),
            rng.uniform(0.8, 4.0, 20),
            rng.uniform(0.8, 4.0, 20),
        )
        for t, x, y in pts:
            exact = float(eval_delta_heat_1d(nu, ell, t, x, y))
            approx = fd_delta_power_richardson(nu, ell, t, x, y)
            assert exact == pytest.approx(approx, rel=1e-5, abs=1e-12)

    def test_second_order_reference_point(self):
        exact = float(eval_delta_heat_1d(0.5, 2, 1.0, 2.0, 3.0))
        approx = fd_delta_power(0.5, 2, 1.0, 3.0, h=1e-4)(2.0)
        assert exact == pytest.approx(approx, rel=1e-5)

    def test_dirichlet_first_delta(self):
        # delta_{1/2} = d/dx - 1/x against the differentiated image kernel.
        t, x, y = 0.9, 1.4, 2.2
        exact = float(eval_delta_heat_1d(0.5, 1, t, x, y))
        dpdx = (
            (4.0 * math.pi * t) ** -0.5
            * (
                -(x - y) / (2.0 * t) * math.exp(-((x - y) ** 2) / (4.0 * t))
                + (x + y) / (2.0 * t) * math.exp(-((x + y) ** 2) / (4.0 * t))
            )
        )
        oracle = dpdx - dirichlet_kernel(t, x, y) / x
        assert exact == pytest.approx(oracle, rel=1e-12)


class TestMultiDimDelta:
    @pytest.mark.parametrize(
        "nu, k, q",
        [
            (NuVector((0.4, 1.2)), (0, 0), KernelPoint(0.6, (1.0, 0.8), (2.0, 1.1))),
            (NuVector((1.1,)), (0,), KernelPoint(0.8, (1.2,), (0.9,))),
            (NuVector((-0.3, 0.5, 2.5)), (0, 0, 0), KernelPoint(3e-3, (0.2, 4.0, 9.0), (0.25, 3.9, 9.1))),
            (NuVector((1.1,)), (2,), KernelPoint(0.8, (1.2,), (0.9,))),
            (NuVector((-0.3, 0.5, 2.5)), (1, 0, 2), KernelPoint(3e-3, (0.2, 4.0, 9.0), (0.25, 3.9, 9.1))),
            # Axis 0's kernel underflows to +0 and axis 1's factor is
            # negative, so the product is -0.0.
            (NuVector((0.5, 0.7)), (0, 1), KernelPoint(0.01, (1.0, 1.0), (30.0, 0.5))),
        ],
    )
    def test_is_the_product_at_m_zero(self, nu, k, q):
        # Bit for bit, the sign of a zero included: the point is a batch of
        # one pair of delta_dt_heat_nd_arrays at M = 0, and at k = 0 the
        # product of the 1-D kernels (the k = 0 word is 1.0 * t^0 * p on
        # each axis).
        value = delta_heat_kernel_nd(nu, k, q)
        x, y = np.array(q.x)[:, None], np.array(q.y)[:, None]
        batch = delta_dt_heat_nd_arrays(nu, k, 0, q.t, x, y)[0]
        assert value == batch and np.signbit(value) == np.signbit(batch)
        if not any(k):
            assert value == product_of_1d_kernels(nu, q)

    def test_tensor_finite_difference(self):
        nu = NuVector((0.5, 1.0))
        t = 1.1
        x = (1.5, 2.2)
        y = (2.0, 1.3)
        exact = delta_heat_kernel_nd(nu, (1, 1), KernelPoint(t, x, y))
        h = 2e-4
        g1 = fd_delta(lambda u: heat_kernel_1d(0.5, t, u, y[0]), 0.5, h)(x[0])
        g2 = fd_delta(lambda u: heat_kernel_1d(1.0, t, u, y[1]), 1.0, h)(x[1])
        assert exact == pytest.approx(g1 * g2, rel=1e-5)


class TestTimeDerivatives:
    @pytest.mark.parametrize("nu", [-0.2, 0.5, 1.5])
    def test_heat_equation_via_dt(self, nu):
        # L_nu p = -dp/dt; compare the symbolic -dp/dt with FD in t.
        t, x, y = 0.8, 1.7, 2.4
        h = 1e-5
        fd = -(heat_kernel_1d(nu, t + h, x, y) - heat_kernel_1d(nu, t - h, x, y)) / (2 * h)
        sym = float(delta_dt_heat_1d(nu, 0, 1, t, x, y))
        assert sym == pytest.approx(fd, rel=1e-8)

    def test_delta_then_dt(self):
        nu, t, x, y = 0.7, 0.9, 1.2, 2.1
        h = 1e-5
        fd = -(
            float(eval_delta_heat_1d(nu, 2, t + h, x, y))
            - float(eval_delta_heat_1d(nu, 2, t - h, x, y))
        ) / (2 * h)
        sym = float(delta_dt_heat_1d(nu, 2, 1, t, x, y))
        assert sym == pytest.approx(fd, rel=1e-7)

    def test_nd_matches_sum_of_coordinates(self):
        nu = NuVector((0.5, 1.1))
        q = KernelPoint(0.7, (1.0, 1.5), (1.8, 0.9))
        # M=1: Delta p = (L_1 p1) p2 + p1 (L_2 p2).
        x, y = np.asarray(q.x)[:, None], np.asarray(q.y)[:, None]
        direct = float(delta_dt_heat_nd_arrays(nu, (0, 0), 1, np.asarray([q.t]), x, y)[0])
        part1 = float(delta_dt_heat_1d(0.5, 0, 1, q.t, q.x[0], q.y[0])) * heat_kernel_1d(
            1.1, q.t, q.x[1], q.y[1]
        )
        part2 = heat_kernel_1d(0.5, q.t, q.x[0], q.y[0]) * float(
            delta_dt_heat_1d(1.1, 0, 1, q.t, q.x[1], q.y[1])
        )
        assert direct == pytest.approx(part1 + part2, rel=1e-12)


class TestMixedPartials:
    @pytest.mark.parametrize("k,ell", [(1, 0), (0, 2), (1, 1), (2, 1), (2, 0)])
    def test_against_finite_differences(self, k, ell):
        nu, t, y = 0.6, 0.9, 2.0

        def dfun(x):
            return float(eval_delta_heat_1d(nu, ell, t, x, y))

        h = 3e-4
        if k == 0:
            fd = dfun(1.6)
        elif k == 1:
            fd = (dfun(1.6 + h) - dfun(1.6 - h)) / (2 * h)
        else:
            fd = (dfun(1.6 + h) - 2 * dfun(1.6) + dfun(1.6 - h)) / h**2
        sym = float(mixed_partial_delta(nu, k, ell, t, 1.6, y))
        assert sym == pytest.approx(fd, rel=1e-4)

    def test_k1_dirichlet(self):
        t, x, y = 0.8, 1.3, 2.6
        dpdx = (
            (4.0 * math.pi * t) ** -0.5
            * (
                -(x - y) / (2.0 * t) * math.exp(-((x - y) ** 2) / (4.0 * t))
                + (x + y) / (2.0 * t) * math.exp(-((x + y) ** 2) / (4.0 * t))
            )
        )
        assert float(mixed_partial_delta(0.5, 1, 0, t, x, y)) == pytest.approx(
            dpdx, rel=1e-12
        )


class TestAdjointPowers:
    def test_delta_star_once_fd(self):
        # delta^* = -d/dx - (nu+1/2)/x applied to p^{nu+1}: k=1, M=0.
        nu, t, x, y = 0.4, 0.7, 1.9, 1.1
        h = 1e-5
        g = lambda u: heat_kernel_1d(nu + 1.0, t, u, y)
        fd = -(g(x + h) - g(x - h)) / (2 * h) - (nu + 0.5) / x * g(x)
        sym = float(adjoint_power_heat_1d(nu, 1, 0, t, x, y))
        assert sym == pytest.approx(fd, rel=1e-8)

    def test_full_word_fd(self):
        # k=1, M=1: L_nu delta_nu^* p^{nu+3}. Oracle by nested differences.
        nu, t, x, y = 0.6, 0.8, 1.7, 1.4
        h = 4e-4

        def dstar(g):
            return lambda u: -(g(u + h) - g(u - h)) / (2 * h) - (nu + 0.5) / u * g(u)

        def delta(g):
            return lambda u: (g(u + h) - g(u - h)) / (2 * h) - (nu + 0.5) / u * g(u)

        base = lambda u: heat_kernel_1d(nu + 3.0, t, u, y)
        oracle = dstar(delta(dstar(base)))(x)
        sym = float(adjoint_power_heat_1d(nu, 1, 1, t, x, y))
        assert sym == pytest.approx(oracle, rel=1e-4)


def mp_word(word, beta, t, x, y, order=6):
    """A word (operator order) in d/dx, delta_w, delta_w^* applied to the
    mpmath kernel p_t^beta, from its Taylor series in x at the point."""
    with mpmath.workdps(40):
        t, x, y, beta = (mpmath.mpf(v) for v in (t, x, y, beta))
        kernel = lambda u: (
            mpmath.sqrt(u * y) / (2 * t)
            * mpmath.exp(-(u * u + y * y) / (4 * t))
            * mpmath.besseli(beta, u * y / (2 * t))
        )
        series = mpmath.taylor(kernel, x, order)
        inv_x = [(-1) ** n / x ** (n + 1) for n in range(order + 1)]
        for name, w in reversed(word):
            deriv = [(n + 1) * series[n + 1] for n in range(len(series) - 1)]
            if name == "dx":
                series = deriv
                continue
            over_x = [sum(inv_x[i] * series[n - i] for i in range(n + 1)) for n in range(len(deriv))]
            c = mpmath.mpf(w) + mpmath.mpf(1) / 2
            sign = -1 if name == "star" else 1
            series = [sign * d - c * o for d, o in zip(deriv, over_x)]
        return float(series[0])


def count_ladders(monkeypatch):
    """Record the shifts of every ``heat._ladders`` stream."""
    calls = []
    ladders = heat._ladders

    def counted(nu, shifts, *a):
        calls.append(list(shifts))
        return ladders(nu, shifts, *a)

    monkeypatch.setattr(heat, "_ladders", counted)
    return calls


ORACLE_POINTS = [(0.9, 1.6, 2.0), (0.35, 0.8, 1.3), (2.5, 3.1, 1.7)]


class TestOperatorWordsMpmath:
    @pytest.mark.parametrize("k,ell", [(2, 2), (3, 0)])
    def test_mixed_partial_delta(self, k, ell):
        nu = 0.6
        for t, x, y in ORACLE_POINTS:
            word = [("dx", None)] * k + [("delta", nu)] * ell
            oracle = mp_word(word, nu, t, x, y)
            assert float(mixed_partial_delta(nu, k, ell, t, x, y)) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("k,big_m", [(2, 1), (0, 2)])
    def test_adjoint_power(self, k, big_m):
        nu = 0.6
        for t, x, y in ORACLE_POINTS:
            word = [("star", nu), ("delta", nu)] * big_m + [("star", nu)] * k
            oracle = mp_word(word, nu + k + 2 * big_m, t, x, y)
            got = float(adjoint_power_heat_1d(nu, k, big_m, t, x, y))
            assert got == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize(
        "fn,args",
        [(mixed_partial_delta, (0.6, 2, 2)), (adjoint_power_heat_1d, (0.6, 2, 1))],
    )
    def test_one_bessel_ladder_per_word(self, monkeypatch, fn, args):
        calls = count_ladders(monkeypatch)
        fn(*args, np.array([0.9, 0.4]), np.array([1.6, 0.8]), np.array([2.0, 1.3]))
        assert len(calls) == 1


class TestSharedLadders:
    T = np.array([1e-3, 0.05, 0.7, 3.0, 40.0])
    X = np.array([[0.3, 1.1, 2.0, 0.9, 4.0], [1.7, 0.2, 0.8, 2.5, 0.6]])
    Y = np.array([[0.5, 0.9, 2.6, 3.1, 3.3], [1.2, 0.4, 1.9, 0.7, 0.65]])

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_order_difference_is_bit_equal(self, monkeypatch, ell):
        t, x, y = self.T, self.X[0], self.Y[0]
        expected = eval_delta_heat_1d(0.6, ell, t, x, y) - eval_delta_heat_1d(1.6, ell, t, x, y)
        calls = count_ladders(monkeypatch)
        got = delta_heat_difference_1d(0.6, ell, t, x, y)
        assert np.array_equal(got, expected)
        # One ladder over the union of the shifts m and m + 1.
        assert calls == [list(range(ell + 2))]

    def test_nd_power_builds_one_ladder_per_axis(self, monkeypatch):
        nu, k, big_m = (0.5, 1.5), (1, 1), 2
        # The multinomial sum over the compositions of M in their summation
        # order, one 1-D word per factor.
        expected = 0.0
        for weight, comp in ((1.0, (0, 2)), (2.0, (1, 1)), (1.0, (2, 0))):
            prod = weight
            for j in range(2):
                prod = prod * delta_dt_heat_1d(nu[j], k[j], comp[j], self.T, self.X[j], self.Y[j])
            expected = expected + prod
        calls = count_ladders(monkeypatch)
        got = delta_dt_heat_nd_arrays(nu, k, big_m, self.T, self.X, self.Y)
        assert np.array_equal(got, expected)
        assert calls == [[0, 1, 2, 3], [0, 1, 2, 3]]


class TestLadderStreams:
    """A stream's ladders are bit for bit the ladders of one-node streams,
    whatever blocks the stream's Bessel calls gather."""

    @staticmethod
    def assert_stream_matches(nu, shifts, times, xy, d2, unique=None):
        stream = list(heat._ladders(nu, shifts, times, xy, d2, unique))
        assert len(stream) == len(times)
        # A kept ladder holds its own rows, not a view of its block's.
        rows = [row for ladder in stream for row in ladder.values()]
        owners = {id(row if row.base is None else row.base) for row in rows}
        assert len(owners) == len(stream)
        for t, ladder in zip(times, stream):
            alone = next(heat._ladders(nu, shifts, (t,), xy, d2, unique))
            assert list(ladder) == list(shifts)
            for m in shifts:
                assert ladder[m].shape == alone[m].shape
                assert np.array_equal(ladder[m], alone[m]), (t, m)

    @staticmethod
    def regimes(times, d2) -> set:
        """The underflow regimes of the pairs at each time value, one value
        of a time array at a time."""
        return {underflow_regime(d2, s) for t in times for s in np.ravel(t)}

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    @pytest.mark.parametrize("block", [None, 700, 1])
    def test_grid_stream_matches_the_one_node_ladders(self, monkeypatch, axis, block):
        if block is not None:
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
        xy, d2, distinct, inverse, _, _ = axis.pairs
        times = np.geomspace(1e-5, 1e3, 33)
        assert self.regimes(times, d2) == {"none", "some", "most"}
        self.assert_stream_matches(0.6, [0, 1, 2], times, xy, d2, (distinct, inverse))

    @pytest.mark.parametrize("block", [None, 3000, 1])
    def test_sampled_stream_matches_the_one_node_ladders(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.05, 10.0, 2000)
        y = rng.uniform(0.05, 10.0, 2000)
        xy, d2 = x * y, (x - y) ** 2
        times = np.geomspace(1e-4, 1e2, 25)
        assert self.regimes(times, d2) == {"none", "some", "most"}
        self.assert_stream_matches(-0.3, [0, 1], times, xy, d2)

    @pytest.mark.parametrize("block", [None, 1])
    def test_broadcast_time_arrays(self, monkeypatch, block):
        # Each time node is an array of shape (6, 1) against pairs of shape
        # (1, 150): ladders of shape (6, 150).
        if block is not None:
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.05, 10.0, (1, 150))
        y = rng.uniform(0.05, 10.0, (1, 150))
        xy, d2 = x * y, (x - y) ** 2
        times = [np.geomspace(1e-4, 1e-1, 6)[:, None] * s for s in np.geomspace(1.0, 1e3, 7)]
        assert self.regimes(times, d2) == {"none", "some", "most"}
        self.assert_stream_matches(1.5, [0, 2], times, xy, d2)

    def test_sampled_entries_do_not_depend_on_their_batch(self):
        # At t = 1e-4 fewer than 85% of these 2000 prefactors exceed 1e-280,
        # and most Gaussian factors underflow.  Every entry of the batch is
        # its one-pair value bit for bit; an entry of prefactor in
        # (0, 1e-280] is kept as computed, and one whose Gaussian factor is
        # exactly 0.0 is +0.
        rng = np.random.default_rng(11)
        x = rng.uniform(0.05, 10.0, 2000)
        y = rng.uniform(0.05, 10.0, 2000)
        t, shifts = 1e-4, [0, 1]
        gauss = np.exp(-((x - y) ** 2) / (4.0 * t))
        common = np.sqrt(x * y) / (2.0 * t) * gauss
        assert np.count_nonzero(common > 1e-280) < 0.85 * x.size
        batch = heat._p1d_shifts(-0.3, shifts, t, x, y)
        pairs = [heat._p1d_shifts(-0.3, shifts, t, a, b) for a, b in zip(x, y)]
        tiny = (common > 0.0) & (common <= 1e-280)
        dead = gauss == 0.0
        assert np.any(tiny) and np.any(dead)
        for m in shifts:
            alone = np.array([ladder[m] for ladder in pairs])
            assert np.array_equal(batch[m].view(np.int64), alone.view(np.int64)), m
            assert np.count_nonzero(batch[m][tiny]) > 0
            assert not np.any(batch[m][dead]) and not np.any(np.signbit(batch[m][dead]))

    def test_no_times_no_bessel_call(self, monkeypatch):
        monkeypatch.setattr(heat, "besseli_scaled", None)
        assert list(heat._ladders(0.6, [0], (), np.ones(3), np.zeros(3))) == []


def branch_bound_rhs(kind, nu, k, ell, t, x, y, c):
    """One formula per id, as each id's bound was written before the ids
    were grouped into four families; the reference for the families."""

    def weight(t, x):
        return (1.0 + np.sqrt(t) / x) ** (-(nu.nu[0] + 0.5))

    def rho(x):
        return np.min(x, axis=0) / 16.0

    gauss = np.exp(-np.sum((x - y) ** 2, axis=0) / (c * t))
    if kind == "thm2_1":
        return t**-0.5 * gauss * weight(t, x[0]) * weight(t, y[0])
    if kind == "thm2_4":
        return t ** (-(int(ell) + 1) / 2.0) * gauss * weight(t, x[0]) * weight(t, y[0])
    if kind == "thm2_5":
        k, ell = int(k), int(ell)
        return (
            (t ** (-k / 2.0) + x[0] ** (-float(k)))
            * t ** (-(ell + 1) / 2.0)
            * gauss
            * weight(t, x[0])
            * weight(t, y[0])
        )
    if kind in ("cor2_6a", "cor2_6b"):
        return t ** (-(int(k) + 2 * int(ell) + 1) / 2.0) * gauss
    if kind == "prop2_7":
        return t ** (-int(ell) / 2.0) / x[0] * gauss
    ll = np.atleast_1d(ell).astype(int)
    w = (1.0 + np.sqrt(t) / rho(x) + np.sqrt(t) / rho(y)) ** (-nu.gamma_nu)
    if kind == "prop2_9":
        return t ** (-(nu.n + int(np.sum(ll))) / 2.0) * gauss * w
    kk = np.atleast_1d(k).astype(int)
    if kind == "prop2_10":
        lead = t ** (-float(np.sum(kk)) / 2.0) + rho(x) ** (-float(np.sum(kk)))
        return lead * t ** (-(nu.n + int(np.sum(ll))) / 2.0) * gauss * w
    assert kind == "cor2_11"
    return t ** (-(int(np.sum(kk)) + 2 * int(ell) + nu.n) / 2.0) * gauss


class TestBoundRhs:
    @pytest.mark.parametrize(
        "kind, nu, k, ell",
        [
            ("thm2_1", (0.7,), 0, 0),
            ("thm2_4", (0.7,), 0, 2),
            ("thm2_5", (0.6,), 1, 1),
            ("cor2_6a", (0.6,), 2, 1),
            ("cor2_6b", (0.6,), 1, 2),
            ("prop2_7", (0.8,), 0, 1),
            ("prop2_9", (0.5, 1.5), 0, (1, 1)),
            ("prop2_10", (0.5, 1.5), (1, 0), (0, 1)),
            ("cor2_11", (0.5, 1.5), (1, 1), 1),
        ],
    )
    def test_families_match_the_branch_formulas(self, kind, nu, k, ell):
        nu = NuVector(nu)
        rng = np.random.default_rng(3)
        t = 10.0 ** rng.uniform(-4, 2, 400)
        x = 10.0 ** rng.uniform(-2, 1.3, (nu.n, 400))
        y = 10.0 ** rng.uniform(-2, 1.3, (nu.n, 400))
        # Far pairs at small times, where the Gaussian underflows to 0.
        t[:40], x[:, :40], y[:, :40] = 1e-4, 0.05, 15.0
        for c in (2.0, 8.0):
            want = branch_bound_rhs(kind, nu, k, ell, t, x, y, c)
            assert np.all(want[:40] == 0.0) and np.count_nonzero(want) > 200
            assert np.array_equal(heat._bound_rhs_arrays(kind, nu, k, ell, t, x, y)(c), want)

    def test_thm21_direct_substitution(self):
        nu, x = 0.8, 1.7
        q = KernelPoint(x * x, (x,), (x,))
        val = bound_rhs("thm2_1", nu, 0, 0, q, 8.0)
        expected = (1.0 / x) * 2.0 ** (-2.0 * (nu + 0.5))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_prop29_reduces_to_weighted_thm24_shape(self):
        nu = NuVector((0.8,))
        q = KernelPoint(0.5, (1.2,), (0.9,))
        v = bound_rhs("prop2_9", nu, 0, (1,), q, 8.0)
        rho_x = critical_function(q.x)
        rho_y = critical_function(q.y)
        manual = (
            0.5 ** (-(1 + 1) / 2.0)
            * math.exp(-((1.2 - 0.9) ** 2) / (8.0 * 0.5))
            * (1.0 + math.sqrt(0.5) / rho_x + math.sqrt(0.5) / rho_y) ** (-1.3)
        )
        assert v == pytest.approx(manual, rel=1e-12)

    def test_ratio_finite_over_sweep(self):
        rng = np.random.default_rng(11)
        nu = NuVector((0.6,))
        for _ in range(200):
            t = 10.0 ** rng.uniform(-3, 2)
            x = 10.0 ** rng.uniform(-1.5, 1.0)
            y = 10.0 ** rng.uniform(-1.5, 1.0)
            q = KernelPoint(t, (x,), (y,))
            lhs = heat_kernel_1d(0.6, t, x, y)
            rhs = bound_rhs("thm2_1", nu, 0, 0, q, 16.0)
            # When the Gaussian envelope underflows, the kernel must too.
            r = 0.0 if lhs == 0.0 == rhs else lhs / rhs
            assert math.isfinite(r)

    def test_unknown_kind(self):
        q = KernelPoint(1.0, (1.0,), (2.0,))
        with pytest.raises(DomainError):
            bound_rhs("nope", 0.5, 0, 0, q, 8.0)


class TestCriticalFunction:
    def test_values(self):
        assert critical_function((16.0, 32.0, 48.0)) == pytest.approx(1.0)
        assert critical_function(8.0) == pytest.approx(0.5)

    def test_local_comparability(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = 10.0 ** rng.uniform(-1, 1, 3)
            rho = critical_function(x)
            # direction within the ball B(x, rho(x))
            d = rng.normal(size=3)
            d *= rng.uniform(0, 1) * rho / np.linalg.norm(d)
            y = x + d
            ratio = critical_function(y) / rho
            assert 0.5 <= ratio <= 2.0
            assert 15.0 / 16.0 - 1e-12 <= ratio <= 17.0 / 16.0 + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            critical_function((1.0, 0.0))
