"""Tests for the modified Bessel / gamma evaluators.

scipy, mpmath and the standard library act as independent oracles; the closed
half-integer forms give exact cross-checks.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from besselops.errors import DomainError
from besselops.special import (
    besseli,
    besseli_ratio,
    besseli_scaled,
    gamma,
)


def i_half_closed(z):
    """I_{1/2}(z) = sqrt(2/(pi z)) sinh z."""
    return math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)


def series_oracle(alpha, z, terms=60):
    """Direct truncated power series, summed in mpfloat-free plain python."""
    total = 0.0
    for k in range(terms):
        total += (0.5 * z) ** (alpha + 2 * k) / (math.factorial(k) * gamma(alpha + k + 1))
    return total


class TestGamma:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (8, 5040.0)])
    def test_integers(self, n, expected):
        assert gamma(n) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, math.sqrt(math.pi)),
            (1.5, 0.5 * math.sqrt(math.pi)),
            (2.5, 0.75 * math.sqrt(math.pi)),
            (-0.5, -2.0 * math.sqrt(math.pi)),
        ],
    )
    def test_half_integers(self, x, expected):
        assert gamma(x) == pytest.approx(expected, rel=1e-13)

    def test_against_stdlib(self):
        for x in np.linspace(0.05, 30.0, 271):
            assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_poles_raise(self):
        for x in (0.0, -1.0, -2.0):
            with pytest.raises(DomainError):
                gamma(x)


class TestBesselI:
    def test_at_zero(self):
        assert besseli(0.0, 0.0) == 1.0  # leading series term 1/Gamma(1)
        assert besseli(1.2, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # alpha = 1/2, z = 1: both the closed form and the direct series.
        val = besseli(0.5, 1.0)
        assert val == pytest.approx(i_half_closed(1.0), rel=1e-12)
        assert val == pytest.approx(series_oracle(0.5, 1.0, terms=50), rel=1e-12)
        assert val == pytest.approx(0.937674, abs=1e-6)

    def test_large_argument_leading_asymptote(self):
        # e^{-z} I_alpha(z) approaches 1/sqrt(2 pi z); within 1% at z = 40.
        scaled = besseli_scaled(1.0, 40.0)
        assert scaled == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 40.0), rel=0.01)

    def test_scaled_at_zero_and_large(self):
        assert besseli_scaled(0.0, 0.0) == 1.0
        expected = (1.0 - math.exp(-200.0)) / math.sqrt(200.0 * math.pi)
        assert besseli_scaled(0.5, 100.0) == pytest.approx(expected, rel=1e-13)
        big = besseli_scaled(3.0, 1e6)
        assert math.isfinite(big) and big > 0.0

    def test_overflow_raises_unscaled_only(self):
        with pytest.raises(OverflowError):
            besseli(1.0, 800.0)
        assert math.isfinite(besseli_scaled(1.0, 800.0))

    def test_ratio_limits(self):
        assert besseli_ratio(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert besseli_ratio(1.0, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert besseli_ratio(0.7, 2.3) == pytest.approx(
            series_oracle(0.7, 2.3, terms=60) / 2.3**0.7, rel=1e-12
        )

    def test_against_scipy_broad(self):
        alphas = [-0.9, -0.5, -0.3, 0.0, 0.5, 1.0, 2.5, 4.0, 7.5]
        zs = np.geomspace(1e-3, 600.0, 80)
        for a, ours in zip(alphas, besseli_scaled(alphas, zs)):
            ref = sps.ive(a, zs)
            assert np.allclose(ours, ref, rtol=5e-13, atol=0), f"alpha={a}"

    def test_cross_regime_continuity(self):
        # Series and asymptotic agree near the switch point.
        from besselops.special import _asymptotic_scaled, _series, _switch_point

        for a in (0.0, 0.5, 1.7, 3.0, 6.0):
            zs = _switch_point(a)
            z = np.linspace(zs * 0.98, zs * 1.25, 25)
            first = np.exp(a * np.log(0.5 * z)) / gamma(a + 1.0)
            series = np.exp(-z) * _series(a, first, 0.25 * z * z, z.size - 1)
            asym = _asymptotic_scaled(a, z)
            assert np.max(np.abs(series / asym - 1.0)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, -0.9, -0.5, 0.6])
    def test_subnormal_arguments_against_mpmath(self, alpha):
        # Below 2 * tiny, 0.5 * z is inexact, and at 5e-324 it rounds to 0.
        # e^{-z} is 1 to double precision here, so I_alpha is the reference.
        z = np.array([5e-324, 1e-320, 3e-310, 2.5e-308, 4.4e-308])
        with mpmath.workdps(30):
            ref = [float(mpmath.besseli(alpha, mpmath.mpf(v))) for v in z]
        np.testing.assert_allclose(besseli_scaled(alpha, z), ref, rtol=5e-13, atol=0.0)

    def test_overflow_near_order_minus_one_against_mpmath(self):
        # Near alpha = -1 the value at subnormal z overflows; there the
        # result is inf, with no nan and no inf * 0 inside the series.
        # (z/2)^alpha alone overflows at -0.953 and 5e-324, the value not.
        alphas = [-0.999, -0.96, -0.953, -0.95]
        z = np.array([5e-324, 1e-323, 1e-320, 3e-310, 2.5e-308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = besseli_scaled(alphas, z)
        with mpmath.workdps(30):
            for a, row in zip(alphas, rows):
                ref = np.array([mpmath.besseli(a, mpmath.mpf(v)) for v in z])
                over = ref > mpmath.mpf(np.finfo(float).max)
                assert np.all(np.isinf(row[over]))
                expect = np.array([float(v) for v in ref[~over]])
                np.testing.assert_allclose(row[~over], expect, rtol=5e-13, atol=0.0)
        assert np.isinf(rows).sum() == 5  # -0.999 at the first three z, -0.96 at two
        assert_rows_match_single_orders(alphas, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            besseli(-1.0, 1.0)
        with pytest.raises(DomainError):
            besseli_scaled(-1.5, 1.0)
        with pytest.raises(DomainError):
            besseli(0.5, -1.0)

    def test_array_shapes(self):
        z = np.array([[0.1, 1.0], [10.0, 50.0]])
        out = besseli_scaled(0.5, z)
        assert out.shape == z.shape


def assert_rows_match_single_orders(alphas, z):
    rows = besseli_scaled(alphas, z)
    assert rows.shape == (len(alphas),) + np.shape(z)
    for a, row in zip(alphas, rows):
        assert np.array_equal(row, besseli_scaled(a, z)), f"alpha={a}"


class TestMultiOrder:
    """One call with a sequence of orders is bit for bit the one-order calls."""

    # Switch points 20, 20, 35.28 and 112.5, and orders in (-1, 0].
    ALPHAS = [0.6, 1.6, 4.2, 7.5, -0.9, -0.5, -1e-3, 0.0]

    def test_branches_and_bin_edges(self):
        from besselops.special import _SERIES_EDGES, _switch_point

        points = [*_SERIES_EDGES, 20.0, 600.0, *(_switch_point(a) for a in self.ALPHAS)]
        points = np.array(points)
        z = np.concatenate(
            [points, np.nextafter(points, 0.0), np.nextafter(points, np.inf),
             np.geomspace(1e-300, 1e4, 400), [0.0, 0.0]]
        )
        assert_rows_match_single_orders(self.ALPHAS, z)
        assert_rows_match_single_orders(self.ALPHAS[::-1], z[::-1])

    @pytest.mark.parametrize(
        "z", [0.0, 0.7, 300.0, np.array([[0.0, 0.2], [16.0, 50.0], [1e3, 1e-4]]), np.array([])]
    )
    def test_scalar_two_d_and_empty(self, z):
        assert_rows_match_single_orders(self.ALPHAS, z)

    def test_one_order_sequence_and_errors(self):
        z = np.array([0.3, 3.0, 30.0])
        assert besseli_scaled([1.6], z).shape == (1, 3)
        assert besseli_scaled((0.5, 2.5), 1.0).shape == (2,)
        assert besseli_scaled([], z).shape == (0, 3)
        with pytest.raises(DomainError):
            besseli_scaled([0.5, -1.0], z)
        with pytest.raises(DomainError):
            besseli_scaled([0.5, 1.5], -z)

    @given(
        alphas=st.lists(st.floats(min_value=-0.999, max_value=12.0), min_size=1, max_size=5),
        z=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=800.0),
                st.sampled_from([0.0, 1e-3, 0.03, 0.3, 1.0, 5.0, 15.0, 20.0, 600.0]),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_single_orders(self, alphas, z):
        assert_rows_match_single_orders(alphas, np.array(z))


class TestIdentities:
    """The recurrence/derivative identities used as the module's test surface."""

    @given(
        alpha=st.floats(min_value=-0.49, max_value=6.0),
        z=st.floats(min_value=1e-2, max_value=300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_difference_identity(self, alpha, z):
        # I_a(z) - I_{a+2}(z) = 2(a+1)/z I_{a+1}(z), in scaled form.
        lhs = besseli_scaled(alpha, z) - besseli_scaled(alpha + 2.0, z)
        rhs = 2.0 * (alpha + 1.0) / z * besseli_scaled(alpha + 1.0, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(
        alpha=st.floats(min_value=-0.49, max_value=6.0),
        z=st.floats(min_value=1e-2, max_value=300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strict_interlacing(self, alpha, z):
        # 0 < I_a - I_{a+1} < 2(a+1)/z I_{a+1}.
        ia = besseli_scaled(alpha, z)
        ia1 = besseli_scaled(alpha + 1.0, z)
        assert 0.0 < ia - ia1 < 2.0 * (alpha + 1.0) / z * ia1

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 20.0, 50.0])
    def test_ratio_derivative_identity(self, alpha, z):
        # d/dz [z^{-a} I_a(z)] = z^{-a} I_{a+1}(z), via central differences.
        h = 1e-5
        fd = (besseli_ratio(alpha, z + h) - besseli_ratio(alpha, z - h)) / (2.0 * h)
        exact = besseli_ratio(alpha, z) / z**0.0 * 0.0 + z**(-alpha) * besseli(alpha + 1.0, z)
        assert fd == pytest.approx(exact, rel=1e-6)

    def test_order_monotonicity(self):
        z = np.geomspace(1e-3, 500.0, 120)
        for a in (-0.4, 0.0, 0.5, 1.0, 3.0):
            assert np.all(besseli_scaled(a + 1.0, z) <= besseli_scaled(a, z))

    def test_small_z_asymptote_band(self):
        # For 0 < z <= 1, I_a(z)/z^a stays in [c (1-eps), c e^{z^2}] with
        # c = 1/(2^a Gamma(a+1)).
        for a in (-0.3, 0.0, 0.5, 1.0, 2.0):
            c = 1.0 / (2.0**a * gamma(a + 1.0))
            z = np.linspace(1e-4, 1.0, 200)
            ratio = besseli_ratio(a, z)
            assert np.all(ratio >= c * (1.0 - 1e-12))
            assert np.all(ratio <= c * np.exp(z * z))
