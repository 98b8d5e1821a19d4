"""Tests for the scaled modified Bessel evaluator e^{-z} I_alpha(z).

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
from besselops.special import besseli_scaled


def i_half_closed(z):
    """I_{1/2}(z) = sqrt(2/(pi z)) sinh z."""
    return math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)


def power_ratio(alpha, z, order):
    """z^{-alpha} I_order(z) = z^{-alpha} e^z besseli_scaled(order, z), for
    z below about 700, where e^z is finite."""
    return z ** (-alpha) * np.exp(z) * besseli_scaled(order, z)


def series_oracle(alpha, z, terms=60):
    """Direct truncated power series, summed in mpfloat-free plain python."""
    total = 0.0
    for k in range(terms):
        total += (0.5 * z) ** (alpha + 2 * k) / (math.factorial(k) * math.gamma(alpha + k + 1))
    return total


def ive_reference(alpha, z):
    """e^{-z} I_alpha(z) from scipy, or from mpmath where scipy's reflection
    formula for negative orders fails: within 1e-3 of order -1 it loses
    digits (3e-11 relative at 1e-6), and at subnormal orders it gives nan."""
    ref = sps.ive(alpha, z)
    if alpha + 1.0 >= 1e-3 and not np.isnan(ref).any():
        return ref
    with mpmath.workdps(30):
        return np.array(
            [float(mpmath.besseli(alpha, v) * mpmath.exp(-v)) for v in map(mpmath.mpf, z)]
        )


class TestBesselI:
    def test_at_zero(self):
        assert besseli_scaled(0.0, 0.0) == 1.0  # leading series term 1/Gamma(1)
        assert besseli_scaled(1.2, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # alpha = 1/2, z = 1: both the closed form and the direct series,
        # times e^{-1}.
        val = besseli_scaled(0.5, 1.0)
        assert val == pytest.approx(i_half_closed(1.0) * math.exp(-1.0), rel=1e-12)
        assert val == pytest.approx(
            series_oracle(0.5, 1.0, terms=50) * math.exp(-1.0), rel=1e-12
        )
        assert val * math.e == pytest.approx(0.937674, abs=1e-6)

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

    def test_finite_where_the_unscaled_value_overflows_against_mpmath(self):
        # I_alpha(z) leaves float64 range near z = 710; its scaled form does not.
        z = np.array([704.0, 705.0, 710.0, 800.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = besseli_scaled([0.0, 1.0, 7.5], z)
        with mpmath.workdps(30):
            for a, row in zip((0.0, 1.0, 7.5), rows):
                ref = [float(mpmath.besseli(a, v) * mpmath.exp(-v)) for v in map(mpmath.mpf, z)]
                np.testing.assert_allclose(row, ref, rtol=5e-13, atol=0.0)

    def test_against_direct_series(self):
        assert besseli_scaled(0.7, 2.3) == pytest.approx(
            series_oracle(0.7, 2.3, terms=60) * math.exp(-2.3), rel=1e-12
        )

    def test_against_scipy_broad(self):
        alphas = [-0.9, -0.5, -0.3, 0.0, 0.5, 1.0, 2.5, 4.0, 7.5]
        zs = np.geomspace(1e-3, 600.0, 80)
        for a, ours in zip(alphas, besseli_scaled(alphas, zs)):
            ref = sps.ive(a, zs)
            assert np.allclose(ours, ref, rtol=5e-13, atol=0), f"alpha={a}"

    @given(
        alpha=st.floats(min_value=-1.0, max_value=12.0, exclude_min=True),
        logs=st.lists(st.floats(min_value=-300.0, max_value=6.0), max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_reference_at_every_bin_edge(self, alpha, logs):
        # Each bin's polynomial at both of its edges and just past them, and
        # log-uniform draws on [1e-300, 1e6].
        from besselops.special import _ASYMP_EDGES, _SERIES_EDGES, _switch_point

        edges = np.array([*_SERIES_EDGES[1:], _switch_point(alpha), *_ASYMP_EDGES])
        z = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), 10.0 ** np.array(logs)]
        )
        ref = ive_reference(alpha, z)
        resolved = ref > 1e-300  # scipy flushes values below about 1e-304 to 0
        ours = besseli_scaled(alpha, z)
        np.testing.assert_allclose(ours[resolved], ref[resolved], rtol=5e-13, atol=0.0)
        assert np.all(ours[~resolved] < 2e-300)

    def test_cross_regime_continuity(self):
        # Series and asymptotic agree near the switch point, each with its
        # polynomial for the whole range: the series' degree set at the
        # upper end, the asymptotic one's at the lower end.
        from besselops.special import (
            _hankel_coeffs, _horner, _series_coeffs, _series_unit, _switch_point,
        )

        for a in (0.0, 0.5, 1.7, 3.0, 6.0):
            zs = _switch_point(a)
            z = np.linspace(zs * 0.98, zs * 1.25, 25)
            first = np.exp(a * np.log(0.5 * z)) / math.gamma(a + 1.0)
            poly = _horner(_series_coeffs(a, z[-1]), z * z * _series_unit(z[-1]))
            series = np.exp(-z) * first * poly
            asym = _horner(_hankel_coeffs(a, z[0]), 1.0 / z) / np.sqrt(2.0 * math.pi * z)
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

    @pytest.mark.parametrize("alpha", [36.0, 40.0, 45.0, 49.0])
    def test_orders_past_the_capped_switch_point_against_mpmath(self, alpha):
        # The switch point stops at 600 < alpha^2 / 2, so the first Hankel
        # term exceeds 1 just above it; the terms from b_1 on still shrink.
        z = np.array([600.0001, 601.0, 700.0, 999.0, 1001.0, 2e4])
        with mpmath.workdps(30):
            ref = [float(mpmath.besseli(alpha, v) * mpmath.exp(-v)) for v in map(mpmath.mpf, z)]
        np.testing.assert_allclose(besseli_scaled(alpha, z), ref, rtol=5e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [49.05, 50.0, 60.0])
    def test_orders_whose_hankel_terms_stop_shrinking_are_refused(self, alpha):
        # Just above the capped switch point 600 the terms from b_1 on stop
        # shrinking above 1e-17 of the sum; the sum stopped there was wrong
        # (-0.0176 for 0.00203 at order 50).
        z = np.array([1.0, 600.0001])
        with pytest.raises(DomainError):
            besseli_scaled(alpha, z)
        with pytest.raises(DomainError):
            besseli_scaled([0.5, alpha], z)

    def test_large_order_below_its_switch_point_against_mpmath(self):
        # The refusal is per bin: order 60's series bins still evaluate.
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(60, 100) * mpmath.exp(-100))
        assert besseli_scaled(60.0, 100.0) == pytest.approx(ref, rel=5e-13)

    @pytest.mark.parametrize("alpha, z", [(200.0, 300.0), (400.0, 599.9)])
    def test_orders_whose_gamma_overflows_against_mpmath(self, alpha, z):
        # Gamma(alpha + 1) leaves float64 range above order 170.6, while
        # the values are normal floats (2.10e-30 and 1.45e-58).
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(alpha, z) * mpmath.exp(-z))
        assert besseli_scaled(alpha, z) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "alpha, z", [(152.0, 590.0), (180.0, 590.0), (180.0, 450.0), (200.0, 3.0)]
    )
    def test_orders_above_150_against_mpmath(self, alpha, z):
        # (z/2)^alpha overflows at order 152 and z = 590 while the value does
        # not; from order 170.6 on the first term comes from lgamma.  The
        # first three values are normal floats (5.64e-11, 2.35e-14 and
        # 6.65e-18); the last, about 1.06e-341, underflows to 0.0 as its float does.
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(alpha, z) * mpmath.exp(-z))
        assert besseli_scaled(alpha, z) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_order_whose_gamma_overflows_at_zero(self):
        assert besseli_scaled(200.0, 0.0) == 0.0
        assert np.array_equal(besseli_scaled([0.5, 200.0], np.zeros(2)), np.zeros((2, 2)))

    def test_order_200_is_refused_past_the_switch_point(self):
        with pytest.raises(DomainError):
            besseli_scaled(200.0, 600.5)

    def test_huge_arguments_against_mpmath(self):
        # 2 pi z overflows above 2.86e307; the last bin forms sqrt(2 pi z)
        # from sqrt(z) there.
        z = np.array([1e4 + 1.0, 2.8e307, 2.9e307, 1e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = besseli_scaled(0.5, z)
        with mpmath.workdps(30):
            ref = [
                float(mpmath.besseli(0.5, v) * mpmath.exp(-v)) for v in map(mpmath.mpf, z)
            ]
        np.testing.assert_allclose(ours, ref, rtol=5e-13, atol=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            besseli_scaled(-1.0, 1.0)
        with pytest.raises(DomainError):
            besseli_scaled(-1.5, 1.0)
        with pytest.raises(DomainError):
            besseli_scaled(0.5, -1.0)

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

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_polynomial_degrees_cover_their_bins(self, alpha):
        # Terms from the definitions in mpmath: the series' first dropped
        # term at a bin's upper edge is <= 1e-17 of the kept sum, and the
        # Hankel sum's kept terms shrink at a bin's lower edge down to a
        # first dropped term <= 1e-17 of their sum.
        from besselops.special import (
            _ASYMP_EDGES, _SERIES_EDGES, _hankel_coeffs, _series_coeffs, _series_unit,
            _switch_point,
        )

        zs = _switch_point(alpha)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            for hi in [*_SERIES_EDGES[1:], zs]:
                coeffs = _series_coeffs(alpha, hi)
                q, u = mpmath.mpf(hi) ** 2 / 4, mpmath.mpf(hi) ** 2 * _series_unit(hi)
                terms = [
                    q**k * mpmath.gamma(a + 1) / (mpmath.factorial(k) * mpmath.gamma(a + k + 1))
                    for k in range(len(coeffs) + 1)
                ]
                assert terms[-1] <= 1e-17 * mpmath.fsum(terms[:-1]), (alpha, hi)
                for k, c in enumerate(coeffs):
                    assert mpmath.almosteq(c * u**k, terms[k], rel_eps=1e-13), (alpha, hi, k)
            for lo in [zs, *(e for e in _ASYMP_EDGES if e > zs)]:
                coeffs = _hankel_coeffs(alpha, lo)
                terms = [mpmath.mpf(1)]
                for k in range(1, len(coeffs) + 1):
                    terms.append(-terms[-1] * (4 * a**2 - (2 * k - 1) ** 2) / (8 * k * lo))
                kept = [abs(t) for t in terms[:-1]]
                assert all(b < c for c, b in zip(kept, kept[1:])), (alpha, lo)
                assert abs(terms[-1]) <= 1e-17 * abs(mpmath.fsum(terms[:-1])), (alpha, lo)
                for k, c in enumerate(coeffs):
                    assert mpmath.almosteq(c / mpmath.mpf(lo) ** k, terms[k], rel_eps=1e-13)

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


class TestBatchIndependence:
    """Each element of a call is independent of the batch around it, so a
    call on concatenated arguments is bit for bit the calls on the parts
    (the heat ladder streams rely on it)."""

    ORDERS = st.one_of(
        st.floats(min_value=-0.999, max_value=12.0),
        st.sampled_from([-0.999, -0.96, -0.953, 0.0, 0.5, 3.2, 17.4]),
    )

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_concatenated_call_matches_the_split_calls(self, data):
        from besselops.special import _SERIES_EDGES, _switch_point

        orders = data.draw(st.lists(self.ORDERS, min_size=1, max_size=4))
        edges = [*_SERIES_EDGES, *(_switch_point(a) for a in orders)]
        near_edge = st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from(
                [e, np.nextafter(e, 0.0), np.nextafter(e, np.inf), 0.5 * e, e + 0.5]
            )
        )
        point = st.one_of(
            st.floats(min_value=0.0, max_value=800.0),
            st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # 0 and subnormals
            st.sampled_from([0.0, 5e-324, 1e-323, 1e-320]),
            near_edge,
        )
        a = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        b = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        whole = besseli_scaled(orders, np.concatenate([a, b]))
        split = np.concatenate([besseli_scaled(orders, a), besseli_scaled(orders, b)], axis=1)
        assert not np.any(np.isnan(whole))
        assert np.array_equal(whole, split)

    def test_inf_near_order_minus_one_at_subnormal_z(self):
        # The overflowed elements (inf) sit in a batch with finite ones.
        z = np.array([5e-324, 1e-323, 0.5, 300.0])
        whole = besseli_scaled([-0.999, 0.5], z)
        assert np.isinf(whole[0, :2]).all() and np.isfinite(whole[:, 2:]).all()
        parts = [besseli_scaled([-0.999, 0.5], z[i : i + 1]) for i in range(z.size)]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))


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
        fd = (power_ratio(alpha, z + h, alpha) - power_ratio(alpha, z - h, alpha)) / (2.0 * h)
        exact = power_ratio(alpha, z, alpha + 1.0)
        assert fd == pytest.approx(exact, rel=1e-6)

    def test_order_monotonicity(self):
        z = np.geomspace(1e-3, 500.0, 120)
        for a in (-0.4, 0.0, 0.5, 1.0, 3.0):
            assert np.all(besseli_scaled(a + 1.0, z) <= besseli_scaled(a, z))

    def test_small_z_asymptote_band(self):
        # For 0 < z <= 1, I_a(z)/z^a stays in [c (1-eps), c e^{z^2}] with
        # c = 1/(2^a Gamma(a+1)).
        for a in (-0.3, 0.0, 0.5, 1.0, 2.0):
            c = 1.0 / (2.0**a * math.gamma(a + 1.0))
            z = np.linspace(1e-4, 1.0, 200)
            ratio = power_ratio(a, z, a)
            assert np.all(ratio >= c * (1.0 - 1e-12))
            assert np.all(ratio <= c * np.exp(z * z))
