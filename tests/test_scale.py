"""Tests for the two-exponential scale family W, Z and their companions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from taxdelay.model import laplace_exponent, new_model
from taxdelay.scale import ScaleSet

rates = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
discounts = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
positions = st.floats(min_value=1e-3, max_value=30.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Boundary values and the domain-extension convention
# ---------------------------------------------------------------------------


class TestBoundaryValues:
    def test_w_at_zero_is_inverse_premium(self, scale05):
        assert scale05.w(0.0) == pytest.approx(1.0 / 1.2, abs=1e-15)

    def test_domain_extension_below_zero(self, scale05):
        assert scale05.w(-1.0) == 0.0
        assert scale05.z(-1.0) == 1.0

    def test_companions_vanish_at_zero(self, scale05):
        assert scale05.z(0.0) == pytest.approx(1.0, abs=1e-15)
        assert scale05.zbar(0.0) == pytest.approx(0.0, abs=1e-15)
        assert scale05.wbar(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("q, expected", [(0.05, 1.05 / 1.44), (0.002, 1.002 / 1.44)])
    def test_w_slope_at_zero(self, base_model, q, expected):
        """W'(0+) from the two-exponential form equals (q + lam)/c^2,
        computed independently from the raw parameters."""
        s = ScaleSet(base_model, q)
        assert s.w1_at_zero() == pytest.approx(expected, rel=1e-10)
        assert s.w1(0.0) == pytest.approx(expected, rel=1e-10)

    def test_w_over_slope_at_zero(self, scale05):
        """W(0)/W'(0+) = c/(q + lam) = 8/7 for the baseline at q=0.05."""
        ratio = scale05.w(0.0) / scale05.w1_at_zero()
        assert ratio == pytest.approx(8.0 / 7.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Quadrature cross-checks for the antiderivatives
# ---------------------------------------------------------------------------


class TestAntiderivatives:
    def test_z_is_one_plus_q_integral_of_w(self, scale05):
        integral, _ = quad(scale05.w, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        assert scale05.z(3.0) == pytest.approx(1.0 + 0.05 * integral, abs=1e-8)

    def test_zbar_is_integral_of_z(self, scale05):
        integral, _ = quad(scale05.z, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        assert scale05.zbar(3.0) == pytest.approx(integral, abs=1e-8)

    def test_wbar_is_integral_of_w(self, scale05):
        integral, _ = quad(scale05.w, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        assert scale05.wbar(3.0) == pytest.approx(integral, abs=1e-8)

    def test_zbar_shifted_offsets_by_drift_over_q(self, base_model, scale05):
        shift = base_model.net_drift / 0.05
        for x in (0.0, 0.7, 4.0):
            assert scale05.zbar_shifted(x) == pytest.approx(scale05.zbar(x) + shift,
                                                            rel=1e-12)

    def test_z_slope_is_q_times_w(self, scale05):
        for x in (0.2, 1.0, 5.0):
            assert scale05.z1d(x) == pytest.approx(0.05 * scale05.w(x), rel=1e-12)


# ---------------------------------------------------------------------------
# Laplace-transform identity
# ---------------------------------------------------------------------------


class TestLaplaceIdentity:
    @pytest.mark.parametrize("mult", [1.5, 2.0, 3.0])
    def test_transform_matches_reciprocal_exponent(self, base_model, scale05, mult):
        """int_0^inf e^{-theta x} W(x) dx = 1/(psi(theta) - q) for
        theta > theta1; quadrature on a truncated range with an analytic
        tail bound below 1e-12."""
        theta = mult * scale05.theta1
        gap = theta - scale05.theta1
        hi = math.log(1e14 / gap) / gap
        integral, _ = quad(lambda x: math.exp(-theta * x) * scale05.w(x), 0.0, hi,
                           epsabs=1e-13, epsrel=1e-12, limit=400)
        target = 1.0 / (laplace_exponent(base_model, theta) - 0.05)
        assert integral == pytest.approx(target, rel=1e-8)


# ---------------------------------------------------------------------------
# Shape inequalities and limits
# ---------------------------------------------------------------------------


class TestShape:
    def test_w_strictly_increasing(self, scale05):
        xs = np.linspace(0.0, 25.0, 200)
        vals = [scale05.w(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_z_at_least_one(self, scale05):
        for x in np.linspace(0.0, 25.0, 100):
            assert scale05.z(float(x)) >= 1.0

    def test_log_concavity_of_w(self, scale05):
        """W W'' < (W')^2 everywhere: the log-slope of W decreases."""
        for x in np.linspace(0.05, 20.0, 80):
            x = float(x)
            assert scale05.w(x) * scale05.w2(x) < scale05.w1(x) ** 2

    def test_log_convexity_of_w_slope(self, scale05):
        """W' W''' > (W'')^2 everywhere: the log-slope of W' increases."""
        for x in np.linspace(0.05, 20.0, 80):
            x = float(x)
            assert scale05.w1(x) * scale05.w3(x) > scale05.w2(x) ** 2

    def test_w_log_slope_decreasing_to_theta1(self, scale05):
        xs = np.linspace(0.05, 30.0, 120)
        slopes = [scale05.w1(float(x)) / scale05.w(float(x)) for x in xs]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert all(sl >= scale05.theta1 for sl in slopes)
        far = 40.0 / scale05.theta1
        assert scale05.w1(far) / scale05.w(far) == pytest.approx(scale05.theta1,
                                                                 abs=1e-6)

    def test_z_over_slope_limit(self, scale05):
        far = 40.0 / scale05.theta1
        assert scale05.Z.over_slope(far) == pytest.approx(1.0 / scale05.theta1, abs=1e-6)

    def test_z_minus_w_square_ratio_vanishes(self, scale05):
        """Z - qW^2/W' -> 0.  Verified in two steps: the difference equals
        a single decaying exponential (checked against the naive form at
        moderate x), and that exponential is below 1e-6 at x = 40/theta1."""
        r = scale05.roots
        c, mu = scale05.model.c, scale05.model.mu
        const = r.a1 * r.a2 * (r.theta1 - r.theta2) ** 2 / (c * mu)

        def grouped(x: float) -> float:
            return const * math.exp((r.theta1 + r.theta2) * x) / scale05.w1(x)

        for x in (0.5, 2.0, 6.0, 12.0):
            naive = scale05.z(x) - 0.05 * scale05.w(x) ** 2 / scale05.w1(x)
            assert naive == pytest.approx(grouped(x), rel=1e-10)
        assert abs(grouped(40.0 / scale05.theta1)) < 1e-6


# ---------------------------------------------------------------------------
# Grouped kernels and log-space accessors
# ---------------------------------------------------------------------------


class TestKernels:
    def test_ruin_kernel_matches_naive_bracket(self, scale05):
        """The grouped ruin kernel equals W'Z/W - qW when the naive
        difference is still well-conditioned."""
        for x in (0.1, 1.0, 4.0, 10.0):
            naive = scale05.w1(x) * scale05.z(x) / scale05.w(x) \
                - 0.05 * scale05.w(x)
            assert scale05.W.kernel(x) == pytest.approx(naive, rel=1e-9)

    def test_injection_kernel_matches_naive_bracket(self, scale05):
        """The grouped injection kernel equals Z - (Zbar + d/q) qW/Z."""
        for x in (0.1, 1.0, 4.0, 10.0):
            naive = scale05.z(x) - scale05.zbar_shifted(x) * 0.05 * scale05.w(x) \
                / scale05.z(x)
            assert scale05.Z.kernel(x) == pytest.approx(naive, rel=1e-9)

    def test_log_accessors_match_direct_logs(self, scale05):
        for x in (0.0, 0.5, 3.0, 20.0):
            assert scale05.W.log(x) == pytest.approx(math.log(scale05.w(x)), abs=1e-12)
            assert scale05.Z.log(x) == pytest.approx(math.log(scale05.z(x)), abs=1e-12)

    def test_log_accessors_finite_far_out(self, scale05):
        """Ratios of W (or Z) stay computable far beyond the overflow range
        of the raw values."""
        x = 1e5
        assert math.isfinite(scale05.W.log(x))
        assert math.isfinite(scale05.Z.log(x))
        ratio = math.exp(scale05.W.log(x) - scale05.W.log(x + 1.0))
        assert ratio == pytest.approx(math.exp(-scale05.theta1), rel=1e-9)

    def test_log_ratio_matches_log_accessors(self, scale05):
        for family in (scale05.W, scale05.Z):
            for x, y in ((0.0, 2.0), (0.5, 0.5), (3.0, 1.0), (20.0, 45.0)):
                assert family.log_ratio(x, y) == pytest.approx(
                    family.log(x) - family.log(y), abs=1e-13)

    def test_log_ratio_keeps_close_levels_exact_far_out(self, scale05):
        """log(F(x)/F(y)) for y - x = 1e-9 at x = 1e5: the difference of
        two logarithms near 1.5e4 would carry an error near 2e-12."""
        x = 1e5
        y = x + 1e-9
        for family in (scale05.W, scale05.Z):
            got = family.log_ratio(x, y)
            assert got == pytest.approx(-scale05.theta1 * (y - x), rel=1e-12)

    def test_ratio_accessors(self, scale05):
        for x in (0.3, 2.0, 9.0):
            assert scale05.W.over_slope(x) == pytest.approx(
                scale05.w(x) / scale05.w1(x), rel=1e-12)
            assert scale05.Z.over_slope(x) == pytest.approx(
                scale05.z(x) / (0.05 * scale05.w(x)), rel=1e-12)


# ---------------------------------------------------------------------------
# Property tests across model parameters
# ---------------------------------------------------------------------------


class TestScaleProperties:
    @given(c=rates, lam=rates, mu=rates, q=discounts, x=positions)
    def test_shape_inequalities_hold_generally(self, c, lam, mu, q, x):
        s = ScaleSet(new_model(c, lam, mu), q)
        # Past (theta1 - theta2) x ~ 30 the inequality gap falls below float
        # resolution of the products, so restrict to the testable region and
        # accept ties at rounding level (the gap itself can sit at ~1 ulp
        # when one exponential carries a tiny coefficient).
        assume((s.theta1 - s.theta2) * x < 30.0)
        concave_lhs, concave_rhs = s.w(x) * s.w2(x), s.w1(x) ** 2
        assert concave_lhs < concave_rhs or \
            concave_lhs == pytest.approx(concave_rhs, rel=1e-12)
        convex_lhs, convex_rhs = s.w1(x) * s.w3(x), s.w2(x) ** 2
        assert convex_lhs > convex_rhs or \
            convex_lhs == pytest.approx(convex_rhs, rel=1e-12)

    @given(c=rates, lam=rates, mu=rates, q=discounts)
    def test_w_at_zero_and_slope(self, c, lam, mu, q):
        s = ScaleSet(new_model(c, lam, mu), q)
        assert s.w(0.0) == pytest.approx(1.0 / c, rel=1e-12)
        assert s.w1_at_zero() == pytest.approx((q + lam) / c**2, rel=1e-10)

    @given(c=rates, lam=rates, mu=rates, q=discounts, x=positions, y=positions)
    @example(c=0.5, lam=2.0, mu=1.0, q=0.01, x=3.0, y=0.2)  # negative loading
    def test_families_match_naive_forms(self, c, lam, mu, q, x, y):
        """W and Z against the raw accessors w, w1, z and zbar_shifted where
        the naive forms are well conditioned.  Each naive kernel is a
        difference of two terms, so it is held to a share of their size.
        That share is 1e-8, not near 1e-15: the grouped kernel holds an
        identity of the exact roots, and with negative loading at q = 1e-3
        the rounded theta2 is off by up to 4.5e-10 relative, so the two
        forms part by up to 9e-10 of the terms (c = mu = 0.1, lam = 8)."""
        s = ScaleSet(new_model(c, lam, mu), q)
        assume((s.theta1 - s.theta2) * max(x, y) < 30.0)
        q_w = q * s.w(x)
        cases = ((s.W, s.w, s.w1(x), (s.w1(x) * s.z(x) / s.w(x), q_w)),
                 (s.Z, s.z, q_w, (s.z(x), s.zbar_shifted(x) * q_w / s.z(x))))
        for family, f, slope, (a, b) in cases:
            assert family.log(x) == pytest.approx(math.log(f(x)), rel=1e-12, abs=1e-12)
            assert family.log_ratio(x, y) == pytest.approx(math.log(f(x) / f(y)), abs=1e-12)
            assert family.over_slope(x) == pytest.approx(f(x) / slope, rel=1e-12)
            assert abs(family.kernel(x) - (a - b)) <= 1e-8 * (abs(a) + abs(b))

    @given(c=rates, lam=rates, mu=rates, q=discounts)
    @example(c=0.5, lam=2.0, mu=1.0, q=0.01)  # negative loading
    def test_families_finite_far_out(self, c, lam, mu, q):
        s = ScaleSet(new_model(c, lam, mu), q)
        x = 1e5
        for family in (s.W, s.Z):
            values = (family.log(x), family.log_ratio(x, x + 1.0),
                      family.over_slope(x), family.kernel(x))
            assert all(math.isfinite(v) for v in values)
            assert family.over_slope(x) == pytest.approx(1.0 / s.theta1, rel=1e-12)
