"""Tests for the two-exponential scale family W, Z and their companions."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from taxdelay.errors import OutOfRange
from taxdelay.model import laplace_exponent, new_model
from taxdelay.scale import ScaleFamily, ScaleSet

rates = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
discounts = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
positions = st.floats(min_value=1e-3, max_value=30.0, allow_nan=False)


def w_derivative(s: ScaleSet, x: float, k: int) -> float:
    """k-th derivative of W, written from the family's coefficients with the
    e^{theta1 x} factor pulled out."""
    t1, t2, W = s.theta1, s.theta2, s.W
    return math.exp(t1 * x) * (W.f1 * t1**k - W.f2 * t2**k * math.exp((t2 - t1) * x))


# ---------------------------------------------------------------------------
# Boundary values and the domain-extension convention
# ---------------------------------------------------------------------------


class TestBoundaryValues:
    def test_w_at_zero_is_inverse_premium(self, scale05):
        assert scale05.W(0.0) == pytest.approx(1.0 / 1.2, abs=1e-15)

    def test_domain_extension_below_zero(self, scale05):
        assert scale05.W(-1.0) == 0.0
        assert scale05.Z(-1.0) == 1.0

    def test_companions_vanish_at_zero(self, base_model, scale05):
        """Z(0) = 1, and Zbar(0) = Wbar(0) = 0: the antiderivatives'
        constants are d/q for Z and 1/q for W."""
        assert scale05.Z(0.0) == pytest.approx(1.0, abs=1e-15)
        assert scale05.Z.integral(0.0) == pytest.approx(base_model.net_drift / 0.05,
                                                        rel=1e-15)
        assert scale05.W.integral(0.0) == pytest.approx(1.0 / 0.05, rel=1e-15)

    @pytest.mark.parametrize("q, expected", [(0.05, 1.05 / 1.44), (0.002, 1.002 / 1.44)])
    def test_w_slope_at_zero(self, base_model, q, expected):
        """W'(0+) from the two-exponential form equals (q + lam)/c^2,
        computed independently from the raw parameters."""
        s = ScaleSet(base_model, q)
        assert s.W.slope(0.0) == pytest.approx(expected, rel=1e-10)

    def test_w_over_slope_at_zero(self, scale05):
        """W(0)/W'(0+) = c/(q + lam) = 8/7 for the baseline at q=0.05."""
        ratio = scale05.W(0.0) / scale05.W.slope(0.0)
        assert ratio == pytest.approx(8.0 / 7.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Quadrature cross-checks for the antiderivatives
# ---------------------------------------------------------------------------


class TestAntiderivatives:
    def test_z_is_one_plus_q_integral_of_w(self, scale05):
        integral, _ = quad(scale05.W, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        assert scale05.Z(3.0) == pytest.approx(1.0 + 0.05 * integral, abs=1e-8)

    def test_zbar_is_integral_of_z(self, scale05):
        integral, _ = quad(scale05.Z, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        zbar = scale05.Z.integral(3.0) - scale05.Z.integral(0.0)
        assert zbar == pytest.approx(integral, abs=1e-8)

    def test_wbar_is_integral_of_w(self, scale05):
        integral, _ = quad(scale05.W, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12)
        wbar = scale05.W.integral(3.0) - scale05.W.integral(0.0)
        assert wbar == pytest.approx(integral, abs=1e-8)

    def test_zbar_shifted_offsets_by_drift_over_q(self, base_model, scale05):
        shift = base_model.net_drift / 0.05
        for x in (0.0, 0.7, 4.0):
            zbar, _ = quad(scale05.Z, 0.0, x, epsabs=1e-13, epsrel=1e-13)
            assert scale05.Z.integral(x) == pytest.approx(zbar + shift, rel=1e-12)

    def test_z_slope_is_q_times_w(self, scale05):
        for x in (0.2, 1.0, 5.0):
            assert scale05.Z.slope(x) == pytest.approx(0.05 * scale05.W(x), rel=1e-12)


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
        integral, _ = quad(lambda x: math.exp(-theta * x) * scale05.W(x), 0.0, hi,
                           epsabs=1e-13, epsrel=1e-12, limit=400)
        target = 1.0 / (laplace_exponent(base_model, theta) - 0.05)
        assert integral == pytest.approx(target, rel=1e-8)


# ---------------------------------------------------------------------------
# Shape inequalities and limits
# ---------------------------------------------------------------------------


class TestShape:
    def test_w_strictly_increasing(self, scale05):
        xs = np.linspace(0.0, 25.0, 200)
        vals = [scale05.W(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_z_at_least_one(self, scale05):
        for x in np.linspace(0.0, 25.0, 100):
            assert scale05.Z(float(x)) >= 1.0

    def test_log_concavity_of_w(self, scale05):
        """W W'' < (W')^2 everywhere: the log-slope of W decreases."""
        for x in np.linspace(0.05, 20.0, 80):
            x = float(x)
            assert scale05.W(x) * w_derivative(scale05, x, 2) < scale05.W.slope(x) ** 2

    def test_log_convexity_of_w_slope(self, scale05):
        """W' W''' > (W'')^2 everywhere: the log-slope of W' increases."""
        for x in np.linspace(0.05, 20.0, 80):
            x = float(x)
            assert scale05.W.slope(x) * w_derivative(scale05, x, 3) \
                > w_derivative(scale05, x, 2) ** 2

    def test_w_log_slope_decreasing_to_theta1(self, scale05):
        xs = np.linspace(0.05, 30.0, 120)
        slopes = [scale05.W.slope(float(x)) / scale05.W(float(x)) for x in xs]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert all(sl >= scale05.theta1 for sl in slopes)
        far = 40.0 / scale05.theta1
        assert scale05.W.slope(far) / scale05.W(far) == pytest.approx(scale05.theta1,
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
            return const * math.exp((r.theta1 + r.theta2) * x) / scale05.W.slope(x)

        for x in (0.5, 2.0, 6.0, 12.0):
            naive = scale05.Z(x) - 0.05 * scale05.W(x) ** 2 / scale05.W.slope(x)
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
            naive = scale05.W.slope(x) * scale05.Z(x) / scale05.W(x) \
                - 0.05 * scale05.W(x)
            assert scale05.W.kernel(x) == pytest.approx(naive, rel=1e-9)

    def test_injection_kernel_matches_naive_bracket(self, scale05):
        """The grouped injection kernel equals Z - (Zbar + d/q) qW/Z."""
        for x in (0.1, 1.0, 4.0, 10.0):
            naive = scale05.Z(x) - scale05.Z.integral(x) * 0.05 * scale05.W(x) \
                / scale05.Z(x)
            assert scale05.Z.kernel(x) == pytest.approx(naive, rel=1e-9)

    def test_log_accessors_match_direct_logs(self, scale05):
        for x in (0.0, 0.5, 3.0, 20.0):
            assert scale05.W.log(x) == pytest.approx(math.log(scale05.W(x)), abs=1e-12)
            assert scale05.Z.log(x) == pytest.approx(math.log(scale05.Z(x)), abs=1e-12)

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
                scale05.W(x) / scale05.W.slope(x), rel=1e-12)
            assert scale05.Z.over_slope(x) == pytest.approx(
                scale05.Z(x) / (0.05 * scale05.W(x)), rel=1e-12)


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
        w2, w3 = w_derivative(s, x, 2), w_derivative(s, x, 3)
        concave_lhs, concave_rhs = s.W(x) * w2, s.W.slope(x) ** 2
        assert concave_lhs < concave_rhs or \
            concave_lhs == pytest.approx(concave_rhs, rel=1e-12)
        convex_lhs, convex_rhs = s.W.slope(x) * w3, w2 ** 2
        assert convex_lhs > convex_rhs or \
            convex_lhs == pytest.approx(convex_rhs, rel=1e-12)

    @given(c=rates, lam=rates, mu=rates, q=discounts)
    def test_w_at_zero_and_slope(self, c, lam, mu, q):
        s = ScaleSet(new_model(c, lam, mu), q)
        assert s.W(0.0) == pytest.approx(1.0 / c, rel=1e-12)
        assert s.W.slope(0.0) == pytest.approx((q + lam) / c**2, rel=1e-10)

    @given(c=rates, lam=rates, mu=rates, q=discounts, x=positions, y=positions)
    @example(c=0.5, lam=2.0, mu=1.0, q=0.01, x=3.0, y=0.2)  # negative loading
    @example(c=0.1, lam=8.0, mu=0.1, q=1e-3, x=0.01, y=0.2)  # theta2 from Vieta
    def test_families_match_naive_forms(self, c, lam, mu, q, x, y):
        """The families' log, log_ratio, over_slope and kernel against naive
        forms of F, F' and Zbar + d/q where those are well conditioned.
        Each naive kernel is a difference of two terms, so it is held to a
        share of their size.  The grouped kernel holds an identity of the
        exact roots, so that share is only as small as the roots' error:
        1e-12, with both roots free of cancellation."""
        s = ScaleSet(new_model(c, lam, mu), q)
        assume((s.theta1 - s.theta2) * max(x, y) < 30.0)
        q_w = q * s.W(x)
        cases = ((s.W, s.W.slope(x), (s.W.slope(x) * s.Z(x) / s.W(x), q_w)),
                 (s.Z, q_w, (s.Z(x), s.Z.integral(x) * q_w / s.Z(x))))
        for f, slope, (a, b) in cases:
            assert f.log(x) == pytest.approx(math.log(f(x)), rel=1e-12, abs=1e-12)
            assert f.log_ratio(x, y) == pytest.approx(math.log(f(x) / f(y)), abs=1e-12)
            assert f.over_slope(x) == pytest.approx(f(x) / slope, rel=1e-12)
            assert abs(f.kernel(x) - (a - b)) <= 1e-12 * (abs(a) + abs(b))

    @given(c=rates, lam=rates, mu=rates, q=discounts, x=positions)
    @example(c=0.5, lam=2.0, mu=1.0, q=0.01, x=3.0)  # negative loading
    def test_family_evaluators(self, c, lam, mu, q, x):
        """F, F' and the antiderivative against each other: Z' = qW,
        q int W = Z (both antiderivatives' constants included), W'(0+) =
        (q + lam)/c^2, F/F' = over_slope, and the constants below zero."""
        s = ScaleSet(new_model(c, lam, mu), q)
        assume((s.theta1 - s.theta2) * x < 30.0)
        assert s.Z.slope(x) == pytest.approx(q * s.W(x), rel=1e-12)
        assert q * s.W.integral(x) == pytest.approx(s.Z(x), rel=1e-12)
        assert s.W.slope(0.0) == pytest.approx((q + lam) / c**2, rel=1e-12)
        for f in (s.W, s.Z):
            assert f(x) / f.slope(x) == pytest.approx(f.over_slope(x), rel=1e-12)
        assert (s.W(-x), s.W.slope(-x), s.Z(-x), s.Z.slope(-x)) == (0.0, 0.0, 1.0, 0.0)

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


# ---------------------------------------------------------------------------
# Range of the coefficients
# ---------------------------------------------------------------------------

EXTREMES = (1e-300, 1e-160, 1e-100, 1e-5, 1.0, 1e5, 1e100, 1e160, 1e300)


def test_every_built_coefficient_is_finite():
    """A ScaleSet raises OutOfRange or holds finite values in every slot of
    W and Z: the check reads the coefficients that can leave double range,
    and the rest are finite by construction."""
    built = 0
    for c, lam, mu, q in itertools.product(EXTREMES, repeat=4):
        try:
            s = ScaleSet(new_model(c, lam, mu), q)
        except OutOfRange:
            continue
        for family in (s.W, s.Z):
            assert all(math.isfinite(getattr(family, name)) for name in ScaleFamily.__slots__)
        built += 1
    assert 0 < built < len(EXTREMES) ** 4
