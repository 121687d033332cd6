"""Tests for model parameters, the Laplace exponent, and its roots."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from taxdelay.errors import InvalidParameter
from taxdelay.model import LevyModel, laplace_exponent, new_model, spectral_roots

rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
discounts = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestNewModel:
    def test_baseline_drift(self):
        m = new_model(1.2, 1.0, 1.0)
        assert m.net_drift == pytest.approx(0.2)
        assert not m.negative_loading

    def test_zero_loading_sets_warning_flag(self):
        """c = lam/mu is legal but flagged: the mean drift is exactly 0."""
        m = new_model(1.0, 1.0, 1.0)
        assert m.net_drift == pytest.approx(0.0)
        assert m.negative_loading

    def test_negative_loading_sets_warning_flag(self):
        assert new_model(0.8, 1.2, 1.0).negative_loading

    @pytest.mark.parametrize("bad", [(0.0, 1, 1), (1.2, 0, 1), (1.2, 1, 0),
                                     (-1, 1, 1), (float("nan"), 1, 1),
                                     (1.2, float("inf"), 1)])
    def test_nonpositive_or_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            new_model(*bad)

    def test_model_is_frozen(self, base_model: LevyModel):
        with pytest.raises(Exception):
            base_model.c = 2.0  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Laplace exponent
# ---------------------------------------------------------------------------


class TestLaplaceExponent:
    def test_zero_at_origin(self, base_model):
        assert laplace_exponent(base_model, 0.0) == 0.0

    def test_direct_substitution(self, base_model):
        """psi(1) = 1.2*1 - 1*1/(1+1) = 0.7."""
        assert laplace_exponent(base_model, 1.0) == pytest.approx(0.7, abs=1e-15)

    def test_value_at_positive_root_is_q(self, base_model):
        r = spectral_roots(base_model, 0.05)
        assert laplace_exponent(base_model, r.theta1) == pytest.approx(0.05, rel=1e-12)

    def test_convexity_on_grid(self, base_model):
        pts = [0.1 * k for k in range(1, 40)]
        for lo, hi in zip(pts, pts[2:]):
            mid = 0.5 * (lo + hi)
            chord = 0.5 * (laplace_exponent(base_model, lo) + laplace_exponent(base_model, hi))
            assert laplace_exponent(base_model, mid) <= chord + 1e-12

    def test_drift_matches_finite_difference_at_zero(self, base_model):
        h = 1e-7
        fd = laplace_exponent(base_model, h) / h
        assert fd == pytest.approx(base_model.net_drift, abs=1e-6)


# ---------------------------------------------------------------------------
# Spectral roots
# ---------------------------------------------------------------------------


class TestSpectralRoots:
    def test_baseline_values(self, base_model):
        r = spectral_roots(base_model, 0.05)
        assert r.kappa == pytest.approx(0.51235, abs=1e-5)
        assert r.theta1 == pytest.approx(0.15098, abs=1e-5)
        assert r.theta2 == pytest.approx(-0.27598, abs=1e-5)

    def test_coefficient_difference_is_one(self, base_model):
        r = spectral_roots(base_model, 0.05)
        assert r.a1 - r.a2 == 1.0

    def test_roots_solve_quadratic(self, base_model):
        c, lam, mu = base_model.c, base_model.lam, base_model.mu
        q = 0.05
        r = spectral_roots(base_model, q)
        for theta in (r.theta1, r.theta2):
            resid = c * theta**2 + (c * mu - lam - q) * theta - q * mu
            assert resid == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("c, lam, mu, q", [
        (0.1, 8.0, 0.1, 1e-3), (0.1, 30.0, 0.1, 1e-5),  # lam + q > c mu
        (30.0, 0.1, 30.0, 1e-5), (2.0, 0.4, 2.7, 0.0014),  # lam + q < c mu
    ])
    def test_roots_match_mpmath_without_cancellation(self, c, lam, mu, q):
        """Both roots within 1e-15 relative of the 50-digit roots of the same
        doubles, including the one of smaller magnitude, which the
        quadratic formula would take by cancellation."""
        r = spectral_roots(new_model(c, lam, mu), q)
        with mpmath.workdps(50):
            c, lam, mu, q = (mpmath.mpf(v) for v in (c, lam, mu, q))
            b = lam + q - c * mu
            kappa = mpmath.sqrt(b * b + 4 * c * q * mu)
            for got, want in ((r.theta1, (b + kappa) / (2 * c)),
                              (r.theta2, (b - kappa) / (2 * c))):
                assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("q", [0.002, 0.05])
    def test_theta1_matches_bisection_of_exponent(self, base_model, q):
        """theta1 is the positive root of psi(theta) = q on (0, 10]."""
        root = brentq(lambda t: laplace_exponent(base_model, t) - q, 1e-12, 10.0,
                      xtol=1e-14)
        r = spectral_roots(base_model, q)
        assert r.theta1 == pytest.approx(root, abs=1e-12)

    def test_invalid_q_rejected(self, base_model):
        for q in (0.0, -0.05, float("nan"), float("inf")):
            with pytest.raises(InvalidParameter):
                spectral_roots(base_model, q)

    def test_theta1_increasing_in_q(self, base_model):
        qs = [1e-4, 1e-3, 0.01, 0.05, 0.2, 1.0]
        vals = [spectral_roots(base_model, q).theta1 for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Property tests across random parameters
# ---------------------------------------------------------------------------


class TestRootProperties:
    @given(c=rates, lam=rates, mu=rates, q=discounts)
    def test_both_roots_hit_q(self, c, lam, mu, q):
        m = new_model(c, lam, mu)
        r = spectral_roots(m, q)
        assert r.kappa > 0.0
        assert r.theta2 < 0.0 < r.theta1
        # Looser than the baseline anchor: the quadratic formula loses a few
        # digits to cancellation when c*mu dominates lam + q.
        for theta in (r.theta1, r.theta2):
            assert laplace_exponent(m, theta) == pytest.approx(q, rel=1e-9, abs=1e-9)

    @given(c=rates, lam=rates, mu=rates)
    @example(c=5.0, lam=0.3125, mu=0.0546875)  # a step of 1e-7 erred by 1.04e-5 here
    def test_drift_matches_finite_difference(self, c, lam, mu):
        """The forward difference errs by lam h/(mu (mu + h)), so the step
        scales with mu: about 1e-7 lam/mu, inside the tolerance over the box."""
        m = new_model(c, lam, mu)
        h = 1e-7 * mu
        fd = laplace_exponent(m, h) / h
        assert fd == pytest.approx(m.net_drift, abs=1e-5 * max(1.0, abs(m.net_drift)))
