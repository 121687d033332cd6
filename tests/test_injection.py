"""Tests for the capital-injection problem: delayed taxation with forced
injections keeping the process nonnegative, each unit costing varphi."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from paper_functionals import (
    expected_injection_until_upcross,
    f_a,
    g_a,
    injection_tail,
    r_a,
    reflected_upcross_laplace,
    tax_tail,
    upsilon,
)
from taxdelay.errors import DomainError, InvalidParameter
from taxdelay.model import new_model
from taxdelay.problem import InjectionProblem, h, optimize, phi, phi_partial, potential, psi
from taxdelay.scale import ScaleSet


@pytest.fixture(scope="module")
def prob(scale05):
    return InjectionProblem(scale05, 0.2, 1.5, 1.0)


def naive_injection_kernel(s: ScaleSet, w: float) -> float:
    """Z - (Zbar + d/q) qW/Z assembled from the plain evaluators (the oracle
    integrand for the injection functionals)."""
    return s.Z(w) - s.Z.integral(w) * s.q * s.W(w) / s.Z(w)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestInjectionProblem:
    def test_exponent_and_drift_ratio(self, scale05, base_model):
        """The potential -(Zbar + d/q) at 0 is minus the drift ratio d/q."""
        p = InjectionProblem(scale05, 0.25, 1.5, 1.0)
        assert p.exponent == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert potential(p, 0.0) == pytest.approx(-base_model.net_drift / 0.05,
                                                  rel=1e-15)

    @pytest.mark.parametrize("ell", [-0.1, 1.0, math.nan])
    def test_rejects_bad_tax_rate(self, scale05, ell):
        with pytest.raises(InvalidParameter):
            InjectionProblem(scale05, ell, 1.5, 1.0)

    @pytest.mark.parametrize("vp", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_cost_factor(self, scale05, vp):
        with pytest.raises(InvalidParameter):
            InjectionProblem(scale05, 0.2, vp, 1.0)

    def test_low_cost_needs_explicit_flag(self, scale05):
        with pytest.raises(InvalidParameter):
            InjectionProblem(scale05, 0.2, 0.9, 1.0)
        p = InjectionProblem(scale05, 0.2, 0.9, 1.0, allow_low_cost=True)
        assert p.varphi == 0.9

    def test_rejects_negative_start(self, scale05):
        with pytest.raises(InvalidParameter):
            InjectionProblem(scale05, 0.2, 1.5, -1.0)


# ---------------------------------------------------------------------------
# Reflected first passage and the expected-injection closed form
# ---------------------------------------------------------------------------


class TestReflectedPassage:
    def test_upcross_factor_is_z_ratio(self, prob, scale05):
        for (x, a) in ((0.0, 2.0), (0.5, 2.0), (2.0, 2.0)):
            naive = scale05.Z(x) / scale05.Z(a)
            assert reflected_upcross_laplace(prob, x, a) == pytest.approx(
                naive, rel=1e-12)

    def test_upcross_domain(self, prob):
        with pytest.raises(DomainError):
            reflected_upcross_laplace(prob, -0.1, 2.0)
        with pytest.raises(DomainError):
            reflected_upcross_laplace(prob, 3.0, 2.0)

    def test_expected_injection_closed_form(self, prob, scale05):
        d_q = scale05.model.net_drift / scale05.q
        for a in (0.5, 3.0, 10.0):
            naive = -d_q + scale05.Z.integral(a) / scale05.Z(a)
            assert expected_injection_until_upcross(prob, a) == pytest.approx(
                naive, rel=1e-12)

    def test_expected_injection_log_branch_is_continuous(self, prob, scale05):
        """Continuous across theta1 * a = 600, where the factors Zbar + d/q
        and Z approach the end of the double range."""
        edge = 600.0 / scale05.theta1
        below = expected_injection_until_upcross(prob, edge * 0.999)
        above = expected_injection_until_upcross(prob, edge * 1.001)
        assert above == pytest.approx(below, rel=1e-9)

    def test_expected_injection_far_limit(self, prob, scale05):
        """As a grows the expression settles at 1/theta1 - d/q."""
        far = 2000.0 / scale05.theta1
        limit = 1.0 / scale05.theta1 - scale05.model.net_drift / scale05.q
        assert expected_injection_until_upcross(prob, far) == pytest.approx(
            limit, rel=1e-12)

    @pytest.mark.parametrize("c, lam, mu, q", [
        (0.8, 1.0, 1.0, 0.01),    # negative loading: d/q < 0
        (2.0, 0.4, 2.7, 0.0014),  # theta1 = 7.6e-4, d/q = 1,300
    ])
    def test_expected_injection_bounded_ratio(self, c, lam, mu, q):
        """(Zbar + d/q)/Z as a ratio of the bounded factors: the naive ratio
        where Z is in range, and at theta1 a = 1e4, where Z overflows, a
        finite value whose ratio part is 1/theta1."""
        s = ScaleSet(new_model(c, lam, mu), q)
        p = InjectionProblem(s, 0.2, 1.5, 0.0)
        d_q = s.model.net_drift / s.q
        for a in (0.5 / s.theta1, 3.0 / s.theta1, 30.0 / s.theta1):
            naive = -d_q + s.Z.integral(a) / s.Z(a)
            assert expected_injection_until_upcross(p, a) == pytest.approx(
                naive, rel=1e-12)
        far = expected_injection_until_upcross(p, 1e4 / s.theta1)
        assert math.isfinite(far)
        assert far + d_q == pytest.approx(1.0 / s.theta1, rel=1e-12)

    @pytest.mark.parametrize("a", [1e-6, 0.01, 1.0])
    def test_expected_injection_matches_mpmath(self, a):
        """Against 60-digit mpmath of -d/q + (Zbar(a) + d/q)/Z(a), with
        Z = 1 + q int_0^x W from the roots of the same doubles and Zbar by
        quadrature.  At d/q = 1,320 the two terms nearly cancel for small a."""
        c, lam, mu, q = 2.0, 0.4, 2.7, 0.0014
        got = expected_injection_until_upcross(
            InjectionProblem(ScaleSet(new_model(c, lam, mu), q), 0.2, 1.5, 0.0), a)
        with mpmath.workdps(60):
            c, lam, mu, q, a = (mpmath.mpf(v) for v in (c, lam, mu, q, a))
            b = lam + q - c * mu
            kappa = mpmath.sqrt(b * b + 4 * c * q * mu)
            t1, t2 = (b + kappa) / (2 * c), (b - kappa) / (2 * c)
            a1 = (lam + q + c * mu) / (2 * kappa) + mpmath.mpf(0.5)

            def z(x):
                return 1 + q / c * (a1 / t1 * mpmath.expm1(t1 * x)
                                    - (a1 - 1) / t2 * mpmath.expm1(t2 * x))

            d_q = (c - lam / mu) / q
            want = -d_q + (mpmath.quad(z, [0, a]) + d_q) / z(a)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_untaxed_injection_functional_matches_closed_form(self, scale05):
        """With ell = 0 the corridor functional r_a from 0 reduces to the
        expected discounted injections until first passage."""
        p = InjectionProblem(scale05, 0.0, 1.5, 1.0)
        for a in (0.5, 2.0, 8.0):
            assert r_a(p, 0.0, a) == pytest.approx(
                expected_injection_until_upcross(p, a), rel=1e-10)


# ---------------------------------------------------------------------------
# Corridor functionals f_a, g_a, r_a
# ---------------------------------------------------------------------------


class TestCorridorFunctionals:
    def test_boundary_values_exact(self, prob):
        a = 1.7
        assert f_a(prob, a, a) == 1.0
        assert g_a(prob, a, a) == 0.0
        assert r_a(prob, a, a) == 0.0

    def test_f_matches_naive_power(self, prob, scale05):
        e = prob.exponent
        for (x, a) in ((0.0, 2.0), (0.7, 2.0), (1.5, 4.0)):
            naive = (scale05.Z(x) / scale05.Z(a)) ** e
            assert f_a(prob, x, a) == pytest.approx(naive, rel=1e-12)

    def test_g_quadrature_oracle(self, prob, scale05):
        e = prob.exponent
        x, a = 0.6, 2.5
        oracle, _ = quad(lambda w: (scale05.Z(x) / scale05.Z(w)) ** e,
                         x, a, epsabs=1e-13, epsrel=1e-12)
        assert g_a(prob, x, a) == pytest.approx(prob.ell * e * oracle, rel=1e-10)

    def test_r_quadrature_oracle(self, prob, scale05):
        e = prob.exponent
        x, a = 0.6, 2.5
        oracle, _ = quad(
            lambda w: naive_injection_kernel(scale05, w)
            * (scale05.Z(x) / scale05.Z(w)) ** e,
            x, a, epsabs=1e-13, epsrel=1e-12,
        )
        assert r_a(prob, x, a) == pytest.approx(e * oracle, rel=1e-10)

    def test_g_vanishes_without_tax(self, scale05):
        p = InjectionProblem(scale05, 0.0, 1.5, 1.0)
        assert g_a(p, 0.5, 3.0) == 0.0

    def test_domain_errors(self, prob):
        with pytest.raises(DomainError):
            f_a(prob, -0.1, 1.0)
        with pytest.raises(DomainError):
            g_a(prob, 2.0, 1.0)
        with pytest.raises(DomainError):
            r_a(prob, 0.5, math.inf)


# ---------------------------------------------------------------------------
# Tail limits, psi_bar, upsilon_bar, V_bar
# ---------------------------------------------------------------------------


class TestTailsAndPsiBar:
    def test_tax_tail_is_limit_of_g(self, prob):
        x = 0.6
        assert tax_tail(prob, x) == pytest.approx(g_a(prob, x, 200.0),
                                                  abs=1e-10)

    def test_injection_tail_is_limit_of_r(self, prob):
        x = 0.6
        assert injection_tail(prob, x) == pytest.approx(r_a(prob, x, 200.0),
                                                        abs=1e-10)

    def test_tails_monotone_approach(self, prob):
        x = 0.6
        gs = [g_a(prob, x, a) for a in (5.0, 20.0, 80.0)]
        assert gs[0] < gs[1] < gs[2] < tax_tail(prob, x)

    def test_psi_bar_affine_in_cost_factor(self, scale05):
        x = 1.0
        base = psi(InjectionProblem(scale05, 0.2, 1.0,
                                    x, allow_low_cost=True), x)
        two = psi(InjectionProblem(scale05, 0.2, 2.0, x), x)
        slope = two - base
        for vp in (1.2, 1.5, 4.0):
            got = psi(InjectionProblem(scale05, 0.2, vp, x), x)
            assert got == pytest.approx(base + (vp - 1.0) * slope, rel=1e-10)

    def test_psi_bar_assembly(self, prob):
        for x in (0.0, 1.0, 3.0):
            expected = tax_tail(prob, x) - prob.varphi * injection_tail(prob, x)
            assert psi(prob, x) == pytest.approx(expected, rel=1e-11)

    def test_upsilon_bar_identity(self, prob, scale05):
        for a in (0.0, 0.8, 3.0):
            expected = psi(prob, a) - prob.varphi * scale05.Z.integral(a)
            assert upsilon(prob, a) == pytest.approx(expected, rel=1e-11)

    def test_cap_v_bar_right_limit_and_form(self, prob, scale05):
        assert prob.family.over_slope(0.0) == pytest.approx(1.2 / 0.05, rel=1e-12)
        for a in (0.5, 2.0, 9.0):
            naive = scale05.Z(a) / (0.05 * scale05.W(a))
            assert prob.family.over_slope(a) == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# The optimality function h_bar
# ---------------------------------------------------------------------------


class TestHBar:
    def test_matches_naive_form_at_moderate_levels(self, prob, scale05):
        """h_bar(a) = upsilon_bar(a) - V_bar(a)(1 - varphi Z(a)); the grouped
        evaluation must agree with this naive assembly where the naive
        difference is well-conditioned."""
        for a in (0.0, 0.5, 2.0, 6.0):
            naive = upsilon(prob, a) - scale05.Z.over_slope(a) * (
                1.0 - prob.varphi * scale05.Z(a))
            assert h(prob, a) == pytest.approx(naive, rel=1e-12)

    def test_far_limit(self, prob, scale05):
        far = 40.0 / scale05.theta1
        limit = (prob.ell - 1.0) / scale05.theta1
        assert h(prob, far) == pytest.approx(limit, abs=1e-10)

    @pytest.mark.parametrize("ell, vp", [(0.2, 1.5), (0.3, 2.0)])
    def test_single_crossing(self, scale05, ell, vp):
        p = InjectionProblem(scale05, ell, vp, 1.0)
        grid = np.arange(0.0, 60.0 / scale05.theta1, 0.25)
        signs = np.sign([h(p, float(a)) for a in grid])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert signs[0] > 0 and signs[-1] < 0


# ---------------------------------------------------------------------------
# The objective phi_bar and its derivative in the threshold
# ---------------------------------------------------------------------------


class TestPhiBarValue:
    def test_at_threshold_equals_psi_bar(self, prob):
        """phi_bar(a; a) collapses to psi_bar(a)."""
        for a in (0.5, 1.5, 4.0):
            assert phi(prob, a, a) == pytest.approx(
                psi(prob, a), rel=1e-10)

    def test_threshold_lift_below_start(self, prob):
        assert phi(prob, 2.0, 1.0) == phi(prob, 2.0, 2.0)

    def test_start_at_zero_allowed(self, prob):
        val = phi(prob, 0.0, 2.0)
        assert math.isfinite(val)

    def test_partial_matches_finite_difference(self, prob):
        for (x, a) in ((0.5, 1.5), (0.0, 2.0)):
            step = 3e-4
            fd = (phi(prob, x, a + step)
                  - phi(prob, x, a - step)) / (2.0 * step)
            assert phi_partial(prob, x, a) == pytest.approx(fd, rel=1e-6)

    def test_partial_sign_follows_h_bar(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 0.25)
        astar = optimize(p).threshold
        assert phi_partial(p, 0.1, 0.5 * astar) > 0.0
        assert phi_partial(p, 0.1, 2.0 * astar) < 0.0

    def test_partial_domain(self, prob):
        with pytest.raises(DomainError):
            phi_partial(prob, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Optimizer reports
# ---------------------------------------------------------------------------


class TestOptimizeInjection:
    def test_interior_optimum(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 0.25)
        rep = optimize(p)
        assert not rep.boundary_case
        assert rep.root_diag is not None
        assert rep.threshold == rep.root_diag.root
        assert abs(h(p, rep.threshold)) < 1e-7
        assert rep.value == pytest.approx(phi(p, 0.25, rep.threshold),
                                          rel=1e-8)

    def test_interior_threshold_anchor(self, scale05):
        """a* for (ell, varphi) = (0.2, 1.5) at q = 0.05 sits near 0.531;
        pinned against an independent bisection on h_bar below and the grid
        argmax in the acceptance suite."""
        p = InjectionProblem(scale05, 0.2, 1.5, 0.25)
        rep = optimize(p)
        assert rep.threshold == pytest.approx(0.5314596579, abs=1e-6)

    def test_matches_independent_bisection(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 0.25)
        rep = optimize(p)
        lo, hi = 0.0, 5.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if h(p, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        # agreement is bounded by the optimizer's own root tolerance (1e-8)
        assert rep.threshold == pytest.approx(0.5 * (lo + hi), abs=2e-8)

    def test_boundary_optimum_for_cheap_injections(self, scale05):
        """Injection cost barely above par makes immediate taxation optimal:
        h_bar(0) < 0 and the report flags the boundary."""
        p = InjectionProblem(scale05, 0.2, 1.1, 1.0)
        assert h(p, 0.0) < 0.0
        rep = optimize(p)
        assert rep.boundary_case
        assert rep.threshold == 0.0
        assert rep.root_diag is None

    def test_threshold_increases_with_cost_factor(self, scale05):
        a_15 = optimize(InjectionProblem(scale05, 0.2, 1.5, 1.0))
        a_20 = optimize(InjectionProblem(scale05, 0.2, 2.0, 1.0))
        assert a_20.threshold > a_15.threshold > 0.0

    def test_optimum_beats_neighbours(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 0.25)
        rep = optimize(p)
        best = phi(p, 0.25, rep.threshold)
        for a in (0.3, 0.45, 0.6, 0.9, 1.5):
            assert best >= phi(p, 0.25, a) - 1e-12
