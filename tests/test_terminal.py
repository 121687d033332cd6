"""Tests for the terminal-value problem: delayed taxation with a reward or
penalty S collected at ruin."""

from __future__ import annotations

import math

import numpy as np
import pytest
from quad_oracle import expected_discounted_penalty
from scipy.integrate import quad

from taxdelay.errors import DomainError, InvalidParameter
from taxdelay.model import new_model
from taxdelay.scale import ScaleSet
from taxdelay.tax_terminal import (
    TerminalProblem,
    expected_discounted_deficit,
    h_terminal,
    optimize_terminal,
    phi_partial_b,
    phi_value,
    psi,
    ruin_time_laplace_taxed,
    two_sided_exit_taxed,
    upsilon,
)


@pytest.fixture(scope="module")
def untaxed(scale05):
    return TerminalProblem(scale05, 0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def taxed(scale05):
    return TerminalProblem(scale05, 0.1, -5.0, 1.0)


def naive_ruin_kernel(s: ScaleSet, z: float) -> float:
    """W'Z/W - qW assembled from the plain evaluators (well-conditioned only
    for moderate z; used as an independent oracle integrand)."""
    return s.W.slope(z) * s.Z(z) / s.W(z) - s.q * s.W(z)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestTerminalProblem:
    def test_exponent(self, scale05):
        p = TerminalProblem(scale05, 0.25, 0.0, 1.0)
        assert p.exponent == pytest.approx(4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("ell", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_bad_tax_rate(self, scale05, ell):
        with pytest.raises(InvalidParameter):
            TerminalProblem(scale05, ell, 1.0, 1.0)

    @pytest.mark.parametrize("bad_s", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_terminal_value(self, scale05, bad_s):
        with pytest.raises(InvalidParameter):
            TerminalProblem(scale05, 0.1, bad_s, 1.0)

    def test_rejects_negative_start(self, scale05):
        with pytest.raises(InvalidParameter):
            TerminalProblem(scale05, 0.1, 1.0, -0.5)

    def test_terminal_value_any_sign_allowed(self, scale05):
        TerminalProblem(scale05, 0.1, -100.0, 0.0)
        TerminalProblem(scale05, 0.1, 100.0, 0.0)


# ---------------------------------------------------------------------------
# Two-sided exit factor
# ---------------------------------------------------------------------------


class TestExitFactor:
    def test_matches_naive_power(self, taxed, scale05):
        e = taxed.exponent
        for (x, b) in ((0.5, 2.0), (1.0, 4.0), (3.0, 3.0)):
            naive = (scale05.W(x) / scale05.W(b)) ** e
            assert two_sided_exit_taxed(taxed, x, b) == pytest.approx(naive,
                                                                      rel=1e-12)

    def test_one_at_the_barrier(self, taxed):
        assert two_sided_exit_taxed(taxed, 2.0, 2.0) == pytest.approx(1.0,
                                                                      rel=1e-15)

    def test_increasing_in_start_level(self, taxed):
        vals = [two_sided_exit_taxed(taxed, x, 5.0)
                for x in np.linspace(0.1, 5.0, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self, taxed):
        with pytest.raises(DomainError):
            two_sided_exit_taxed(taxed, 0.0, 1.0)
        with pytest.raises(DomainError):
            two_sided_exit_taxed(taxed, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Ruin functionals: closed forms at ell = 0, quadrature oracle at ell > 0
# ---------------------------------------------------------------------------


class TestRuinFunctionals:
    def test_untaxed_corridor_closed_form(self, untaxed, scale05):
        """At ell = 0 the discounted ruin factor before reaching b is
        Z(x) - W(x) Z(b)/W(b)."""
        for (x, b) in ((0.5, 2.0), (1.0, 3.0), (2.0, 2.5)):
            expected = scale05.Z(x) - scale05.W(x) * scale05.Z(b) / scale05.W(b)
            got = ruin_time_laplace_taxed(untaxed, x, b)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_untaxed_no_barrier_closed_form(self, untaxed, scale05):
        """With b = inf the discounted ruin factor is Z(x) - (q/theta1) W(x)."""
        for x in (0.3, 1.0, 4.0):
            expected = scale05.Z(x) - (0.05 / scale05.theta1) * scale05.W(x)
            got = ruin_time_laplace_taxed(untaxed, x, math.inf)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_taxed_corridor_quadrature_oracle(self, taxed, scale05):
        e = taxed.exponent
        x, b = 0.7, 3.0
        oracle, _ = quad(
            lambda z: (scale05.W(x) / scale05.W(z)) ** e
            * naive_ruin_kernel(scale05, z),
            x, b, epsabs=1e-13, epsrel=1e-12,
        )
        got = ruin_time_laplace_taxed(taxed, x, b)
        assert got == pytest.approx(e * oracle, rel=1e-9)

    def test_taxed_no_barrier_quadrature_oracle(self, taxed, scale05):
        e = taxed.exponent
        x = 0.7
        rate = (e - 1.0) * scale05.theta1 - scale05.theta2
        hi = x + 45.0 / rate
        oracle, _ = quad(
            lambda z: (scale05.W(x) / scale05.W(z)) ** e
            * naive_ruin_kernel(scale05, z),
            x, hi, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        got = ruin_time_laplace_taxed(taxed, x, math.inf)
        assert got == pytest.approx(e * oracle, rel=1e-8)

    def test_penalty_with_unit_weight_equals_ruin_factor(self, taxed):
        got = expected_discounted_penalty(taxed, 0.7, 3.0, lambda z: 1.0)
        assert got == pytest.approx(ruin_time_laplace_taxed(taxed, 0.7, 3.0),
                                    rel=1e-10)

    def test_deficit_is_penalty_over_mu(self, base_model):
        """For exponential claims the conditional overshoot is 1/mu
        regardless of the running maximum, so the deficit functional is the
        plain ruin factor divided by mu (checked with mu != 1)."""
        s = ScaleSet(new_model(1.2, 1.0, 2.0), 0.05)
        p = TerminalProblem(s, 0.15, -1.0, 1.0)
        deficit = expected_discounted_deficit(p, 0.6, 2.5)
        plain = expected_discounted_penalty(p, 0.6, 2.5, lambda z: 1.0)
        assert deficit == pytest.approx(plain / 2.0, rel=1e-10)

    def test_domain_errors(self, taxed):
        with pytest.raises(DomainError):
            ruin_time_laplace_taxed(taxed, -1.0, 2.0)
        with pytest.raises(DomainError):
            expected_discounted_penalty(taxed, 1.0, math.inf, lambda z: 1.0)
        with pytest.raises(DomainError):
            expected_discounted_deficit(taxed, 2.0, 1.0)


# ---------------------------------------------------------------------------
# psi, upsilon, V and the optimality function h
# ---------------------------------------------------------------------------


class TestPsiUpsilon:
    def test_psi_untaxed_is_no_barrier_ruin_factor(self, untaxed, scale05):
        """With ell = 0 taxing from b changes nothing, so psi(b) is S times
        the discounted ruin factor started at b."""
        for b in (0.0, 1.0, 5.0):
            expected = scale05.Z(b) - (0.05 / scale05.theta1) * scale05.W(b)
            assert psi(untaxed, b) == pytest.approx(expected, rel=1e-9)

    def test_psi_affine_in_terminal_value(self, scale05):
        ell, x0 = 0.2, 1.0
        base = psi(TerminalProblem(scale05, ell, 0.0, x0), 2.0)
        slope = psi(TerminalProblem(scale05, ell, 1.0, x0), 2.0) - base
        for s_val in (-7.0, -1.0, 0.5, 4.0):
            got = psi(TerminalProblem(scale05, ell, s_val, x0), 2.0)
            assert got == pytest.approx(base + s_val * slope, rel=1e-11)

    def test_upsilon_identity(self, taxed, scale05):
        for b in (0.0, 0.8, 3.0):
            assert upsilon(taxed, b) == pytest.approx(
                psi(taxed, b) - taxed.s_terminal * scale05.Z(b), rel=1e-11)

    def test_cap_v_right_limit_and_growth(self, taxed):
        assert taxed.family.over_slope(0.0) == pytest.approx(1.2 / (0.05 + 1.0), rel=1e-12)
        vals = [taxed.family.over_slope(b) for b in np.linspace(0.0, 20.0, 60)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        far = 40.0 / 0.15098
        assert taxed.family.over_slope(far) == pytest.approx(1.0 / 0.15098, abs=1e-3)


class TestHTerminal:
    def test_matches_naive_form_at_moderate_levels(self, taxed, scale05):
        """h(b) = upsilon(b) - V(b)(1 - S q W(b)); the grouped evaluation
        must agree with this naive assembly where it is well-conditioned."""
        for b in (0.0, 0.5, 2.0, 6.0):
            naive = upsilon(taxed, b) - scale05.W.over_slope(b) * (
                1.0 - taxed.s_terminal * 0.05 * scale05.W(b))
            assert h_terminal(taxed, b) == pytest.approx(naive, rel=1e-9)

    def test_far_limit(self, taxed, scale05):
        far = 40.0 / scale05.theta1
        limit = (taxed.ell - 1.0) / scale05.theta1
        assert h_terminal(taxed, far) == pytest.approx(limit, abs=1e-10)

    def test_single_crossing_moderate_discount(self, taxed):
        """h changes sign exactly once on a fine grid (q = 0.05)."""
        grid = np.arange(0.0, 40.0, 0.01)
        signs = np.sign([h_terminal(taxed, float(b)) for b in grid])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert signs[0] > 0 and signs[-1] < 0

    def test_single_crossing_small_discount(self, scale002):
        """Same single-crossing shape at q = 0.002, where the crossing sits
        far out and the tail approach to the negative limit is slow."""
        p = TerminalProblem(scale002, 0.1, -5.0, 1.0)
        grid = np.concatenate([
            np.arange(0.0, 30.0, 0.01),
            np.arange(30.0, 60.0 / scale002.theta1, 2.0),
        ])
        signs = np.sign([h_terminal(p, float(b)) for b in grid])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert signs[0] > 0 and signs[-1] < 0


# ---------------------------------------------------------------------------
# The objective phi and its derivative in the threshold
# ---------------------------------------------------------------------------


class TestPhiValue:
    def test_at_threshold_equals_psi(self, taxed):
        """phi(b; b) collapses to psi(b): taxation starts immediately."""
        for b in (0.5, 1.5, 4.0):
            assert phi_value(taxed, b, b) == pytest.approx(psi(taxed, b),
                                                           rel=1e-10)

    def test_threshold_lift_below_start(self, taxed):
        assert phi_value(taxed, 2.0, 1.0) == phi_value(taxed, 2.0, 2.0)

    def test_untaxed_objective_ignores_threshold(self, untaxed, scale05):
        expected = scale05.Z(1.0) - (0.05 / scale05.theta1) * scale05.W(1.0)
        for b in (1.0, 2.0, 7.0):
            assert phi_value(untaxed, 1.0, b) == pytest.approx(expected,
                                                               rel=1e-9)

    def test_partial_matches_finite_difference(self, taxed):
        for (x, b) in ((0.5, 1.5), (1.0, 4.0)):
            step = 3e-4
            fd = (phi_value(taxed, x, b + step)
                  - phi_value(taxed, x, b - step)) / (2.0 * step)
            assert phi_partial_b(taxed, x, b) == pytest.approx(fd, rel=1e-6)

    def test_partial_sign_follows_h(self, taxed):
        rep = optimize_terminal(taxed)
        bstar = rep.threshold
        assert phi_partial_b(taxed, 0.2, 0.5 * bstar) > 0.0
        assert phi_partial_b(taxed, 0.2, 2.0 * bstar) < 0.0

    def test_partial_domain(self, taxed):
        with pytest.raises(DomainError):
            phi_partial_b(taxed, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Optimizer reports
# ---------------------------------------------------------------------------


class TestOptimizeTerminal:
    def test_interior_optimum(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 0.25)
        rep = optimize_terminal(p)
        assert not rep.boundary_case
        assert rep.root_diag is not None
        assert rep.threshold == rep.root_diag.root
        assert abs(h_terminal(p, rep.threshold)) < 1e-7
        assert rep.value == pytest.approx(phi_value(p, 0.25, rep.threshold),
                                          rel=1e-8)

    def test_interior_threshold_anchor(self, scale05):
        """b* for (ell, S) = (0.1, -5) at q = 0.05 sits near 0.523; pinned
        against an independent bisection on h in tests below and the grid
        argmax in the acceptance suite."""
        p = TerminalProblem(scale05, 0.1, -5.0, 0.25)
        rep = optimize_terminal(p)
        assert rep.threshold == pytest.approx(0.5228511909, abs=1e-6)

    def test_matches_independent_bisection(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 0.25)
        rep = optimize_terminal(p)
        lo, hi = 0.0, 5.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if h_terminal(p, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        # agreement is bounded by the optimizer's own root tolerance (1e-8)
        assert rep.threshold == pytest.approx(0.5 * (lo + hi), abs=2e-8)

    def test_boundary_optimum_for_positive_terminal_value(self, scale05):
        """A large enough ruin reward makes immediate taxation optimal:
        h(0) < 0 and the report flags the boundary."""
        p = TerminalProblem(scale05, 0.3, 3.0, 1.0)
        assert h_terminal(p, 0.0) < 0.0
        rep = optimize_terminal(p)
        assert rep.boundary_case
        assert rep.threshold == 0.0
        assert rep.root_diag is None

    def test_optimum_beats_neighbours(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 0.25)
        rep = optimize_terminal(p)
        best = phi_value(p, 0.25, rep.threshold)
        for b in (0.3, 0.45, 0.6, 0.9, 1.5):
            assert best >= phi_value(p, 0.25, b) - 1e-12
