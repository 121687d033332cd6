"""Tests for the quadrature and root-finding kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from taxdelay.errors import BracketFailure
from taxdelay.model import new_model
from taxdelay.numerics import (
    RootReport,
    find_root_decreasing_sign,
    integrate_finite,
    integrate_tail,
)
from taxdelay.scale import ScaleSet
from taxdelay.tax_terminal import TerminalProblem, h_terminal, optimize_terminal, phi_value


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class TestIntegrateTail:
    def test_unit_exponential(self):
        got = integrate_tail(lambda z: math.exp(-z), 0.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_shifted_exponential(self):
        got = integrate_tail(lambda z: math.exp(-2.0 * z), 1.0, 2.0)
        assert got == pytest.approx(math.exp(-2.0) / 2.0, abs=1e-10)

    def test_powered_scale_ratio_against_simpson(self):
        """The decaying ratio (W(0)/W(z))^{1/(1-ell)} integrated from 0
        must match a brute-force fixed-grid Simpson rule with 1e6 points."""
        s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
        e = 1.0 / (1.0 - 0.1)

        def f(z: float) -> float:
            return math.exp(e * (s.W.log(0.0) - s.W.log(z)))

        decay = e * s.theta1
        got = integrate_tail(f, 0.0, decay)

        # brute-force oracle: rebuild W from the roots with numpy and apply
        # a plain Simpson rule on a uniform 1e6-point grid
        hi = 60.0 / decay
        grid = np.linspace(0.0, hi, 1_000_001)
        r = s.roots
        c = s.model.c
        w_grid = (r.a1 * np.exp(r.theta1 * grid) - r.a2 * np.exp(r.theta2 * grid)) / c
        oracle = simpson((w_grid[0] / w_grid) ** e, x=grid)
        assert got == pytest.approx(oracle, abs=1e-8)


class TestIntegrateFinite:
    def test_polynomial(self):
        got = integrate_finite(lambda z: z * z, 0.0, 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_interval_is_zero(self):
        assert integrate_finite(lambda z: 1.0, 2.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


class TestFindRoot:
    def test_linear(self):
        rep = find_root_decreasing_sign(lambda x: 1.0 - x, 0.0, 1e-10)
        assert rep.root == pytest.approx(1.0, abs=1e-9)
        assert rep.bracket[0] <= rep.root <= rep.bracket[1]
        assert abs(rep.residual) < 1e-9
        assert rep.iterations >= 0

    def test_exact_zero_at_bracket_end_is_the_root(self):
        """h(hi) == 0 exactly ends the search at hi without a solver call."""
        rep = find_root_decreasing_sign(lambda x: 2.0 - x, 0.0, 1e-10)
        assert rep == RootReport(root=2.0, residual=0.0, bracket=(1.0, 2.0),
                                 iterations=0)

    def test_exponential(self):
        rep = find_root_decreasing_sign(lambda x: math.exp(-x) - 0.5, 0.0, 1e-12)
        assert rep.root == pytest.approx(math.log(2.0), abs=1e-10)

    def test_deterministic_repeatable(self):
        def h(x: float) -> float:
            return math.cos(x) - 0.3 * x

        a = find_root_decreasing_sign(h, 0.0, 1e-12)
        b = find_root_decreasing_sign(h, 0.0, 1e-12)
        assert isinstance(a, RootReport)
        assert a == b  # bit-identical fields

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketFailure):
            find_root_decreasing_sign(lambda x: 1.0 + x, 0.0, 1e-10, hi_cap=1e3)

    def test_threshold_root_matches_fine_grid_argmax(self, scale05):
        """The optimality root coincides with the argmax of the objective
        on a 1e-4-spaced local grid, to within 1e-3."""
        p = TerminalProblem(scale=scale05, ell=0.1, s_terminal=-5.0, x0=0.25)
        rep = optimize_terminal(p)
        assert not rep.boundary_case
        bstar = rep.threshold
        grid = np.arange(max(0.0, bstar - 0.05), bstar + 0.05, 1e-4)
        vals = [phi_value(p, 0.25, float(b)) for b in grid]
        best = float(grid[int(np.argmax(vals))])
        assert abs(bstar - best) < 1e-3

    def test_residual_small_at_returned_root(self, scale05):
        p = TerminalProblem(scale=scale05, ell=0.1, s_terminal=-5.0, x0=1.0)
        rep = optimize_terminal(p)
        h0 = h_terminal(p, 0.0)
        assert abs(h_terminal(p, rep.threshold)) < 1e-8 * max(1.0, abs(h0))
