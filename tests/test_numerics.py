"""Tests for the quadrature and root-finding kernels."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import simpson

import taxdelay.problem as problem
from taxdelay import numerics
from taxdelay.errors import BracketFailure
from taxdelay.model import new_model
from taxdelay.numerics import (
    RootReport,
    find_root_decreasing_sign,
    integrate_finite,
    integrate_tail,
    newton_decreasing,
)
from taxdelay.problem import ROOT_TOL, InjectionProblem, TerminalProblem, h, optimize, phi
from taxdelay.scale import ScaleSet, Tails
from test_cli import solved_draws


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
        rep = find_root_decreasing_sign(lambda x: 1.0 - x, 1.0, 1e-10)
        assert rep.root == pytest.approx(1.0, abs=1e-9)
        assert rep.bracket[0] <= rep.root <= rep.bracket[1]
        assert abs(rep.residual) < 1e-9
        assert rep.iterations >= 0

    def test_exact_zero_at_bracket_end_is_the_root(self):
        """h(hi) == 0 exactly ends the search at hi without a solver call."""
        rep = find_root_decreasing_sign(lambda x: 2.0 - x, 2.0, 1e-10)
        assert rep == RootReport(root=2.0, residual=0.0, bracket=(1.0, 2.0),
                                 iterations=0)

    def test_exponential(self):
        rep = find_root_decreasing_sign(lambda x: math.exp(-x) - 0.5, 0.5, 1e-12)
        assert rep.root == pytest.approx(math.log(2.0), abs=1e-10)

    def test_deterministic_repeatable(self):
        def h(x: float) -> float:
            return math.cos(x) - 0.3 * x

        a = find_root_decreasing_sign(h, h(0.0), 1e-12)
        b = find_root_decreasing_sign(h, h(0.0), 1e-12)
        assert isinstance(a, RootReport)
        assert a == b  # bit-identical fields

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketFailure):
            find_root_decreasing_sign(lambda x: 1.0 + x, 1.0, 1e-10, hi_cap=1e3)

    @pytest.mark.parametrize("h, h0, message", [
        (lambda x: 1.0, math.nan, "h(0) = nan is not strictly positive"),
        (lambda x: 1.0, 0.0, "h(0) = 0.0 is not strictly positive"),
        (lambda x: -math.inf, 1.0, "h(1) is not finite"),
        # Brent's first iterate lands where h is NaN
        (lambda x: 1.5 - x if x in (0.0, 1.0, 2.0) else math.nan, 1.5, "f(1.5) is NaN"),
    ], ids=["nan-at-zero", "zero-at-zero", "infinite-bracket-end", "nan-inside-brent"])
    def test_failure_exits_raise(self, h, h0, message):
        with pytest.raises(BracketFailure, match=re.escape(message)):
            find_root_decreasing_sign(h, h0, 1e-10)

    def test_threshold_root_matches_fine_grid_argmax(self, scale05):
        """The optimality root coincides with the argmax of the objective
        on a 1e-4-spaced local grid, to within 1e-3."""
        p = TerminalProblem(scale=scale05, ell=0.1, s_terminal=-5.0, x0=0.25)
        rep = optimize(p)
        assert not rep.boundary_case
        bstar = rep.threshold
        grid = np.arange(max(0.0, bstar - 0.05), bstar + 0.05, 1e-4)
        vals = [phi(p, 0.25, float(b)) for b in grid]
        best = float(grid[int(np.argmax(vals))])
        assert abs(bstar - best) < 1e-3

    def test_residual_small_at_returned_root(self, scale05):
        p = TerminalProblem(scale=scale05, ell=0.1, s_terminal=-5.0, x0=1.0)
        rep = optimize(p)
        h0 = h(p, 0.0)
        assert abs(h(p, rep.threshold)) < 1e-8 * max(1.0, abs(h0))


# ---------------------------------------------------------------------------
# The Brent port against scipy's brentq, which it replaces
# ---------------------------------------------------------------------------


def scipy_brentq(f, a: float, b: float, xtol: float):
    """scipy.optimize.brentq with the port's defaults: (root, iterations)."""
    root, info = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=4.0 * math.ulp(1.0),
                                       maxiter=200, full_output=True, disp=False)
    assert info.converged
    return root, info.iterations


class TestBrentPort:
    @pytest.mark.parametrize("f, a, b, xtol", [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
        (lambda x: math.cos(x) - x, 0.0, 1.0, ROOT_TOL),
        (lambda x: math.exp(-x) - 0.5, 0.0, 4.0, ROOT_TOL),
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1e-10),
        (lambda x: (x - 1e-3) ** 3, 0.0, 1.0, 1e-14),  # triple root: bisection steps
        (lambda x: 1.0 / x - 3.0, 0.1, 8.0, ROOT_TOL),
        (lambda x: 1.0 - x * x, 0.0, 4.0, 5e-324),  # the relative tolerance decides
    ], ids=["cubic", "cosine", "exponential", "steep", "triple_root", "reciprocal",
            "relative_tol"])
    def test_closed_forms_match_scipy_bit_for_bit(self, f, a, b, xtol):
        root, f_root, iterations = numerics.brentq(f, a, b, f(a), f(b), xtol)
        want, want_iterations = scipy_brentq(f, a, b, xtol)
        assert root.hex() == want.hex()
        assert iterations == want_iterations
        assert f_root == f(root)

    def test_same_signs_rejected(self):
        with pytest.raises(BracketFailure):
            numerics.brentq(lambda x: x, 1.0, 2.0, 1.0, 2.0, 1e-8)

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_fuzz_box_roots_match_scipy_bit_for_bit(self, mode):
        """Every interior root of h on the fuzz box: same root, same
        iteration count as scipy on the same bracket, and h(root) as the
        residual."""
        checked = 0
        for p in solved_draws(mode):
            diag = problem.optimize(p).root_diag
            if diag is None or diag.iterations == 0:
                continue
            want, want_iterations = scipy_brentq(lambda x: h(p, x), *diag.bracket, ROOT_TOL)
            assert (diag.root.hex(), diag.iterations) == (want.hex(), want_iterations)
            assert diag.residual == h(p, diag.root)
            checked += 1
        assert checked >= 100


class TestNewtonDecreasing:
    # (f, f', a, b, tol, the root's multiplicity m): the Brent port's closed
    # forms, negated where they rise (its relative-tolerance case has no
    # counterpart: this search has an absolute tolerance only)
    @pytest.mark.parametrize("f, df, a, b, tol, m", [
        (lambda x: -(x ** 3 - 2.0 * x - 5.0), lambda x: -(3.0 * x * x - 2.0),
         2.0, 3.0, 1e-12, 1),
        (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, 0.0, 1.0, ROOT_TOL, 1),
        (lambda x: math.exp(-x) - 0.5, lambda x: -math.exp(-x), 0.0, 4.0, ROOT_TOL, 1),
        (lambda x: -math.tanh(50.0 * (x - 0.3)),
         lambda x: -50.0 / math.cosh(50.0 * (x - 0.3)) ** 2, 0.0, 1.0, 1e-10, 1),
        (lambda x: -(x - 1e-3) ** 3, lambda x: -3.0 * (x - 1e-3) ** 2, 0.0, 1.0, 1e-14, 3),
        (lambda x: 1.0 / x - 3.0, lambda x: -1.0 / (x * x), 0.1, 8.0, ROOT_TOL, 1),
    ], ids=["cubic", "cosine", "exponential", "steep", "triple_root", "reciprocal"])
    def test_closed_forms_match_scipy(self, f, df, a, b, tol, m):
        """From the bracket's lower end: the root within tol of scipy's
        brentq on [a, b] (m tol at a root of multiplicity m, where the
        Newton step f/f' is 1/m of the distance to it), every evaluation
        strictly inside the bracket, and the residual f at the returned
        root."""
        points = []

        def fdf(x):
            points.append(x)
            return f(x), df(x)
        report = newton_decreasing(fdf, a, f(a), df(a), a, b, tol, b)
        want, _ = scipy_brentq(f, a, b, tol)
        assert abs(report.root - want) <= m * tol
        assert report.residual == f(report.root)
        assert report.iterations == len(points)
        assert all(a < x < b for x in points)

    def test_bisects_where_a_step_would_leave_the_bracket(self):
        """The steep tanh's slope at 0 is 2e-11: its Newton step lands near
        5e10, so the first iterate is the bracket's midpoint."""
        points = []

        def fdf(x):
            points.append(x)
            return -math.tanh(50.0 * (x - 0.3)), -50.0 / math.cosh(50.0 * (x - 0.3)) ** 2
        report = newton_decreasing(fdf, 0.0, *fdf(0.0), 0.0, 1.0, 1e-10, 1.0)
        assert points[1] == 0.5
        assert abs(report.root - 0.3) <= 1e-10

    def test_bisects_where_the_slope_is_not_negative(self):
        """1 + x - x^2 rises up to x = 1/2: from 0.25 the first iterate is
        the midpoint of (0.25, 3)."""
        points = []

        def fdf(x):
            points.append(x)
            return 1.0 + x - x * x, 1.0 - 2.0 * x
        report = newton_decreasing(fdf, 0.25, *fdf(0.25), 0.25, 3.0, ROOT_TOL, 3.0)
        assert points[1] == 1.625
        assert abs(report.root - (1.0 + math.sqrt(5.0)) / 2.0) <= ROOT_TOL

    def test_gives_up(self):
        """None, and no evaluation further, past the cap, where it must
        bisect with no upper end known, at a non-finite value, or after 100
        evaluations."""
        points = []

        def fdf(x):
            points.append(x)
            return 100.0 - x, -1.0
        assert newton_decreasing(fdf, 1.0, 99.0, -1.0, 1.0, math.inf, ROOT_TOL, 50.0) is None
        assert newton_decreasing(fdf, 1.0, 99.0, 1.0, 1.0, math.inf, ROOT_TOL, 1e3) is None
        assert points == []
        assert newton_decreasing(lambda x: (math.nan, -1.0), 1.0, 99.0, -1.0, 1.0, math.inf,
                                 ROOT_TOL, 1e3) is None

        def lying(x):  # the slope is never negative, so only bisection steps
            points.append(x)
            return 1.0 - x, 1.0
        assert newton_decreasing(lying, 0.0, 1.0, 1.0, 0.0, 1e30, ROOT_TOL, 1e30) is None
        assert len(points) == 100


class TestSlope:
    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_slope_matches_central_differences(self, mode):
        """h_and_slope's h is h bit for bit, and its h' is within 1e-6 of
        central differences of h, step 1e-6 max(1, x), at x = 0 (centred at
        the step), 0.5 and 3.  Where h's terms are large against h', the
        difference carries their rounding: 1e-13 of the largest term,
        the tails' accuracy, over the step."""
        checked = 0
        for p in solved_draws(mode):
            e, w = p.exponent, p.weight
            for x in (0.0, 0.5, 3.0):
                step = 1e-6 * max(1.0, x)
                x = max(x, step)
                hx, slope = problem.h_and_slope(p, x)
                assert hx.hex() == h(p, x).hex()
                if abs(slope) < 1e-6:
                    continue
                difference = (h(p, x + step) - h(p, x - step)) / (2.0 * step)
                t, t_k, v, k = p.tails(x)
                terms = max(abs(p.ell * e * t), abs(w * e * t_k), abs(v), abs(v * w * k))
                assert abs(slope - difference) <= 1e-6 * abs(slope) + 1e-13 * terms / step
                checked += 1
        assert checked >= 750

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_slope_at_a_root(self, mode):
        """Where h vanishes, h' = V (theta1 + theta2 - theta1 theta2 V (1 + w K))."""
        checked = 0
        for p in solved_draws(mode):
            report = problem.optimize(p)
            if report.boundary_case:
                continue
            b, f, w = report.threshold, p.family, p.weight
            hb, slope = problem.h_and_slope(p, b)
            v, k = f.over_slope(b), f.kernel(b)
            t1, t2 = f.theta1, f.theta2
            rest = v * (t1 + t2 - t1 * t2 * v * (1.0 + w * k))
            size = abs(v) * (abs(t1 + t2) + abs(t1 * t2 * v) * (1.0 + abs(w * k)))
            assert abs(slope - rest) <= p.exponent * abs(hb) / v + 1e-13 * size
            checked += 1
        assert checked >= 100


class TestOptimizeEvaluations:
    @pytest.mark.parametrize("mode, param", [("terminal", -5.0), ("injection", 1.5),
                                             ("terminal", 5.0)])
    def test_h_evaluated_once_per_point(self, monkeypatch, scale05, mode, param):
        """optimize evaluates h at no point twice: h(0), then each upper
        bracket end tried (1, 2, 4, ...), then one point per Brent iteration
        after the first; a boundary case evaluates only h(0).  Each h point
        is one call of the problem's tails."""
        p = TerminalProblem(scale05, 0.1, param, 1.0) if mode == "terminal" \
            else InjectionProblem(scale05, 0.2, param, 1.0)
        points, tail_calls = [], []

        def counted(p, x):
            points.append(x)
            return h(p, x)

        def counted_tails(tails, x, _fn=Tails.__call__):
            tail_calls.append(x)
            return _fn(tails, x)

        monkeypatch.setattr(Tails, "__call__", counted_tails)
        monkeypatch.setattr(problem, "h", counted)
        report = problem.optimize(p)
        assert len(set(points)) == len(points)
        assert len(tail_calls) == len(points)
        if report.boundary_case:
            assert points == [0.0]
            return
        diag = report.root_diag
        upper_ends = int(math.log2(diag.bracket[1])) + 1
        assert diag.iterations > 1
        assert len(points) == 1 + upper_ends + diag.iterations - 1


class TestSolvePinned:
    # (mode, c, lam, mu, q, ell, S or varphi) at x0 = 1: threshold, value and
    # h(threshold) (hex) and boundary_case, recorded before h was evaluated in
    # one pass.  Interior and boundary cases in both modes, q = 0.002, the
    # continued fraction (ell = 0.99999), an injection root bracketed from
    # h(0) in the incomplete-beta branch (rho(0) = -11) and a flat root
    # under negative loading (a* = 28,656).
    PINNED = {
        ("terminal", 1.2, 1.0, 1.0, 0.05, 0.1, -5.0): (
            "0x1.0bb326bb6e5c9p-1", "-0x1.39cd0312e2fa8p+1", "-0x1.4ffe400000000p-31", False),
        ("terminal", 1.2, 1.0, 1.0, 0.05, 0.1, 5.0): (
            "0x0.0p+0", "0x1.be10e027accabp+2", "-0x1.d93896db1f4e8p+0", True),
        ("terminal", 1.2, 1.0, 1.0, 0.002, 0.3, -2.0): (
            "0x1.435005ff4a71fp+3", "0x1.d8d60c188646fp+2", "-0x1.984a000000000p-32", False),
        ("terminal", 3.5, 7.0, 9.0, 0.5, 0.99999, 1.0): (
            "0x1.86ab22c1cee0cp-1", "0x1.649fb7a85f71dp+2", "0x1.f200000000000p-42", False),
        ("injection", 1.2, 1.0, 1.0, 0.05, 0.2, 1.5): (
            "0x1.101b7af3bdaa0p-1", "-0x1.e6ce3f77b7ed3p+0", "0x1.0d05500000000p-29", False),
        ("injection", 1.2, 1.0, 1.0, 0.05, 0.2, 1.2): (
            "0x0.0p+0", "0x1.e4a41ec8de0a6p-1", "-0x1.fe67ffd7b71abp+0", True),
        ("injection", 0.10133527137802961, 4.038178960528116, 22.580989267116866,
         0.0763649328742277, 0.8661331704555871, 2.3741544217574013): (
            "0x1.ebf07ad5ed7efp-1", "-0x1.06e2d53bbc818p+0", "0x1.1886000000000p-37", False),
        ("injection", 3.6379507655563637, 18.654283526117023, 0.17802695179990638,
         0.0023620664405485732, 0.14311143652922304, 1.9527541822345937): (
            "0x1.bfbe7ba186ae2p+14", "-0x1.46a0e691f9c01p+16", "0x1.136d000000000p-21", False),
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=str)
    def test_solve_pinned(self, case):
        """A change to how h is evaluated must keep every solve to the bit."""
        mode, c, lam, mu, q, ell, param = case
        scale = ScaleSet(new_model(c, lam, mu), q)
        p = TerminalProblem(scale, ell, param, 1.0) if mode == "terminal" \
            else InjectionProblem(scale, ell, param, 1.0)
        report = problem.optimize(p)
        assert (report.threshold.hex(), report.value.hex(), h(p, report.threshold).hex(),
                report.boundary_case) == self.PINNED[case]
