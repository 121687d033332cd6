"""Tests for the reference tables, parameter sweeps and existence grids."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from paper_functionals import upsilon
import taxdelay.problem as problem
import taxdelay.tables as tables
from taxdelay.cli import main
from taxdelay.errors import BracketFailure, InvalidParameter, ToleranceNotMet
from taxdelay.model import new_model
from taxdelay.problem import (ROOT_TOL, InjectionProblem, TerminalProblem, h, optimal_value,
                              optimize)
from taxdelay.scale import ScaleSet, Tails
from taxdelay.tables import (
    BASE_MODEL,
    SWEEPABLE,
    TABLE_ELLS,
    TABLES,
    TableRow,
    existence_affine,
    existence_grid,
    existence_threshold,
    grid_values,
    sweep_rows,
    table_rows,
)


# ---------------------------------------------------------------------------
# Definitions and lookups
# ---------------------------------------------------------------------------


class TestTableDefinition:
    def test_builtin_ids(self):
        assert TABLES == {1: (TerminalProblem, 0.05), 2: (TerminalProblem, 0.002),
                          3: (InjectionProblem, 0.05)}
        assert TABLE_ELLS == (0.1, 0.2, 0.3)

    @pytest.mark.parametrize("bad", [0, 4, -1, "one", None, True, 1.0])
    def test_unknown_id_raises(self, bad):
        with pytest.raises(InvalidParameter, match="unknown table id"):
            table_rows(bad)


# ---------------------------------------------------------------------------
# Affine coefficient extraction
# ---------------------------------------------------------------------------


class TestAffineExtraction:
    def test_terminal_affinity_is_exact(self, scale05):
        intercept, slope, _, _ = existence_affine(TerminalProblem, scale05, 0.1)
        for s_val in (-6.0, -1.5, 2.0):
            p = TerminalProblem(scale05, 0.1, s_val, 1.0)
            assert upsilon(p, 0.0) == pytest.approx(intercept + slope * s_val,
                                                    rel=1e-10)

    def test_terminal_rhs_closed_form(self, scale05):
        """V(0) = c/(q + lam) and the S coefficient is -q/(q + lam)."""
        _, _, rhs_i, rhs_s = existence_affine(TerminalProblem, scale05, 0.1)
        assert rhs_i == pytest.approx(1.2 / 1.05, rel=1e-12)
        assert rhs_s == pytest.approx(-0.05 / 1.05, rel=1e-12)

    def test_injection_affinity_is_exact(self, scale05):
        intercept, slope, _, _ = existence_affine(InjectionProblem, scale05, 0.2)
        for vp in (1.1, 2.0, 3.5):
            p = InjectionProblem(scale05, 0.2, vp, 1.0)
            assert upsilon(p, 0.0) == pytest.approx(intercept + slope * vp,
                                                    rel=1e-9)

    def test_injection_rhs_closed_form(self, scale05):
        """Vbar(0) = c/q = 24 and the varphi coefficient collapses to -c/q
        for these parameters."""
        _, _, rhs_i, rhs_s = existence_affine(InjectionProblem, scale05, 0.2)
        assert rhs_i == pytest.approx(24.0, rel=1e-12)
        assert rhs_s == pytest.approx(-24.0, rel=1e-12)

    @pytest.mark.parametrize("problem, params", [
        (TerminalProblem, (-6.0, -1.5, 2.0)), (InjectionProblem, (1.1, 2.0, 3.5))])
    @pytest.mark.parametrize("q", [0.002, 0.05])
    def test_sides_differ_by_h_at_zero(self, problem, params, q):
        """The left side less the right side is the optimality function at
        zero, to rounding in the size of the four terms."""
        scale = ScaleSet(BASE_MODEL, q)
        for ell in TABLE_ELLS:
            i, sl, ri, rs = existence_affine(problem, scale, ell)
            for param in params:
                terms = (i, sl * param, ri, rs * param)
                want = h(problem(scale, ell, param, 1.0), 0.0)
                got = (i + sl * param) - (ri + rs * param)
                assert abs(got - want) <= 1e-12 * max(map(abs, terms))


class TestExistenceThreshold:
    def test_crossing_point(self):
        # 1 - 2 p  ==  -3 + 2 p  at  p = 1
        assert existence_threshold(1.0, -2.0, -3.0, 2.0) == pytest.approx(1.0)

    def test_parallel_sides_raise(self):
        with pytest.raises(InvalidParameter):
            existence_threshold(1.0, -2.0, 0.0, -2.0)


# ---------------------------------------------------------------------------
# Built-in table rows
# ---------------------------------------------------------------------------


class TestTableRows:
    @pytest.mark.parametrize("table_id", [1, 2, 3])
    def test_row_shape_and_crossing(self, table_id):
        rows = table_rows(table_id)
        assert [r.ell for r in rows] == [0.1, 0.2, 0.3]
        for r in rows:
            assert isinstance(r, TableRow)
            lhs = r.intercept + r.slope * r.threshold
            rhs = r.rhs_intercept + r.rhs_slope * r.threshold
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_terminal_rows_share_rhs(self):
        rows = table_rows(1)
        assert len({(r.rhs_intercept, r.rhs_slope) for r in rows}) == 1

    def test_terminal_thresholds_decrease_with_tax_rate(self):
        """A higher tax rate makes waiting less attractive, so the ruin
        value below which a positive threshold exists moves up."""
        rows = table_rows(1)
        assert rows[0].threshold < rows[1].threshold < rows[2].threshold < 0.0

    def test_terminal_existence_matches_optimizer(self, scale05):
        """Either side of the table-1 boundary for ell = 0.1 the optimizer
        flips between an interior and a boundary threshold."""
        thr = table_rows(1)[0].threshold
        below = optimize(TerminalProblem(scale05, 0.1, thr - 0.5, 1.0))
        above = optimize(TerminalProblem(scale05, 0.1, thr + 0.5, 1.0))
        assert not below.boundary_case and below.threshold > 0.0
        assert above.boundary_case and above.threshold == 0.0

    def test_injection_existence_matches_optimizer(self, scale05):
        """Either side of the table-3 boundary for ell = 0.1 the optimizer
        flips between an interior and a boundary threshold."""
        thr = table_rows(3)[0].threshold
        cheap = optimize(InjectionProblem(scale05, 0.1, thr - 0.1, 1.0))
        costly = optimize(InjectionProblem(scale05, 0.1, thr + 0.1, 1.0))
        assert cheap.boundary_case and cheap.threshold == 0.0
        assert not costly.boundary_case and costly.threshold > 0.0

    def test_small_discount_thresholds_grow(self):
        """At q = 0.002 the terminal existence boundaries sit far out and
        spread with the tax rate."""
        rows = table_rows(2)
        assert rows[0].threshold > 0.0
        assert rows[0].threshold < rows[1].threshold < rows[2].threshold


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class TestGridValues:
    def test_endpoints_and_count(self):
        grid = grid_values(0.0, 1.0, 5)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 5
        assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1), (1.0, 0.0, 5),
                                      (0.0, float("inf"), 5)])
    def test_invalid_grids(self, args):
        with pytest.raises(InvalidParameter):
            grid_values(*args)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 60))
    def test_finite_span_keeps_the_stepping_rule(self, lo, hi, steps):
        """Where hi - lo is finite, point i is lo + i * width to the bit."""
        assume(lo < hi and math.isfinite(hi - lo))
        width = (hi - lo) / (steps - 1)
        want = [lo + i * width for i in range(steps - 1)] + [hi]
        assert list(map(float.hex, grid_values(lo, hi, steps))) == list(map(float.hex, want))

    @given(st.floats(-sys.float_info.max, -1e292), st.floats(1e292, sys.float_info.max),
           st.integers(2, 60))
    def test_overflowing_span_stays_finite_and_ordered(self, lo, hi, steps):
        """Ends near the largest double, whose difference overflows, still
        give finite points in [lo, hi], both ends exact."""
        assume(math.isinf(hi - lo))
        grid = grid_values(lo, hi, steps)
        assert (grid[0], grid[-1], len(grid)) == (lo, hi, steps)
        assert all(math.isfinite(v) for v in grid)
        assert grid == sorted(grid)


class TestSweepRows:
    scale = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    base_terminal = TerminalProblem(scale, 0.1, -5.0, 1.0)
    base_injection = InjectionProblem(scale, 0.2, 1.5, 1.0, allow_low_cost=True)

    def test_terminal_threshold_decreases_in_ruin_value(self):
        rows = sweep_rows(self.base_terminal, "S", grid_values(-6.0, -4.5, 3))
        thresholds = [r["threshold"] for r in rows]
        assert thresholds[0] > thresholds[1] > thresholds[2] > 0.0

    def test_terminal_threshold_increases_in_tax_rate(self):
        rows = sweep_rows(self.base_terminal, "ell", grid_values(0.1, 0.3, 3))
        thresholds = [r["threshold"] for r in rows]
        assert 0.0 < thresholds[0] < thresholds[1] < thresholds[2]

    def test_injection_sweep_crosses_existence_boundary(self):
        """Sweeping the cost factor through the existence boundary records
        boundary rows (threshold 0) below it and interior rows above, in
        increasing order."""
        rows = sweep_rows(self.base_injection, "varphi", grid_values(0.8, 2.0, 4))
        assert [r["boundary_case"] for r in rows] == [True, True, False, False]
        assert rows[0]["threshold"] == rows[1]["threshold"] == 0.0
        assert 0.0 < rows[2]["threshold"] < rows[3]["threshold"]

    def test_param_gating(self):
        with pytest.raises(InvalidParameter):
            sweep_rows(self.base_injection, "S", grid_values(-6.0, -4.0, 3))
        with pytest.raises(InvalidParameter):
            sweep_rows(self.base_terminal, "varphi", grid_values(1.0, 2.0, 3))
        with pytest.raises(InvalidParameter):
            sweep_rows(self.base_terminal, "volatility", grid_values(0.0, 1.0, 3))

    def test_rows_carry_param_and_value(self):
        rows = sweep_rows(self.base_terminal, "q", grid_values(0.02, 0.08, 4))
        assert all(r["param"] == "q" for r in rows)
        assert [r["param_value"] for r in rows] == pytest.approx([0.02, 0.04, 0.06, 0.08])


# each sweepable parameter's grid; along each but x the optimum moves
# between boundary and interior in one problem class at least
SWEEP_GRIDS = {"S": (-10.0, 10.0), "varphi": (0.8, 3.0), "ell": (0.0, 0.9),
               "q": (0.002, 0.3), "c": (0.8, 3.0), "lambda": (0.2, 2.0),
               "mu": (0.5, 4.0), "x": (0.0, 5.0)}


def _fresh_problem(problem_class, **values):
    """The problem built from scratch at the base scenario with ``values`` in place."""
    v = {"c": 1.2, "lambda": 1.0, "mu": 1.0, "q": 0.05, "ell": 0.2, "S": -5.0,
         "varphi": 1.5, "x": 1.0, **values}
    scale = ScaleSet(new_model(v["c"], v["lambda"], v["mu"]), v["q"])
    if problem_class is TerminalProblem:
        return TerminalProblem(scale, v["ell"], v["S"], v["x"])
    return InjectionProblem(scale, v["ell"], v["varphi"], v["x"], allow_low_cost=True)


@pytest.mark.parametrize("problem_class, param", [
    (cls, param) for cls, own in ((TerminalProblem, "S"), (InjectionProblem, "varphi"))
    for param in SWEEPABLE if param in (own, "ell", "q", "c", "lambda", "mu", "x")])
def test_sweep_rows_match_fresh_optimize(problem_class, param):
    """Each row of a sweep, whose points step the base problem, is the
    optimum of the problem built from scratch at that point: the same
    boundary flag, a boundary row bit for bit, an interior threshold within
    ROOT_TOL (a sweep continues from its last roots), and bit for bit the
    value of the fresh problem at the row's threshold."""
    grid = grid_values(*SWEEP_GRIDS[param], 9)
    rows = sweep_rows(_fresh_problem(problem_class), param, grid)
    assert [(r["param"], r["param_value"]) for r in rows] == [(param, v) for v in grid]
    for row, value in zip(rows, grid):
        fresh = _fresh_problem(problem_class, **{param: value})
        want = optimize(fresh)
        assert row["boundary_case"] is want.boundary_case
        if want.boundary_case:
            assert row["threshold"].hex() == want.threshold.hex()
            assert row["value"].hex() == want.value.hex()
        else:
            assert abs(row["threshold"] - want.threshold) <= ROOT_TOL
        assert row["value"].hex() == optimal_value(fresh, row["threshold"]).hex()


class TestSweepContinuation:
    """A sweep's third and later interior rows in a row start from the
    linear extrapolation of the last two roots (``problem.threshold_search``
    with a start)."""

    BASE = ("--c", "1.2", "--lambda", "1", "--mu", "1", "--q", "0.05")
    TERMINAL = ("--mode", "terminal", *BASE, "--ell", "0.1", "--S", "-5")
    INJECTION = ("--mode", "injection", *BASE, "--ell", "0.2", "--varphi", "1.5")

    @staticmethod
    def _count_tails(monkeypatch):
        calls = []

        def counted(tails, x, _fn=Tails.__call__):
            calls.append(x)
            return _fn(tails, x)
        monkeypatch.setattr(Tails, "__call__", counted)
        return calls

    # the benchmark's three 40-point sweeps; a cold optimize per point took
    # 8.75 (ell), 3.28 (S) and 8.08 (varphi) tails calls
    @pytest.mark.parametrize("mode, param, lo, hi, most", [
        ("terminal", "ell", "0", "0.9", 5.0),
        ("terminal", "S", "-10", "10", 2.5),
        ("injection", "varphi", "1.1", "3", 5.0),
    ])
    def test_tails_calls_per_point(self, monkeypatch, capsys, mode, param, lo, hi, most):
        scenario = self.TERMINAL if mode == "terminal" else self.INJECTION
        calls = self._count_tails(monkeypatch)
        argv = ["sweep", *scenario, "--param", param, "--from", lo, "--to", hi,
                "--steps", "40", "--format", "json"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)) == 40
        assert len(calls) / 40 <= most

    def test_start_sweep_repeats_its_first_root(self, monkeypatch, scale05):
        """h does not depend on x0: after the two cold rows, each row's start
        is the root itself, taken after one tails call."""
        base = TerminalProblem(scale05, 0.1, -5.0, 0.5)
        calls = self._count_tails(monkeypatch)
        per_row = []

        def counted_optimize(p, start=None, _fn=tables.optimize):
            before = len(calls)
            report = _fn(p, start)
            per_row.append(len(calls) - before)
            return report
        monkeypatch.setattr(tables, "optimize", counted_optimize)
        rows = sweep_rows(base, "x", grid_values(0.5, 5.0, 40))
        assert {r["threshold"].hex() for r in rows} == {rows[0]["threshold"].hex()}
        assert not rows[0]["boundary_case"]
        assert per_row[2:] == [1] * 38

    def test_boundary_row_after_interior_rows(self, monkeypatch, scale05):
        """Thresholds 1.67 and 1.26 at varphi 2 and 1.8 give varphi 1.3 the
        start 0.23, where h < 0: one more tails call, at 0, finds h(0) <= 0,
        and the row is the cold search's boundary case to the bit."""
        base = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        calls = self._count_tails(monkeypatch)
        sweep_rows(base, "varphi", (2.0, 1.8))
        cold_rows = len(calls)
        calls.clear()
        rows = sweep_rows(base, "varphi", (2.0, 1.8, 1.3))
        assert calls[cold_rows:] == [pytest.approx(0.228, abs=1e-3), 0.0]
        want = optimize(replace(base, varphi=1.3))
        assert want.boundary_case and rows[2]["boundary_case"]
        assert (rows[2]["threshold"].hex(), rows[2]["value"].hex()) \
            == (want.threshold.hex(), want.value.hex())

    # the terminal root rises with ell, from 1.11 at 0.1 to 2.61 at 0.45
    # (S = -6); two cold rows at 0.1 give the third row the start 1.11
    WARM_FAILURE_GRID = (0.1, 0.1, 0.45)

    def _raises_as_cold(self, monkeypatch, scale, error):
        """The sweep raises the cold search's error; returns the levels the
        warm search took."""
        base = TerminalProblem(scale, 0.1, -6.0, 1.0)
        with pytest.raises(error) as cold:
            optimize(replace(base, ell=self.WARM_FAILURE_GRID[-1]))
        warm = []

        def spied(p, x, _fn=problem.h_and_slope):
            warm.append(x)
            return _fn(p, x)
        monkeypatch.setattr(problem, "h_and_slope", spied)
        with pytest.raises(error) as swept:
            sweep_rows(base, "ell", self.WARM_FAILURE_GRID)
        assert str(swept.value) == str(cold.value)
        return warm

    def test_root_past_the_cap_raises_as_cold(self, monkeypatch, scale05):
        monkeypatch.setattr(problem, "_CAP_EFOLDS", 2.5 * scale05.theta1)
        warm = self._raises_as_cold(monkeypatch, scale05, BracketFailure)
        assert warm and max(warm) <= 2.5

    @pytest.mark.parametrize("failure", ["nan", "raise"])
    def test_failing_tails_raise_as_cold(self, monkeypatch, scale05, failure):
        """Past level 2 the tails give nan, or raise; the cold search meets
        that at its bracket end 4, the warm one on its way from 1.11."""
        def failing(tails, x, _fn=Tails.__call__):
            if x <= 2.0:
                return _fn(tails, x)
            if failure == "nan":
                return (math.nan,) * 4
            raise ToleranceNotMet(f"no tail at {x!r}")
        monkeypatch.setattr(Tails, "__call__", failing)
        error = BracketFailure if failure == "nan" else ToleranceNotMet
        assert max(self._raises_as_cold(monkeypatch, scale05, error)) > 2.0


# ---------------------------------------------------------------------------
# Existence grid
# ---------------------------------------------------------------------------


class TestExistenceGrid:
    def test_grid_shape(self):
        s_grid, q_grid, h0 = existence_grid(BASE_MODEL, 0.1, -8.0, 0.0, 5, 0.01, 0.09, 3)
        assert sum(map(len, h0)) == 15
        assert len(h0) == len(set(q_grid)) == 3
        assert [len(row) for row in h0] == [5] * 3
        assert len(set(s_grid)) == 5

    def test_cell_sign_matches_candidate_function(self, scale05):
        """Each value is the optimality function at zero for the
        corresponding terminal problem, with its sign."""
        s_grid, q_grid, h0 = existence_grid(BASE_MODEL, 0.1, -6.0, 1.0, 3, 0.05, 0.10, 2)
        assert q_grid[0] == 0.05
        for s, value in zip(s_grid, h0[0]):
            want = h(TerminalProblem(scale05, 0.1, s, 1.0), 0.0)
            assert value == pytest.approx(want, rel=1e-9)
            assert (value > 0.0) == (want > 0.0)

    def test_very_negative_ruin_value_forces_existence(self):
        s_grid, _, h0 = existence_grid(BASE_MODEL, 0.1, -10.0, 0.0, 2, 0.02, 0.08, 3)
        assert s_grid == [-10.0, 0.0]
        assert all(row[0] > 0.0 for row in h0)
        assert not any(row[1] > 0.0 for row in h0)

    @pytest.mark.parametrize("s_lo, s_hi", [(-7.3, 4.1), (-1e300, 1e300)])
    def test_cells_are_exact_and_q_major(self, s_lo, s_hi):
        """The array-built map gives each value the scalar formula's value
        exactly, one row per q, with both grid endpoints exact."""
        q_lo, q_hi = 0.003, 0.21
        s_grid, q_grid, h0 = existence_grid(BASE_MODEL, 0.2, s_lo, s_hi, 9, q_lo, q_hi, 4)
        assert (s_grid, q_grid) == (grid_values(s_lo, s_hi, 9), grid_values(q_lo, q_hi, 4))
        assert (q_grid[0], s_grid[0]) == (q_lo, s_lo)
        assert (q_grid[-1], s_grid[-1]) == (q_hi, s_hi)
        assert [len(row) for row in h0] == [len(s_grid)] * len(q_grid)
        for q, row in zip(q_grid, h0):
            i, sl, ri, rs = existence_affine(TerminalProblem, ScaleSet(BASE_MODEL, q), 0.2)
            for s, value in zip(s_grid, row):
                assert type(value) is float
                assert value == (i + sl * s) - (ri + rs * s)
        assert {value > 0.0 for row in h0 for value in row} == {True, False}
