"""Tests for the reference tables, parameter sweeps and existence grids."""

from __future__ import annotations

import pytest

from paper_functionals import upsilon
from taxdelay.errors import InvalidParameter
from taxdelay.model import new_model
from taxdelay.problem import InjectionProblem, TerminalProblem, h, optimize
from taxdelay.scale import ScaleSet
from taxdelay.tables import (
    BASE_MODEL,
    SWEEPABLE,
    TABLE_ELLS,
    TableRow,
    existence_affine,
    existence_grid,
    existence_threshold,
    grid_values,
    sweep_rows,
    table_definition,
    table_rows,
)


# ---------------------------------------------------------------------------
# Definitions and lookups
# ---------------------------------------------------------------------------


class TestTableDefinition:
    def test_builtin_ids(self):
        d1, d2, d3 = (table_definition(i) for i in (1, 2, 3))
        assert (d1.problem, d1.q) == (TerminalProblem, 0.05)
        assert (d2.problem, d2.q) == (TerminalProblem, 0.002)
        assert (d3.problem, d3.q) == (InjectionProblem, 0.05)
        assert TABLE_ELLS == (0.1, 0.2, 0.3)

    @pytest.mark.parametrize("bad", [0, 4, -1, "one", None, True, 1.0])
    def test_unknown_id_raises(self, bad):
        with pytest.raises(InvalidParameter):
            table_definition(bad)


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
    """Each row of a sweep, whose points step the base problem, is bit for
    bit the optimum of the problem built from scratch at that point."""
    grid = grid_values(*SWEEP_GRIDS[param], 9)
    rows = sweep_rows(_fresh_problem(problem_class), param, grid)
    assert [(r["param"], r["param_value"]) for r in rows] == [(param, v) for v in grid]
    for row, value in zip(rows, grid):
        want = optimize(_fresh_problem(problem_class, **{param: value}))
        assert row["threshold"].hex() == want.threshold.hex()
        assert row["value"].hex() == want.value.hex()
        assert row["boundary_case"] is want.boundary_case


# ---------------------------------------------------------------------------
# Existence grid
# ---------------------------------------------------------------------------


class TestExistenceGrid:
    def test_grid_shape(self):
        cells = existence_grid(BASE_MODEL, 0.1, -8.0, 0.0, 5, 0.01, 0.09, 3)
        assert len(cells) == 15
        assert len({c["q"] for c in cells}) == 3
        assert len({c["S"] for c in cells}) == 5

    def test_cell_sign_matches_candidate_function(self, scale05):
        """Each cell's value is exactly the optimality function at zero for
        the corresponding terminal problem."""
        cells = existence_grid(BASE_MODEL, 0.1, -6.0, 1.0, 3, 0.05, 0.10, 2)
        for cell in (c for c in cells if c["q"] == 0.05):
            p = TerminalProblem(scale05, 0.1, cell["S"], 1.0)
            assert cell["h_at_zero"] == pytest.approx(h(p, 0.0), rel=1e-9)
            assert cell["positive_threshold"] == (cell["h_at_zero"] > 0.0)

    def test_very_negative_ruin_value_forces_existence(self):
        cells = existence_grid(BASE_MODEL, 0.1, -10.0, 0.0, 2, 0.02, 0.08, 3)
        at_minus_ten = [c for c in cells if c["S"] == -10.0]
        at_zero = [c for c in cells if c["S"] == 0.0]
        assert all(c["positive_threshold"] for c in at_minus_ten)
        assert not any(c["positive_threshold"] for c in at_zero)

    @pytest.mark.parametrize("s_lo, s_hi", [(-7.3, 4.1), (-1e300, 1e300)])
    def test_cells_are_exact_and_q_major(self, s_lo, s_hi):
        """The array-built map gives each cell the scalar formula's value
        exactly, in q-major order, with both grid endpoints exact."""
        q_lo, q_hi = 0.003, 0.21
        cells = existence_grid(BASE_MODEL, 0.2, s_lo, s_hi, 9, q_lo, q_hi, 4)
        s_grid, q_grid = grid_values(s_lo, s_hi, 9), grid_values(q_lo, q_hi, 4)
        assert [(c["q"], c["S"]) for c in cells] == [(q, s) for q in q_grid for s in s_grid]
        assert (cells[0]["q"], cells[0]["S"]) == (q_lo, s_lo)
        assert (cells[-1]["q"], cells[-1]["S"]) == (q_hi, s_hi)
        for cell in cells:
            scale = ScaleSet(BASE_MODEL, cell["q"])
            i, sl, ri, rs = existence_affine(TerminalProblem, scale, 0.2)
            s = cell["S"]
            assert cell["h_at_zero"] == (i + sl * s) - (ri + rs * s)
            assert type(cell["positive_threshold"]) is bool
            assert cell["positive_threshold"] is (cell["h_at_zero"] > 0.0)
        assert {c["positive_threshold"] for c in cells} == {True, False}
