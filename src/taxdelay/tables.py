"""Reference tables and parameter sweeps for threshold existence.

A positive optimal threshold exists exactly when the candidate function is
positive at zero.  For both problem modes that condition compares two
quantities that are affine in the economic parameter:

* terminal mode: upsilon(0) = intercept + slope * S on the left against
  V(0) * (1 - S q W(0)) = rhs_intercept + rhs_slope * S on the right; a
  positive threshold exists iff the left side exceeds the right, and the
  crossing point in S is the existence boundary.
* injection mode: upsilon_bar(0) = intercept + slope * varphi on the left
  against Vbar(0) - varphi * (Vbar(0) G(0) + Zbar(0) + d/q) on the right,
  where G is the injection kernel and d the net drift; the crossing point
  in varphi is the existence boundary.

All coefficients are closed forms at zero (the left-hand ones through
the tails of ``ScaleSet.W`` and ``ScaleSet.Z``).  ``table_rows`` packages
the three built-in reference scenarios; ``sweep_rows`` and
``existence_grid`` generate plot-ready data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidParameter
from .model import LevyModel, new_model
from .problem import DelayedTaxation, optimize
from .scale import ScaleSet
from .tax_injection import InjectionProblem
from .tax_terminal import TerminalProblem

# ---------------------------------------------------------------------------
# Built-in reference scenarios
# ---------------------------------------------------------------------------

#: Demonstration model shared by all built-in tables: c=1.2, lam=1, mu=1.
BASE_MODEL = new_model(c=1.2, lam=1.0, mu=1.0)

#: Tax rates covered by every built-in table row set.
TABLE_ELLS = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class TableDefinition:
    """Mode, discount rate and tax-rate rows of one built-in table."""

    table_id: int
    mode: str  # "terminal" or "injection"
    q: float
    ells: Tuple[float, ...]


@dataclass(frozen=True)
class TableRow:
    """Affine existence condition and its boundary for one tax rate.

    The condition for a positive optimal threshold reads

        intercept + slope * param  >  rhs_intercept + rhs_slope * param

    with param = S (terminal mode) or varphi (injection mode); threshold
    is the crossing point of the two affine functions.
    """

    ell: float
    intercept: float
    slope: float
    rhs_intercept: float
    rhs_slope: float
    threshold: float


_DEFINITIONS = {
    1: TableDefinition(table_id=1, mode="terminal", q=0.05, ells=TABLE_ELLS),
    2: TableDefinition(table_id=2, mode="terminal", q=0.002, ells=TABLE_ELLS),
    3: TableDefinition(table_id=3, mode="injection", q=0.05, ells=TABLE_ELLS),
}


def table_definition(table_id: int) -> TableDefinition:
    """Look up a built-in table; raises InvalidParameter for unknown ids."""
    try:
        return _DEFINITIONS[table_id]
    except (KeyError, TypeError):
        raise InvalidParameter(
            f"unknown table id {table_id!r}; valid ids are {sorted(_DEFINITIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# Affine coefficients
# ---------------------------------------------------------------------------


def terminal_affine(scale: ScaleSet, ell: float) -> Tuple[float, float]:
    """Coefficients (intercept, slope) of S -> upsilon(0).

    With e = 1/(1-ell), upsilon(0) = ell e I2(0) + S (e I1(0) - Z(0)), where
    I1 is the ruin-kernel tail and I2 the plain exit-ratio tail of W.
    """
    e = DelayedTaxation(scale, ell).exponent  # validates ell
    return (ell * e * scale.W.tail(e, 0.0),
            e * scale.W.tail(e, 0.0, kernel=True) - scale.Z(0.0))


def terminal_rhs(scale: ScaleSet) -> Tuple[float, float]:
    """Coefficients (intercept, slope) of S -> V(0) * (1 - S q W(0))."""
    v0 = scale.W.over_slope(0.0)
    return v0, -v0 * scale.q * scale.W(0.0)


def injection_affine(scale: ScaleSet, ell: float) -> Tuple[float, float]:
    """Coefficients (intercept, slope) of varphi -> upsilon_bar(0).

    upsilon_bar(0) = tax_tail(0) - varphi (injection_tail(0) + Zbar(0) + d/q)
    with d the net drift, tax_tail = ell e T and injection_tail = e T_K on Z.
    """
    e = DelayedTaxation(scale, ell).exponent  # validates ell
    return (ell * (e * scale.Z.tail(e, 0.0)),
            -(e * scale.Z.tail(e, 0.0, kernel=True) + scale.Z.integral(0.0)))


def injection_rhs(scale: ScaleSet) -> Tuple[float, float]:
    """Coefficients (intercept, slope) of varphi -> the injection condition rhs.

    The candidate function at zero is upsilon_bar(0) minus

        Vbar(0) - varphi * (Vbar(0) G(0) + Zbar(0) + d/q)

    with Vbar(0) = c/q, so the rhs is affine in varphi as well.
    """
    vbar0 = scale.Z.over_slope(0.0)
    return vbar0, -(vbar0 * scale.Z.kernel(0.0) + scale.Z.integral(0.0))


def existence_threshold(intercept: float, slope: float,
                        rhs_intercept: float, rhs_slope: float) -> float:
    """Crossing point of the two affine sides of the existence condition."""
    denom = slope - rhs_slope
    if abs(denom) < 1e-14:
        raise InvalidParameter("affine sides are parallel; no crossing point")
    return (rhs_intercept - intercept) / denom


def table_rows(table_id: int, model: LevyModel = BASE_MODEL) -> List[TableRow]:
    """Compute all rows of one built-in table on the given model."""
    definition = table_definition(table_id)
    scale = ScaleSet(model, definition.q)
    affine, rhs = (terminal_affine, terminal_rhs) if definition.mode == "terminal" \
        else (injection_affine, injection_rhs)
    rows: List[TableRow] = []
    for ell in definition.ells:
        intercept, slope = affine(scale, ell)
        rhs_i, rhs_s = rhs(scale)
        rows.append(TableRow(
            ell=ell,
            intercept=intercept,
            slope=slope,
            rhs_intercept=rhs_i,
            rhs_slope=rhs_s,
            threshold=existence_threshold(intercept, slope, rhs_i, rhs_s),
        ))
    return rows


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

#: Scalars a sweep may vary; "S" only in terminal mode, "varphi" only in
#: injection mode, the rest in either.
SWEEPABLE = ("S", "varphi", "ell", "q", "c", "lambda", "mu", "x")


@dataclass(frozen=True)
class SweepPoint:
    """Base scenario for a sweep; exactly one field is varied per run."""

    mode: str
    c: float
    lam: float
    mu: float
    q: float
    ell: float
    s_terminal: float = 0.0
    varphi: float = 1.5
    x0: float = 1.0


@dataclass(frozen=True)
class SweepRow:
    """One optimization outcome along a sweep."""

    param: str
    value: float
    threshold: float
    objective: float
    boundary_case: bool


def _with_param(base: SweepPoint, param: str, value: float) -> SweepPoint:
    field = {"S": "s_terminal", "lambda": "lam", "x": "x0"}.get(param, param)
    return replace(base, **{field: value})


def _optimize_point(point: SweepPoint) -> Tuple[float, float, bool]:
    scale = ScaleSet(new_model(point.c, point.lam, point.mu), point.q)
    if point.mode == "terminal":
        problem = TerminalProblem(scale, point.ell, point.s_terminal, point.x0)
    elif point.mode == "injection":
        problem = InjectionProblem(scale, point.ell, point.varphi, point.x0,
                                   allow_low_cost=True)
    else:
        raise InvalidParameter(f"unknown mode {point.mode!r}")
    report = optimize(problem)
    return report.threshold, report.value, report.boundary_case


def grid_values(lo: float, hi: float, steps: int) -> List[float]:
    """Evenly spaced grid with both endpoints; steps is the point count."""
    if not (isinstance(steps, int) and steps >= 2):
        raise InvalidParameter(f"steps must be an integer >= 2, got {steps!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameter(f"need finite lo < hi, got {lo!r}, {hi!r}")
    width = (hi - lo) / (steps - 1)
    return [lo + i * width for i in range(steps - 1)] + [hi]


def sweep_rows(base: SweepPoint, param: str, lo: float, hi: float,
               steps: int) -> List[SweepRow]:
    """Optimize once per grid point of one varied parameter."""
    if param not in SWEEPABLE:
        raise InvalidParameter(
            f"cannot sweep {param!r}; choose one of {', '.join(SWEEPABLE)}")
    if param == "S" and base.mode != "terminal":
        raise InvalidParameter("parameter S exists only in terminal mode")
    if param == "varphi" and base.mode != "injection":
        raise InvalidParameter("parameter varphi exists only in injection mode")
    rows: List[SweepRow] = []
    for value in grid_values(lo, hi, steps):
        threshold, objective, boundary = _optimize_point(
            _with_param(base, param, value))
        rows.append(SweepRow(param=param, value=value, threshold=threshold,
                             objective=objective, boundary_case=boundary))
    return rows


def existence_grid(model: LevyModel, ell: float,
                   s_lo: float, s_hi: float, s_steps: int,
                   q_lo: float, q_hi: float, q_steps: int) -> List[Dict[str, Any]]:
    """2-D (S, q) map of the sign of the terminal candidate at zero.

    Exploits linearity: per q the candidate at zero is affine in S, so each
    row costs two tail evaluations regardless of the S resolution.  One
    array expression then evaluates (I + Sl S) - (Ri + Rs S) over all
    (q, S) in that scalar order, so each value equals the scalar formula's
    bit for bit.  Each cell is a row with keys ``S``, ``q``, ``h_at_zero``
    and ``positive_threshold`` (h_at_zero > 0); cells come q-major.
    """
    s_grid = grid_values(s_lo, s_hi, s_steps)
    q_grid = grid_values(q_lo, q_hi, q_steps)
    coeffs = []
    for q in q_grid:
        scale = ScaleSet(model, q)
        coeffs.append(terminal_affine(scale, ell) + terminal_rhs(scale))
    i, sl, ri, rs = np.array(coeffs, dtype=float).T[:, :, None]
    s = np.array(s_grid)
    h0 = ((i + sl * s) - (ri + rs * s)).tolist()
    return [{"S": sv, "q": q, "h_at_zero": h, "positive_threshold": h > 0.0}
            for q, row in zip(q_grid, h0) for sv, h in zip(s_grid, row)]


__all__ = [
    "BASE_MODEL",
    "TABLE_ELLS",
    "TableDefinition",
    "TableRow",
    "table_definition",
    "terminal_affine",
    "terminal_rhs",
    "injection_affine",
    "injection_rhs",
    "existence_threshold",
    "table_rows",
    "SWEEPABLE",
    "SweepPoint",
    "SweepRow",
    "sweep_rows",
    "grid_values",
    "existence_grid",
]
