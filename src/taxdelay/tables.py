"""Reference tables and parameter sweeps for threshold existence.

A positive optimal threshold exists exactly when h(0) > 0 (``problem``).
With the problem's parameter param (S, or varphi) and w = sign * param
(sign = +1 terminal, -1 injection), h(0) > 0 reads

    ell e T(0) + w (e T_K(0) - G(0))  >  V(0) + w (V(0) K(0) - G(0)),

upsilon(0) against V(0) (1 + w K(0)) - w G(0), with the tails T and T_K,
the potential G, V = F/F' and the kernel K of the problem's family at
zero.  Both sides are affine in param:

    intercept     = ell e T(0)      slope     = sign (e T_K(0) - G(0))
    rhs_intercept = V(0)            rhs_slope = sign (V(0) K(0) - G(0))

and their crossing point in param is the existence boundary.
``existence_affine`` takes the four from one call of the problem's
``tails`` at zero, which returns T, T_K, V and K there, and G(0);
``table_rows`` packages the three built-in reference scenarios.  Two
generators give plot-ready data: ``sweep_rows`` optimizes a problem along
one of its parameters, stepped with ``dataclasses.replace``, one row each,
and ``existence_grid`` maps h(0) over (S, q) as the two axes and the
q-major rows of h(0), the input of a contour plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .errors import InvalidParameter
from .model import LevyModel, new_model
from .problem import DelayedTaxation, InjectionProblem, TerminalProblem, optimize, potential
from .scale import ScaleSet

# ---------------------------------------------------------------------------
# Built-in reference scenarios
# ---------------------------------------------------------------------------

#: Demonstration model shared by all built-in tables: c=1.2, lam=1, mu=1.
BASE_MODEL = new_model(c=1.2, lam=1.0, mu=1.0)

#: Tax rates covered by every built-in table row set.
TABLE_ELLS = (0.1, 0.2, 0.3)


#: Problem class and discount rate of each built-in table, by id; its rows
#: are the tax rates ``TABLE_ELLS``.
TABLES = {1: (TerminalProblem, 0.05), 2: (TerminalProblem, 0.002), 3: (InjectionProblem, 0.05)}


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


# ---------------------------------------------------------------------------
# Affine coefficients
# ---------------------------------------------------------------------------


def existence_affine(problem: type, scale: ScaleSet,
                     ell: float) -> Tuple[float, float, float, float]:
    """(intercept, slope, rhs_intercept, rhs_slope) of the existence
    condition of a problem class at (scale, ell); see the module docstring."""
    p = problem(scale, ell, 2.0, 0.0)  # param 2 suits both classes; no piece reads it
    t, t_k, v0, k0 = p.tails(0.0)
    e, g0, sign = p.exponent, potential(p, 0.0), problem.sign
    return ell * (e * t), sign * (e * t_k - g0), v0, sign * (v0 * k0 - g0)


def existence_threshold(intercept: float, slope: float,
                        rhs_intercept: float, rhs_slope: float) -> float:
    """Crossing point of the two affine sides of the existence condition."""
    denom = slope - rhs_slope
    if abs(denom) < 1e-14:
        raise InvalidParameter("affine sides are parallel; no crossing point")
    return (rhs_intercept - intercept) / denom


def table_rows(table_id: int) -> List[TableRow]:
    """Compute all rows of one built-in table on ``BASE_MODEL``; raises
    InvalidParameter for unknown ids, bools and non-int ids included."""
    if type(table_id) is not int or table_id not in TABLES:
        raise InvalidParameter(
            f"unknown table id {table_id!r}; valid ids are {sorted(TABLES)}")
    problem, q = TABLES[table_id]
    scale = ScaleSet(BASE_MODEL, q)
    rows: List[TableRow] = []
    for ell in TABLE_ELLS:
        coeffs = existence_affine(problem, scale, ell)
        rows.append(TableRow(ell, *coeffs, threshold=existence_threshold(*coeffs)))
    return rows


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

#: Scalars a sweep may vary: "S" a TerminalProblem's, "varphi" an
#: InjectionProblem's, the rest either's.
SWEEPABLE = ("S", "varphi", "ell", "q", "c", "lambda", "mu", "x")

# the problem's own field for a sweepable name; the others live in its ScaleSet
_PROBLEM_FIELDS = {"S": "s_terminal", "varphi": "varphi", "ell": "ell", "x": "x0"}


def grid_values(lo: float, hi: float, steps: int) -> List[float]:
    """Evenly spaced grid with both endpoints; steps is the point count."""
    if not (isinstance(steps, int) and steps >= 2):
        raise InvalidParameter(f"steps must be an integer >= 2, got {steps!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameter(f"need finite lo < hi, got {lo!r}, {hi!r}")
    width = (hi - lo) / (steps - 1)
    if math.isinf(width):  # hi - lo overflows: step over the halves, exact at such ends
        half = (hi / 2 - lo / 2) / (steps - 1)
        return [2 * (lo / 2 + i * half) for i in range(steps - 1)] + [hi]
    return [lo + i * width for i in range(steps - 1)] + [hi]


def sweep_rows(problem: DelayedTaxation, param: str,
               values: Sequence[float]) -> List[Dict[str, Any]]:
    """Optimize ``problem`` once per value of one parameter, in order.

    The problem's own value of ``param`` is not read.  S, varphi, ell and
    x are fields of the problem, so those points share its ScaleSet; c,
    lambda, mu and q build one per point.  Each row has keys ``param``,
    ``param_value``, ``threshold``, ``value`` and ``boundary_case``.
    """
    if param not in SWEEPABLE:
        raise InvalidParameter(
            f"cannot sweep {param!r}; choose one of {', '.join(SWEEPABLE)}")
    field = _PROBLEM_FIELDS.get(param)
    if field is not None and not hasattr(problem, field):
        raise InvalidParameter(f"{type(problem).__name__} has no parameter {param}")
    model, q = problem.scale.model, problem.scale.q
    rows: List[Dict[str, Any]] = []
    for value in values:
        if field is None:  # a rate of the model, or q
            r = {"c": model.c, "lambda": model.lam, "mu": model.mu, "q": q, param: value}
            point = replace(problem, scale=ScaleSet(new_model(r["c"], r["lambda"], r["mu"]),
                                                    r["q"]))
        else:
            point = replace(problem, **{field: value})
        report = optimize(point)
        rows.append({"param": param, "param_value": value, "threshold": report.threshold,
                     "value": report.value, "boundary_case": report.boundary_case})
    return rows


def existence_grid(model: LevyModel, ell: float,
                   s_lo: float, s_hi: float, s_steps: int,
                   q_lo: float, q_hi: float, q_steps: int,
                   ) -> Tuple[List[float], List[float], List[List[float]]]:
    """2-D (S, q) map of the terminal candidate at zero, as its axes and values.

    Returns ``(s_grid, q_grid, h_at_zero)``: the two ``grid_values`` axes
    and, per q, the row of h(0) over s_grid (q-major).  A positive optimal
    threshold exists where h(0) > 0.  Per q the candidate at zero is affine
    in S, so each row costs two tail evaluations regardless of the S
    resolution.  One array expression then evaluates (I + Sl S) - (Ri + Rs S)
    over all (q, S) in that scalar order, so each value equals the scalar
    formula's bit for bit.
    """
    s_grid = grid_values(s_lo, s_hi, s_steps)
    q_grid = grid_values(q_lo, q_hi, q_steps)
    coeffs = [existence_affine(TerminalProblem, ScaleSet(model, q), ell) for q in q_grid]
    i, sl, ri, rs = np.array(coeffs, dtype=float).T[:, :, None]
    s = np.array(s_grid)
    return s_grid, q_grid, ((i + sl * s) - (ri + rs * s)).tolist()


__all__ = [
    "BASE_MODEL",
    "TABLE_ELLS",
    "TABLES",
    "TableRow",
    "existence_affine",
    "existence_threshold",
    "table_rows",
    "SWEEPABLE",
    "sweep_rows",
    "grid_values",
    "existence_grid",
]
