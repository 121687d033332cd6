"""Self-check battery: fast internal consistency checks of the library.

Each check exercises an independent route to the same quantity (closed
form vs quadrature, analytic derivative vs finite difference, optimizer
vs grid argmax, affine existence boundary vs direct sign change, engine
vs formula) and reports a named pass/fail with a one-line detail.  The
full battery is meant to run in a few seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List

from .model import laplace_exponent, new_model
from .numerics import integrate_finite, integrate_tail
from .problem import (InjectionProblem, TerminalProblem, exit_integral, exit_ratio, h,
                      optimize, phi, phi_partial)
from .scale import ScaleSet
from .simulate import SimConfig, simulate_injection, simulate_terminal
from .tables import existence_affine, existence_threshold, table_rows

# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named self-check."""

    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_boundary_identities() -> CheckResult:
    worst = 0.0
    for (c, lam, mu) in [(1.2, 1.0, 1.0), (2.0, 1.5, 0.8), (0.9, 1.0, 1.0)]:
        for q in (0.002, 0.05, 0.3):
            s = ScaleSet(new_model(c, lam, mu), q)
            worst = max(
                worst,
                abs(s.W(0.0) - 1.0 / c) * c,
                abs(s.W.slope(0.0) - (q + lam) / c ** 2) / ((q + lam) / c ** 2),
                abs(s.Z(0.0) - 1.0),
                abs(s.Z.integral(0.0) * q / s.model.net_drift - 1.0),
                abs((s.roots.a1 - s.roots.a2) - 1.0),
                abs(laplace_exponent(s.model, s.theta1) - q) / q,
            )
    return _check("scale-boundary-identities", worst < 1e-12,
                  f"max relative defect {worst:.2e} (tol 1e-12)")


def _check_laplace_transform() -> CheckResult:
    worst = 0.0
    for (c, lam, mu, q) in [(1.2, 1.0, 1.0, 0.05), (2.0, 1.5, 0.8, 0.01)]:
        s = ScaleSet(new_model(c, lam, mu), q)
        theta = 2.0 * s.theta1
        val = integrate_tail(lambda x: math.exp(-theta * x) * s.W(x), 0.0,
                             theta - s.theta1)
        target = 1.0 / (laplace_exponent(s.model, theta) - q)
        worst = max(worst, abs(val - target) / abs(target))
    return _check("scale-laplace-transform", worst < 1e-8,
                  f"max relative error {worst:.2e} (tol 1e-8)")


def _check_antiderivatives() -> CheckResult:
    s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    zq = integrate_finite(s.W, 0.0, 3.0)
    zbarq = integrate_finite(s.Z, 0.0, 3.0)
    err = max(abs(1.0 + s.q * zq - s.Z(3.0)),
              abs(zbarq + s.Z.integral(0.0) - s.Z.integral(3.0)))
    return _check("scale-antiderivatives", err < 1e-8,
                  f"max defect {err:.2e} (tol 1e-8)")


def _check_derivative(name: str, problem: type, ell: float, weight: float) -> CheckResult:
    p = problem(ScaleSet(new_model(1.2, 1.0, 1.0), 0.05), ell, weight, 0.5)
    worst = 0.0
    for b in (0.8, 2.0, 5.0):
        step = 1e-3 * max(1.0, b)
        fd = (phi(p, 0.5, b + step) - phi(p, 0.5, b - step)) / (2 * step)
        an = phi_partial(p, 0.5, b)
        worst = max(worst, abs(fd - an) / max(1e-12, abs(an)))
    return _check(name, worst < 1e-5, f"max relative gap {worst:.2e} (tol 1e-5)")


def _check_ode_residuals() -> CheckResult:
    s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    p = InjectionProblem(s, 0.2, 1.5, 0.5)
    a, e = 3.0, p.exponent

    # the paper's corridor functionals on [x, a] (docs/paper_symbols.md)
    def f_a(x):
        return exit_ratio(p, x, a)

    def g_a(x):
        return p.ell * exit_integral(p, x, a)

    def r_a(x):
        return exit_integral(p, x, a, kernel=True)

    worst = 0.0
    for x in (0.5, 1.5, 2.5):
        step = 1e-4
        slope = e * s.q * s.W(x) / s.Z(x)
        kernel = s.Z.kernel(x)
        fd_f = (f_a(x + step) - f_a(x - step)) / (2 * step)
        fd_g = (g_a(x + step) - g_a(x - step)) / (2 * step)
        fd_r = (r_a(x + step) - r_a(x - step)) / (2 * step)
        worst = max(
            worst,
            abs(fd_f - slope * f_a(x)),
            abs(fd_g - (slope * g_a(x) - p.ell * e)),
            abs(fd_r - (slope * r_a(x) - e * kernel)),
        )
    return _check("injection-ode-residuals", worst < 1e-6,
                  f"max residual {worst:.2e} (tol 1e-6)")


def _check_existence_boundaries() -> CheckResult:
    s5 = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    worst = 0.0
    for problem, ell in ((TerminalProblem, 0.1), (InjectionProblem, 0.2)):
        boundary = existence_threshold(*existence_affine(problem, s5, ell))
        worst = max(worst, abs(h(problem(s5, ell, boundary, 1.0), 0.0)))
    return _check("existence-boundary-consistency", worst < 1e-8,
                  f"candidate-at-zero residual {worst:.2e} at the affine crossing (tol 1e-8)")


def _check_tables_compute() -> CheckResult:
    try:
        rows = [table_rows(tid) for tid in (1, 2, 3)]
    except Exception as exc:  # noqa: BLE001 - report any failure as a check
        return _check("reference-tables", False, f"computation failed: {exc}")
    finite = all(math.isfinite(r.threshold) for rs in rows for r in rs)
    return _check("reference-tables", finite, "all 9 rows computed with finite boundaries")


def _check_optimizer_argmax() -> CheckResult:
    s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    grid = [0.25 + 0.002 * i for i in range(int(2.0 / 0.002))]
    worst = 0.0
    for p in (TerminalProblem(s, 0.1, -5.0, 0.25), InjectionProblem(s, 0.2, 1.5, 0.25)):
        best = max(grid, key=lambda b: phi(p, 0.25, b))
        worst = max(worst, abs(best - optimize(p).threshold))
    return _check("optimizer-grid-argmax", worst < 4e-3,
                  f"max |optimizer - grid argmax| {worst:.2e} (tol 4e-3 on a 2e-3 grid)")


def _check_monte_carlo() -> CheckResult:
    s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    cfg = SimConfig(n_paths=20_000, horizon=200.0, seed=20260814)
    worst = 0.0
    for engine, p in ((simulate_terminal, TerminalProblem(s, 0.1, -5.0, 1.0)),
                      (simulate_injection, InjectionProblem(s, 0.2, 1.5, 1.0))):
        result = engine(p, 2.0, cfg)
        worst = max(worst, abs((result.mean - phi(p, 1.0, 2.0)) / result.stderr))
    return _check("monte-carlo-agreement", worst < 4.5,
                  f"max |z| {worst:.2f} over both engines (tol 4.5)")


_CHECKS: List[Callable[[], CheckResult]] = [
    _check_boundary_identities,
    _check_laplace_transform,
    _check_antiderivatives,
    partial(_check_derivative, "terminal-derivative-consistency", TerminalProblem, 0.15, -3.0),
    partial(_check_derivative, "injection-derivative-consistency", InjectionProblem, 0.2, 1.5),
    _check_ode_residuals,
    _check_existence_boundaries,
    _check_tables_compute,
    _check_optimizer_argmax,
    _check_monte_carlo,
]


def run_checks() -> List[CheckResult]:
    """Run the battery in order."""
    return [check() for check in _CHECKS]


__all__ = ["CheckResult", "run_checks"]
