"""End-to-end acceptance battery.

One test per acceptance criterion, so ``pytest -v`` prints one pass/fail
line for each.  Reference constants are asserted at their stated
tolerances; random problem batteries and the Monte Carlo grid run on
fixed seeds.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from taxdelay.model import laplace_exponent, new_model
from taxdelay.scale import ScaleSet
from taxdelay.simulate import SimConfig, simulate_injection, simulate_terminal
from taxdelay.tables import table_rows
from taxdelay.tax_injection import (
    InjectionProblem,
    f_a,
    g_a,
    h_bar,
    optimize_injection,
    phi_bar_partial_a,
    phi_bar_value,
    r_a,
)
from taxdelay.tax_terminal import (
    TerminalProblem,
    h_terminal,
    optimize_terminal,
    phi_partial_b,
    phi_value,
)

BASE = new_model(1.2, 1.0, 1.0)
SCALE_05 = ScaleSet(BASE, 0.05)
SCALE_002 = ScaleSet(BASE, 0.002)

# Reference values for the three built-in existence tables (rows are the
# tax rates 0.1, 0.2, 0.3).
TABLE1_INTERCEPTS = (0.29630, 0.55487, 0.77143)
TABLE1_SLOPES = (-0.24801, -0.21900, -0.18931)
TABLE1_RHS = (1.14286, -0.04762)
TABLE1_THRESHOLDS = (-4.22, -3.43, -2.62)

TABLE2_INTERCEPTS = (1.75676, 2.87400, 3.36578)
TABLE2_SLOPES = (-0.144583, -0.11451, -0.08521)
TABLE2_RHS = (1.1976, -0.001996)
TABLE2_THRESHOLDS = (3.92, 14.9, 26.06)

TABLE3_INTERCEPTS = (-2.9622, -2.45091, -1.93869)
TABLE3_SLOPE = -4.0
TABLE3_RHS = (24.0, -24.0)
TABLE3_THRESHOLDS = (1.348, 1.323, 1.297)


def _check(failures, label, got, want, tol):
    if not (abs(got - want) <= tol):
        failures.append(f"{label}: got {got!r}, want {want!r} +/- {tol:g}")


# ---------------------------------------------------------------------------
# Criterion 1: terminal existence table at q = 0.05
# ---------------------------------------------------------------------------


def test_terminal_existence_table_moderate_discount():
    start = time.perf_counter()
    rows = table_rows(1)
    elapsed = time.perf_counter() - start
    failures = []
    for row, want_i, want_s, want_t in zip(rows, TABLE1_INTERCEPTS,
                                           TABLE1_SLOPES, TABLE1_THRESHOLDS):
        _check(failures, f"intercept[ell={row.ell}]", row.intercept, want_i, 2e-4)
        _check(failures, f"slope[ell={row.ell}]", row.slope, want_s, 2e-4)
        _check(failures, f"threshold[ell={row.ell}]", row.threshold, want_t, 0.01)
        _check(failures, f"rhs_intercept[ell={row.ell}]", row.rhs_intercept,
               TABLE1_RHS[0], 1e-5)
        _check(failures, f"rhs_slope[ell={row.ell}]", row.rhs_slope,
               TABLE1_RHS[1], 1e-5)
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 2: terminal existence table at q = 0.002
# ---------------------------------------------------------------------------


def test_terminal_existence_table_small_discount():
    start = time.perf_counter()
    rows = table_rows(2)
    elapsed = time.perf_counter() - start
    failures = []
    for row, want_i, want_s, want_t in zip(rows, TABLE2_INTERCEPTS,
                                           TABLE2_SLOPES, TABLE2_THRESHOLDS):
        _check(failures, f"intercept[ell={row.ell}]", row.intercept, want_i, 2e-4)
        _check(failures, f"slope[ell={row.ell}]", row.slope, want_s, 2e-4)
        _check(failures, f"threshold[ell={row.ell}]", row.threshold, want_t, 0.05)
        _check(failures, f"rhs_intercept[ell={row.ell}]", row.rhs_intercept,
               TABLE2_RHS[0], 1e-4)
        _check(failures, f"rhs_slope[ell={row.ell}]", row.rhs_slope,
               TABLE2_RHS[1], 1e-4)
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 3: injection existence table at q = 0.05
# ---------------------------------------------------------------------------


def test_injection_existence_table_reference_values():
    start = time.perf_counter()
    rows = table_rows(3)
    elapsed = time.perf_counter() - start
    failures = []
    for row, want_i, want_t in zip(rows, TABLE3_INTERCEPTS, TABLE3_THRESHOLDS):
        _check(failures, f"intercept[ell={row.ell}]", row.intercept, want_i, 2e-4)
        _check(failures, f"slope[ell={row.ell}]", row.slope, TABLE3_SLOPE, 1e-6)
        _check(failures, f"threshold[ell={row.ell}]", row.threshold, want_t, 0.002)
        _check(failures, f"rhs_intercept[ell={row.ell}]", row.rhs_intercept,
               TABLE3_RHS[0], 1e-6)
        _check(failures, f"rhs_slope[ell={row.ell}]", row.rhs_slope,
               TABLE3_RHS[1], 1e-6)
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 4: affine existence boundaries equal the direct roots
# ---------------------------------------------------------------------------


def test_affine_and_direct_existence_roots_agree():
    """The table thresholds come from two-point affine extraction; solving
    the candidate function at zero directly for the economic parameter must
    give the same boundary within 1e-3."""
    for table_id, scale in ((1, SCALE_05), (2, SCALE_002)):
        for row in table_rows(table_id):
            def cand(s_val: float) -> float:
                return h_terminal(TerminalProblem(scale, row.ell, s_val, 1.0),
                                  0.0)
            direct = brentq(cand, row.threshold - 1.0, row.threshold + 1.0,
                            xtol=1e-10)
            assert row.threshold == pytest.approx(direct, abs=1e-3)
    for row in table_rows(3):
        def cand_bar(vp: float) -> float:
            return h_bar(InjectionProblem(SCALE_05, row.ell, vp, 1.0), 0.0)
        direct = brentq(cand_bar, row.threshold - 0.2, row.threshold + 0.2,
                        xtol=1e-10)
        assert row.threshold == pytest.approx(direct, abs=1e-3)


# ---------------------------------------------------------------------------
# Criterion 5: optimizer versus brute-force grid argmax, 20 random
# problems per mode
# ---------------------------------------------------------------------------


def test_optimizer_matches_grid_argmax():
    rng = np.random.default_rng(20260814)
    failures = []

    def check(label, threshold, objective, window_halfwidth):
        window = np.arange(max(0.0, threshold - window_halfwidth),
                           threshold + window_halfwidth, 1e-3)
        vals = [objective(float(t)) for t in window]
        argmax = float(window[int(np.argmax(vals))])
        coarse_max = max(objective(float(t))
                         for t in np.arange(0.0, threshold + 5.0, 0.1))
        best = objective(threshold)
        if abs(threshold - argmax) >= 2e-3:
            failures.append(f"{label}: threshold {threshold:.6f} vs grid "
                            f"argmax {argmax:.6f}")
        if best < max(max(vals), coarse_max) - 1e-8:
            failures.append(f"{label}: objective at threshold {best!r} below "
                            f"grid maximum {max(max(vals), coarse_max)!r}")

    for k in range(20):
        c = rng.uniform(0.8, 2.5)
        lam = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.5, 2.0)
        q = rng.uniform(0.01, 0.2)
        ell = rng.uniform(0.05, 0.45)
        s_val = rng.uniform(-8.0, -0.5)
        scale = ScaleSet(new_model(c, lam, mu), q)
        p = TerminalProblem(scale, ell, s_val, 1.0)
        bstar = optimize_terminal(p).threshold
        x0 = 0.7 * bstar if bstar > 0.0 else 1.0
        check(f"terminal[{k}]", bstar, lambda b: phi_value(p, x0, b), 0.5)

    for k in range(20):
        c = rng.uniform(0.8, 2.5)
        lam = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.5, 2.0)
        q = rng.uniform(0.01, 0.2)
        ell = rng.uniform(0.05, 0.45)
        vp = rng.uniform(1.05, 3.0)
        scale = ScaleSet(new_model(c, lam, mu), q)
        p = InjectionProblem(scale, ell, vp, 1.0)
        astar = optimize_injection(p).threshold
        x0 = 0.7 * astar if astar > 0.0 else 1.0
        check(f"injection[{k}]", astar, lambda a: phi_bar_value(p, x0, a), 0.3)

    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 6: analytic threshold derivatives versus central differences
# ---------------------------------------------------------------------------


def test_threshold_derivative_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ell = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
        b = rng.uniform(0.2, 8.0)
        x = rng.uniform(0.05, 1.0) * b
        p = TerminalProblem(SCALE_05, ell, -5.0, 1.0)
        step = 3e-4 * max(1.0, b)
        fd = (phi_value(p, x, b + step)
              - phi_value(p, x, b - step)) / (2.0 * step)
        assert phi_partial_b(p, x, b) == pytest.approx(fd, rel=1e-5)
    for _ in range(20):
        ell = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
        a = rng.uniform(0.2, 8.0)
        x = rng.uniform(0.0, 1.0) * a
        p = InjectionProblem(SCALE_05, ell, 1.5, 1.0)
        step = 3e-4 * max(1.0, a)
        fd = (phi_bar_value(p, x, a + step)
              - phi_bar_value(p, x, a - step)) / (2.0 * step)
        assert phi_bar_partial_a(p, x, a) == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------------------
# Criterion 7: scale-function identity battery over a (q, model) grid
# ---------------------------------------------------------------------------


def test_scale_identity_battery():
    models = [(1.2, 1.0, 1.0), (2.0, 1.0, 1.0), (0.9, 1.5, 2.0),
              (1.5, 0.6, 0.8), (3.0, 2.0, 1.5)]
    discounts = [0.002, 0.01, 0.05, 0.2, 0.5]
    grid = np.linspace(0.0, 2.0, 10_001)
    for (c, lam, mu) in models:
        m = new_model(c, lam, mu)
        for q in discounts:
            s = ScaleSet(m, q)
            r = s.roots
            assert s.W(0.0) == pytest.approx(1.0 / c, rel=1e-13)
            assert s.W.slope(0.0) == pytest.approx((q + lam) / c**2, rel=1e-10)
            assert laplace_exponent(m, s.theta1) == pytest.approx(q, abs=1e-9)
            assert laplace_exponent(m, s.theta2) == pytest.approx(q, abs=1e-9)
            # antiderivative: Z(2) = 1 + q * int_0^2 W, Simpson oracle on
            # the two-exponential form
            w_grid = (r.a1 * np.exp(r.theta1 * grid)
                      - r.a2 * np.exp(r.theta2 * grid)) / c
            assert s.Z(2.0) == pytest.approx(
                1.0 + q * simpson(w_grid, x=grid), rel=1e-8)
            # log-slope of W settles at theta1
            far = 40.0 / s.theta1
            assert s.W.slope(far) / s.W(far) == pytest.approx(s.theta1, rel=1e-6)
            # grouped kernels match their naive assemblies at x = 1
            naive_ruin = s.W.slope(1.0) * s.Z(1.0) / s.W(1.0) - q * s.W(1.0)
            assert s.W.kernel(1.0) == pytest.approx(naive_ruin, rel=1e-8)
            naive_inj = s.Z(1.0) - s.Z.integral(1.0) * q * s.W(1.0) / s.Z(1.0)
            assert s.Z.kernel(1.0) == pytest.approx(naive_inj, rel=1e-8)
            # Z - qW^2/W' vanishes at infinity and matches its one-term form
            const = r.a1 * r.a2 * (r.theta1 - r.theta2) ** 2 / (c * mu)
            naive_gap = s.Z(1.0) - q * s.W(1.0) ** 2 / s.W.slope(1.0)
            grouped_gap = const * math.exp((r.theta1 + r.theta2) * 1.0) / s.W.slope(1.0)
            assert grouped_gap == pytest.approx(naive_gap, rel=1e-8)
            assert abs(const * math.exp((r.theta1 + r.theta2) * far)
                       / s.W.slope(far)) < 1e-6


# ---------------------------------------------------------------------------
# Criterion 8: Monte Carlo grid within 3 sigma plus qualitative
# monotonicity of the optimal thresholds
# ---------------------------------------------------------------------------


def test_monte_carlo_grid_and_qualitative_monotonicity():
    start = time.perf_counter()
    n, horizon = 200_000, 400.0
    z_scores = []

    terminal_cells = [  # (ell, S, threshold or None for the optimum, x)
        (0.1, -5.0, None, 1.0),
        (0.1, -5.0, 2.0, 1.0),
        (0.3, -5.0, 2.0, 1.0),
        (0.3, 3.0, 0.0, 1.0),
        (0.1, 0.0, 0.0, 1.0),
        (0.3, -2.0, 1.0, 0.5),
    ]
    for i, (ell, s_val, b, x) in enumerate(terminal_cells):
        p = TerminalProblem(SCALE_05, ell, s_val, x)
        if b is None:
            b = optimize_terminal(p).threshold
        result = simulate_terminal(p, b, SimConfig(n, horizon, 1000 + i))
        target = phi_value(p, x, b)
        z_scores.append((result.mean - target) / result.stderr)

    injection_cells = [  # (ell, varphi, threshold or None, x)
        (0.2, 1.5, 2.0, 1.0),
        (0.1, 1.5, None, 0.25),
        (0.3, 1.5, None, 1.0),
        (0.3, 2.0, 3.0, 1.0),
        (0.1, 1.2, 0.0, 1.0),
        (0.3, 4.0, 1.0, 0.0),
    ]
    for i, (ell, vp, a, x) in enumerate(injection_cells):
        p = InjectionProblem(SCALE_05, ell, vp, x)
        if a is None:
            a = optimize_injection(p).threshold
        result = simulate_injection(p, a, SimConfig(n, horizon, 2000 + i))
        target = phi_bar_value(p, x, a)
        z_scores.append((result.mean - target) / result.stderr)

    within = sum(1 for z in z_scores if abs(z) < 3.0)
    elapsed = time.perf_counter() - start
    assert within >= 11, f"only {within}/12 cells within 3 sigma: {z_scores}"
    assert elapsed < 600.0, f"grid took {elapsed:.0f}s"

    # qualitative monotonicity of the optima
    b_in_s = [optimize_terminal(TerminalProblem(SCALE_05, 0.1, s_val, 1.0)).threshold
              for s_val in (-6.0, -5.0, -4.0)]
    assert b_in_s[0] > b_in_s[1] > b_in_s[2], f"b* not decreasing in S: {b_in_s}"
    b_in_ell = [optimize_terminal(TerminalProblem(SCALE_05, ell, -5.0, 1.0)).threshold
                for ell in (0.1, 0.2, 0.3)]
    assert b_in_ell[0] < b_in_ell[1] < b_in_ell[2], \
        f"b* not increasing in ell: {b_in_ell}"
    a_in_vp = [optimize_injection(InjectionProblem(SCALE_05, 0.2, vp, 1.0)).threshold
               for vp in (1.5, 2.0, 2.5)]
    assert a_in_vp[0] < a_in_vp[1] < a_in_vp[2], \
        f"a* not increasing in varphi: {a_in_vp}"
    a_in_ell = [optimize_injection(InjectionProblem(SCALE_05, ell, 1.5, 1.0)).threshold
                for ell in (0.1, 0.2, 0.3)]
    assert a_in_ell[0] < a_in_ell[1] < a_in_ell[2], \
        f"a* not increasing in ell: {a_in_ell}"


# ---------------------------------------------------------------------------
# Criterion 9: corridor functionals satisfy their first-order equations
# ---------------------------------------------------------------------------


def test_corridor_ode_residuals_and_boundaries():
    """f, g, r solve u' = e s u + forcing with s = qW/Z, e = 1/(1-ell):
    forcing 0 for f, -ell*e for g, -e*kernel for r; and they hit their
    boundary values at x = a exactly."""
    p = InjectionProblem(SCALE_05, 0.2, 1.5, 1.0)
    e = p.exponent
    points = [(0.3, 2.0), (1.0, 2.0), (1.7, 2.0), (0.5, 4.0), (2.5, 4.0),
              (3.6, 4.0), (0.2, 1.0), (0.8, 1.0), (1.5, 6.0), (5.0, 6.0)]
    step = 3e-4
    for (x, a) in points:
        slope = 0.05 * SCALE_05.W(x) / SCALE_05.Z(x)
        fd_f = (f_a(p, x + step, a) - f_a(p, x - step, a)) / (2.0 * step)
        assert abs(fd_f - e * slope * f_a(p, x, a)) < 1e-7
        fd_g = (g_a(p, x + step, a) - g_a(p, x - step, a)) / (2.0 * step)
        assert abs(fd_g - (e * slope * g_a(p, x, a) - p.ell * e)) < 1e-7
        fd_r = (r_a(p, x + step, a) - r_a(p, x - step, a)) / (2.0 * step)
        assert abs(fd_r - (e * slope * r_a(p, x, a)
                           - e * SCALE_05.Z.kernel(x))) < 1e-7
    for a in (1.0, 2.0, 6.0):
        assert f_a(p, a, a) == 1.0
        assert g_a(p, a, a) == 0.0
        assert r_a(p, a, a) == 0.0
