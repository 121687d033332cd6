"""Tests for the command-line front end: argument handling, output formats,
exit codes, and numeric agreement with the library."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from record_corpus import run

import taxdelay
from taxdelay import cli
from taxdelay.cli import (EXIT_INVALID_INPUT, EXIT_NUMERICAL_FAILURE, EXIT_OK,
                          _csv_cell, _json_cell, _render, main)
from taxdelay.errors import BracketFailure
from taxdelay.model import new_model
from taxdelay.problem import (DelayedTaxation, InjectionProblem, TerminalProblem, h,
                              optimize, phi, psi, threshold_search)
from taxdelay.scale import ScaleSet
from taxdelay.tables import existence_affine, grid_values
from taxdelay.validate import CheckResult

TERMINAL_ARGS = ["--mode", "terminal", "--c", "1.2", "--lambda", "1",
                 "--mu", "1", "--q", "0.05", "--ell", "0.1"]
INJECTION_ARGS = ["--mode", "injection", "--c", "1.2", "--lambda", "1",
                  "--mu", "1", "--q", "0.05", "--ell", "0.2",
                  "--varphi", "1.5"]


def run_cli(capsys, *argv: str) -> Tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text: str) -> Tuple[List[str], List[Dict[str, str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


class TestOptimize:
    def test_terminal_csv(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", *TERMINAL_ARGS,
                               "--S", "-5", "--x", "0.25")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["mode", "threshold", "boundary_case", "value",
                          "h_residual"]
        assert len(rows) == 1
        row = rows[0]
        assert row["mode"] == "terminal"
        assert row["boundary_case"] == "false"
        assert float(row["threshold"]) == pytest.approx(0.5228512, abs=1e-6)
        assert abs(float(row["h_residual"])) < 1e-7

    def test_injection_json_single_object(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", *INJECTION_ARGS,
                               "--x", "0.25", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert isinstance(payload, dict)
        assert payload["mode"] == "injection"
        assert payload["boundary_case"] is False
        assert payload["threshold"] == pytest.approx(0.5314597, abs=1e-6)

    def test_boundary_case_reported(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", *TERMINAL_ARGS,
                               "--S", "3", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["boundary_case"] is True
        assert payload["threshold"] == 0.0

    def test_injection_requires_varphi(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", "--mode", "injection",
                               "--c", "1.2", "--lambda", "1", "--mu", "1",
                               "--q", "0.05", "--ell", "0.2")
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_invalid_tax_rate_is_input_error(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", "--mode", "terminal",
                               "--c", "1.2", "--lambda", "1", "--mu", "1",
                               "--q", "0.05", "--ell", "1.5")
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_invalid_model_is_input_error(self, capsys):
        rc, out, err = run_cli(capsys, "optimize", "--mode", "terminal",
                               "--c", "-1", "--lambda", "1", "--mu", "1",
                               "--q", "0.05", "--ell", "0.1")
        assert rc == EXIT_INVALID_INPUT

    def test_negative_loading_far_optimum(self, capsys):
        """c < lam/mu with a* = 1101.49: Z(a*) leaves double range, the
        reported value must not."""
        rc, out, err = run_cli(capsys, "optimize", "--mode", "injection",
                               "--c", "0.452818", "--lambda", "0.59995",
                               "--mu", "0.147513", "--q", "0.00336",
                               "--ell", "0.3347", "--varphi", "2.781",
                               "--format", "json")
        assert rc == EXIT_OK, err
        payload = json.loads(out)
        assert payload["threshold"] == pytest.approx(1101.49, rel=1e-5)
        assert math.isfinite(payload["value"])

    @pytest.mark.parametrize("base", [TERMINAL_ARGS + ["--S", "-5"],
                                      INJECTION_ARGS])
    @pytest.mark.parametrize("mu,x0", [("1", 2000.0), ("10", 100.0)])
    def test_start_far_above_threshold(self, capsys, base, mu, x0):
        """x0 far above the threshold, where delta (x0 - b) passes 709 but
        theta1 x0 does not: the value is finite and equals the closed form
        w G(x0) + (F(x0)/F(b)) (V(b) (1 + w K(b)) - w G(b)) in mpmath."""
        argv = [*base, "--x", repr(x0)]
        argv[argv.index("--mu") + 1] = mu
        rc, out, err = run_cli(capsys, "optimize", *argv, "--format", "json",
                               "--precision", "17")
        assert rc == EXIT_OK, err
        payload = json.loads(out)
        scale = ScaleSet(new_model(1.2, 1.0, float(mu)), 0.05)
        p = TerminalProblem(scale, 0.1, -5.0, x0) if "terminal" in argv \
            else InjectionProblem(scale, 0.2, 1.5, x0)
        b, F = payload["threshold"], p.family
        assert (F.theta1 - F.theta2) * (x0 - b) > 709.8 > F.theta1 * x0
        want = phi_referee(p, x0, b, F.over_slope(b) * (1.0 + p.weight * F.kernel(b)))
        assert payload["value"] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("argv", [
        # the value at x0 = 5000 is not taken with the threshold lifted to x0
        ["optimize", *TERMINAL_ARGS, "--S", "-5", "--x", "5000"],
        ["optimize", *INJECTION_ARGS, "--x", "5000"],
        ["sweep", *TERMINAL_ARGS, "--S", "-5", "--param", "x", "--from", "0",
         "--to", "6000", "--steps", "3"],
        # the spectral roots overflow or divide by zero
        ["optimize", "--mode", "terminal", "--c", "1e300", "--lambda", "1",
         "--mu", "1", "--q", "0.05", "--ell", "0.1"],
        ["optimize", "--mode", "terminal", "--c", "1.2", "--lambda", "1",
         "--mu", "1", "--q", "1e300", "--ell", "0.1"],
        ["optimize", "--mode", "terminal", "--c", "1e-300", "--lambda", "1",
         "--mu", "1", "--q", "0.05", "--ell", "0.1"],
    ])
    def test_arithmetic_fault_is_numerical_failure(self, capsys, argv):
        """Overflow and division by zero exit 3 with one line on stderr."""
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_NUMERICAL_FAILURE
        assert out == "" and err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["optimize", *TERMINAL_ARGS, "--S", "1.7976931348623157e308"],
        ["sweep", *TERMINAL_ARGS, "--param", "S", "--from", "0",
         "--to", "1.7976931348623157e308", "--steps", "2"],
    ])
    def test_infinite_value_names_its_parameter(self, capsys, argv):
        """A value past the largest double is a numerical failure naming S,
        not a row that prints inf."""
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (EXIT_NUMERICAL_FAILURE, "")
        assert err == ("numerical failure: the optimal value leaves double range "
                       "at S=1.7976931348623157e+308\n")

    def test_nan_h_at_zero_names_its_parameter(self, capsys):
        """At varphi = 1e308 h(0) is nan: a numerical failure naming varphi,
        not the root search's bare bracket message."""
        rc, out, err = run_cli(capsys, "optimize", *INJECTION_ARGS[:-1], "1e308")
        assert (rc, out) == (EXIT_NUMERICAL_FAILURE, "")
        assert err == "numerical failure: h(0) is nan at varphi=1e+308\n"

    @pytest.mark.parametrize("flag, value, named", [
        # the spectral roots overflow
        ("--c", "1e300", "c=1e+300, lam=1.0, mu=1.0, q=0.05"),
        ("--q", "1e300", "c=1.2, lam=1.0, mu=1.0, q=1e+300"),
        # the scale coefficient lam/c^2 divides by zero
        ("--c", "1e-300", "c=1e-300, lam=1.0, mu=1.0, q=0.05"),
        # the slope coefficient w1 theta1 and lam/c^2 overflow to inf silently
        ("--c", "1e-160", "c=1e-160, lam=1.0, mu=1.0, q=0.05"),
    ])
    def test_model_out_of_range_names_inputs(self, capsys, flag, value, named):
        inputs = {"--c": "1.2", "--lambda": "1", "--mu": "1", "--q": "0.05", flag: value}
        rc, out, err = run_cli(capsys, "optimize", "--mode", "terminal", "--ell", "0.1",
                               *(arg for pair in inputs.items() for arg in pair))
        assert rc == EXIT_NUMERICAL_FAILURE
        assert err == f"numerical failure: the model leaves double range at {named}\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    def test_vanishing_scale_coefficient_still_solves(self, capsys, flag):
        """At lam or mu = 1e-300 the coefficient W.f2 underflows to 0.0,
        which is finite: the scenario still has an answer."""
        inputs = {"--c": "1.2", "--lambda": "1", "--mu": "1", "--q": "0.05", flag: "1e-300"}
        rc, out, err = run_cli(capsys, "optimize", "--mode", "terminal", "--ell", "0.1",
                               *(arg for pair in inputs.items() for arg in pair))
        assert rc == EXIT_OK and err == ""
        header, rows = parse_csv(out)
        assert math.isfinite(float(rows[0]["threshold"]))
        assert math.isfinite(float(rows[0]["value"]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_precision_past_format_range_is_input_error(self, capsys, fmt):
        """2**31 - 1 is the largest precision a format spec takes: one more
        exits 2 before any work, whether or not the format would use it."""
        argv = ["optimize", *TERMINAL_ARGS, "--format", fmt, "--precision"]
        rc, out, err = run_cli(capsys, *argv, "2147483647")
        assert rc == EXIT_OK and err == ""
        rc, out, err = run_cli(capsys, *argv, "2147483648")
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: --precision must be <= 2147483647, got 2147483648\n"


# ---------------------------------------------------------------------------
# optimize over the whole parameter box
# ---------------------------------------------------------------------------


def fuzz_box(n: int, seed: int) -> List[Dict[str, float]]:
    """Seeded draws from the admissible box, negative safety loading kept."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo: float, hi: float) -> np.ndarray:
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    columns = {
        "c": log_uniform(0.1, 30.0), "lambda": log_uniform(0.1, 30.0),
        "mu": log_uniform(0.1, 30.0), "q": log_uniform(1e-5, 1.0),
        "ell": rng.uniform(0.0, 0.98, n), "S": rng.uniform(-10.0, 10.0, n),
        "varphi": log_uniform(1.05, 3.0),
    }
    return [{k: float(v[i]) for k, v in columns.items()} for i in range(n)]


class TestFuzzBox:
    @pytest.mark.parametrize("mode,extra", [("terminal", "S"),
                                            ("injection", "varphi")])
    def test_exit_codes_documented(self, capsys, mode, extra):
        """Every draw gives a finite answer (exit 0) or a documented error
        (exit 2 or 3); no exception escapes the CLI."""
        draws = fuzz_box(300, 20261018)
        assert any(d["c"] < d["lambda"] / d["mu"] for d in draws)
        failures = []
        for d in draws:
            argv = ["optimize", "--mode", mode, "--format", "json"]
            for name in ("c", "lambda", "mu", "q", "ell", extra):
                argv += [f"--{name}", repr(d[name])]
            try:
                rc, out, err = run_cli(capsys, *argv)
            except Exception as exc:  # noqa: BLE001 - any escape is a failure
                failures.append((argv, repr(exc)))
                continue
            if rc == EXIT_OK:
                payload = json.loads(out)
                if not (math.isfinite(payload["threshold"])
                        and math.isfinite(payload["value"])):
                    failures.append((argv, payload))
            elif rc not in (EXIT_INVALID_INPUT, EXIT_NUMERICAL_FAILURE):
                failures.append((argv, rc))
        assert not failures, failures[:5]

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_phi_matches_mpmath_referee(self, mode):
        """phi at (1, opt), (0.5, opt + 1) and (1, 3) on every draw that
        solves, against the naive w G(x) + (F(x)/F(b)) (psi(b) - w G(b)) in
        mpmath.  Some points lie past theta1 b = 709, where G(b) overflows a
        double."""
        worst, past_overflow = 0.0, 0
        for p in solved_draws(mode):
            threshold = optimize(p).threshold
            for x, b in ((1.0, threshold), (0.5, threshold + 1.0), (1.0, 3.0)):
                want = phi_referee(p, x, b)
                worst = max(worst, abs(phi(p, x, b) - want) / max(1.0, abs(want)))
                past_overflow += p.family.theta1 * max(x, b) > 709.8
        assert worst <= 1e-12
        assert past_overflow > 0

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_value_is_phi_up_to_the_threshold(self, mode):
        """With x0 <= threshold, value is phi(x0; threshold) with h(threshold)
        = 0 imposed, so it differs from phi by (F(x0)/F(threshold)) h, which
        the root tolerance keeps small.  Checked at x0 = 1, and at half of
        every positive threshold, where the terms of a closed form in F(x0)
        and G(x0) cancel as e^{theta1 x0} grows."""
        worst_identity, worst_at_one, checked = 0.0, 0.0, 0
        for p in solved_draws(mode):
            threshold = optimize(p).threshold
            for x0 in {1.0, threshold / 2}:
                if not 0.0 < x0 <= threshold:
                    continue
                value = optimize(replace(p, x0=x0)).value  # same threshold
                want = phi(p, x0, threshold)
                scale = max(1.0, abs(want))
                ratio = math.exp(p.family.log_ratio(x0, threshold))
                off = (want - value) / scale
                worst_identity = max(worst_identity,
                                     abs(off - ratio * h(p, threshold) / scale))
                if x0 == 1.0:
                    worst_at_one = max(worst_at_one, abs(off))
                checked += 1
        assert checked > 200
        assert worst_identity <= 1e-12
        assert worst_at_one <= 1e-7


def wide_box(n: int, seed: int) -> List[Dict[str, float]]:
    """Seeded draws from the wide admissible box (ROADMAP Direction 7): c,
    lambda and mu log-uniform on [1e-2, 1e2], q and 1 - ell on [1e-6, 1],
    varphi on [1.01, 10], and S uniform on [-10, 10]."""
    rng = random.Random(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return [{"c": log_uniform(1e-2, 1e2), "lambda": log_uniform(1e-2, 1e2),
             "mu": log_uniform(1e-2, 1e2), "q": log_uniform(1e-6, 1.0),
             "ell": 1.0 - log_uniform(1e-6, 1.0), "S": rng.uniform(-10.0, 10.0),
             "varphi": log_uniform(1.01, 10.0)} for _ in range(n)]


def wide_box_argvs() -> List[List[str]]:
    """An ``optimize`` argv for each of 1,000 wide-box draws, in both modes;
    ``record_corpus.py`` records them too."""
    argvs = []
    for mode, extra in (("terminal", "S"), ("injection", "varphi")):
        for d in wide_box(1000, 20261019):
            argv = ["optimize", "--mode", mode, "--format", "json", "--precision", "17"]
            for name in ("c", "lambda", "mu", "q", "ell", extra):
                argv += [f"--{name}", repr(d[name])]
            argvs.append(argv)
    return argvs


@functools.lru_cache(maxsize=None)
def wide_box_census() -> Tuple[Tuple[List[str], Any, str, str], ...]:
    """(argv, exit code or "raised <type>", stdout, stderr) of an
    in-process ``optimize`` on each of the ``wide_box_argvs``."""
    return tuple((argv, *run(argv)) for argv in wide_box_argvs())


class TestWideBox:
    def test_exit_codes_documented(self):
        """No exception escapes; every draw exits 0, or 2 or 3 with the
        documented stderr prefix."""
        prefix = {EXIT_INVALID_INPUT: "error: ",
                  EXIT_NUMERICAL_FAILURE: "numerical failure: "}
        bad = [(argv, rc, err) for argv, rc, _, err in wide_box_census()
               if rc != EXIT_OK and not (rc in prefix and err.startswith(prefix[rc]))]
        assert not bad, bad[:5]

    @pytest.mark.xfail(strict=True, reason="ROADMAP C5: optimize's value is not "
                       "lifted to x0 above the threshold, and one injection draw "
                       "(a* = 0.115 < x0 = 1) prints value nan")
    def test_solved_rows_are_finite(self):
        bad = []
        for argv, rc, out, _ in wide_box_census():
            if rc == EXIT_OK:
                row = json.loads(out)
                if not all(isinstance(row[k], float) and math.isfinite(row[k])
                           for k in ("threshold", "value", "h_residual")):
                    bad.append((argv, row))
        assert not bad, bad[:5]


def solved_draws(mode: str) -> List[DelayedTaxation]:
    """The problems of the fuzz box at x0 = 1 whose threshold solves."""
    problems = []
    for d in fuzz_box(300, 20261018):
        scale = ScaleSet(new_model(d["c"], d["lambda"], d["mu"]), d["q"])
        p = TerminalProblem(scale, d["ell"], d["S"], 1.0) if mode == "terminal" \
            else InjectionProblem(scale, d["ell"], d["varphi"], 1.0)
        try:
            optimize(p)
        except BracketFailure:  # open item C2
            continue
        problems.append(p)
    return problems


def phi_referee(p: DelayedTaxation, x: float, b: float,
                psi_b: Optional[float] = None) -> float:
    """phi(x; b) = w G(x) + (F(x)/F(b)) (psi(b) - w G(b)), b lifted to x,
    taken naively in mpmath from the family's coefficients and the
    library's psi(b).  A given psi_b stands in for psi(b), and b is then
    not lifted.

    mpmath's exponent is unbounded, so e^{theta1 b} neither overflows nor
    costs digits; the terms that cancel are of size e^{theta1 x}, and
    60 + theta1 x/2.3 digits leave far more than 17 in the difference.
    """
    if psi_b is None:
        b = max(b, x)
        psi_b = psi(p, b)
    s, F = p.scale, p.family
    with mpmath.workdps(int(60 + F.theta1 * x / 2.3)):
        t1, t2 = mpmath.mpf(F.theta1), mpmath.mpf(F.theta2)

        def two_exp(c1, c2, y):
            return c1 * mpmath.exp(t1 * y) - c2 * mpmath.exp(t2 * y)

        z1, z2 = mpmath.mpf(s.Z.f1), mpmath.mpf(s.Z.f2)
        g1, g2 = (z1, z2) if F is s.W else (-z1 / t1, -z2 / t2)  # Z or -(Zbar + d/q)
        f1, f2, w = mpmath.mpf(F.f1), mpmath.mpf(F.f2), mpmath.mpf(p.weight)
        xm, bm = mpmath.mpf(x), mpmath.mpf(b)
        upsilon = mpmath.mpf(psi_b) - w * two_exp(g1, g2, bm)
        return float(w * two_exp(g1, g2, xm)
                     + two_exp(f1, f2, xm) / two_exp(f1, f2, bm) * upsilon)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class TestReproduce:
    def test_table_one_values(self, capsys):
        rc, out, err = run_cli(capsys, "reproduce", "1")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["ell", "intercept", "slope", "rhs_intercept",
                          "rhs_slope", "threshold"]
        assert [r["ell"] for r in rows] == ["0.1", "0.2", "0.3"]
        assert float(rows[0]["intercept"]) == pytest.approx(0.296297, abs=1e-5)
        assert float(rows[0]["rhs_intercept"]) == pytest.approx(1.142857,
                                                                abs=1e-5)
        assert float(rows[0]["rhs_slope"]) == pytest.approx(-0.047619,
                                                            abs=1e-5)

    def test_json_list(self, capsys):
        rc, out, err = run_cli(capsys, "reproduce", "3", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 3
        assert payload[0]["rhs_intercept"] == pytest.approx(24.0)
        assert payload[0]["rhs_slope"] == pytest.approx(-24.0)

    def test_unknown_table_is_input_error(self, capsys):
        rc, out, err = run_cli(capsys, "reproduce", "4")
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        rc, out, err = run_cli(capsys, "reproduce", "1", "--out", str(target))
        assert rc == EXIT_OK
        assert out == ""
        header, rows = parse_csv(target.read_text(encoding="utf-8"))
        assert len(rows) == 3

    def test_precision_controls_rendering(self, capsys):
        rc, out, err = run_cli(capsys, "reproduce", "1", "--precision", "3")
        assert rc == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["intercept"] == "0.296"

    def test_nonpositive_precision_is_input_error(self, capsys):
        rc, out, err = run_cli(capsys, "reproduce", "1", "--precision", "0")
        assert rc == EXIT_INVALID_INPUT

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table1.csv"
        rc, out, err = run_cli(capsys, "reproduce", "1", "--out", str(target))
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_tax_rate_sweep(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", *TERMINAL_ARGS, "--S", "-5",
                               "--param", "ell", "--from", "0.1",
                               "--to", "0.3", "--steps", "3")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["param", "param_value", "threshold", "value",
                          "boundary_case"]
        assert len(rows) == 3
        thresholds = [float(r["threshold"]) for r in rows]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_existence_map(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", *TERMINAL_ARGS,
                               "--param", "S", "--from", "-8", "--to", "0",
                               "--steps", "5", "--q-from", "0.01",
                               "--q-to", "0.09", "--q-steps", "3")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["S", "q", "h_at_zero", "positive_threshold"]
        assert len(rows) == 15
        flags = {r["positive_threshold"] for r in rows}
        assert flags == {"true", "false"}

    # ROADMAP C3: at ell = 0.99999 and q near 1e-4 the tail's continued
    # fraction does not converge
    FAILING_MAP = ["sweep", "--mode", "terminal", "--c", "0.622", "--lambda", "2.7",
                   "--mu", "11.3", "--q", "0.05", "--ell", "0.99999", "--param", "S",
                   "--from", "-1", "--to", "1", "--steps", "2",
                   "--q-from", "9.2e-5", "--q-to", "1e-4"]

    @pytest.mark.parametrize("q_steps, code, message", [
        ("2", EXIT_NUMERICAL_FAILURE,
         r"^numerical failure: continued fraction .* did not converge"),
        ("1", EXIT_INVALID_INPUT, r"^error: steps must be an integer >= 2"),
    ])
    def test_failing_map_prints_nothing(self, capsys, q_steps, code, message):
        rc, out, err = run_cli(capsys, *self.FAILING_MAP, "--q-steps", q_steps)
        assert (rc, out) == (code, "")
        assert re.match(message, err)

    def test_existence_map_needs_all_grid_flags(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", *TERMINAL_ARGS,
                               "--param", "S", "--from", "-8", "--to", "0",
                               "--steps", "5", "--q-from", "0.01")
        assert rc == EXIT_INVALID_INPUT
        assert "error:" in err

    def test_existence_map_terminal_s_only(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", *TERMINAL_ARGS,
                               "--param", "ell", "--from", "0.1",
                               "--to", "0.3", "--steps", "3",
                               "--q-from", "0.01", "--q-to", "0.09",
                               "--q-steps", "3")
        assert rc == EXIT_INVALID_INPUT

    def test_single_step_grid_is_input_error(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", *TERMINAL_ARGS, "--S", "-5",
                               "--param", "ell", "--from", "0.1",
                               "--to", "0.3", "--steps", "1")
        assert rc == EXIT_INVALID_INPUT

    def test_injection_requires_varphi(self, capsys):
        """Like optimize and simulate, no silent default cost."""
        rc, out, err = run_cli(capsys, "sweep", *INJECTION_ARGS[:-2],
                               "--param", "ell", "--from", "0.1",
                               "--to", "0.3", "--steps", "2")
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "injection mode needs --varphi" in err

    @pytest.mark.parametrize("base, param, grid, own", [
        ([*TERMINAL_ARGS, "--S", "-5"], "ell", ["0.1", "0.3"], ["--ell", "1.5"]),
        ([*TERMINAL_ARGS, "--S", "-5"], "c", ["1", "2"], ["--c", "-1"]),
        (INJECTION_ARGS, "varphi", ["1.1", "2"], ["--varphi", "-1"]),
    ])
    def test_swept_flag_value_is_not_read(self, capsys, base, param, grid, own):
        """The first grid point takes the swept flag's place, so a value
        the flag could not take on its own changes nothing."""
        argv = ["sweep", *base, "--param", param, "--from", grid[0], "--to", grid[1],
                "--steps", "3", "--format", "json", "--precision", "17"]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_OK, err
        assert run_cli(capsys, *argv, *own) == (EXIT_OK, out, "")

    @pytest.mark.parametrize("base, param, owner", [
        (INJECTION_ARGS, "S", "terminal"),
        (TERMINAL_ARGS, "varphi", "injection"),
    ])
    def test_other_mode_parameter_is_input_error(self, capsys, base, param, owner):
        rc, out, err = run_cli(capsys, "sweep", *base, "--param", param,
                               "--from", "1.1", "--to", "2", "--steps", "2")
        assert (rc, out) == (EXIT_INVALID_INPUT, "")
        assert f"parameter {param} exists only in {owner} mode" in err

    # ends near the largest double, whose difference overflows
    WIDE_S = ["sweep", *TERMINAL_ARGS, "--param", "S", "--from=-1e308", "--to=1e308",
              "--steps", "2"]

    def test_existence_map_on_an_overflowing_span(self, capsys):
        rc, out, err = run_cli(capsys, *self.WIDE_S, "--q-from", "0.01", "--q-to", "0.02",
                               "--q-steps", "2")
        assert (rc, err) == (EXIT_OK, "")
        header, rows = parse_csv(out)
        assert [r["S"] for r in rows] == ["-1e+308", "1e+308"] * 2

    def test_sweep_on_an_overflowing_span(self, capsys):
        rc, out, err = run_cli(capsys, *self.WIDE_S)
        assert "s_terminal must be finite" not in err
        assert (rc, err) == (EXIT_OK, "")
        header, rows = parse_csv(out)
        assert [r["param_value"] for r in rows] == ["-1e+308", "1e+308"]

    def test_varphi_sweep_needs_no_base_varphi(self, capsys):
        argv = ("sweep", *INJECTION_ARGS[:-2], "--param", "varphi",
                "--from", "1.1", "--to", "2", "--steps", "2")
        rc, out, err = run_cli(capsys, *argv)
        assert rc == EXIT_OK, err
        assert run_cli(capsys, *argv, "--varphi", "1.5")[1] == out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_terminal_run_agrees_with_formula(self, capsys):
        rc, out, err = run_cli(capsys, "simulate", *TERMINAL_ARGS,
                               "--S", "-5", "--b", "2", "--paths", "4000",
                               "--horizon", "200", "--seed", "7")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        row = rows[0]
        assert header[:2] == ["mode", "threshold"]
        assert float(row["threshold"]) == 2.0
        assert float(row["stderr"]) > 0.0
        assert abs(float(row["z_score"])) < 5.0
        assert row["bias_exceeded"] == "false"

    def test_repeat_run_bit_identical(self, capsys):
        argv = ["simulate", *TERMINAL_ARGS, "--S", "-5", "--b", "2",
                "--paths", "2000", "--horizon", "200", "--seed", "11"]
        rc1, out1, _ = run_cli(capsys, *argv)
        rc2, out2, _ = run_cli(capsys, *argv)
        assert rc1 == rc2 == EXIT_OK
        assert out1 == out2

    def test_injection_defaults_to_optimum(self, capsys):
        rc, out, err = run_cli(capsys, "simulate", *INJECTION_ARGS,
                               "--paths", "2000", "--horizon", "200",
                               "--seed", "3", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["threshold"] == pytest.approx(0.5314597, abs=1e-6)
        assert payload["ruin_laplace"] is None

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_default_threshold_at_a_far_start(self, capsys, mode):
        """At x0 = 5000 optimize's value leaves double range (ROADMAP C5);
        simulate never prints it, so its default threshold comes from the
        root search alone, and h does not read x0: the threshold is
        optimize's at x0 = 1, bit for bit."""
        scale = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
        if mode == "terminal":
            args, p = [*TERMINAL_ARGS, "--S", "-5"], TerminalProblem(scale, 0.1, -5.0, 1.0)
        else:
            args, p = INJECTION_ARGS, InjectionProblem(scale, 0.2, 1.5, 1.0)
        report = optimize(p)
        assert threshold_search(p) == (report.threshold, report.residual, report.root_diag)
        rc, out, err = run_cli(capsys, "simulate", *args, "--paths", "100", "--x", "5000",
                               "--format", "json", "--precision", "17")
        assert (rc, err) == (EXIT_OK, "")
        row = json.loads(out)
        assert row["threshold"] == report.threshold
        assert math.isfinite(row["mean"]) and math.isfinite(row["analytic"])

    def test_short_horizon_warns(self, capsys):
        rc, out, err = run_cli(capsys, "simulate", *TERMINAL_ARGS,
                               "--S", "-5", "--b", "2", "--paths", "2000",
                               "--horizon", "5", "--seed", "1")
        assert rc == EXIT_OK
        assert "bias" in err
        _, rows = parse_csv(out)
        assert rows[0]["bias_exceeded"] == "true"

    def test_one_path_does_not_warn(self, capsys):
        """One path has a nan standard error; its bias bound (1.5e-8 at the
        default horizon) is no reason to lengthen the horizon."""
        rc, out, err = run_cli(capsys, "simulate", *TERMINAL_ARGS,
                               "--S", "-5", "--paths", "1")
        assert rc == EXIT_OK
        assert err == ""
        _, rows = parse_csv(out)
        assert rows[0]["stderr"] == "nan"
        assert rows[0]["bias_exceeded"] == "false"

    def test_default_columns_unchanged(self, capsys):
        """The engine's work counters stay out of the default output."""
        argv = ["simulate", *TERMINAL_ARGS, "--S", "-5", "--b", "2",
                "--paths", "200", "--horizon", "50", "--seed", "5"]
        columns = ["mode", "threshold", "mean", "stderr", "n_paths",
                   "bias_bound", "bias_exceeded", "ruin_laplace", "analytic",
                   "z_score"]
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == EXIT_OK
        assert parse_csv(out)[0] == columns
        rc, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == EXIT_OK
        assert list(json.loads(out)) == columns

    def test_nonpositive_precision_rejected_before_any_work(self, capsys, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before --precision was checked")

        monkeypatch.setattr(cli, "simulate_terminal", engine)
        rc, out, err = run_cli(capsys, "simulate", *TERMINAL_ARGS, "--b", "2",
                               "--paths", "400000", "--precision", "0")
        assert rc == EXIT_INVALID_INPUT
        assert out == ""
        assert "--precision" in err

    @pytest.mark.parametrize("argv", [
        [*INJECTION_ARGS, "--a", "5000"],
        [*TERMINAL_ARGS, "--S", "-5", "--b", "5000"],
    ])
    def test_far_threshold_gives_finite_analytic(self, capsys, argv):
        """Past theta1 b = 709 the potential at b leaves double range; the
        objective does not."""
        rc, out, err = run_cli(capsys, "simulate", *argv, "--paths", "100",
                               "--horizon", "10", "--format", "json")
        assert rc == EXIT_OK, err
        assert math.isfinite(json.loads(out)["analytic"])

    def test_antithetic_flag_is_unrecognized(self, capsys):
        """The engine has one sampling path; the old pairing flag is an
        unknown argument like any other."""
        with pytest.raises(SystemExit) as stop:
            main(["simulate", *TERMINAL_ARGS, "--S", "-5", "--paths", "2000",
                  "--antithetic"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --antithetic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags of the other mode
# ---------------------------------------------------------------------------


SWEEP_ELL = ["--param", "ell", "--from", "0.1", "--to", "0.3", "--steps", "2"]


@pytest.mark.parametrize("argv,flag", [
    (["optimize", *TERMINAL_ARGS, "--varphi", "1.5"], "--varphi"),
    (["optimize", *INJECTION_ARGS, "--S", "-5"], "--S"),
    (["sweep", *TERMINAL_ARGS, "--varphi", "1.5", *SWEEP_ELL], "--varphi"),
    (["sweep", *INJECTION_ARGS, "--S", "-5", *SWEEP_ELL], "--S"),
    (["simulate", *TERMINAL_ARGS, "--S", "-5", "--a", "3"], "--a"),
    (["simulate", *TERMINAL_ARGS, "--varphi", "1.5"], "--varphi"),
    (["simulate", *INJECTION_ARGS, "--b", "3"], "--b"),
    (["simulate", *INJECTION_ARGS, "--S", "-5"], "--S"),
])
def test_other_mode_flag_is_input_error(capsys, argv, flag):
    """A flag that only the other mode takes is rejected, not ignored."""
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_INVALID_INPUT
    assert out == ""
    assert f"takes no {flag}" in err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


class TestValidate:
    def test_battery_passes(self, capsys):
        rc, out, err = run_cli(capsys, "validate")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["name", "passed", "detail"]
        assert len(rows) >= 8
        assert all(r["passed"] == "true" for r in rows)
        assert all(r["detail"] for r in rows)

    def test_failed_check_prints_table_and_exits_3(self, capsys, monkeypatch):
        checks = [CheckResult("ok", True, "fine"), CheckResult("bad", False, "off by 1")]
        monkeypatch.setattr(cli, "run_checks", lambda: checks)
        rc, out, err = run_cli(capsys, "validate")
        assert (rc, err) == (EXIT_NUMERICAL_FAILURE, "")
        assert out == "name,passed,detail\nok,true,fine\nbad,false,off by 1\n"


# ---------------------------------------------------------------------------
# several calls in one process
# ---------------------------------------------------------------------------


class TestRepeatedCalls:
    def test_parser_serves_successive_subcommands(self, capsys):
        """The parser is built once per process; a second call with another
        subcommand and other flags must not inherit anything from the first."""
        rc, out, err = run_cli(capsys, "optimize", *TERMINAL_ARGS, "--S", "-5",
                               "--format", "json")
        assert rc == EXIT_OK
        first = json.loads(out)
        assert first["mode"] == "terminal"
        assert first["threshold"] == pytest.approx(0.5228512, abs=1e-6)

        rc, out, err = run_cli(capsys, "reproduce", "1")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["ell", "intercept", "slope", "rhs_intercept",
                          "rhs_slope", "threshold"]
        assert float(rows[0]["intercept"]) == pytest.approx(0.296297, abs=1e-5)

        rc, out, err = run_cli(capsys, "optimize", *INJECTION_ARGS)
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert rows[0]["mode"] == "injection"
        assert float(rows[0]["threshold"]) == pytest.approx(0.5314597, abs=1e-6)


# ---------------------------------------------------------------------------
# argument parsing: one pass, the top-level parser's result
# ---------------------------------------------------------------------------

_SIM_ARGS = ["--paths", "100", "--horizon", "10"]

PARSED_ARGV = [
    ["optimize", *TERMINAL_ARGS, "--S", "-5"],
    ["optimize", *INJECTION_ARGS, "--format=json", "--prec", "17"],
    ["optimize", "--S", "-5", "--x=0.5", *TERMINAL_ARGS, "--out", "o.csv"],
    ["reproduce", "3"],
    ["reproduce", "--format", "json", "2"],
    ["sweep", *TERMINAL_ARGS, "--S", "-5", "--param", "S", "--from", "-10",
     "--to=10", "--steps", "5", "--q-from", "0.01", "--q-to", "0.3", "--q-steps", "3"],
    ["sweep", *INJECTION_ARGS, "--param", "varphi", "--from=1.1", "--to", "3",
     "--steps", "4", "--prec", "8"],
    ["simulate", *TERMINAL_ARGS, "--b", "0.5", *_SIM_ARGS, "--seed=7"],
    ["simulate", *INJECTION_ARGS, "--paths=100", "--horizon", "10", "--format", "json"],
    ["validate"],
    ["validate", "--precision=3"],
    ["optimize", *TERMINAL_ARGS, "--S=-1.5e-3"],  # exponent notation needs the = form
    ["optimize", *TERMINAL_ARGS, "--out", ""],
    ["optimize", *TERMINAL_ARGS, "--S", "-5", "--c", "2"],  # the last --c wins
    ["sweep", *TERMINAL_ARGS, "--param", "S", "--from", "-10", "--to", "10",
     "--steps", "5"],
]

REJECTED_ARGV = [
    ["--help"],
    ["-h"],
    ["optimize", "--help"],
    ["sweep", "-h"],
    [],
    ["optimise", *TERMINAL_ARGS],
    ["--format", "json"],
    ["optimize", *TERMINAL_ARGS, "--bogus", "1"],
    ["simulate", *INJECTION_ARGS, "--paths", "100", "--antithetic"],
    ["reproduce", "1", "2"],
    ["validate", "extra", "--unknown"],
    ["optimize", *TERMINAL_ARGS[2:]],
    ["optimize", *TERMINAL_ARGS[:-1]],
    ["optimize", "--mode", "both", *TERMINAL_ARGS[2:]],
    ["reproduce", "one"],
    # each of these reaches one edge where the one-pass scan leaves argv to argparse
    ["optimize", *TERMINAL_ARGS, "--S", "-inf"],
    ["optimize", *TERMINAL_ARGS, "--precision", "1.5"],
    ["optimize", *TERMINAL_ARGS, "--out"],
]

# decline edges whose outcome depends on the Python release: later argparse
# releases read ``-1.5e-3`` as a number and changed how ``--`` is handled
RELEASE_DEPENDENT_ARGV = [
    ["optimize", *TERMINAL_ARGS, "--S", "-1.5e-3"],
    ["optimize", *TERMINAL_ARGS, "--"],
]


def _exit_outcome(capsys, parse, argv) -> Tuple[Any, str, str]:
    with pytest.raises(SystemExit) as stop:
        parse(list(argv))
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


_BENCH_OUT = ["--format", "json", "--precision", "17"]

# the README examples that are flag pairs only, and the argv shapes the
# benchmark sends (perfbench/run.py)
ONE_PASS_ARGV = [
    ["optimize", *TERMINAL_ARGS, "--S", "-5"],
    ["sweep", *INJECTION_ARGS, "--param", "varphi", "--from", "1.1", "--to", "3",
     "--steps", "40"],
    ["simulate", *INJECTION_ARGS, "--paths", "200000", "--horizon", "400",
     "--seed", "12345"],
    ["validate"],
    ["optimize", "--mode", "terminal", "--c", "0.4137190255", "--lambda", "2.75",
     "--mu", "17.093", "--q", "0.0021", "--ell", "0.8125", "--S", "-7.301246",
     *_BENCH_OUT],
    ["optimize", *INJECTION_ARGS, *_BENCH_OUT],
    ["sweep", *TERMINAL_ARGS, "--S", "-5", "--param", "S", "--from", "-10", "--to",
     "10", "--steps", "50", "--q-from", "0.002", "--q-to", "0.3", "--q-steps", "50",
     *_BENCH_OUT],
    ["sweep", *TERMINAL_ARGS, "--S", "-5", "--param", "ell", "--from", "0", "--to",
     "0.9", "--steps", "40", *_BENCH_OUT],
    ["simulate", *TERMINAL_ARGS, "--S", "-5", "--b", "0.5228512", "--paths", "5000",
     "--horizon", "400", "--seed", "1234567890123", *_BENCH_OUT],
]

# values the scan must hand to argparse: not of the flag's type, taken by
# argparse for an option, or an option string
_AWKWARD_VALUES = ["", "x", "1.5", "-", "--", "-x", "-1e-3", "-inf", "--c", "-h"]


def _value_texts(kind: Any, choices: Any, clean: bool) -> st.SearchStrategy:
    if choices is not None:
        valid = st.sampled_from([str(c) for c in choices])
    elif kind is float:  # no nan: a Namespace holding nan equals no other
        valid = st.one_of(st.floats(allow_nan=False).map(repr),
                          st.sampled_from(["-5", ".5", "-.5", "1e300", "-0"]))
    elif kind is int:
        valid = st.integers(-20, 20).map(str)
    else:
        valid = st.text(max_size=4)
    return valid if clean else st.one_of(valid, st.sampled_from(_AWKWARD_VALUES))


@st.composite
def _subcommand_argv(draw) -> List[str]:
    """A subcommand and its own arguments, each given 0-2 times (required
    ones mostly once, help rarely), in any order.  A clean argv has every
    required flag, no help, no awkward value and no ``=`` form, so most
    of them take the one-pass route.  The arguments are help, reproduce's
    positional table id and the subcommand's rows of the flag table."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    clean = draw(st.booleans())
    # (option strings, type, choices, required); help alone has no type
    arguments = [(["-h", "--help"], None, None, False)]
    if name == "reproduce":
        arguments.append(([], int, None, True))
    arguments += [([flag], kind, choices, default is ...)
                  for flag, _, kind, default, choices, *_ in cli._flags(name).values()]
    groups = []
    for option_strings, kind, choices, required in arguments:
        if kind is None:
            counts = [0] if clean else [0] * 12 + [1]
        else:
            counts = ([1, 1, 2] if clean else [1, 1, 1, 1, 0, 2]) if required \
                else [0, 0, 1, 2]
        for _ in range(draw(st.sampled_from(counts))):
            if not option_strings:  # reproduce's table
                groups.append([draw(_value_texts(kind, choices, clean))])
                continue
            flag = draw(st.sampled_from(option_strings))
            if kind is None:
                groups.append([flag])
                continue
            value = draw(_value_texts(kind, choices, clean))
            inline = not clean and draw(st.booleans())
            groups.append([f"{flag}={value}"] if inline else [flag, value])
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


def _parse_outcome(parse, argv: List[str]) -> Tuple[Any, Any, str, str]:
    """The Namespace, or the exit code with what was written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(list(argv)), None, "", ""
        except SystemExit as stop:
            return None, stop.code, out.getvalue(), err.getvalue()


class TestParseParity:
    """``main`` reads a named subcommand's flag pairs in one scan and hands
    any other argv to the top-level parser's own pass; the result, and every
    exit argparse takes, must be those of that pass alone."""

    @pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
    def test_namespace_matches_top_level_parse(self, argv):
        assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", REJECTED_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
    def test_exits_match_top_level_parse(self, capsys, argv):
        want = _exit_outcome(capsys, cli.build_parser().parse_args, argv)
        assert _exit_outcome(capsys, main, argv) == want
        assert want[0] in (0, 2)

    @pytest.mark.parametrize("argv", RELEASE_DEPENDENT_ARGV, ids=" ".join)
    def test_release_dependent_argv_match_top_level_parse(self, argv):
        assert _parse_outcome(cli.parse_args, argv) == \
            _parse_outcome(cli.build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(_subcommand_argv())
    def test_drawn_argv_match_top_level_parse(self, argv):
        assert _parse_outcome(cli.parse_args, argv) == \
            _parse_outcome(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", ONE_PASS_ARGV, ids=" ".join)
    def test_flag_pairs_skip_argparse(self, monkeypatch, argv):
        """Argv of ``--flag value`` pairs never reach argparse's matcher."""
        want = cli.build_parser().parse_args(argv)

        def refuse(*_args, **_kwargs):
            raise AssertionError("argparse was asked to parse")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert cli.parse_args(argv) == want

    @pytest.mark.parametrize("argv", ONE_PASS_ARGV, ids=" ".join)
    def test_flag_pairs_build_no_parser(self, monkeypatch, argv):
        """The scan reads the flag table, not a parser: with the cached
        parser gone and argparse unable to build one, flag pairs still
        parse to the Namespace argparse gives."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("an argparse parser was built")

        cli.build_parser.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "__init__", refuse)
            got = cli.parse_args(argv)
        assert got == cli.build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------


def reference_render(header: List[str], rows: List[Dict[str, Any]],
                     precision: int) -> str:
    """The JSON rule the renderer must reproduce byte for byte: round each
    finite float to ``precision`` significant digits, write non-finite
    floats as strings (also a finite one that rounding carried past the
    largest double, which json.dumps would write as the non-JSON
    ``Infinity``), then ``json.dumps(..., indent=2)``."""
    def cook(v):
        if isinstance(v, float) and math.isfinite(v):
            v = float(f"{v:.{precision}g}")
        if isinstance(v, float) and not math.isfinite(v):
            return str(v)
        return v
    cooked = [{k: cook(row[k]) for k in header} for row in rows]
    return json.dumps(cooked[0] if len(cooked) == 1 else cooked, indent=2) + "\n"


_AWKWARD_TEXT = st.text(st.sampled_from('a%s"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))

_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                     1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(),
    _AWKWARD_TEXT,
)


@st.composite
def _tables(draw):
    header = draw(st.lists(st.one_of(st.text(max_size=6), _AWKWARD_TEXT),
                           min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: _CELLS for k in header}),
                         max_size=6))
    return header, rows


class TestJsonRendering:
    @settings(max_examples=400)
    @given(_tables(), st.integers(1, 25))
    def test_matches_json_dumps(self, table, precision):
        header, rows = table
        args = argparse.Namespace(format="json", precision=precision)
        assert _render(header, rows, args) == reference_render(header, rows, precision)

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 7])
    def test_row_counts(self, n_rows):
        header = ["x", "flag", "name"]
        rows = [{"x": 0.1 * i, "flag": i % 2 == 0, "name": f"r{i}"} for i in range(n_rows)]
        args = argparse.Namespace(format="json", precision=6)
        assert _render(header, rows, args) == reference_render(header, rows, 6)

    def test_rounding_past_the_largest_double_stays_strict_json(self, capsys):
        """At 16 digits the most negative double rounds to -inf; the cell is
        then the documented string "-inf", which a strict parser accepts."""
        rc, out, _ = run_cli(
            capsys, "sweep", *TERMINAL_ARGS, "--param", "S",
            "--from=-1.7976931348623157e308", "--to", "0", "--steps", "2",
            "--q-from", "0.01", "--q-to", "0.02", "--q-steps", "2",
            "--format", "json", "--precision", "16")
        assert rc == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")
        rows = json.loads(out, parse_constant=reject)
        assert [r["S"] for r in rows] == ["-inf", 0.0, "-inf", 0.0]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_reproduce_every_double(self, v):
        assert float(f"{v:.17g}") == v
        assert _json_cell(v, 17) == float.__repr__(v)
        assert _json_cell(v, 25) == float.__repr__(v)


# each object once: -0.0 == 0.0, True == 1 == 1.0 and nan != nan, so only
# identity tells these cells apart when one object repeats in a table
_SHARED_POOL = [-0.0, 0.0, math.nan, float("nan"), True, 1, 1.0, False, 0,
                np.float64(0.1), np.float64(-0.0), 0.1, 1e300, -math.inf, None, "1", ""]


@st.composite
def _shared_tables(draw):
    header = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries(
        {k: st.sampled_from(_SHARED_POOL) for k in header}), max_size=8))
    return header, rows


def reference_csv(header: List[str], rows: List[Dict[str, Any]], precision: int) -> str:
    """CSV written one cell at a time: each cell formatted where it stands."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[k], precision) for k in header])
    return buffer.getvalue()


class TestSharedCells:
    """Cell objects repeated within a table: objects that compare equal but
    print differently must keep their own text."""

    @settings(max_examples=300)
    @given(_shared_tables(), st.integers(1, 20))
    def test_json_matches_json_dumps(self, table, precision):
        header, rows = table
        args = argparse.Namespace(format="json", precision=precision)
        assert _render(header, rows, args) == reference_render(header, rows, precision)

    @settings(max_examples=300)
    @given(_shared_tables(), st.integers(1, 20))
    def test_csv_matches_cell_by_cell_writer(self, table, precision):
        header, rows = table
        args = argparse.Namespace(format="csv", precision=precision)
        assert _render(header, rows, args) == reference_csv(header, rows, precision)

    def test_equal_values_keep_their_own_text(self):
        rows = [{"v": v} for v in (0.0, -0.0, True, 1, 1.0, math.nan, math.nan,
                                   np.float64(1.0))]
        for fmt, reference in (("json", reference_render), ("csv", reference_csv)):
            args = argparse.Namespace(format=fmt, precision=6)
            assert _render(["v"], rows, args) == reference(["v"], rows, 6)


class TestExistenceMapBytes:
    @settings(max_examples=80)
    # the benchmark's 50 x 50 map, where each column takes the one-pass
    # route, and at 16 digits the ends at the largest doubles the per-cell one
    @example(-10.0, 10.0, 50, 0.002, 0.3, 50, 6, "json")
    @example(-10.0, 10.0, 50, 0.002, 0.3, 50, 6, "csv")
    @example(-10.0, 10.0, 50, 0.002, 0.3, 50, 17, "json")
    @example(-10.0, 10.0, 50, 0.002, 0.3, 50, 17, "csv")
    @example(-sys.float_info.max, sys.float_info.max, 50, 0.002, 0.3, 50, 16, "json")
    @example(-sys.float_info.max, sys.float_info.max, 50, 0.002, 0.3, 50, 16, "csv")
    @given(st.one_of(st.sampled_from([-sys.float_info.max, -0.0, 0.0]), st.floats(-20.0, 20.0)),
           st.one_of(st.sampled_from([-0.0, 0.0, sys.float_info.max]), st.floats(-20.0, 20.0)),
           st.integers(2, 6), st.floats(0.002, 0.3), st.floats(0.002, 0.3),
           st.integers(2, 4), st.integers(1, 20), st.sampled_from(["json", "csv"]))
    def test_map_matches_cell_by_cell_rows(self, s_lo, s_hi, steps, q_lo, q_hi, q_steps,
                                           precision, fmt):
        """The map prints the bytes of the row-dict rule: one dict per
        (q, S) cell, q-major with S fastest, from the scalar affine formula,
        rendered by the reference JSON or CSV writer.  At 16 digits and
        fewer the largest doubles round to +-inf."""
        assume(s_lo < s_hi and q_lo < q_hi)
        rows = []
        for q in grid_values(q_lo, q_hi, q_steps):
            i, sl, ri, rs = existence_affine(TerminalProblem,
                                             ScaleSet(new_model(1.2, 1.0, 1.0), q), 0.1)
            for s in grid_values(s_lo, s_hi, steps):
                value = (i + sl * s) - (ri + rs * s)
                rows.append({"S": s, "q": q, "h_at_zero": value,
                             "positive_threshold": value > 0.0})
        argv = ["sweep", *TERMINAL_ARGS, "--param", "S", f"--from={s_lo!r}",
                f"--to={s_hi!r}", "--steps", str(steps), f"--q-from={q_lo!r}",
                f"--q-to={q_hi!r}", "--q-steps", str(q_steps), "--format", fmt,
                "--precision", str(precision)]
        out = io.StringIO()
        # inf - inf at the largest doubles
        with contextlib.redirect_stdout(out), np.errstate(invalid="ignore"):
            assert main(argv) == EXIT_OK
        reference = reference_render if fmt == "json" else reference_csv
        header = ["S", "q", "h_at_zero", "positive_threshold"]
        assert out.getvalue() == reference(header, rows, precision)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                     math.nan, math.inf, -math.inf]),
)


class TestColumns:
    @settings(max_examples=300)
    @given(st.one_of(st.lists(_FLOATS, max_size=8), st.lists(_CELLS, max_size=8)),
           st.integers(1, 20), st.sampled_from(["json", "csv"]))
    def test_column_matches_per_cell_rule(self, values, precision, fmt):
        """A column's texts are each cell's: the one-pass route for a column
        of floats, the per-cell route for nan, inf, a value rounded past the
        largest double, np.float64 and non-floats."""
        cell = _json_cell if fmt == "json" else _csv_cell
        assert cli._column(values, fmt, precision) == [cell(v, precision) for v in values]


class TestImport:
    def test_package_root_imports_and_exports_nothing(self):
        """Each name has one route, the module that defines it: importing
        the package loads no submodule and binds no public name."""
        src = str(Path(taxdelay.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import taxdelay; "
                "print(sorted(m for m in sys.modules if m.startswith('taxdelay.'))); "
                "print(sorted(n for n in vars(taxdelay) if not n.startswith('__')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.splitlines() == ["[]", "[]"]

    def test_cli_import_leaves_quadrature_unloaded(self):
        """Only quadrature needs scipy.integrate, and no subcommand but
        ``validate`` integrates; importing the CLI must not load it."""
        src = str(Path(taxdelay.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import taxdelay.cli; "
                "print('scipy.integrate' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "False"

    def test_solves_leave_scipy_optimize_linalg_sparse_unloaded(self):
        """The root finder is the library's own Brent port; importing the
        CLI and solving in both modes loads only scipy.special."""
        src = str(Path(taxdelay.__file__).resolve().parents[1])
        code = "\n".join([
            "import io, sys",
            f"sys.path.insert(0, {src!r})",
            "from contextlib import redirect_stdout",
            "from taxdelay.cli import main",
            "with redirect_stdout(io.StringIO()):",
            f"    assert main(['optimize', *{TERMINAL_ARGS!r}, '--S', '-5']) == 0",
            f"    assert main(['optimize', *{INJECTION_ARGS!r}]) == 0",
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse')",
            "             if m in sys.modules))",
        ])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "[]"

    def test_solves_and_exit_functionals_leave_quadrature_unloaded(self):
        """Both optimizers and every finite-range exit functional are closed
        forms; none of them may load scipy.integrate."""
        src = str(Path(taxdelay.__file__).resolve().parents[1])
        code = "\n".join([
            "import io, sys",
            f"sys.path.insert(0, {src!r})",
            "from contextlib import redirect_stdout",
            "from taxdelay.cli import main",
            "from taxdelay.model import new_model",
            "from taxdelay.scale import ScaleSet",
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
            "from paper_functionals import (expected_discounted_deficit, g_a, r_a,",
            "                               ruin_time_laplace_taxed)",
            "from taxdelay.problem import InjectionProblem, TerminalProblem",
            "with redirect_stdout(io.StringIO()):",
            f"    assert main(['optimize', *{TERMINAL_ARGS!r}, '--S', '-5']) == 0",
            f"    assert main(['optimize', *{INJECTION_ARGS!r}]) == 0",
            "s = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)",
            "inj, term = InjectionProblem(s, 0.2, 1.5, 0.5), TerminalProblem(s, 0.1, -5.0, 0.5)",
            "g_a(inj, 0.5, 3.0), r_a(inj, 0.5, 3.0)",
            "ruin_time_laplace_taxed(term, 0.5, 3.0), expected_discounted_deficit(term, 0.5, 3.0)",
            "print('scipy.integrate' in sys.modules)",
        ])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "False"
