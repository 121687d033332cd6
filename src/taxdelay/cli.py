"""Command-line front end.

``_SUBCOMMANDS`` names the five subcommands (``optimize``, ``reproduce``,
``sweep``, ``simulate``, ``validate``) and the groups of ``_FLAGS`` each
takes.  That flag table builds argparse's parsers and states which mode
owns each flag; an argv of ``--flag value`` pairs after the subcommand is
read from it in one pass, and argparse parses every other argv.

Output is CSV (default) or JSON, written to stdout or ``--out``.  Floats
are printed with ``--precision`` significant digits (default 6, at most
2**31 - 1).  Exit codes: 0 success, 2 invalid input, 3 numerical failure
(any ArithmeticError, overflow and division by zero included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, EventCapExceeded, InvalidConfig, InvalidParameter
from .model import new_model
from .problem import InjectionProblem, TerminalProblem, h, optimize, phi
from .scale import ScaleSet
from .simulate import SimConfig, simulate_injection, simulate_terminal
from .tables import (SWEEPABLE, TableRow, existence_grid, grid_values, sweep_rows,
                     table_rows)
from .validate import run_checks

# the shared h under the two names perfbench/tracing.py wraps; ``optimize``
# prints the residual its search already took, so no command calls them
h_terminal = h_bar = h

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3
# the largest precision a Python format spec takes
_PRECISION_MAX = 2 ** 31 - 1

__all__ = ["EXIT_OK", "EXIT_INVALID_INPUT", "EXIT_NUMERICAL_FAILURE", "parse_args", "main"]

Row = Dict[str, Any]

# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Every --flag, by the group of subcommands that take it: (flag, dest, type,
# default, choices, metavar, help, mode).  Default ``...`` marks a required
# flag; mode is the one mode that takes the flag, or "both".
_FLAGS = {
    "scenario": (
        ("--mode", "mode", str, ..., ("terminal", "injection"), None,
         "terminal: lump value at ruin; injection: costly top-ups", "both"),
        ("--c", "c", float, ..., None, None, "premium rate", "both"),
        ("--lambda", "lam", float, ..., None, None, "claim arrival intensity", "both"),
        ("--mu", "mu", float, ..., None, None, "exponential claim-size parameter", "both"),
        ("--q", "q", float, ..., None, None, "discount rate", "both"),
        ("--ell", "ell", float, ..., None, None, "tax rate in [0, 1)", "both"),
        ("--S", "s_terminal", float, None, None, None,
         "terminal value at ruin (terminal mode only, default 0)", "terminal"),
        ("--varphi", "varphi", float, None, None, None,
         "cost per unit injected (> 1; injection mode only, required)", "injection"),
        ("--x", "x", float, 1.0, None, None, "starting surplus level (default 1)", "both"),
    ),
    "sweep": (
        ("--param", "param", str, ..., SWEEPABLE, None, "parameter to vary", "both"),
        ("--from", "lo", float, ..., None, None, "grid start", "both"),
        ("--to", "hi", float, ..., None, None, "grid end", "both"),
        ("--steps", "steps", int, ..., None, None, "number of grid points (>= 2)", "both"),
        ("--q-from", "q_lo", float, None, None, None, "with --q-to/--q-steps and --param "
         "S: emit the 2-D (S, q) existence map instead", "both"),
        ("--q-to", "q_hi", float, None, None, None, None, "both"),
        ("--q-steps", "q_steps", int, None, None, None, None, "both"),
    ),
    "simulate": (
        ("--b", "b", float, None, None, None,
         "threshold (terminal mode only; default: the optimum)", "terminal"),
        ("--a", "a", float, None, None, None,
         "threshold (injection mode only; default: the optimum)", "injection"),
        ("--paths", "paths", int, 200_000, None, None,
         "number of simulated paths (default 200000)", "both"),
        ("--horizon", "horizon", float, 400.0, None, None, "time horizon (default 400)", "both"),
        ("--seed", "seed", int, 12345, None, None, "random seed (default 12345)", "both"),
    ),
    "output": (
        ("--format", "format", str, "csv", ("csv", "json"), None,
         "output format (default csv)", "both"),
        ("--out", "out", str, None, None, "PATH", "write output to PATH instead of stdout",
         "both"),
        ("--precision", "precision", int, 6, None, "N",
         f"significant digits for printed values, 1 to {_PRECISION_MAX} (default 6)", "both"),
    ),
}


@functools.lru_cache(maxsize=None)
def _flags(command: str) -> Dict[str, tuple]:
    """``command``'s rows of ``_FLAGS`` by flag, in its parser's order."""
    return {row[0]: row for group in _SUBCOMMANDS[command][2] for row in _FLAGS[group]}


@functools.lru_cache(maxsize=None)
def _scan_table(command: str) -> Tuple[Dict[str, tuple], frozenset, Dict[str, Any]]:
    """``command``'s rows by flag, its required dests and the other dests' defaults."""
    rows = _flags(command)
    required = frozenset(row[1] for row in rows.values() if row[3] is ...)
    return rows, required, {row[1]: row[3] for row in rows.values() if row[3] is not ...}


@functools.lru_cache(maxsize=None)
def _other_mode_flags(command: str, mode: str) -> Tuple[Tuple[str, str], ...]:
    """(flag, dest) of each of ``command``'s flags that only the other mode takes."""
    return tuple((flag, row[1]) for flag, row in _flags(command).items()
                 if row[7] not in ("both", mode))


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from the flag table once per process."""
    parser = argparse.ArgumentParser(
        prog="taxdelay",
        description="Optimal tax-implementation-delay thresholds for the "
                    "compound Poisson surplus process with exponential claims.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, _) in _SUBCOMMANDS.items():
        sub = commands.add_parser(name, help=about)
        if name == "reproduce":
            sub.add_argument("table", type=int, help="table id: 1, 2 or 3")
        for flag, dest, kind, default, choices, metavar, text, _ in _flags(name).values():
            sub.add_argument(flag, dest=dest, type=kind, required=default is ...,
                             default=None if default is ... else default,
                             choices=choices, metavar=metavar, help=text)
    return parser


# the negative numbers argparse takes for values, not options, in every
# release from 3.10 on (later releases also take forms such as -1.5e-3)
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _scan(command: str, argv: List[str]) -> Optional[argparse.Namespace]:
    """argparse's Namespace for ``--flag value`` pairs of ``command``'s
    flags, read from the flag table, or None where argparse could read argv
    otherwise or would exit.  test_cli.py's drawn-argv test checks each Python."""
    if len(argv) % 2:
        return None
    rows, required, defaults = _scan_table(command)
    args = argparse.Namespace(command=command)
    values = vars(args)
    values.update(defaults)
    for flag, text in zip(argv[::2], argv[1::2]):
        row = rows.get(flag)
        if row is None or text[:1] == "-" and not _NEGATIVE(text):
            return None  # not a flag of command, or a value argparse takes for an option
        _, dest, kind, _, choices, _, _, _ = row
        try:  # the last occurrence wins, as in argparse
            values[dest] = value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
    # argparse exits on a missing required flag
    return args if values.keys() >= required else None


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """The Namespace ``build_parser().parse_args(argv)`` gives.  ``_scan``
    reads a subcommand's flag pairs without building a parser; ``reproduce``
    (its table id is positional) and every argv the scan declines go to
    argparse's own pass, which writes all help, usage and error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in _SUBCOMMANDS and argv[0] != "reproduce":
        args = _scan(argv[0], argv[1:])
    return build_parser().parse_args(argv) if args is None else args


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------


def _reject_other_mode_flags(args: argparse.Namespace) -> None:
    for flag, dest in _other_mode_flags(args.command, args.mode):
        if getattr(args, dest) is not None:
            raise InvalidParameter(f"{args.mode} mode takes no {flag}")


def _build_problem(args: argparse.Namespace, allow_low_cost: bool = False):
    _reject_other_mode_flags(args)
    scale = ScaleSet(new_model(args.c, args.lam, args.mu), args.q)
    if args.mode == "terminal":
        return TerminalProblem(scale, args.ell, args.s_terminal or 0.0, args.x)
    if args.varphi is None:
        raise InvalidParameter("injection mode needs --varphi")
    return InjectionProblem(scale, args.ell, args.varphi, args.x, allow_low_cost)


# ---------------------------------------------------------------------------
# Subcommand bodies (each returns its output text and exit code)
# ---------------------------------------------------------------------------


def _cmd_optimize(args: argparse.Namespace) -> Tuple[str, int]:
    problem = _build_problem(args)
    report = optimize(problem)
    row: Row = {
        "mode": args.mode,
        "threshold": report.threshold,
        "boundary_case": report.boundary_case,
        "value": report.value,
        "h_residual": report.residual,
    }
    return _render(list(row), [row], args), EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> Tuple[str, int]:
    rows = [asdict(r) for r in table_rows(args.table)]
    return _render([f.name for f in fields(TableRow)], rows, args), EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> Tuple[str, int]:
    _reject_other_mode_flags(args)
    grid_flags = (args.q_lo, args.q_hi, args.q_steps)
    if any(v is not None for v in grid_flags):
        if any(v is None for v in grid_flags):
            raise InvalidParameter("the existence map needs all of --q-from, "
                                   "--q-to and --q-steps")
        if args.param != "S" or args.mode != "terminal":
            raise InvalidParameter("the existence map supports --param S in "
                                   "terminal mode only")
        s_grid, q_grid, h0 = existence_grid(new_model(args.c, args.lam, args.mu), args.ell,
                                            args.lo, args.hi, args.steps,
                                            args.q_lo, args.q_hi, args.q_steps)
        # each S, q and h(0) value and each flag formatted once, one column
        # at a time; rows are q-major with S varying fastest
        fmt, precision = args.format, args.precision
        values = [v for row in h0 for v in row]
        cell = _CELLS[fmt]
        flags = [cell(False, precision), cell(True, precision)]
        cells = [""] * (4 * len(values))
        cells[0::4] = _column(s_grid, fmt, precision) * len(q_grid)
        cells[1::4] = [text for q_text in _column(q_grid, fmt, precision)
                       for text in [q_text] * len(s_grid)]
        cells[2::4] = _column(values, fmt, precision)
        cells[3::4] = [flags[v > 0.0] for v in values]
        header = ["S", "q", "h_at_zero", "positive_threshold"]
        return _layout(header, cells, fmt), EXIT_OK
    if args.mode == "injection" and args.varphi is None and args.param != "varphi":
        raise InvalidParameter("injection mode needs --varphi")
    _, dest, *_, owner = _flags("sweep")[f"--{args.param}"]
    if owner not in ("both", args.mode):  # S and varphi each belong to one mode
        raise InvalidParameter(f"parameter {args.param} exists only in {owner} mode")
    grid = grid_values(args.lo, args.hi, args.steps)
    # the swept flag's own value is not read: the first grid point takes its place
    first = argparse.Namespace(**{**vars(args), dest: grid[0]})
    header = ["param", "param_value", "threshold", "value", "boundary_case"]
    rows = sweep_rows(_build_problem(first, allow_low_cost=True), args.param, grid)
    return _render(header, rows, args), EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> Tuple[str, int]:
    problem = _build_problem(args)
    cfg = SimConfig(n_paths=args.paths, horizon=args.horizon, seed=args.seed)
    engine, threshold = (simulate_terminal, args.b) if args.mode == "terminal" \
        else (simulate_injection, args.a)
    if threshold is None:
        threshold = optimize(problem).threshold
    result = engine(problem, threshold, cfg)
    analytic = phi(problem, args.x, threshold) if problem.admits(args.x) else math.nan
    z_score = (result.mean - analytic) / result.stderr if result.stderr > 0.0 \
        else math.nan
    if result.bias_exceeded:
        print("warning: horizon-truncation bias bound is not below 10% of "
              "the standard error; increase --horizon", file=sys.stderr)
    row: Row = {
        "mode": args.mode,
        "threshold": threshold,
        "mean": result.mean,
        "stderr": result.stderr,
        "n_paths": result.n_paths,
        "bias_bound": result.bias_bound,
        "bias_exceeded": result.bias_exceeded,
        "ruin_laplace": result.ruin_laplace,
        "analytic": analytic,
        "z_score": z_score,
    }
    return _render(list(row), [row], args), EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> Tuple[str, int]:
    checks = run_checks()
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in checks]
    code = EXIT_OK if all(r.passed for r in checks) else EXIT_NUMERICAL_FAILURE
    return _render(["name", "passed", "detail"], rows, args), code


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _csv_cell(value: Any, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _json_cell(value: Any, precision: int) -> str:
    """The text ``json.dumps`` writes for one cell, floats rounded first and
    non-finite ones written as the strings "nan", "inf" and "-inf"."""
    if isinstance(value, float):
        if precision < 17:  # 17 significant digits round-trip every double
            value = float(f"{value:.{precision}g}")
        if not math.isfinite(value):  # also a value rounded past the largest double
            return encode_basestring_ascii(str(value))  # nan/inf are not JSON literals
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


_CELLS = {"csv": _csv_cell, "json": _json_cell}


def _column(values: List[Any], fmt: str, precision: int) -> List[str]:
    """The texts ``_CELLS[fmt]`` writes for each of ``values``.  A column of
    floats is formatted in C-level passes: CSV's format spec, or JSON's
    rounding through that spec, then ``float.__repr__``.  Any other column,
    and a JSON column that holds or rounds to nan or inf (written as
    strings), takes the per-cell rule."""
    if set(map(type, values)) <= {float}:
        spec = f"{{:.{precision}g}}".format
        if fmt == "csv":
            return list(map(spec, values))
        # 17 significant digits round-trip every double
        rounded = values if precision >= 17 else list(map(float, map(spec, values)))
        # a nan or inf makes the sum one; a sum that overflows only costs the slow path
        if math.isfinite(sum(rounded)):
            return list(map(float.__repr__, rounded))
    cell = _CELLS[fmt]
    return [cell(v, precision) for v in values]


@functools.lru_cache(maxsize=64)
def _json_frame(header: Tuple[str, ...], one_row: bool) -> Tuple[str, Tuple[str, ...], str]:
    """The fixed text of ``json.dumps(..., indent=2)`` of one object of
    ``header``'s keys (``one_row``) or of a list of them: what comes before
    the first value, what follows each value of a row (the last closes the
    row and opens the next), and what follows the table's last value."""
    pad, opening, closing = ("", "", "") if one_row else ("  ", "[\n", "\n]")
    keys = [encode_basestring_ascii(k) for k in header]
    follows = tuple(f",\n{pad}  {k}: " for k in keys[1:]) + (
        f"\n{pad}}},\n{pad}{{\n{pad}  {keys[0]}: ",)
    return f"{opening}{pad}{{\n{pad}  {keys[0]}: ", follows, f"\n{pad}}}{closing}\n"


def _layout(header: List[str], cells: List[str], fmt: str) -> str:
    """The table of ``header``'s columns whose cell texts, row after row,
    are ``cells``, in the ``json.dumps(..., indent=2)`` layout (one row: the
    object alone) or as CSV."""
    width = len(header)
    n_rows = len(cells) // width
    if fmt == "json":
        if not n_rows:
            return "[]\n"
        # the cells interleaved with the rows' fixed text, in one join
        first, follows, last = _json_frame(tuple(header), n_rows == 1)
        parts = [first] * (2 * len(cells) + 1)
        parts[1::2] = cells
        parts[2::2] = follows * n_rows
        parts[-1] = last
        return "".join(parts)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[iter(cells)] * width))
    return buffer.getvalue()


def _render(header: List[str], rows: List[Row], args: argparse.Namespace) -> str:
    """The text of a table of row dicts in ``args.format``: each cell
    formatted where it stands, row after row, then laid out by ``_layout``."""
    cell, precision = _CELLS[args.format], args.precision
    return _layout(header, [cell(row[k], precision) for row in rows for k in header],
                   args.format)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {out_path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# each subcommand's body, help and groups of flags, in its parser's order;
# reproduce also takes the positional table id, ahead of its flags
_SUBCOMMANDS = {
    "optimize": (_cmd_optimize, "compute the optimal delay threshold", ("scenario", "output")),
    "reproduce": (_cmd_reproduce, "emit a built-in existence table", ("output",)),
    "sweep": (_cmd_sweep, "optimize along a parameter grid", ("scenario", "sweep", "output")),
    "simulate": (_cmd_simulate, "Monte Carlo run compared against the formula",
                 ("scenario", "simulate", "output")),
    "validate": (_cmd_validate, "run the internal self-check battery", ("output",)),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.precision < 1:  # before the subcommand spends any work
            raise InvalidParameter(f"--precision must be >= 1, got {args.precision}")
        if args.precision > _PRECISION_MAX:
            raise InvalidParameter(
                f"--precision must be <= {_PRECISION_MAX}, got {args.precision}")
        text, code = _SUBCOMMANDS[args.command][0](args)
        _emit(text, args.out)
    except (InvalidParameter, InvalidConfig, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ArithmeticError, EventCapExceeded) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return code


if __name__ == "__main__":
    sys.exit(main())
