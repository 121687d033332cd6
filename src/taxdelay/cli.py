"""Command-line front end.

Subcommands:

* ``optimize``   - compute the optimal delay threshold for one scenario.
* ``reproduce``  - emit one of the built-in existence tables as CSV.
* ``sweep``      - optimize along a parameter grid (or emit the 2-D
                   (S, q) existence map) as plot-ready CSV.
* ``simulate``   - run the Monte Carlo engine and compare to the formula.
* ``validate``   - run the internal self-check battery.

Output is CSV (default) or JSON, written to stdout or ``--out``.  Floats
are printed with ``--precision`` significant digits (default 6).  Exit
codes: 0 success, 2 invalid input, 3 numerical failure (any
ArithmeticError, overflow and division by zero included).  An argv of
``--flag value`` pairs after the subcommand is read in one pass from a
table of that subcommand's parser; argparse parses every other argv.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, EventCapExceeded, InvalidConfig, InvalidParameter
from .model import new_model
from .problem import InjectionProblem, TerminalProblem, optimize, phi
from .scale import ScaleSet
from .simulate import SimConfig, simulate_injection, simulate_terminal
from .tables import (SWEEPABLE, TableRow, existence_grid, grid_values, sweep_rows,
                     table_rows)
# h_terminal is h_bar, the shared h; perfbench/tracing.py wraps both names here
from .tax_injection import h_bar  # noqa: F401
from .tax_terminal import h_terminal
from .validate import run_checks

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3

__all__ = ["EXIT_OK", "EXIT_INVALID_INPUT", "EXIT_NUMERICAL_FAILURE", "parse_args", "main"]

Row = Dict[str, Any]

# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to PATH instead of stdout")
    sub.add_argument("--precision", type=int, default=6, metavar="N",
                     help="significant digits for printed values (default 6)")


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("terminal", "injection"), required=True,
                     help="terminal: lump value at ruin; injection: costly top-ups")
    sub.add_argument("--c", type=float, required=True, help="premium rate")
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="claim arrival intensity")
    sub.add_argument("--mu", type=float, required=True,
                     help="exponential claim-size parameter")
    sub.add_argument("--q", type=float, required=True, help="discount rate")
    sub.add_argument("--ell", type=float, required=True, help="tax rate in [0, 1)")
    sub.add_argument("--S", dest="s_terminal", type=float, default=None,
                     help="terminal value at ruin (terminal mode only, default 0)")
    sub.add_argument("--varphi", type=float, default=None,
                     help="cost per unit injected (> 1; injection mode only, required)")
    sub.add_argument("--x", type=float, default=1.0,
                     help="starting surplus level (default 1)")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared within the process."""
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="taxdelay",
        description="Optimal tax-implementation-delay thresholds for the "
                    "compound Poisson surplus process with exponential claims.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_opt = commands.add_parser(
        "optimize", help="compute the optimal delay threshold")
    _add_scenario_flags(p_opt)
    _add_output_flags(p_opt)

    p_rep = commands.add_parser(
        "reproduce", help="emit a built-in existence table")
    p_rep.add_argument("table", type=int, help="table id: 1, 2 or 3")
    _add_output_flags(p_rep)

    p_swp = commands.add_parser(
        "sweep", help="optimize along a parameter grid")
    _add_scenario_flags(p_swp)
    p_swp.add_argument("--param", choices=SWEEPABLE, required=True,
                       help="parameter to vary")
    p_swp.add_argument("--from", dest="lo", type=float, required=True,
                       help="grid start")
    p_swp.add_argument("--to", dest="hi", type=float, required=True,
                       help="grid end")
    p_swp.add_argument("--steps", type=int, required=True,
                       help="number of grid points (>= 2)")
    p_swp.add_argument("--q-from", dest="q_lo", type=float, default=None,
                       help="with --q-to/--q-steps and --param S: emit the "
                            "2-D (S, q) existence map instead")
    p_swp.add_argument("--q-to", dest="q_hi", type=float, default=None)
    p_swp.add_argument("--q-steps", dest="q_steps", type=int, default=None)
    _add_output_flags(p_swp)

    p_sim = commands.add_parser(
        "simulate", help="Monte Carlo run compared against the formula")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--b", type=float, default=None,
                       help="threshold (terminal mode only; default: the optimum)")
    p_sim.add_argument("--a", type=float, default=None,
                       help="threshold (injection mode only; default: the optimum)")
    p_sim.add_argument("--paths", type=int, default=200_000,
                       help="number of simulated paths (default 200000)")
    p_sim.add_argument("--horizon", type=float, default=400.0,
                       help="time horizon (default 400)")
    p_sim.add_argument("--seed", type=int, default=12345,
                       help="random seed (default 12345)")
    _add_output_flags(p_sim)

    p_val = commands.add_parser(
        "validate", help="run the internal self-check battery")
    _add_output_flags(p_val)

    return parser, commands.choices


@functools.lru_cache(maxsize=None)
def _flag_table(command: str) -> Tuple[dict, dict, set, Optional[Callable[[str], Any]]]:
    """Read once from ``command``'s own parser: each store flag's (dest, type,
    choices), argparse's defaults, the required dests, the number matcher."""
    sub = _parsers()[1][command]
    flags, defaults, required = {}, dict(sub._defaults), set()
    for action in sub._actions:
        convert = sub._registry_get("type", action.type, action.type)
        if type(action) is argparse._StoreAction and action.nargs is None:
            flags.update(dict.fromkeys(action.option_strings,
                                       (action.dest, convert, action.choices)))
        if action.required:
            required.add(action.dest)
        elif action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults[action.dest] = convert(action.default) \
                if isinstance(action.default, str) else action.default
    negative = None if sub._has_negative_number_optionals else sub._negative_number_matcher.match
    return flags, defaults, required, negative


def _scan(command: str, argv: List[str]) -> Optional[argparse.Namespace]:
    """argparse's Namespace for ``--flag value`` pairs of ``command``'s store
    flags, or None where argparse could read argv otherwise or would exit.
    It mirrors argparse internals: test_cli.py's drawn-argv test checks each Python."""
    flags, defaults, required, negative = _flag_table(command)
    args = argparse.Namespace(command=command)
    values = vars(args)
    values.update(defaults)
    for flag, text in zip(argv[::2], argv[1::2]):
        entry = flags.get(flag)
        if entry is None or text[:1] == "-" and not (negative and negative(text)):
            return None  # not a store flag, or a value argparse takes for an option
        dest, convert, choices = entry
        try:  # the last occurrence wins, as in argparse
            values[dest] = value = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
    return None if len(argv) % 2 or not required <= values.keys() else args


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """The Namespace ``build_parser().parse_args(argv)`` gives, in one pass.

    When argv[0] names a subcommand and the rest is only ``--flag value``
    pairs its parser would take, ``_scan`` reads them from a table of that
    parser.  argparse serves every other argv and writes all help, usage
    and error text: the subcommand's parser parses the rest, and the
    top-level parser takes no arguments, ``-h`` and unknown commands.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args = _scan(argv[0], argv[1:])
    if args is None:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    return args


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------


# the flags that only the other mode takes, by their argparse dest
_OTHER_MODE_FLAGS = {"terminal": (("varphi", "--varphi"), ("a", "--a")),
                     "injection": (("s_terminal", "--S"), ("b", "--b"))}


def _reject_other_mode_flags(args: argparse.Namespace) -> None:
    for dest, flag in _OTHER_MODE_FLAGS[args.mode]:
        if getattr(args, dest, None) is not None:
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
# Subcommand bodies (each returns header + rows)
# ---------------------------------------------------------------------------


def _cmd_optimize(args: argparse.Namespace) -> Tuple[List[str], List[Row]]:
    problem = _build_problem(args)
    report = optimize(problem)
    row: Row = {
        "mode": args.mode,
        "threshold": report.threshold,
        "boundary_case": report.boundary_case,
        "value": report.value,
        "h_residual": h_terminal(problem, report.threshold),
    }
    return list(row), [row]


def _cmd_reproduce(args: argparse.Namespace) -> Tuple[List[str], List[Row]]:
    return [f.name for f in fields(TableRow)], [asdict(r) for r in table_rows(args.table)]


def _cmd_sweep(args: argparse.Namespace) -> Tuple[List[str], List[Row]]:
    _reject_other_mode_flags(args)
    grid_flags = (args.q_lo, args.q_hi, args.q_steps)
    if any(v is not None for v in grid_flags):
        if any(v is None for v in grid_flags):
            raise InvalidParameter("the existence map needs all of --q-from, "
                                   "--q-to and --q-steps")
        if args.param != "S" or args.mode != "terminal":
            raise InvalidParameter("the existence map supports --param S in "
                                   "terminal mode only")
        header = ["S", "q", "h_at_zero", "positive_threshold"]
        return header, existence_grid(new_model(args.c, args.lam, args.mu), args.ell,
                                      args.lo, args.hi, args.steps,
                                      args.q_lo, args.q_hi, args.q_steps)
    if args.mode == "injection" and args.varphi is None and args.param != "varphi":
        raise InvalidParameter("injection mode needs --varphi")
    owner = {"S": "terminal", "varphi": "injection"}.get(args.param, args.mode)
    if owner != args.mode:  # S and varphi each belong to one mode
        raise InvalidParameter(f"parameter {args.param} exists only in {owner} mode")
    grid = grid_values(args.lo, args.hi, args.steps)
    # the swept flag's own value is not read: the first grid point takes its place
    dest = _flag_table("sweep")[0][f"--{args.param}"][0]
    first = argparse.Namespace(**{**vars(args), dest: grid[0]})
    header = ["param", "param_value", "threshold", "value", "boundary_case"]
    return header, sweep_rows(_build_problem(first, allow_low_cost=True), args.param, grid)


def _cmd_simulate(args: argparse.Namespace) -> Tuple[List[str], List[Row]]:
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
    return list(row), [row]


def _cmd_validate(_: argparse.Namespace) -> Tuple[List[str], List[Row]]:
    header = ["name", "passed", "detail"]
    return header, [{
        "name": r.name, "passed": r.passed, "detail": r.detail,
    } for r in run_checks()]


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


def _cell_texts(header: List[str], rows: List[Row],
                cell: Callable[[Any, int], str], precision: int) -> List[str]:
    """The text of every cell, row by row, each distinct cell object
    formatted once.  Cells are told apart by identity, since a value key
    would merge -0.0 with 0.0 and True with 1 and 1.0; the list of cells
    keeps every object alive, so no id is reused."""
    cells = [row[k] for row in rows for k in header]
    ids = list(map(id, cells))
    text = {i: cell(v, precision) for i, v in dict(zip(ids, cells)).items()}
    return list(map(text.__getitem__, ids))


@functools.lru_cache(maxsize=64)
def _json_template(header: Tuple[str, ...], pad: str) -> str:
    """A ``json.dumps(..., indent=2)`` row of ``header``'s keys, indented by pad."""
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(k).replace('%', '%%')}: %s"
                        for k in header)
    return f"{pad}{{\n{fields}\n{pad}}}"


def _render(header: List[str], rows: List[Row], args: argparse.Namespace) -> str:
    precision = args.precision
    if args.format == "json":
        # json.dumps(..., indent=2) layout: one %-template per row, one fill pass
        template = _json_template(tuple(header), "" if len(rows) == 1 else "  ")
        text = ",\n".join([template] * len(rows)) % tuple(
            _cell_texts(header, rows, _json_cell, precision))
        return (text if len(rows) == 1 else f"[\n{text}\n]" if rows else "[]") + "\n"
    texts = _cell_texts(header, rows, _csv_cell, precision)
    width = len(header)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(texts[i:i + width] for i in range(0, len(texts), width))
    return buffer.getvalue()


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

_COMMANDS = {
    "optimize": _cmd_optimize,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.precision < 1:  # before the subcommand spends any work
            raise InvalidParameter(f"--precision must be >= 1, got {args.precision}")
        header, rows = _COMMANDS[args.command](args)
        _emit(_render(header, rows, args), args.out)
    except (InvalidParameter, InvalidConfig, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ArithmeticError, EventCapExceeded) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    if args.command == "validate" and not all(row["passed"] for row in rows):
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
