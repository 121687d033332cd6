#!/usr/bin/env python3
"""Re-record the output corpus: what ``taxdelay.cli.main`` prints for a
fixed list of argvs.

    python3 tests/record_corpus.py

writes ``tests/corpus/outputs.json.gz`` from the code in this checkout's
``src/``.  The file holds the Python, numpy and scipy versions and, for
each argv, its exit code, stdout and stderr; ``test_corpus.py`` replays
it.  Re-record only when outputs are meant to move, and name the argvs
that moved in CHANGES.md.

The argvs, all fixed by seeds:

* the benchmark's operations at seeds 1 and 2, from ``perfbench/run.py``'s
  own builders;
* ``TestWideBox``'s 1,000 wide-box draws in each mode;
* the examples of the ROADMAP's open items C2, C3, C5, C7 and C8;
* every subcommand in CSV and in JSON at ``--precision 17``, and short
  Monte Carlo runs at several thresholds, whose analytic value reads psi;
* bad inputs and rare branches, one argv each: the exits 2 of ``main``'s
  invalid-input handler and of argparse, and ``--out``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib.util
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = TESTS / "corpus" / "outputs.json.gz"

JSON_17 = ("--format", "json", "--precision", "17")
CSV_17 = ("--precision", "17")
BASE = ("--c", "1.2", "--lambda", "1", "--mu", "1", "--q", "0.05")
TERMINAL = ("--mode", "terminal", *BASE, "--ell", "0.1", "--S", "-5")
INJECTION = ("--mode", "injection", *BASE, "--ell", "0.2", "--varphi", "1.5")

# the ROADMAP's examples of its open items, as printed there
ROADMAP_EXAMPLES: Tuple[Tuple[str, ...], ...] = (
    # C2: flat or far injection roots
    ("optimize", "--mode", "injection", "--c", "0.035", "--lambda", "10.73", "--mu",
     "0.01614", "--q", "5.36e-4", "--ell", "0.985", "--varphi", "7.99"),
    ("optimize", "--mode", "injection", "--c", "1e-7", "--lambda", "1", "--mu", "1",
     "--q", "0.05", "--ell", "0.1", "--varphi", "1.5"),
    ("optimize", "--mode", "injection", "--c", "1e-5", "--lambda", "1", "--mu", "1",
     "--q", "0.05", "--ell", "0.1", "--varphi", "1.5"),
    # C3: the tail near ell = 1
    ("optimize", "--mode", "terminal", "--c", "0.622", "--lambda", "2.7", "--mu", "11.3",
     "--q", "9.2e-5", "--ell", "0.99999", "--S", "1"),
    ("optimize", "--mode", "injection", "--c", "0.172", "--lambda", "0.0429", "--mu",
     "0.160", "--q", "0.0202", "--ell", "0.99968", "--varphi", "2.80"),
    ("optimize", "--mode", "terminal", "--c", "3.5", "--lambda", "7", "--mu", "9",
     "--q", "0.5", "--ell", "0.99999", "--S", "1"),
    # C5: optimize's value above the threshold and at a boundary case
    ("optimize", *TERMINAL[:-1], "5"),
    ("optimize", *TERMINAL, "--x", "5000"),
    # C7: range failures that name no input
    ("optimize", "--mode", "terminal", "--c", "1e-100", "--lambda", "1", "--mu", "1",
     "--q", "0.05", "--ell", "0.1"),
    ("optimize", "--mode", "terminal", "--c", "1.2", "--lambda", "1e-300", "--mu", "1",
     "--q", "0.05", "--ell", "0.1"),
    ("optimize", "--mode", "terminal", "--c", "1.2", "--lambda", "1", "--mu", "1e-300",
     "--q", "0.05", "--ell", "0.1"),
    ("optimize", "--mode", "terminal", "--c", "1e300", "--lambda", "1", "--mu", "1",
     "--q", "0.05", "--ell", "0.1"),
    # C8: the existence map's grid overflows
    ("sweep", "--mode", "terminal", *BASE, "--ell", "0.1", "--param", "S",
     "--from=-1e308", "--to=1e308", "--steps", "2", "--q-from", "0.01", "--q-to", "0.02",
     "--q-steps", "2"),
)

# each subcommand once per format
SUBCOMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("optimize", *TERMINAL),
    ("optimize", *INJECTION),
    ("reproduce", "1"),
    ("reproduce", "2"),
    ("reproduce", "3"),
    ("sweep", *TERMINAL, "--param", "ell", "--from", "0", "--to", "0.9", "--steps", "40"),
    ("sweep", *INJECTION, "--param", "varphi", "--from", "1.1", "--to", "3", "--steps", "40"),
    ("sweep", *TERMINAL, "--param", "q", "--from", "0.002", "--to", "0.3", "--steps", "20"),
    ("sweep", *TERMINAL, "--param", "S", "--from", "-10", "--to", "10", "--steps", "50",
     "--q-from", "0.002", "--q-to", "0.3", "--q-steps", "50"),
    ("simulate", *TERMINAL, "--paths", "2000"),
    ("simulate", *INJECTION, "--paths", "2000"),
)

# bad inputs and rarely taken branches: main's invalid-input handler, _emit's
# file branch, argvs the one-pass scan declines to argparse (a flag without a
# value, a bad value or choice, an = form) and a one-path run's nan stderr
RARE_BRANCHES: Tuple[Tuple[str, ...], ...] = (
    ("optimize", *TERMINAL, "--precision", "0"),
    ("optimize", *TERMINAL, "--out", "/nonexistent-dir/out.csv"),
    ("optimize", *TERMINAL, "--out", "/dev/null"),
    ("sweep", *TERMINAL, "--param", "ell", "--from", "0", "--to", "0.9", "--steps", "1"),
    ("sweep", *TERMINAL, "--param", "ell", "--from", "0.9", "--to", "0", "--steps", "3"),
    ("sweep", *TERMINAL, "--param", "S", "--from", "-10", "--to", "10", "--steps", "3",
     "--q-from", "0.01", "--q-to", "0.02"),
    ("optimize", *INJECTION[:-1], "1"),
    ("optimize", *TERMINAL, "--x"),
    ("optimize", *TERMINAL[:2], "--c", "abc", *TERMINAL[4:]),
    ("optimize", *TERMINAL, "--format", "xml"),
    ("optimize", *TERMINAL[:-2], "--S=-5"),
    ("simulate", *TERMINAL, "--paths", "1", "--format", "json"),
)

# short runs whose analytic column is phi(1; threshold), so psi at several levels
THRESHOLD_RUNS: Tuple[Tuple[str, ...], ...] = tuple(
    ("simulate", *scenario, flag, level, "--paths", "200", "--horizon", "50", *JSON_17)
    for scenario, flag in ((TERMINAL, "--b"), (INJECTION, "--a"))
    for level in ("0.5", "1.5", "2.5", "3.5", "5"))


def _perfbench_argvs() -> List[Tuple[str, ...]]:
    """The argvs of every benchmark operation at seeds 1 and 2."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(bench)
    b, a = bench.mc_thresholds()
    ops = [op for seed in (1, 2)
           for op in bench.solve_ops(seed) + bench.batch_ops(seed) + bench.mc_ops(seed, b, a)]
    return [argv for op in ops for argv in op.calls]


def _wide_box_argvs() -> List[Tuple[str, ...]]:
    sys.path.insert(0, str(TESTS))
    from test_cli import wide_box_argvs
    return [tuple(argv) for argv in wide_box_argvs()]


def corpus_argvs() -> List[Tuple[str, ...]]:
    """Every argv of the corpus once, in first-seen order."""
    argvs = _perfbench_argvs() + _wide_box_argvs() + list(ROADMAP_EXAMPLES) \
        + [argv + JSON_17 for argv in ROADMAP_EXAMPLES] \
        + [argv + fmt for argv in SUBCOMMANDS for fmt in (CSV_17, JSON_17)] \
        + list(THRESHOLD_RUNS) + [("validate", *JSON_17)] + list(RARE_BRANCHES)
    return list(dict.fromkeys(argvs))


Exit = Union[int, str]


@contextlib.contextmanager
def _columns(width: str):
    """Set ``COLUMNS``, the terminal width argparse wraps its usage text to."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = width
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def run(argv: Sequence[str]) -> Tuple[Exit, str, str]:
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call; the
    corpus replay and ``test_cli``'s wide-box census run argvs through it.

    An argparse exit gives its code; an escaping exception gives
    "raised <type>".  A Python warning raised during the call is appended
    to stderr as "<category>: <message>", every time it is raised.  Usage
    text is wrapped at 80 columns, whatever the terminal.
    """
    from taxdelay.cli import main
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, _columns("80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code: Exit = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escape is an outcome to pin
            code = f"raised {type(exc).__name__}"
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def versions() -> Dict[str, str]:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    records = []
    for argv in corpus_argvs():
        code, out, err = run(argv)
        records.append({"argv": list(argv), "exit": code, "stdout": out, "stderr": err})
    CORPUS.parent.mkdir(exist_ok=True)
    text = json.dumps({"versions": versions(), "records": records}, indent=0)
    # mtime 0: the same outputs give the same bytes
    with gzip.GzipFile(CORPUS, "wb", mtime=0) as handle:
        handle.write(text.encode("utf-8"))
    print(f"{len(records)} argvs written to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
