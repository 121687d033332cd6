#!/usr/bin/env python3
"""Census of the library statements that no corpus argv runs.

    python3 tests/line_census.py

replays every argv of the output corpus (``record_corpus.corpus_argvs``)
in-process through ``record_corpus.run``, as ``test_corpus.py`` does,
under ``sys.settrace`` and ``threading.settrace`` (so the Monte Carlo draw
worker's thread is traced too), and prints, for each module of
``src/taxdelay``, the statements that never ran, then one line with their
total.  The library is imported afresh under the trace after the argvs are
built, so a module only the argv builders import (``perfbench/run.py``
imports ``tax_terminal`` and ``tax_injection``) counts as never run.

Counting rule.  A statement is a node of the module's syntax tree
(``ast.stmt``); its lines are its first to its last line for a simple
statement, and for a compound one (``def``, ``class``, ``if``, ``for``,
``while``, ``with``, ``try``) its decorators and header, up to the line
before its first body statement.  A statement is counted when one of its
lines carries bytecode (so docstrings of functions, ``global`` and the
like are not), and runs when the trace sees a line event on one of its
lines.  ``raise`` statements are left out: most guard inputs that no
subcommand is meant to reach.  The script only reports; it exits 0
whatever the count.  The count depends on the CPUs the process may use:
with two or more the draw worker runs and the inline draws do not, and on
one CPU the other way round, so compare counts from like machines.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Set

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "taxdelay"


def _code_lines(code) -> Set[int]:
    """The lines that carry bytecode in ``code`` and the code nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _statement_lines(node: ast.stmt) -> range:
    """All lines of a simple statement; decorators and header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def statements(source: str, path: Path) -> List[range]:
    """The counted statements of one module, as their line ranges."""
    code = _code_lines(compile(source, str(path), "exec"))
    counted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise):
            lines = _statement_lines(node)
            if code.intersection(lines):
                counted.append(lines)
    return counted


def traced_replay(argvs) -> Dict[str, Set[int]]:
    """Run every argv under the trace; the lines run, per library file."""
    from record_corpus import run
    prefix, hits = str(PACKAGE) + "/", {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    for name in [m for m in sys.modules if m == "taxdelay" or m.startswith("taxdelay.")]:
        del sys.modules[name]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        for argv in argvs:
            run(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> None:
    sys.path[:0] = [str(PACKAGE.parent), str(TESTS)]
    from record_corpus import corpus_argvs
    argvs = corpus_argvs()
    start = time.perf_counter()
    hits = traced_replay(argvs)
    elapsed = time.perf_counter() - start
    missed_total = counted_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        counted = statements(source, path)
        ran = hits.get(str(path), set())
        missed = sorted(lines[0] for lines in counted if not ran.intersection(lines))
        counted_total += len(counted)
        missed_total += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} of {len(counted)} never run")
            text = source.splitlines()
            for line in missed:
                print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"Never-run statements outside raise: {missed_total} of {counted_total} in "
          f"src/taxdelay ({len(argvs)} corpus argvs, {elapsed:.1f} s under trace)")


if __name__ == "__main__":
    main()
