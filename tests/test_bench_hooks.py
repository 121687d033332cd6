"""The names the benchmark's tracer reaches into must keep working.

``perfbench/tracing.py`` wraps library functions from outside: it rebinds
``numerics.find_root_decreasing_sign``, ``numerics.quad``,
``numerics.brentq``, ``cli.main`` and cli's own ``h_terminal``/``h_bar``,
through which ``optimize`` takes the residual it prints, and it passes a
counting ``capture=`` to ``simulate_terminal`` and ``simulate_injection``.
A rename in the library would break the traced benchmark run without
failing any other test; these run ``optimize`` and ``simulate`` in both
modes under the tracer.  ``perfbench/run.py`` and ``tracing.py`` also
import library names by module; the first tests read those imports from
the two files' syntax trees and resolve every one.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import taxdelay.cli as cli
import taxdelay.numerics as numerics
import taxdelay.simulate as simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SRC = Path(inspect.getfile(cli)).parent

# the modules that exist only to keep the benchmark's mode-named imports working
REEXPORTS = ("tax_terminal", "tax_injection")

SCENARIO = ["--c", "1.2", "--lambda", "1", "--mu", "1", "--q", "0.05", "--ell", "0.2"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _library_imports(node: ast.AST):
    """(module, [names]) for each taxdelay import under node; [] for a plain import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("taxdelay"):
            yield sub.module, [alias.name for alias in sub.names]
        elif isinstance(sub, ast.Import):
            for alias in sub.names:
                if alias.name.startswith("taxdelay"):
                    yield alias.name, []


def _install_imports():
    tracer = next(n for n in _tree(TRACING).body
                  if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    install = next(n for n in tracer.body
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    return [module for module, _ in _library_imports(install)]


@pytest.mark.parametrize("script", ["run.py", "tracing.py"])
def test_benchmark_imports_resolve(script):
    imports = list(_library_imports(_tree(PERFBENCH / script)))
    assert imports
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{script}: {module_name} has no {missing}"


def test_traced_modules_export_what_they_list():
    modules = _install_imports()
    assert {f"taxdelay.{name}" for name in REEXPORTS} <= set(modules)
    for module_name in modules:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        assert exported, f"{module_name} has no __all__"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module_name}.__all__ lists missing {missing}"


@pytest.mark.parametrize("name", REEXPORTS)
def test_reexport_modules_define_nothing(name):
    tree = _tree(SRC / f"{name}.py")
    defined = [n.name for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert not defined
    assert not any(isinstance(n, ast.Lambda) for n in ast.walk(tree))
    module = importlib.import_module(f"taxdelay.{name}")
    for attr in module.__all__:
        assert getattr(module, attr).__module__ == "taxdelay.problem", attr


def test_tracer_sees_root_search_and_residual(capsys):
    originals = (cli.main, cli.h_terminal, cli.h_bar, numerics.quad, numerics.brentq)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["optimize", "--mode", "terminal", *SCENARIO, "--S", "-5"]) == 0
        assert cli.main(["optimize", "--mode", "injection", *SCENARIO, "--varphi", "1.5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert (cli.main, cli.h_terminal, cli.h_bar, numerics.quad, numerics.brentq) == originals
    assert tracer.count("numerics.root.h_evals") > 0
    metrics = tracer.layer_metrics(
        2, lambda n: 0.9,
        lambda values, level: float(np.quantile(values, level)) if len(values) else 0.0)
    assert metrics["cli.residual_h_ms"][0] > 0.0
    assert metrics["cli.uncaught_errors"][0] == 0.0


def test_tracer_counts_both_engines(capsys):
    names = (cli.main, cli.simulate_terminal, cli.simulate_injection,
             simulate.simulate_terminal, simulate.simulate_injection)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--mode", "terminal", *SCENARIO, "--S", "-5",
                         "--paths", "2000"]) == 0
        assert cli.main(["simulate", "--mode", "injection", *SCENARIO, "--varphi", "1.5",
                         "--paths", "2000"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert (cli.main, cli.simulate_terminal, cli.simulate_injection,
            simulate.simulate_terminal, simulate.simulate_injection) == names
    for mode in ("terminal", "injection"):
        assert tracer.count(f"simulate.{mode}.iterations") > 0
