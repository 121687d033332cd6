"""The names the benchmark's tracer reaches into must keep working.

``perfbench/tracing.py`` wraps library functions from outside: it rebinds
``numerics.find_root_decreasing_sign``, ``numerics.quad``,
``numerics.brentq``, ``cli.main`` and cli's own ``h_terminal``/``h_bar``,
through which ``optimize`` takes the residual it prints, and it passes a
counting ``capture=`` to ``simulate_terminal`` and ``simulate_injection``.
A rename in the library would break the traced benchmark run without
failing any other test; these run ``optimize`` and ``simulate`` in both
modes under the tracer.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import taxdelay.cli as cli
import taxdelay.numerics as numerics
import taxdelay.simulate as simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SCENARIO = ["--c", "1.2", "--lambda", "1", "--mu", "1", "--q", "0.05", "--ell", "0.2"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
