"""Tracing of the taxdelay layers from outside the library.

``Tracer.install`` wraps the public functions of each library module from
the outside: every name bound to a wrapped function, in every taxdelay
module, is rebound to the wrapper, so calls between modules are seen too.
No file under src/ changes.  Spans (name, start, end, parent) are kept in
flat arrays in memory and written out by ``write``; a span's self time is
its duration minus the time its child spans cover.

Layers and what is recorded for them:

* cli           - span around ``main``; the extra ``h`` call that
                  ``optimize`` makes after the optimizer; escaping exceptions.
* numerics      - spans around the public functions; scipy ``quad`` calls,
                  integrand evaluations, root-search ``h`` evaluations and
                  bracket-growth steps are counted.
* tax_terminal, tax_injection, tables, simulate - spans around every public
                  function; the simulators also get a counting ``capture``.
* scale, model  - call counts only (a span per call would cost more than
                  most calls do).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

SPAN_LAYERS = ("numerics", "tax_terminal", "tax_injection", "tables", "simulate")
SELF_TIME_LAYERS = ("cli",) + SPAN_LAYERS
MODEL_FUNCTIONS = ("new_model", "spectral_roots", "laplace_exponent")


class _CountingCapture:
    """Engine ``capture`` that counts live slots without copying any array."""

    def __init__(self, cells: Dict[str, List[int]], mode: str):
        self._iterations = cells[f"simulate.{mode}.iterations"]
        self._live = cells[f"simulate.{mode}.live_slots"]
        self._slots = cells[f"simulate.{mode}.slots"]

    def add(self, **arrays: np.ndarray) -> None:
        alive = arrays["alive"]
        self._iterations[0] += 1
        self._live[0] += int(np.count_nonzero(alive))
        self._slots[0] += alive.size


class Tracer:
    """Spans and counters for one traced pass; one instance per pass."""

    def __init__(self):
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: List[int] = []
        self._cells: Dict[str, List[int]] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._root_state: List[Any] = []

    # -- recording -----------------------------------------------------------

    def _cell(self, name: str) -> List[int]:
        return self._cells.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self._cell(name)[0]

    def span_count(self) -> int:
        return len(self._start)

    def _span(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self._names):
            self._names.append(name)
        names, starts, ends, parents, stack = (self._span_name, self._start, self._end,
                                               self._parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        cell = self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every taxdelay module's name for ``original`` at ``replacement``."""
        for key, module in list(sys.modules.items()):
            if key != "taxdelay" and not key.startswith("taxdelay."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _set(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import taxdelay.cli as cli
        import taxdelay.model as model
        import taxdelay.numerics as numerics
        import taxdelay.scale as scale
        import taxdelay.simulate as simulate
        import taxdelay.tables as tables
        import taxdelay.tax_injection as tax_injection
        import taxdelay.tax_terminal as tax_terminal

        special = {
            numerics.integrate_tail: self._wrap_integrate,
            numerics.integrate_finite: self._wrap_integrate,
            numerics.find_root_decreasing_sign: self._wrap_root,
            tables.table_rows: self._wrap_table_rows,
            tables.sweep_rows: self._wrap_sweep_rows,
            simulate.simulate_terminal: lambda n, f: self._wrap_simulate(n, f, "terminal"),
            simulate.simulate_injection: lambda n, f: self._wrap_simulate(n, f, "injection"),
        }
        modules = {"numerics": numerics, "tax_terminal": tax_terminal,
                   "tax_injection": tax_injection, "tables": tables, "simulate": simulate}
        for layer in SPAN_LAYERS:
            module = modules[layer]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = special.get(fn)
                self._rebind(fn, wrap(name, fn) if wrap else self._span(name, fn))

        for attr in MODEL_FUNCTIONS:
            fn = getattr(model, attr)
            self._rebind(fn, self._counter("model.calls", fn))
        for attr, fn in list(vars(scale.ScaleSet).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._set(scale.ScaleSet, attr, self._counter("scale.calls", fn))
        self._set(numerics, "quad", self._counter("numerics.quad_calls", numerics.quad))
        self._set(numerics, "brentq", self._mark_brentq(numerics.brentq))

        # cli's own names for the candidate functions serve only the
        # residual that ``optimize`` prints after the optimizer
        self._set(cli, "h_terminal", self._span("cli.residual_h", cli.h_terminal))
        self._set(cli, "h_bar", self._span("cli.residual_h", cli.h_bar))
        self._set(cli, "main", self._wrap_main(self._span("cli.main", cli.main)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrappers with extra counting -------------------------------------------

    def _wrap_main(self, fn: Callable) -> Callable:
        errors = self._cell("cli.uncaught_errors")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[0] += 1
                raise
        return wrapper

    def _wrap_integrate(self, name: str, fn: Callable) -> Callable:
        evals = self._cell("numerics.integrand_evals")
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(x):
                evals[0] += 1
                return f(x)
            return inner(counted, *args, **kwargs)
        return wrapper

    def _wrap_root(self, name: str, fn: Callable) -> Callable:
        h_evals = self._cell("numerics.root.h_evals")
        steps = self._cell("numerics.root.bracket_steps")
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(h, *args, **kwargs):
            state = [0, None]  # h evaluations so far, and when brentq took over

            def counted(x):
                state[0] += 1
                return h(x)
            self._root_state.append(state)
            try:
                return inner(counted, *args, **kwargs)
            finally:
                self._root_state.pop()
                h_evals[0] += state[0]
                # h(lo) is the first evaluation; each later one before
                # brentq grew the bracket
                steps[0] += max((state[1] if state[1] is not None else state[0]) - 1, 0)
        return wrapper

    def _mark_brentq(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._root_state:
                self._root_state[-1][1] = self._root_state[-1][0]
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_table_rows(self, name: str, fn: Callable) -> Callable:
        per_id: Dict[Any, Callable] = {}

        @functools.wraps(fn)
        def wrapper(table_id, *args, **kwargs):
            if table_id not in per_id:
                per_id[table_id] = self._span(f"{name}.{table_id}", fn)
            return per_id[table_id](table_id, *args, **kwargs)
        return wrapper

    def _wrap_sweep_rows(self, name: str, fn: Callable) -> Callable:
        points = self._cell("tables.sweep_points")
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = inner(*args, **kwargs)
            points[0] += len(rows)
            return rows
        return wrapper

    def _wrap_simulate(self, name: str, fn: Callable, mode: str) -> Callable:
        inner = self._span(name, fn)
        for part in ("iterations", "live_slots", "slots"):
            self._cell(f"simulate.{mode}.{part}")

        @functools.wraps(fn)
        def wrapper(p, threshold, cfg, capture=None):
            if capture is None:
                capture = _CountingCapture(self._cells, mode)
            return inner(p, threshold, cfg, capture=capture)
        return wrapper

    # -- analysis ---------------------------------------------------------------

    def _arrays(self):
        names = np.array(self._span_name, dtype=np.int64)
        start = np.array(self._start)
        duration = np.array(self._end) - start
        parent = np.array(self._parent, dtype=np.int64)
        child = np.zeros(len(start))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return names, duration, duration - child, parent

    def layer_metrics(self, n_ops: int, tail_level: Callable[[int], float],
                      percentile: Callable[[np.ndarray, float], float]
                      ) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures, normalised per operation unless the unit says per call.

        ``tail_level`` and ``percentile`` are the end-to-end report's own, so
        the per-layer tails are taken the same way.
        """
        names, duration, self_time, parent = self._arrays()
        ids = {name: i for i, name in enumerate(self._names)}

        def mask(*span_names: str) -> np.ndarray:
            wanted = [ids[n] for n in span_names if n in ids]
            return np.isin(names, wanted)

        def per_op_ms(values: np.ndarray, m: np.ndarray) -> float:
            return float(values[m].sum()) * 1e3 / n_ops

        def per_call_ms(m: np.ndarray) -> float:
            return float(duration[m].mean()) * 1e3 if m.any() else 0.0

        def pct_ms(m: np.ndarray, level: float) -> float:
            return percentile(duration[m], level) * 1e3

        def tail(m: np.ndarray) -> float:
            return pct_ms(m, tail_level(int(m.sum())))

        def per_op(count: float) -> float:
            return count / n_ops

        layer_of = np.array([n.split(".")[0] for n in self._names] or [""])
        span_layer = layer_of[names] if len(names) else np.zeros(0, dtype=str)
        m: Dict[str, Tuple[float, str]] = {}
        for layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_ms"] = (per_op_ms(self_time, span_layer == layer), "ms/op")

        m["cli.main.self_ms"] = (per_op_ms(self_time, mask("cli.main")), "ms/op")
        m["cli.residual_h_ms"] = (per_op_ms(duration, mask("cli.residual_h")), "ms/op")
        m["cli.uncaught_errors"] = (per_op(self.count("cli.uncaught_errors")), "count/op")

        m["numerics.quad_calls"] = (per_op(self.count("numerics.quad_calls")), "count/op")
        m["numerics.integrand_evals"] = (per_op(self.count("numerics.integrand_evals")),
                                         "count/op")
        integrate = mask("numerics.integrate_tail", "numerics.integrate_finite")
        m["numerics.integrate.ms"] = (per_op_ms(duration, integrate), "ms/op")
        m["numerics.root.h_evals"] = (per_op(self.count("numerics.root.h_evals")), "count/op")
        m["numerics.root.bracket_steps"] = (per_op(self.count("numerics.root.bracket_steps")),
                                            "count/op")
        m["numerics.root.self_ms"] = (
            per_op_ms(self_time, mask("numerics.find_root_decreasing_sign")), "ms/op")

        m["scale.calls"] = (per_op(self.count("scale.calls")), "count/op")
        m["model.calls"] = (per_op(self.count("model.calls")), "count/op")

        for layer, optimize, h_name in (("tax_terminal", "optimize_terminal", "h_terminal"),
                                        ("tax_injection", "optimize_injection", "h_bar")):
            opt = mask(f"{layer}.{optimize}")
            m[f"{layer}.optimize.p50_ms"] = (pct_ms(opt, 0.5), "ms")
            m[f"{layer}.optimize.tail_ms"] = (tail(opt), "ms")
            m[f"{layer}.{h_name}.calls"] = (per_op(int(mask(f"{layer}.{h_name}").sum())),
                                            "count/op")
        m["tax_terminal.psi.self_ms"] = (per_op_ms(self_time, mask("tax_terminal.psi")),
                                         "ms/op")
        injection_tail = mask("tax_injection.injection_tail")
        m["tax_injection.tax_tail.ms"] = (per_op_ms(duration, mask("tax_injection.tax_tail")),
                                          "ms/op")
        m["tax_injection.injection_tail.ms"] = (per_op_ms(duration, injection_tail), "ms/op")
        inside_tail = np.zeros(len(names), dtype=bool)
        nested = parent >= 0
        inside_tail[nested] = injection_tail[parent[nested]]
        prefix = inside_tail & mask("numerics.integrate_finite")
        m["tax_injection.injection_tail.prefix_steps"] = (per_op(int(prefix.sum())), "count/op")

        for table_id in (1, 2, 3):
            m[f"tables.table_rows.{table_id}.ms"] = (
                per_call_ms(mask(f"tables.table_rows.{table_id}")), "ms/call")
        m["tables.existence_grid.ms"] = (per_call_ms(mask("tables.existence_grid")), "ms/call")
        points = self.count("tables.sweep_points")
        sweep_ms = float(duration[mask("tables.sweep_rows")].sum()) * 1e3
        m["tables.sweep_rows.ms_per_point"] = (sweep_ms / points if points else 0.0, "ms/point")
        m["tables.affine_calls"] = (
            per_op(int(mask("tables.terminal_affine", "tables.injection_affine").sum())),
            "count/op")

        for mode in ("terminal", "injection"):
            runs = mask(f"simulate.simulate_{mode}")
            live = self.count(f"simulate.{mode}.live_slots")
            slots = self.count(f"simulate.{mode}.slots")
            busy = float(duration[runs].sum())
            calls = int(runs.sum())
            m[f"simulate.{mode}.ms"] = (per_call_ms(runs), "ms/call")
            m[f"simulate.{mode}.iterations"] = (
                self.count(f"simulate.{mode}.iterations") / calls if calls else 0.0, "count/call")
            m[f"simulate.{mode}.live_slot_frac"] = (live / slots if slots else 0.0, "frac")
            m[f"simulate.{mode}.live_events_per_s"] = (live / busy if busy else 0.0, "1/s")
        return m

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Spans as JSON lines [name, start_s, end_s, parent_index] after a header."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "names": self._names,
                                  "counters": {k: v[0] for k, v in self._cells.items()}}))
            out.write("\n")
            names = self._names
            for i in range(len(self._start)):
                out.write(json.dumps([names[self._span_name[i]], self._start[i],
                                      self._end[i], self._parent[i]]))
                out.write("\n")
