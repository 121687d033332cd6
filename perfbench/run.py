#!/usr/bin/env python3
"""End-to-end benchmark of the taxdelay command line, one workload per run.

Run from the root of a taxdelay checkout:

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 30 --trace 0

Every operation is one or more in-process ``taxdelay.cli.main`` calls made
by a single caller that waits for each answer before sending the next
(a closed loop on one thread).  Inputs come only from ``--seed``: each
workload is a fixed list of operations, run round after round for
``--seconds``.  A fixed calibration kernel runs just before every
operation, and times are reported at the kernel's reference speed (see
``Calibration``), so the shared host's speed swings cancel out.  Outputs are
checked after the timed section.  ``--trace 1`` makes the separate
traced run that times each library layer from outside (see tracing.py).
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import os

# one thread: numpy must not start a BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import functools
import io
import json
import marshal
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference_batch.json"

WORKLOADS = ("solve_mix", "batch_grid", "mc_paths")

# fresh interpreters timed per run for setup_s (after one untimed warm-up
# spawn that fills the bytecode and file caches)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

JSON_OUT = ["--format", "json", "--precision", "17"]

# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One unit a user waits for: a list of CLI argument vectors.

    ``work`` is what each call delivers (a solve, a batch output, or
    simulated paths); ``info`` carries what the checks need.
    """

    calls: Tuple[Tuple[str, ...], ...]
    work: int
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Call:
    exit_code: Optional[int]
    error: Optional[str]
    stdout: str


@dataclass
class Record:
    op: Op
    calls: List[Call]
    seconds: float

    def output(self) -> List[Tuple[Optional[int], Optional[str], str]]:
        return [(c.exit_code, c.error, c.stdout) for c in self.calls]


def load_cli():
    """Import taxdelay.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "taxdelay" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} is missing; run from a taxdelay checkout")
    sys.path.insert(0, str(SRC))
    import taxdelay
    import taxdelay.cli
    if Path(taxdelay.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported taxdelay from {taxdelay.__file__}, "
                         f"expected {package}")
    return taxdelay.cli


def call_cli(cli, argv: Tuple[str, ...]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # an escaping exception is a measured failure
        return Call(None, type(exc).__name__, out.getvalue())
    return Call(code, None, out.getvalue())


def run_op(cli, op: Op) -> Record:
    start = time.perf_counter()
    calls = [call_cli(cli, argv) for argv in op.calls]
    return Record(op, calls, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Workload: solve_mix
# ---------------------------------------------------------------------------

# ROADMAP fuzz box, except q >= 1e-3 and ell <= 0.9 (see README.md);
# ranges of positive parameters are sampled log-uniformly
LOG_UNIFORM = {"c": (0.1, 30.0), "lam": (0.1, 30.0), "mu": (0.1, 30.0),
               "q": (1e-3, 1.0), "varphi": (1.05, 3.0)}
UNIFORM = {"ell": (0.0, 0.9), "S": (-10.0, 10.0)}
# scenarios per Latin-hypercube block, and scenarios per workload
SCENARIO_BLOCK = 256
SOLVE_OPS = 300


def solve_block(seed: int, block: int) -> List[Dict[str, float]]:
    """One stratified block of scenarios from the box.

    Latin-hypercube draws keep every parameter's marginal over the box
    while making the mix of cheap and costly scenarios vary less from
    seed to seed.
    """
    import numpy as np
    rng = np.random.default_rng([seed, block])

    def strata() -> np.ndarray:
        return (rng.permutation(SCENARIO_BLOCK) + rng.random(SCENARIO_BLOCK)) / SCENARIO_BLOCK

    cols = {k: np.exp(math.log(lo) + strata() * (math.log(hi) - math.log(lo)))
            for k, (lo, hi) in LOG_UNIFORM.items()}
    cols.update({k: lo + strata() * (hi - lo) for k, (lo, hi) in UNIFORM.items()})
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(SCENARIO_BLOCK)]


def solve_ops(seed: int) -> List[Op]:
    """SOLVE_OPS scenarios with positive safety loading, each solved in both modes."""
    scenarios: List[Dict[str, float]] = []
    block = 0
    while len(scenarios) < SOLVE_OPS:
        scenarios += [s for s in solve_block(seed, block) if s["c"] * s["mu"] > s["lam"]]
        block += 1
    ops = []
    for s in scenarios[:SOLVE_OPS]:
        common = ("--c", repr(s["c"]), "--lambda", repr(s["lam"]), "--mu", repr(s["mu"]),
                  "--q", repr(s["q"]), "--ell", repr(s["ell"]))
        ops.append(Op(calls=(
            ("optimize", "--mode", "terminal", *common, "--S", repr(s["S"]), *JSON_OUT),
            ("optimize", "--mode", "injection", *common, "--varphi", repr(s["varphi"]),
             *JSON_OUT),
        ), work=1, info=s))
    return ops


# half-width of the sign-change window, relative to max(1, threshold)
SIGN_WINDOW = 1e-4


def check_solve(op: Op, index: int, call: Call) -> Optional[str]:
    """A finite threshold >= 0 and a sign change of h across it."""
    from taxdelay.model import new_model
    from taxdelay.scale import ScaleSet
    from taxdelay.tax_injection import InjectionProblem, h_bar
    from taxdelay.tax_terminal import TerminalProblem, h_terminal

    row = json.loads(call.stdout)
    threshold = row["threshold"]
    if not isinstance(threshold, (int, float)) or not math.isfinite(threshold) \
            or threshold < 0.0:
        return f"threshold {threshold!r} is not finite and >= 0"
    s = op.info
    scale = ScaleSet(new_model(s["c"], s["lam"], s["mu"]), s["q"])
    if index == 0:
        terminal = TerminalProblem(scale, s["ell"], s["S"], 1.0)
        h: Callable[[float], float] = lambda x: h_terminal(terminal, x)
    else:
        injection = InjectionProblem(scale, s["ell"], s["varphi"], 1.0)
        h = lambda x: h_bar(injection, x)
    if row["boundary_case"]:
        return None if h(0.0) <= 0.0 else "boundary case but h(0) > 0"
    # h is only as accurate as its quadratures (about 1e-10 of its largest
    # term); where h is nearly flat at the root a window of 1e-6 relative
    # falls inside that noise
    delta = SIGN_WINDOW * max(1.0, threshold)
    left, right = h(max(threshold - delta, 0.0)), h(threshold + delta)
    return None if left > 0.0 > right else \
        f"h does not change sign across {threshold!r}: {left!r}, {right!r}"


# ---------------------------------------------------------------------------
# Workload: batch_grid
# ---------------------------------------------------------------------------

BASE_TERMINAL = ("--mode", "terminal", "--c", "1.2", "--lambda", "1", "--mu", "1",
                 "--q", "0.05", "--ell", "0.1", "--S", "-5")
BASE_INJECTION = ("--mode", "injection", "--c", "1.2", "--lambda", "1", "--mu", "1",
                  "--q", "0.05", "--ell", "0.2", "--varphi", "1.5")

# the paper's tables and plot data; each key's output is pinned in
# reference_batch.json
BATCH_CALLS: Dict[str, Tuple[str, ...]] = {
    "table1": ("reproduce", "1"),
    "table2": ("reproduce", "2"),
    "table3": ("reproduce", "3"),
    "existence_grid": ("sweep", *BASE_TERMINAL, "--param", "S", "--from", "-10",
                       "--to", "10", "--steps", "50", "--q-from", "0.002",
                       "--q-to", "0.3", "--q-steps", "50"),
    "sweep_varphi": ("sweep", *BASE_INJECTION, "--param", "varphi", "--from", "1.1",
                     "--to", "3", "--steps", "40"),
    "sweep_S": ("sweep", *BASE_TERMINAL, "--param", "S", "--from", "-10",
                "--to", "10", "--steps", "40"),
    "sweep_ell": ("sweep", *BASE_TERMINAL, "--param", "ell", "--from", "0",
                  "--to", "0.9", "--steps", "40"),
}

# looser than the 1e-8 root tolerance, far tighter than any table digit
BATCH_REL_TOL = 1e-6


def batch_ops(seed: int) -> List[Op]:
    """One op per output of the batch; the seed only shuffles their order."""
    import numpy as np
    keys = list(BATCH_CALLS)
    order = [keys[k] for k in np.random.default_rng(seed).permutation(len(keys))]
    return [Op(calls=(BATCH_CALLS[k] + tuple(JSON_OUT),), work=1, info={"key": k})
            for k in order]


def matches(got: Any, want: Any, where: str) -> Optional[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for k in want:
            bad = matches(got[k], want[k], f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = matches(g, w, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if abs(got - want) <= BATCH_REL_TOL * max(1.0, abs(want)):
            return None
        return f"{where}: {got!r} != {want!r}"
    return None if got == want and type(got) is type(want) else f"{where}: {got!r} != {want!r}"


def check_batch(op: Op, index: int, call: Call, reference: Dict[str, Any]) -> Optional[str]:
    key = op.info["key"]
    return matches(json.loads(call.stdout), reference[key], key)


# ---------------------------------------------------------------------------
# Workload: mc_paths
# ---------------------------------------------------------------------------

MC_OPS = 4
MC_PATHS = 5_000
MC_HORIZON = 400
# |z| of one run against the analytic value; a correct engine exceeds it
# with probability 6e-7 per run
MC_Z_BOUND = 5.0


def mc_thresholds() -> Tuple[float, float]:
    """Optimal b* and a* of the README base scenarios."""
    from taxdelay.model import new_model
    from taxdelay.scale import ScaleSet
    from taxdelay.tax_injection import InjectionProblem, optimize_injection
    from taxdelay.tax_terminal import TerminalProblem, optimize_terminal

    scale = ScaleSet(new_model(1.2, 1.0, 1.0), 0.05)
    b = optimize_terminal(TerminalProblem(scale, 0.1, -5.0, 1.0)).threshold
    a = optimize_injection(InjectionProblem(scale, 0.2, 1.5, 1.0)).threshold
    return b, a


def mc_ops(seed: int, b: float, a: float) -> List[Op]:
    """Each op simulates both base scenarios, with Philox keys of its own."""
    import numpy as np
    ops = []
    common = ("--paths", str(MC_PATHS), "--horizon", str(MC_HORIZON))
    for index in range(MC_OPS):
        key_t, key_i = (int(k) for k in
                        np.random.SeedSequence([seed, index]).generate_state(2, np.uint64))
        ops.append(Op(calls=(
            ("simulate", *BASE_TERMINAL, "--b", repr(b), *common, "--seed", str(key_t),
             *JSON_OUT),
            ("simulate", *BASE_INJECTION, "--a", repr(a), *common, "--seed", str(key_i),
             *JSON_OUT),
        ), work=MC_PATHS))
    return ops


def check_mc(op: Op, index: int, call: Call) -> Optional[str]:
    row = json.loads(call.stdout)
    z = row["z_score"]
    if not isinstance(z, float) or not abs(z) <= MC_Z_BOUND:
        return f"{row['mode']}: |z| = {z!r} is not within {MC_Z_BOUND}"
    return None


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The vCPUs of a shared host change speed by up to 2x over tens of seconds.
# So an op's wall time is divided by the time of a fixed kernel, run just
# before it, and multiplied by the kernel's reference time: about its time
# on the 2-vCPU VM that defined the benchmark, when that VM ran fast.
# Interpreted code and array code slow down by different amounts, so each
# workload uses the kernel that resembles its own hot loop.  Each kernel
# time is first replaced by the median of it and its neighbours within
# this distance.
CALIBRATION_WINDOW = 2


def _calibration_integrand(x: float) -> float:
    return math.exp(-0.7 * x) * (1.0 - 0.4 * math.exp(-1.3 * x)) ** 1.7


@functools.lru_cache(maxsize=None)
def _kernel_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    for name in ("c", "lam", "mu", "q"):
        parser.add_argument("--" + name, type=float)
    return parser


_KERNEL_ROWS = [{"x": i * 0.1, "y": f"v{i}", "z": [i, i + 1]} for i in range(60)]


def interpreter_kernel() -> None:
    """scipy quad over a Python integrand, as in the tail integrals, and
    argument parsing and JSON, as in the CLI."""
    from scipy.integrate import quad
    for _ in range(4):
        quad(_calibration_integrand, 0.0, 60.0, limit=200)
    for _ in range(3):
        _kernel_parser().parse_args(["--c", "1.2", "--lam", "1", "--mu", "1", "--q", "0.05"])
        json.loads(json.dumps(_KERNEL_ROWS))


@functools.lru_cache(maxsize=None)
def _kernel_rng():
    import numpy as np
    return np.random.Generator(np.random.Philox(0))


def array_kernel() -> None:
    """Philox draws and array arithmetic over 5,000 paths, as in the MC engines."""
    import numpy as np
    rng = _kernel_rng()
    for _ in range(10):
        u, e = rng.random(5000), rng.standard_exponential(5000)
        end = np.minimum(3.0 * u, 2.0)
        tax = 0.4 * np.exp(-0.05 * end) * (-np.expm1(-0.05 * (end - u)))
        float(np.where(e > 0.1, tax + u, tax).sum())


@functools.lru_cache(maxsize=None)
def _module_code() -> bytes:
    return marshal.dumps(compile(Path(argparse.__file__).read_text(), "argparse", "exec"))


def import_kernel() -> None:
    """Unmarshalling and running a module's code, as an import does."""
    for _ in range(3):
        exec(marshal.loads(_module_code()), {"__name__": "perfbench_kernel"})


@dataclass(frozen=True)
class Calibration:
    kernel: Callable[[], None]
    reference_s: float

    def __call__(self) -> float:
        """Wall seconds of one run of the kernel."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


INTERPRETER = Calibration(interpreter_kernel, 1e-3)
ARRAY = Calibration(array_kernel, 1.2e-3)
IMPORT = Calibration(import_kernel, 3e-3)


def smoothed(samples: List[float]) -> List[float]:
    """Each sample replaced by the median of it and its neighbours."""
    w = CALIBRATION_WINDOW
    return [statistics.median(samples[max(i - w, 0):i + w + 1]) for i in range(len(samples))]


# ---------------------------------------------------------------------------
# Workload assembly and the loop
# ---------------------------------------------------------------------------


Check = Callable[[Op, int, Call], Optional[str]]


@dataclass
class Workload:
    ops: List[Op]
    check: Check
    calibration: Calibration


def build_workload(name: str, seed: int) -> Workload:
    """Everything the timed loop needs; this is what setup_s pays for."""
    if name == "solve_mix":
        return Workload(solve_ops(seed), check_solve, INTERPRETER)
    if name == "batch_grid":
        reference = json.loads(REFERENCE_FILE.read_text())
        return Workload(batch_ops(seed),
                        lambda op, i, call: check_batch(op, i, call, reference),
                        INTERPRETER)
    b, a = mc_thresholds()
    return Workload(mc_ops(seed, b, a), check_mc, ARRAY)


@dataclass
class Tally:
    """What the rounds left for one op: its first answer and every timing.

    ``calibration[i]`` is the index of the calibration taken just before
    the op's ``i``-th round.
    """

    first: Record
    seconds: List[float]
    calibration: List[int]
    differing: int = 0  # later rounds whose answer was not byte-identical

    def add(self, record: Record, calibration: int) -> None:
        self.seconds.append(record.seconds)
        self.calibration.append(calibration)
        if record.output() != self.first.output():
            self.differing += 1


def run_rounds(work: Workload, seconds: float, run: Callable[[Op], List[Record]]
               ) -> Tuple[List[List[Tally]], List[float]]:
    """Closed loop over the ops, round after round, until ``seconds`` have passed.

    The first round always completes, so every op has a timing.  ``run``
    returns one or more records per op (the traced run returns an untraced
    and a traced one); each kind gets its own tallies.  The calibration
    kernel runs before each op; its times are returned in order.
    """
    ops = work.ops
    tallies: List[List[Tally]] = []
    calibrations: List[float] = []
    start = time.perf_counter()
    done = 0
    while done < len(ops) or time.perf_counter() - start < seconds:
        k = done % len(ops)
        calibrations.append(work.calibration())
        records = run(ops[k])
        c = len(calibrations) - 1
        if k == len(tallies):
            tallies.append([Tally(r, [r.seconds], [c]) for r in records])
        else:
            for tally, r in zip(tallies[k], records):
                tally.add(r, c)
        done += 1
    return [[ts[j] for ts in tallies] for j in range(len(tallies[0]))], calibrations


def first_failure(record: Record, check: Check) -> Optional[str]:
    """Why the op's answer is wrong, or None: an error, an exit code or a check."""
    for index, call in enumerate(record.calls):
        if call.error:
            return f"uncaught {call.error}"
        if call.exit_code != 0:
            return f"exit {call.exit_code}"
        try:
            bad = check(record.op, index, call)
        except (ArithmeticError, ValueError, KeyError, TypeError) as exc:
            bad = f"unreadable output or failing check: {type(exc).__name__}: {exc}"
        if bad:
            return bad
    return None


# ---------------------------------------------------------------------------
# Set-up timing
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int) -> Dict[str, float]:
    """Import the CLI and build the inputs, in a fresh interpreter; time both.

    The import kernel runs just before and just after in the same process,
    so the time can be scaled to the reference speed of the vCPU this
    process ran on.
    """
    IMPORT()  # untimed: compiles the kernel's module
    before = statistics.median(IMPORT() for _ in range(5))
    start = time.perf_counter()
    load_cli()
    build_workload(workload, seed)
    seconds = time.perf_counter() - start
    after = statistics.median(IMPORT() for _ in range(5))
    return {"seconds": seconds, "calibration": (before + after) / 2}


def time_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Median set-up time over fresh interpreters, at reference speed and as measured."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=120)
        if i:
            child = json.loads(done.stdout)
            raw.append(child["seconds"])
            scaled.append(child["seconds"] * IMPORT.reference_s / child["calibration"])
    return statistics.median(scaled), statistics.median(raw)


def time_import() -> Tuple[float, float]:
    """Median import time of taxdelay.cli and of scipy.integrate within it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import taxdelay.cli; "
            "print(time.perf_counter() - t)")
    totals, scipy_parts = [], []
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code, str(SRC)],
                              check=True, capture_output=True, text=True, timeout=120)
        totals.append(float(done.stdout.split()[-1]))
        cumulative = 0.0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
                cumulative = float(parts[1]) / 1e6
        scipy_parts.append(cumulative)
    return statistics.median(totals), statistics.median(scipy_parts)


# ---------------------------------------------------------------------------
# Metrics and output
# ---------------------------------------------------------------------------


# op_tail_ms is the mean time of this share of a workload's ops, the
# slowest ones (at least one op).  Over 300 scenarios p99 would rest on 3
# of them, and even p90 moved by 9% between seeds; the mean over the
# slowest 30 moves about half as much.
TAIL_SHARE = 0.1


def tail_mean(values: List[float]) -> float:
    slowest = sorted(values)[-max(1, math.ceil(TAIL_SHARE * len(values))):]
    return statistics.fmean(slowest)


def tail_level(n: int) -> float:
    """p99, or the highest percentile with ten samples beyond it (the per-layer tails)."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.5


def percentile(values: List[float], level: float) -> float:
    import numpy as np
    return float(np.percentile(values, 100.0 * level)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tallies: List[Tally], calibrations: List[float], reference_s: float,
               setup: Tuple[float, float]) -> Tuple[Dict, Dict]:
    """Latency and throughput of each op, its median over rounds at reference speed."""
    speed = smoothed(calibrations)
    seconds = [statistics.median(s * reference_s / speed[c]
                                 for s, c in zip(t.seconds, t.calibration))
               for t in tallies]
    latencies = [s * 1e3 for s in seconds]
    work = sum(t.first.op.work * len(t.first.calls) for t in tallies)
    metrics = {
        "setup_s": (setup[0], "s"),
        "work_per_s": (work / sum(seconds), "1/s"),
        "op_p50_ms": (percentile(latencies, 0.5), "ms"),
        "op_tail_ms": (tail_mean(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    rounds = [len(t.seconds) for t in tallies]
    measured = [statistics.median(t.seconds) * 1e3 for t in tallies]
    notes = {"ops": len(tallies), "rounds_min": min(rounds),
             "rounds_median": statistics.median(rounds),
             "calibration_median_ms": statistics.median(calibrations) * 1e3,
             "as_measured": {"setup_s": setup[1],
                             "op_p50_ms": percentile(measured, 0.5),
                             "op_tail_ms": tail_mean(measured)}}
    return metrics, notes


def aliases(workload: str, metrics: Dict[str, Tuple[float, str]],
            fail_frac: float) -> Dict[str, Tuple[float, str]]:
    """The metric names the benchmark's issue uses, on the workload each applies to."""
    out = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
           "fail_frac": (fail_frac, "frac")}
    if workload == "solve_mix":
        out["solves_per_s"] = metrics["work_per_s"]
        out["solve_p50_ms"] = metrics["op_p50_ms"]
        out["solve_p99_ms"] = metrics["op_tail_ms"]
    elif workload == "batch_grid":
        out["batch_s"] = (len(BATCH_CALLS) / metrics["work_per_s"][0], "s")
    else:
        out["mc_paths_per_s"] = metrics["work_per_s"]
    return out


def git_commit() -> Optional[str]:
    """HEAD of this checkout; None when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except FileNotFoundError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_metadata(args) -> Dict[str, Any]:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "taxdelay").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_taxdelay_lines": src_lines,
    }


def print_metrics(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    cli = load_cli()
    meta = run_metadata(args)
    if args.trace:
        import_s, scipy_integrate_s = time_import()
    else:
        setup = time_setup(args.workload, args.seed)
    work = build_workload(args.workload, args.seed)
    # untimed: lets lazy set-up inside the libraries finish
    work.calibration()
    run_op(cli, work.ops[0])

    if not args.trace:
        (tallies,), calibrations = run_rounds(work, args.seconds,
                                              lambda op: [run_op(cli, op)])
        metrics, notes = end_to_end(tallies, calibrations, work.calibration.reference_s,
                                    setup)
        checked = tallies
    else:
        import tracing
        tracer = tracing.Tracer()

        def untraced_then_traced(op: Op) -> List[Record]:
            # back to back, so a change in machine speed during the run
            # does not enter the overhead
            untraced = run_op(cli, op)
            tracer.install()
            try:
                return [untraced, run_op(cli, op)]
            finally:
                tracer.uninstall()

        (untraced, traced), _ = run_rounds(work, args.seconds, untraced_then_traced)
        checked = untraced + traced
        n_traced = sum(len(t.seconds) for t in traced)
        metrics = tracer.layer_metrics(n_traced, tail_level, percentile)
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.import.scipy_integrate_s"] = (scipy_integrate_s, "s")
        metrics["trace.overhead_frac"] = (
            sum(map(sum, (t.seconds for t in traced)))
            / sum(map(sum, (t.seconds for t in untraced))) - 1.0, "frac")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(span_file, meta)
        notes = {"span_file": str(span_file.relative_to(ROOT)), "spans": tracer.span_count()}

    # every round of an op must repeat its first answer byte for byte, and
    # that answer must pass the workload's check
    attempted = failed = 0
    failures: List[str] = []
    for tally in checked:
        runs = len(tally.seconds)
        attempted += runs
        where = " | ".join(" ".join(argv) for argv in tally.first.op.calls)
        reason = first_failure(tally.first, work.check)
        if reason:
            failed += runs
            failures.append(f"{where} -> {reason}")
        elif tally.differing:
            failed += tally.differing
            failures.append(f"{where} -> {tally.differing} of {runs} rounds gave "
                            "another answer")
    meta.update(notes, failures=failures[:20])
    print(json.dumps({"meta": meta}))
    if not args.trace:
        print_metrics(f"{args.workload} (seed {args.seed}), issue names:",
                      aliases(args.workload, metrics, failed / attempted))
    print_metrics(f"{args.workload} (seed {args.seed}), reported:", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the CLI, build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        print(json.dumps(set_up(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
