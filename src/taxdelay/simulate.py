"""Exact event-driven Monte Carlo for the taxed risk process.

Both problems control one process, the loss-carry-forward process of
Albrecher & Hipp (2007).  A path is its net (after-tax) level X and its
barrier B >= X, which starts at max(x0, threshold) and never decreases.
Below B the level drifts at c; on B tax is paid at rate ell*c, and X and B
grow together at (1-ell)*c.  (In terminal mode B - X is the pre-tax record
less the pre-tax level.)  A claim that takes X below zero is a shortfall,
and the engines differ only in what follows it: ``simulate_terminal`` pays
the terminal value S and ends the path (ruin); ``simulate_injection``
injects the deficit at cost varphi per unit and restarts X at zero below
the same B, which the path must regain before tax is paid again.

The paths are exact in distribution: exponential waiting times and claim
sizes, the drift and its discounted tax in closed form between claims, and
shortfalls only at claim instants, since the drift is upward.  The target
is the objective up to a finite horizon, whose discounted-tail bias is
bounded in closed form and reported.

Paths are not followed to the horizon once their discount weight is spent.
From t_w = min(ln(1/W_MIN)/q, horizon), where e^{-qt} reaches ``W_MIN``, a
payoff is discounted by the flat D(t_w) = e^{-q t_w} instead, and Russian
roulette (Kahn & Harris 1951) stops each path at min(t_w + T, horizon)
with T ~ Exp(q).  Given the path, a payoff at s > t_w survives the clock
with probability e^{-q(s - t_w)}, so the estimate is unbiased for the same
horizon-truncated target.  T comes from its own stream,
``Philox(key=seed).jumped()``: one uniform per path.  The main stream
below does not depend on the clock, and where t_w is the horizon the
clock never acts.

Both engines run on one event loop, which ends every path; each engine's
per-event step is the shared ``_taxed_interval`` plus its shortfall rule,
which runs only on iterations where some claim is a shortfall and only
prices the shortfalls.  The loop works on the live paths alone: a path
that ends leaves the working arrays at once and its payoff goes to its own
slot of the output, so an iteration costs O(live paths), and the mean and
standard error are taken over the output in the original path order.
Once every live interval starts at or past t_w, which then stays so, the
tax is the flat rate ell*c*D(t_w) times the time on the barrier, with no
exp or expm1; in floating point this gives the general form's bits
exactly, so the phase changes no result.

Randomness comes from one counter-based Philox stream keyed by the seed.
Each iteration takes the next ``2m`` values of the stream for the ``m``
live paths, in ascending path order: the ``m`` waiting-time uniforms
first, then the ``m`` claim-size uniforms.  Where the process may run on
two CPUs, a worker thread computes log1p(-u) of the stream ahead of the
loop into two reused buffers (Philox and log1p release the GIL), which
pass between the threads on two queues, ``free`` and ``ready``, until
``None`` on ``free`` stops it; on one CPU each take is computed inline.
Either way the values come in stream order, so the live set at each
iteration follows from the draws before it, and the result is
bit-identical for a given problem, threshold and configuration, whatever
the thread timing, buffer size or CPU count.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import EventCapExceeded, InvalidConfig, InvalidParameter
from .problem import InjectionProblem, TerminalProblem

# Hard cap on per-path event count; a legitimate run ends long before this.
EVENT_CAP = 10_000_000
# Discount weight e^{-qt} from which a path runs on its Exp(q) stop clock.
W_MIN = 0.1
# Values per draw buffer: the 2n values of a full-width iteration, at least
# 256 KB and at most 4 MB.
_CHUNK, _CHUNK_MAX = 2 ** 15, 2 ** 19

# ---------------------------------------------------------------------------
# Configuration and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Path count, time horizon and seed for one run."""

    n_paths: int
    horizon: float
    seed: int

    def __post_init__(self):
        if isinstance(self.n_paths, bool) or not isinstance(self.n_paths, int) \
                or self.n_paths < 1:
            raise InvalidConfig(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, float)) \
                or not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidConfig(f"horizon must be finite and > 0, got {self.horizon!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not (0 <= self.seed < 2 ** 64):
            raise InvalidConfig(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Estimate, its standard error, and the horizon-truncation bias bound.

    ``bias_exceeded`` is set when the bias bound is positive and at least
    10% of the standard error, signalling that the horizon is too short for
    the requested precision; a one-path run (stderr nan) never sets it.
    ``ruin_laplace`` is populated in terminal mode only: the estimate of
    E[e^{-q tau}; tau < horizon] for the ruin time tau.  ``iterations``
    counts the event loop's passes (the longest path's event count),
    ``events`` the path-events simulated over all paths and ``killed`` the
    paths the stop clock ended before the horizon.
    """

    mean: float
    stderr: float
    n_paths: int
    bias_bound: float
    bias_exceeded: bool
    ruin_laplace: Optional[float] = None
    iterations: int = 0
    events: int = 0
    killed: int = 0


def _require_level(name: str, value: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (math.isfinite(value) and value >= 0.0):
        raise InvalidParameter(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Shared event loop
# ---------------------------------------------------------------------------


def _fill(gen: np.random.Generator, out: np.ndarray) -> None:
    """Write log1p(-u) for the next ``out.size`` uniforms u of ``gen``."""
    gen.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more."""
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


class _Draws:
    """log1p(-u) for the uniforms u of one Philox stream, in stream order.

    ``take(k)`` returns the next ``k`` values; the array is the caller's,
    to read or overwrite, until the next take.  With a spare CPU a worker
    thread fills two reused buffers ahead: it takes a buffer from the
    ``free`` queue, fills it and puts it on ``ready``; a take puts the
    buffer it has read out back on ``free`` and takes the next from
    ``ready``, joining a span of buffers in order.  Without one, each take
    is filled inline.  Used as a context manager: on exit ``None`` on
    ``free`` stops the worker and it is joined.  An error in the worker
    goes on ``ready`` in its buffer's place, and the take that needs that
    buffer raises it.
    """

    def __init__(self, seed: int, n_paths: int):
        self._gen = np.random.Generator(np.random.Philox(key=seed))
        self._worker = None
        if not _spare_cpu():
            return
        size = min(max(_CHUNK, 2 * n_paths), _CHUNK_MAX)
        self._free, self._ready = queue.SimpleQueue(), queue.SimpleQueue()
        # The worker fills the buffer on free first: the loop starts out
        # holding the other one, counted as read out.
        self._free.put(np.empty(size))
        self._buf, self._pos = np.empty(size), size
        self._worker = threading.Thread(target=self._fill_ahead, daemon=True)
        self._worker.start()

    def __enter__(self) -> "_Draws":
        return self

    def __exit__(self, *exc) -> None:
        if self._worker is not None:
            self._free.put(None)
            self._worker.join()

    def _fill_ahead(self) -> None:
        while (buf := self._free.get()) is not None:
            try:
                _fill(self._gen, buf)
            except BaseException as exc:  # any error at all goes to the take
                self._ready.put(exc)
                return
            self._ready.put(buf)

    def take(self, k: int) -> np.ndarray:
        if self._worker is None:
            out = np.empty(k)
            _fill(self._gen, out)
            return out
        buf, pos = self._buf, self._pos
        if pos + k <= buf.size:
            self._pos = pos + k
            return buf[pos:pos + k]
        out, got = np.empty(k), 0
        while True:
            n = min(k - got, buf.size - pos)
            out[got:got + n] = buf[pos:pos + n]
            got, pos = got + n, pos + n
            if got == k:
                break
            self._free.put(buf)
            buf, pos = self._ready.get(), 0
            if isinstance(buf, BaseException):
                raise buf
        self._buf, self._pos = buf, pos
        return out


def _run(cfg: SimConfig, p, threshold: float, shortfall: Callable, ends: bool,
         capture: Optional[object]) -> Tuple[np.ndarray, Dict[str, int], float]:
    """Step the live paths of problem ``p`` until all have ended.

    Every path starts at level x0 with the barrier max(x0, threshold) and
    each iteration takes the live paths through ``_taxed_interval``.  A path
    whose claim falls at or past its stop ends there: the stop is then the
    interval's end and the claim is not paid.  On an iteration where some
    claim is a shortfall, ``shortfall(short, discount, level)`` gets the
    shortfalls' positions and discounts and the levels after the claims,
    returns the discounted penalties and may change the levels in place;
    if ``ends``, the shortfalls end their paths and their discounts add up
    to the ruin weight.  Returns each path's total payoff in path order,
    the work counters and the ruin weight.

    A ``capture``, if given, gets ``capture.add(**arrays)`` on each
    iteration, before the shortfall rule, over the live paths: ``alive``
    (all true), ``idx`` (original indices), ``t_start``, ``t_end``,
    ``truncated``, the state before the interval (``level_start``,
    ``barrier_start``) and after the claim (``level_post``,
    ``barrier_end``), ``claim_size`` and ``tax_paid``.  The arrays are
    valid only during the call, so a capture that keeps arrays copies them:
    ``truncated`` and ``level_post`` are changed in place after it returns,
    and ``claim_size`` is a view of a draw buffer that goes back on the
    worker's ``free`` queue to be refilled.
    """
    n, horizon, q = cfg.n_paths, float(cfg.horizon), p.scale.q
    state = (np.full(n, float(p.x0)), np.full(n, float(max(p.x0, threshold))))
    idx = np.arange(n)  # original index of each live path
    acc = np.zeros(n)
    out = np.empty(n)
    t_w = min(math.log(1.0 / W_MIN) / q, horizon)
    clock = np.random.Generator(np.random.Philox(key=cfg.seed).jumped()).random(n)
    t, stop = np.zeros(n), np.minimum(t_w - np.log1p(-clock) / q, horizon)
    interval = _taxed_interval(p, t_w)
    scale = np.array([[-1.0 / p.scale.model.lam], [-1.0 / p.scale.model.mu]])
    iterations = events = 0
    # the paths the clock kills: those stopped early, less those a shortfall ends
    killed = int(np.count_nonzero(stop < horizon))
    flat, ruin_weight = False, 0.0
    with _Draws(cfg.seed, n) as draws:
        while idx.size:
            iterations += 1
            if iterations > EVENT_CAP:
                raise EventCapExceeded(f"exceeded {EVENT_CAP} events per path")
            events += idx.size
            # One draw per live path: the waiting-time row, then the claim-size row.
            u = draws.take(2 * idx.size).reshape(2, idx.size)
            u *= scale  # -log1p(-u) / rate: exponential waiting times and claims
            t_claim = t + u[0]
            end = np.minimum(t_claim, stop)
            done = t_claim >= stop  # so far the paths truncated at their stop
            # Once every interval starts at or past t_w it stays so: t only grows
            # and compaction only removes paths.
            flat = flat or t.min() >= t_w
            tax, post, short, discount = interval(state, t, end, done, u[1], flat)
            acc += tax
            if capture is not None:
                capture.add(alive=np.ones(idx.size, dtype=bool), idx=idx, t_start=t,
                            t_end=end, truncated=done, level_start=state[0],
                            barrier_start=state[1], level_post=post[0],
                            barrier_end=post[1], claim_size=u[1], tax_paid=tax)
            if short.size:
                acc[short] += shortfall(short, discount, post[0])
                if ends:
                    done[short] = True
                    ruin_weight += float(discount.sum())
                    killed -= int(np.count_nonzero(stop[short] < horizon))
            t, state = t_claim, post
            gone = done.nonzero()[0]
            if not gone.size:
                continue
            out[idx[gone]] = acc[gone]
            keep = (~done).nonzero()[0]
            idx, acc, t, stop = idx[keep], acc[keep], t[keep], stop[keep]
            state = tuple(a[keep] for a in state)
    return out, dict(iterations=iterations, events=events, killed=killed), ruin_weight


def _result(out: np.ndarray, cfg: SimConfig, bias_bound: float, counters: Dict[str, int],
            ruin_laplace: Optional[float] = None) -> SimResult:
    """Mean and standard error of ``out`` (nan for one path)."""
    stderr = float(np.std(out, ddof=1) / math.sqrt(out.size)) if out.size >= 2 else math.nan
    return SimResult(
        mean=float(np.mean(out)),
        stderr=stderr,
        n_paths=cfg.n_paths,
        bias_bound=bias_bound,
        bias_exceeded=bool(bias_bound > 0.0 and bias_bound >= 0.1 * stderr),
        ruin_laplace=ruin_laplace,
        **counters,
    )


# ---------------------------------------------------------------------------
# The taxed path, and the two engines' shortfall rules
# ---------------------------------------------------------------------------


def _taxed_interval(p, t_w: float) -> Callable:
    """Problem ``p``'s taxed path over one interval, for both engines.

    Given the live paths' (level, barrier) state, the start and end of their
    interval, the mask of truncated paths, their claims and whether every
    start is at or past t_w, it returns the discounted tax, the state after
    the claim, the positions of the shortfalls and their discount
    e^{-q min(end, t_w)} (None when there is none).
    """
    c, ell, q = p.scale.model.c, p.ell, p.scale.q
    tax_rate, flat_rate = ell * c / q, ell * c * math.exp(-q * t_w)

    def interval(state, t, end, truncated, claim, flat):
        level, barrier = state
        duration = end - t
        # Time to reach the barrier at full drift (level <= barrier always); the
        # path is taxed from t + min(reach, duration), its hit time, to the end.
        reach = (barrier - level) / c
        above = np.maximum(duration - reach, 0.0)  # time spent on the barrier
        # Drift c up to the barrier, then (1-ell)*c along it.
        level_end = level + c * duration - (ell * c) * above
        barrier_end = np.maximum(barrier, level_end)
        if flat:
            # Every t >= t_w, and the general form gives these bits: reach >= 0,
            # so above <= fl(end - t) <= fl(end - t_w) and late == above; then
            # expm1(-q * 0.0) = -0.0 makes the first term +0.0, and adding it
            # to flat_rate * above, itself +0.0 or more, changes nothing.
            tax = flat_rate * above
        else:
            late = np.minimum(above, np.maximum(end - t_w, 0.0))  # taxed time past t_w
            tax = np.exp(-q * np.minimum(t + np.minimum(reach, duration), t_w)) \
                * np.expm1(-q * (above - late)) * -tax_rate + flat_rate * late
        level_post = level_end - claim
        # A claim at or past the stop is not paid: truncated paths end here.
        short = (level_post < 0.0).nonzero()[0]
        if short.size:
            short = short[~truncated[short]]
        discount = np.exp(-q * np.minimum(end[short], t_w)) if short.size else None
        return tax, (level_post, barrier_end), short, discount

    return interval


def simulate_terminal(p: TerminalProblem, b: float, cfg: SimConfig,
                      capture: Optional[object] = None) -> SimResult:
    """Estimate the discounted tax-plus-terminal-value objective at x0.

    Tax is paid at rate ell*c while the path sits on its barrier, which
    starts at max(x0, b).  Ruin is the first claim that takes the net
    level below zero; it contributes S discounted and ends the path.
    Paths still alive at their stop contribute their accrued tax only.
    """
    b = _require_level("threshold b", b)
    q, s_value = p.scale.q, p.s_terminal

    def ruin(short, discount, level):
        return s_value * discount

    out, counters, ruin_weight = _run(cfg, p, b, ruin, True, capture)
    bias_bound = math.exp(-q * cfg.horizon) * (abs(s_value) + p.ell * p.scale.model.c / q)
    return _result(out, cfg, bias_bound, counters, ruin_weight / cfg.n_paths)


def simulate_injection(p: InjectionProblem, a: float, cfg: SimConfig,
                       capture: Optional[object] = None) -> SimResult:
    """Estimate the discounted tax-minus-injection-cost objective at x0.

    Tax is paid at rate ell*c while the path sits on its barrier, which
    starts at max(x0, a).  A claim that takes the level below zero is
    topped up to zero at cost varphi per unit; the barrier stays, so no tax
    is paid until the path regains it.
    """
    a = _require_level("threshold a", a)
    model, q, varphi = p.scale.model, p.scale.q, p.varphi

    def inject(short, discount, level):
        below, level[short] = level[short], 0.0  # the levels below zero restart at it
        return varphi * below * discount

    out, counters, _ = _run(cfg, p, a, inject, False, capture)
    bias_bound = math.exp(-q * cfg.horizon) \
        * (p.ell * model.c / q + varphi * model.lam / (model.mu * q))
    return _result(out, cfg, bias_bound, counters)


__all__ = [
    "EVENT_CAP",
    "SimConfig",
    "SimResult",
    "simulate_terminal",
    "simulate_injection",
]
