"""Exact event-driven Monte Carlo for the taxed risk process.

Two engines estimate the two analytic objectives:

* ``simulate_terminal``: taxed process with a lump terminal value at ruin.
* ``simulate_injection``: taxed process kept nonnegative by costly capital
  injections, with taxation gated by pre-ruin memory levels.

Both engines are exact in distribution: claim waiting times and claim
sizes are exponential draws, the drift between claims is handled in closed
form (including the discounted tax accrued while the path grows at a
record), and ruin or injection can happen only at claim instants because
the drift is upward.  The target is the objective up to a finite horizon,
whose discounted-tail bias is bounded in closed form and reported.

Paths are not followed to the horizon once their discount weight is spent.
From t_w = min(ln(1/W_MIN)/q, horizon), where e^{-qt} reaches ``W_MIN``, a
payoff is discounted by the flat D(t_w) = e^{-q t_w} instead, and Russian
roulette (Kahn & Harris 1951) stops each unit at min(t_w + T, horizon)
with T ~ Exp(q).  Given the path, a payoff at s > t_w survives the clock
with probability e^{-q(s - t_w)}, so the estimate is unbiased for the same
horizon-truncated target.  T comes from its own stream,
``Philox(key=seed).jumped()``: one uniform per unit, u and 1 - u for the
members of an antithetic pair.  The main stream below does not depend on
the clock, and where t_w is the horizon the clock never acts.

Both engines run on one event loop and supply only their per-event step.
The loop works on the live paths alone: a path that ends leaves the working
arrays at once and its payoff goes to its own slot of the output, so an
iteration costs O(live paths), and the mean and standard error are taken
over the output in the original path order.

Randomness comes from one counter-based Philox stream keyed by the seed.
Each iteration draws ``2m`` uniforms in one call for the ``m`` live units,
in ascending path order: the ``m`` waiting-time uniforms first, then the
``m`` claim-size uniforms.  A unit is one path, or with antithetic pairing
the pair (j, j + n/2), which stays live while either member does; its
members take u and 1 - u from the same draw, and the standard error is
estimated from pair averages.  The live set at each iteration follows from
the draws before it, so the result is bit-identical for a given problem,
threshold and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import EventCapExceeded, InvalidConfig, InvalidParameter
from .tax_injection import InjectionProblem
from .tax_terminal import TerminalProblem

# Hard cap on per-path event count; a legitimate run ends long before this.
EVENT_CAP = 10_000_000
# Discount weight e^{-qt} from which a path runs on its Exp(q) stop clock.
W_MIN = 0.1

# ---------------------------------------------------------------------------
# Configuration and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Path count, time horizon, seed and pairing flag for one run."""

    n_paths: int
    horizon: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if isinstance(self.n_paths, bool) or not isinstance(self.n_paths, int) \
                or self.n_paths < 1:
            raise InvalidConfig(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if not (isinstance(self.horizon, (int, float))
                and math.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidConfig(f"horizon must be finite and > 0, got {self.horizon!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not (0 <= self.seed < 2 ** 64):
            raise InvalidConfig(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.antithetic and self.n_paths % 2:
            raise InvalidConfig("antithetic pairing needs an even n_paths")


@dataclass(frozen=True)
class SimResult:
    """Estimate, its standard error, and the horizon-truncation bias bound.

    ``bias_exceeded`` is set when the bias bound is not below 10% of the
    standard error, signalling that the horizon is too short for the
    requested precision.  ``ruin_laplace`` is populated in terminal mode
    only: the estimate of E[e^{-q tau}; tau < horizon] for the ruin time
    tau.  ``iterations`` counts the event loop's passes (the longest path's
    event count), ``events`` the path-events simulated over all paths and
    ``killed`` the paths the stop clock ended before the horizon.
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
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
        raise InvalidParameter(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


class _Capture:
    """Optional per-iteration state recorder used by the inspectors."""

    def __init__(self):
        self.frames: List[Dict[str, np.ndarray]] = []

    def add(self, **arrays: np.ndarray) -> None:
        self.frames.append({k: np.array(v, copy=True) for k, v in arrays.items()})


# ---------------------------------------------------------------------------
# Shared event loop
# ---------------------------------------------------------------------------


def _run(cfg: SimConfig, lam: float, mu: float, q: float, state: Tuple[np.ndarray, ...],
         step: Callable, capture: Optional[_Capture]) -> Tuple[np.ndarray, Dict[str, int]]:
    """Drive ``step`` over the live paths until every path has ended.

    ``step`` gets the live paths' state arrays, the start and end of their
    interval, the mask of paths whose claim falls at or past their stop
    (``end`` is then the stop and the claim is not paid), their claim sizes
    and t_w, past which the discount stays e^{-q t_w}.  It returns the
    discounted tax of the interval, the discounted penalty at the claim as
    (positions, amounts) for the few paths that incur one, the mask of
    paths that end with the event, their next state, and a callable that
    builds the arrays a capture records.  Returns each path's total payoff
    in path order and the work counters.
    """
    n, horizon = cfg.n_paths, float(cfg.horizon)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    idx = np.arange(n)  # original index of each live path
    acc = np.zeros(n)
    out = np.empty(n)
    units = n // 2 if cfg.antithetic else n
    t_w = min(math.log(1.0 / W_MIN) / q, horizon)
    clock = np.random.Generator(np.random.Philox(key=cfg.seed).jumped()).random(units)
    if cfg.antithetic:
        rank = idx % units  # position of each live path's pair among live pairs
        mirror = idx >= units
        clock = np.concatenate((clock, 1.0 - clock))
    t, stop = np.zeros(n), np.minimum(t_w - np.log1p(-clock) / q, horizon)
    scale = np.array([[-1.0 / lam], [-1.0 / mu]])
    iterations = events = killed = 0
    while idx.size:
        iterations += 1
        if iterations > EVENT_CAP:
            raise EventCapExceeded(f"exceeded {EVENT_CAP} events per path")
        events += idx.size
        # One draw per live unit: the waiting-time row, then the claim-size row.
        u = rng.random(2 * units).reshape(2, units)
        if cfg.antithetic:
            u = u[:, rank]
            u = np.where(mirror, 1.0 - u, u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u *= scale  # -log1p(-u) / rate: exponential waiting times and claims
        t_claim = t + u[0]
        end = np.minimum(t_claim, stop)
        truncated = t_claim >= stop
        tax, (charged, penalty), done, state, frame = step(state, t, end, truncated,
                                                           u[1], t_w)
        acc += tax
        acc[charged] += penalty
        if capture is not None:
            capture.add(alive=np.ones(idx.size, dtype=bool), idx=idx, t_start=t,
                        t_end=end, truncated=truncated, **frame())
        t = t_claim
        if not done.any():
            continue
        gone = np.flatnonzero(done)
        out[idx[gone]] = acc[gone]
        killed += int(np.count_nonzero(truncated[gone] & (stop[gone] < horizon)))
        keep = np.flatnonzero(~done)
        idx, acc, t, stop = idx[keep], acc[keep], t[keep], stop[keep]
        state = tuple(a[keep] for a in state)
        if cfg.antithetic:
            rank, mirror = rank[keep], mirror[keep]
            live = np.zeros(units, dtype=bool)
            live[rank] = True
            renumber = np.cumsum(live)
            rank, units = renumber[rank] - 1, int(renumber[-1])
        else:
            units = idx.size
    return out, dict(iterations=iterations, events=events, killed=killed)


def _result(out: np.ndarray, cfg: SimConfig, bias_bound: float, counters: Dict[str, int],
            ruin_laplace: Optional[float] = None) -> SimResult:
    """Mean and standard error (pair-averaged when antithetic) of ``out``."""
    mean = float(np.mean(out))
    if cfg.antithetic:
        half = cfg.n_paths // 2
        samples = 0.5 * (out[:half] + out[half:])
    else:
        samples = out
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size)) \
        if samples.size >= 2 else math.nan
    return SimResult(
        mean=mean,
        stderr=stderr,
        n_paths=cfg.n_paths,
        bias_bound=bias_bound,
        bias_exceeded=bool(bias_bound > 0.0 and not bias_bound < 0.1 * stderr),
        ruin_laplace=ruin_laplace,
        **counters,
    )


# ---------------------------------------------------------------------------
# Terminal-value engine
# ---------------------------------------------------------------------------


def simulate_terminal(p: TerminalProblem, b: float, cfg: SimConfig,
                      capture: Optional[_Capture] = None) -> SimResult:
    """Estimate the discounted tax-plus-terminal-value objective at x0.

    Tax accrues at rate ell*c exactly while the pre-tax path grows at a
    record above max(b, records so far); each interval's discounted accrual
    is integrated in closed form.  Ruin is the first claim instant at which
    the net (post-tax) level is negative; it contributes S discounted.
    Paths still alive at their stop contribute their accrued tax only.
    """
    b = _require_level("threshold b", b)
    model, q = p.scale.model, p.scale.q
    c, ell, s_value = model.c, p.ell, p.s_terminal
    n = cfg.n_paths
    base = max(p.x0, b)
    tax_rate = ell * c / q
    ruin_weight = 0.0

    def step(state, t, end, truncated, claim, t_w):
        nonlocal ruin_weight
        # record: running max of the pre-tax path, floored at b
        level, record = state
        level_end = level + c * (end - t)
        # Record growth occupies [taxed_from, end]; empty when the barrier
        # is not reached before the interval ends.
        taxed_from = np.minimum(t + (record - level) / c, end)
        discount_end = np.exp(-q * np.minimum(end, t_w))
        late = np.minimum(end - taxed_from, np.maximum(end - t_w, 0.0))  # taxed past t_w
        tax = tax_rate * (np.exp(-q * np.minimum(taxed_from, t_w)) - discount_end) \
            + (ell * c * math.exp(-q * t_w)) * late
        record_end = np.maximum(record, level_end)
        level_post = level_end - claim
        net_post = level_post - ell * (record_end - base)
        ruined = (net_post < 0.0) & ~truncated
        ruin = np.flatnonzero(ruined)
        ruin_weight += float(discount_end[ruin].sum())
        penalty = (ruin, s_value * discount_end[ruin])

        def frame():
            return dict(level_start=level, level_end=level_end,
                        record_start=record, record_end=record_end,
                        taxed_from=taxed_from, tax_paid=tax, claim_size=claim,
                        net_after_claim=net_post, ruined=ruined)

        return tax, penalty, truncated | ruined, (level_post, record_end), frame

    state = (np.full(n, float(p.x0)), np.full(n, base))
    out, counters = _run(cfg, model.lam, model.mu, q, state, step, capture)
    bias_bound = math.exp(-q * cfg.horizon) * (abs(s_value) + tax_rate)
    return _result(out, cfg, bias_bound, counters, ruin_weight / n)


# ---------------------------------------------------------------------------
# Capital-injection engine
# ---------------------------------------------------------------------------


def simulate_injection(p: InjectionProblem, a: float, cfg: SimConfig,
                       capture: Optional[_Capture] = None) -> SimResult:
    """Estimate the discounted tax-minus-injection-cost objective at x0.

    Phase 0 (delay or post-ruin): the path drifts upward, claims that push
    it negative are topped up to zero at cost varphi per unit, and no tax
    accrues until the path reaches its current target (the initial
    threshold a, or the memory level left by the last taxed phase).  Phase
    1 (taxed): tax accrues at rate ell*c while the path sits at its regime
    record, which then grows at (1-ell)*c; the first claim that takes the
    level negative is topped up to zero, the record is remembered as the
    new target, and the path re-enters phase 0.
    """
    a = _require_level("threshold a", a)
    model, q = p.scale.model, p.scale.q
    c, lam, mu = model.c, model.lam, model.mu
    ell, varphi = p.ell, p.varphi
    n = cfg.n_paths
    tax_rate = ell * c / q

    def step(state, t, end, truncated, claim, t_w):
        # barrier: regime record in a taxed phase, upcross target otherwise
        level, taxed, barrier = state
        duration = end - t
        # Time to reach the barrier at full drift; level <= barrier always.
        reach = (barrier - level) / c
        above = np.maximum(duration - reach, 0.0)  # time spent on the record
        hits = above > 0.0
        hit_time = t + np.minimum(reach, duration)
        # Drift c up to the barrier, then (1-ell)*c along the record.
        level_end = level + c * duration - (ell * c) * above
        # Paths at the barrier are taxed records from the hit onward; a
        # phase-0 path that reaches its target becomes taxed there.
        taxed_end = taxed | hits
        barrier_end = np.maximum(barrier, level_end)
        late = np.minimum(above, np.maximum(end - t_w, 0.0))  # taxed time past t_w
        tax = np.exp(-q * np.minimum(hit_time, t_w)) * np.expm1(-q * (above - late)) \
            * -tax_rate + (ell * c * math.exp(-q * t_w)) * late

        level_post = level_end - claim
        # A claim at or past the stop is not paid: truncated paths end here.
        short = np.flatnonzero(level_post < 0.0)
        short = short[~truncated[short]]
        penalty = (short, varphi * level_post[short]
                   * np.exp(-q * np.minimum(end[short], t_w)))

        def frame():
            shortfall = (level_post < 0.0) & ~truncated
            return dict(taxed_start=taxed, taxed_end=taxed_end,
                        level_start=level, level_end=level_end, barrier_start=barrier,
                        barrier_end=barrier_end, hit_time=hit_time, tax_paid=tax,
                        claim_size=claim, injected=np.where(shortfall, -level_post, 0.0),
                        ended_taxed_phase=shortfall & taxed_end)

        # The injection tops the level up to zero.  It ends a taxed phase,
        # and the record stays as the next target; in phase 0 the target
        # is unchanged.
        next_state = (np.maximum(level_post, 0.0), taxed_end & (level_post >= 0.0),
                      barrier_end)
        return tax, penalty, truncated, next_state, frame

    start_taxed = p.x0 >= a
    state = (np.full(n, float(p.x0)), np.full(n, start_taxed),
             np.full(n, float(max(p.x0, a) if start_taxed else a)))
    out, counters = _run(cfg, lam, mu, q, state, step, capture)
    bias_bound = math.exp(-q * cfg.horizon) * (tax_rate + varphi * lam / (mu * q))
    return _result(out, cfg, bias_bound, counters)


# ---------------------------------------------------------------------------
# Path inspection (step-by-step views of the engines' own paths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalStep:
    """One inter-claim interval of one simulated terminal-mode path."""

    t_start: float
    t_end: float
    level_start: float
    level_end: float
    record_start: float
    record_end: float
    taxed_from: float
    tax_paid: float
    claim_size: float
    net_after_claim: float
    truncated: bool
    ruined: bool


@dataclass(frozen=True)
class InjectionStep:
    """One inter-claim interval of one simulated injection-mode path."""

    t_start: float
    t_end: float
    taxed_start: bool
    taxed_end: bool
    level_start: float
    level_end: float
    barrier_start: float
    barrier_end: float
    hit_time: float
    tax_paid: float
    claim_size: float
    injected: float
    ended_taxed_phase: bool
    truncated: bool


def _inspect(engine: Callable, step_type: type, problem, threshold: float,
             cfg: SimConfig) -> List[list]:
    """Run ``engine`` with a capture and split its frames into per-path steps.

    Each frame array is named after the ``step_type`` field it fills, so the
    dataclass's own field list is the table that drives the copy.
    """
    capture = _Capture()
    engine(problem, threshold, cfg, capture=capture)
    names = [f.name for f in fields(step_type)]
    paths: List[list] = [[] for _ in range(cfg.n_paths)]
    for frame in capture.frames:
        columns = [frame[name].tolist() for name in names]
        for j, *values in zip(frame["idx"].tolist(), *columns):
            paths[j].append(step_type(*values))
    return paths


def inspect_terminal_paths(p: TerminalProblem, b: float,
                           cfg: SimConfig) -> List[List[TerminalStep]]:
    """Run the terminal engine and return every path's step log."""
    return _inspect(simulate_terminal, TerminalStep, p, b, cfg)


def inspect_injection_paths(p: InjectionProblem, a: float,
                            cfg: SimConfig) -> List[List[InjectionStep]]:
    """Run the injection engine and return every path's step log."""
    return _inspect(simulate_injection, InjectionStep, p, a, cfg)


__all__ = [
    "EVENT_CAP",
    "SimConfig",
    "SimResult",
    "simulate_terminal",
    "simulate_injection",
    "TerminalStep",
    "InjectionStep",
    "inspect_terminal_paths",
    "inspect_injection_paths",
]
