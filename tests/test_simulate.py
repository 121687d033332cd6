"""Tests for the Monte Carlo engines: configuration, determinism, agreement
with the closed forms, and step-level path consistency."""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest

import path_log
import taxdelay.simulate as simulate
from mc_oracle import injected_corridor, taxed_corridor
from paper_functionals import (expected_discounted_deficit, f_a, g_a, r_a,
                               ruin_time_laplace_taxed)
from path_log import Capture, inspect_paths
from quad_oracle import expected_discounted_penalty
from taxdelay.errors import EventCapExceeded, InvalidConfig, InvalidParameter
from taxdelay.model import new_model
from taxdelay.problem import InjectionProblem, TerminalProblem, exit_ratio, phi
from taxdelay.scale import ScaleSet
from taxdelay.simulate import SimConfig, simulate_injection, simulate_terminal


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestSimConfig:
    @pytest.mark.parametrize("n", [0, -5, 2.0, True])
    def test_rejects_bad_path_count(self, n):
        with pytest.raises(InvalidConfig):
            SimConfig(n, 100.0, 1)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan, True, False])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(InvalidConfig):
            SimConfig(100, horizon, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidConfig):
            SimConfig(100, 100.0, seed)

    def test_three_settings(self):
        """A run is set by its path count, horizon and seed alone: there is
        one sampling path, so no sampler option exists."""
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["n_paths", "horizon", "seed"]
        with pytest.raises(TypeError):
            SimConfig(100, 100.0, 1, True)


# ---------------------------------------------------------------------------
# Determinism, and draws pinned across refactors of the loop
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_bit_identical(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        cfg = SimConfig(4_000, 200.0, 777)
        assert simulate_terminal(p, 2.0, cfg) == simulate_terminal(p, 2.0, cfg)

    def test_same_seed_bit_identical_injection(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        cfg = SimConfig(4_000, 200.0, 31337)
        assert simulate_injection(p, 2.0, cfg) == simulate_injection(p, 2.0, cfg)

    def test_different_seed_different_mean(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        r1 = simulate_terminal(p, 2.0, SimConfig(4_000, 200.0, 1))
        r2 = simulate_terminal(p, 2.0, SimConfig(4_000, 200.0, 2))
        assert r1.mean != r2.mean

    # (mode, q, x0, threshold, horizon): mean, stderr, ruin_laplace (hex),
    # iterations, events, killed of a 2,000-path run with seed 20261019.
    # Horizon 30 never reaches the stop clock, 400 does, and at q = 0.5 the
    # paths start above a zero threshold and most end on the clock.
    PINNED = {
        ("terminal", 0.05, 1.0, 2.0, 30.0): (
            "-0x1.43d562c183b7dp+1", "0x1.b2416406c869cp-5", "0x1.239ed70056e9ap-1",
            42, 25668, 0),
        ("injection", 0.05, 1.0, 2.0, 30.0): (
            "-0x1.d5c0effcfe871p+0", "0x1.6a8542118d79ap-4", None, 57, 61718, 0),
        ("terminal", 0.05, 1.0, 2.0, 400.0): (
            "-0x1.40693ba680d50p+1", "0x1.b8bfe4435b379p-5", "0x1.24abb9e168b1ep-1",
            154, 45633, 563),
        ("injection", 0.05, 1.0, 2.0, 400.0): (
            "-0x1.c850f050f7ac7p+0", "0x1.72bfdae4f0267p-4", None, 191, 134202, 2000),
        ("terminal", 0.5, 3.0, 0.0, 100.0): (
            "-0x1.5e76639d33a9ep-2", "0x1.8c673fcec0d03p-6", "0x1.81d9c61779ef8p-4",
            20, 12633, 1501),
        ("injection", 0.5, 3.0, 0.0, 100.0): (
            "-0x1.95b5666cedc03p-6", "0x1.3f5cb3fffdef0p-6", None, 24, 15097, 2000),
    }

    @staticmethod
    def pinned_run(base_model, case):
        """The pinned figures of ``case`` as the engines compute them."""
        mode, q, x0, threshold, horizon = case
        scale = ScaleSet(base_model, q)
        if mode == "terminal":
            r = simulate_terminal(TerminalProblem(scale, 0.1, -5.0, x0), threshold,
                                  SimConfig(2000, horizon, 20261019))
        else:
            r = simulate_injection(InjectionProblem(scale, 0.2, 1.5, x0), threshold,
                                   SimConfig(2000, horizon, 20261019))
        ruin = None if r.ruin_laplace is None else r.ruin_laplace.hex()
        return (r.mean.hex(), r.stderr.hex(), ruin, r.iterations, r.events, r.killed)

    @pytest.mark.parametrize("case", list(PINNED), ids=str)
    def test_plain_draws_pinned(self, base_model, case):
        """A refactor of the event loop must keep every result to the bit."""
        assert self.pinned_run(base_model, case) == self.PINNED[case]

    @pytest.mark.parametrize("chunk, slow", [(1, False), (7, False), (4099, False),
                                             (4099, True), (None, False)],
                             ids=["chunk-1", "chunk-7", "chunk-4099", "slow-fill", "inline"])
    @pytest.mark.parametrize("case", list(PINNED), ids=str)
    def test_draws_independent_of_buffers_and_timing(self, base_model, case, chunk, slow,
                                                     monkeypatch):
        """The worker's buffer size and pace, and whether it runs at all
        (``chunk`` None: one CPU), change no bit: buffers of 1 and 7 values
        make every take span many buffers, and a fill that sleeps makes the
        loop wait for it."""
        fills = _watch_fills(monkeypatch, slow=slow)
        monkeypatch.setattr(simulate, "_spare_cpu", lambda: chunk is not None)
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK_MAX", chunk)
        assert self.pinned_run(base_model, case) == self.PINNED[case]
        # the worker makes every fill, or with one CPU the caller does
        assert fills
        assert all((t is threading.current_thread()) == (chunk is None) for t in fills)


def _watch_fills(monkeypatch, slow: bool = False, fail_off=None, fail_at=None):
    """Wrap the draw fill and return the list of the threads that ran each
    fill.  ``slow`` makes a fill sleep up to 2 ms; with ``fail_off`` set to
    a thread, a fill on any other thread raises, and with ``fail_at`` set
    to n, the n-th fill raises."""
    fill, threads = simulate._fill, []

    def watched(gen, out):
        threads.append(threading.current_thread())
        if slow:
            time.sleep(0.001 * (len(threads) % 3))
        if (fail_off is not None and threads[-1] is not fail_off) \
                or fail_at == len(threads):
            raise RuntimeError("fill failed")
        fill(gen, out)

    monkeypatch.setattr(simulate, "_fill", watched)
    return threads


def _off_caller(threads) -> bool:
    """Whether some fill ran on a thread other than the caller's."""
    return any(t is not threading.current_thread() for t in threads)


class TestDrawWorker:
    """The worker thread lives only as long as its run: it is joined when
    the run returns and when it raises, and its own error reaches the
    caller."""

    @pytest.fixture(autouse=True)
    def worker(self, monkeypatch):
        monkeypatch.setattr(simulate, "_spare_cpu", lambda: True)
        monkeypatch.setattr(simulate, "_CHUNK_MAX", 4099)

    def run(self, scale, capture=None):
        p = TerminalProblem(scale, 0.1, -5.0, 1.0)
        return simulate_terminal(p, 2.0, SimConfig(500, 400.0, 5), capture=capture)

    def test_normal_run(self, scale05, monkeypatch):
        fills, before = _watch_fills(monkeypatch), threading.active_count()
        self.run(scale05)
        assert _off_caller(fills)  # a worker filled some buffer
        assert threading.active_count() == before

    def test_event_cap(self, scale05, monkeypatch):
        monkeypatch.setattr(simulate, "EVENT_CAP", 3)
        fills, before = _watch_fills(monkeypatch), threading.active_count()
        with pytest.raises(EventCapExceeded):
            self.run(scale05)
        assert _off_caller(fills)
        assert threading.active_count() == before

    def test_capture_error(self, scale05, monkeypatch):
        class Failing(Capture):
            def add(self, **arrays):
                if len(self.frames) == 2:
                    raise RuntimeError("capture failed")
                super().add(**arrays)

        fills, before = _watch_fills(monkeypatch), threading.active_count()
        with pytest.raises(RuntimeError, match="capture failed"):
            self.run(scale05, Failing())
        assert _off_caller(fills)
        assert threading.active_count() == before

    def test_concurrent_runs_under_fast_switching(self, scale05, monkeypatch):
        """Four runs at once, each with its worker (eight threads), with
        the interpreter switching threads every 10 us and every take
        spanning many 7-value buffers: each run gives the bits it gives
        alone."""
        monkeypatch.setattr(simulate, "_CHUNK_MAX", 7)
        engines = [_base_engine(scale05, mode) for mode in ("terminal", "injection")] * 2
        cfg = SimConfig(300, 100.0, 11)
        alone = [engine(p, 2.0, cfg) for engine, p in engines]
        together = [None] * len(engines)

        def call(j):
            engine, p = engines[j]
            together[j] = engine(p, 2.0, cfg)

        helpers = [threading.Thread(target=call, args=(j,), daemon=True)
                   for j in range(len(engines))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for helper in helpers:
                helper.start()
            for helper in helpers:
                helper.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(helper.is_alive() for helper in helpers)
        assert together == alone

    def test_worker_error_reaches_caller(self, scale05, monkeypatch):
        """Run on a helper thread, so a take that waited forever for the
        failed buffer would fail the test instead of hanging it."""
        before, raised = threading.active_count(), []

        def call():
            try:
                self.run(scale05)
            except RuntimeError as exc:
                raised.append(exc)

        helper = threading.Thread(target=call, daemon=True)
        fills = _watch_fills(monkeypatch, fail_off=helper)
        helper.start()
        helper.join(timeout=60.0)
        assert not helper.is_alive()
        assert [str(exc) for exc in raised] == ["fill failed"]
        assert len(fills) == 1 and fills[0] is not helper
        assert threading.active_count() == before

    def test_worker_error_after_buffers_cycle(self, scale05, monkeypatch):
        """The third fill fails, after both buffers were filled and the
        first handed back: the error takes that buffer's place, and the
        take that needs it raises it.  Run on a helper thread, as above."""
        before, raised = threading.active_count(), []

        def call():
            try:
                self.run(scale05)
            except RuntimeError as exc:
                raised.append(exc)

        helper = threading.Thread(target=call, daemon=True)
        fills = _watch_fills(monkeypatch, fail_at=3)
        helper.start()
        helper.join(timeout=60.0)
        assert not helper.is_alive()
        assert [str(exc) for exc in raised] == ["fill failed"]
        assert len(fills) == 3 and helper not in fills
        assert threading.active_count() == before


# ---------------------------------------------------------------------------
# Engine agreement with the closed forms (3 sigma at fixed seeds)
# ---------------------------------------------------------------------------


class TestTerminalEngine:
    def test_untaxed_no_barrier(self, scale05):
        """ell = 0, S = 1: the estimate is the discounted ruin factor
        Z(x) - (q/theta1) W(x), and each payoff is the discounted ruin
        indicator that ``ruin_laplace`` averages."""
        p = TerminalProblem(scale05, 0.0, 1.0, 1.0)
        r = simulate_terminal(p, 0.0, SimConfig(50_000, 400.0, 12345))
        target = scale05.Z(1.0) - (0.05 / scale05.theta1) * scale05.W(1.0)
        assert abs(r.mean - target) < 3.0 * r.stderr
        assert not r.bias_exceeded
        assert 0.0 < r.ruin_laplace < 1.0
        assert r.ruin_laplace == pytest.approx(r.mean, rel=1e-12)

    def test_taxed_objective(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        r = simulate_terminal(p, 2.0, SimConfig(50_000, 400.0, 777))
        target = phi(p, 1.0, 2.0)
        assert abs(r.mean - target) < 3.0 * r.stderr

    def test_ruin_fraction_near_zero_discount(self):
        """At q ~ 0 the discounted ruin factor is the ruin probability, so
        the ruin-time Laplace estimate must match it."""
        s = ScaleSet(new_model(2.0, 1.0, 1.0), 1e-8)
        p = TerminalProblem(s, 0.0, 1.0, 1.0)
        r = simulate_terminal(p, 0.0, SimConfig(100_000, 400.0, 20260814))
        target = ruin_time_laplace_taxed(p, 1.0, math.inf)
        se = math.sqrt(target * (1.0 - target) / 100_000)
        assert abs(r.ruin_laplace - target) < 3.0 * se

    def test_short_horizon_sets_bias_flag(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        r = simulate_terminal(p, 2.0, SimConfig(2_000, 5.0, 1))
        assert r.bias_bound > 0.1 * r.stderr
        assert r.bias_exceeded

    def test_one_path_sets_no_bias_flag(self, scale05):
        """One path has no standard error (nan), so the bias bound cannot
        be measured against it."""
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        r = simulate_terminal(p, 2.0, SimConfig(1, 400.0, 1))
        assert math.isnan(r.stderr)
        assert 0.0 < r.bias_bound < 1e-7
        assert not r.bias_exceeded

    def test_bias_flag_at_zero_stderr(self):
        """Equal payoffs give a standard error of 0: any positive bias bound
        is then too large, and a zero one never is."""
        cfg = SimConfig(3, 400.0, 1)
        assert simulate._result(np.zeros(3), cfg, 1e-8, {}).bias_exceeded
        assert not simulate._result(np.zeros(3), cfg, 0.0, {}).bias_exceeded

    def test_event_cap_raises(self, scale05, monkeypatch):
        monkeypatch.setattr(simulate, "EVENT_CAP", 3)
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        with pytest.raises(EventCapExceeded):
            simulate_terminal(p, 2.0, SimConfig(500, 400.0, 5))

    def test_rejects_bad_threshold(self, scale05):
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        for bad in (-1.0, math.inf, True, False):
            with pytest.raises(InvalidParameter):
                simulate_terminal(p, bad, SimConfig(100, 100.0, 1))
        with pytest.raises(InvalidParameter):
            simulate_injection(InjectionProblem(scale05, 0.2, 1.5, 1.0), True,
                               SimConfig(100, 100.0, 1))


class TestInjectionEngine:
    def test_taxed_objective(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        r = simulate_injection(p, 2.0, SimConfig(50_000, 400.0, 31337))
        target = phi(p, 1.0, 2.0)
        assert abs(r.mean - target) < 3.0 * r.stderr

    def test_one_path_sets_no_bias_flag(self, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        r = simulate_injection(p, 2.0, SimConfig(1, 400.0, 1))
        assert math.isnan(r.stderr)
        assert 0.0 < r.bias_bound < 1e-6
        assert not r.bias_exceeded
        assert r.ruin_laplace is None

    def test_untaxed_injection_stream(self, scale05):
        """ell = 0: the estimate is minus the discounted injection costs."""
        p = InjectionProblem(scale05, 0.0, 1.5, 1.0)
        r = simulate_injection(p, 2.0, SimConfig(50_000, 400.0, 999))
        target = phi(p, 1.0, 2.0)
        assert abs(r.mean - target) < 3.0 * r.stderr

    def test_event_cap_raises(self, scale05, monkeypatch):
        monkeypatch.setattr(simulate, "EVENT_CAP", 3)
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        with pytest.raises(EventCapExceeded):
            simulate_injection(p, 2.0, SimConfig(500, 400.0, 5))


# ---------------------------------------------------------------------------
# Scalar reference loops versus the closed forms
# ---------------------------------------------------------------------------


class TestScalarOracleAgreement:
    """A pure-Python event loop, written independently of both the numpy
    engines and the quadrature stack, reproduces the corridor functionals.
    Seeds are fixed, so these are deterministic 3 sigma checks."""

    def test_taxed_corridor_statistics(self, base_model, scale05):
        p = TerminalProblem(scale05, 0.1, 0.0, 1.0)
        stats = taxed_corridor(base_model, 0.05, 0.1, 1.0, 2.0,
                               n_paths=40_000, seed=4242)
        stats.reach.assert_close(exit_ratio(p, 1.0, 2.0))
        stats.ruin.assert_close(ruin_time_laplace_taxed(p, 1.0, 2.0))
        stats.ruin_record.assert_close(
            expected_discounted_penalty(p, 1.0, 2.0, lambda z: z))
        stats.ruin_deficit.assert_close(expected_discounted_deficit(p, 1.0, 2.0))

    def test_injected_corridor_statistics(self, base_model, scale05):
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        stats = injected_corridor(base_model, 0.05, 0.2, 1.0, 2.0,
                                  n_paths=40_000, seed=2424)
        stats.upcross.assert_close(f_a(p, 1.0, 2.0))
        stats.tax.assert_close(g_a(p, 1.0, 2.0))
        stats.injections.assert_close(r_a(p, 1.0, 2.0))


# ---------------------------------------------------------------------------
# Step-level path inspection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def terminal_paths(scale05):
    p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
    return inspect_paths(simulate_terminal, p, 2.0, SimConfig(200, 30.0, 99))


@pytest.fixture(scope="module")
def injection_paths(scale05):
    p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
    return inspect_paths(simulate_injection, p, 2.0, SimConfig(200, 30.0, 99))


class PathStepChecks:
    """The one taxed path, checked step by step.  Each subclass binds one
    engine and its tax rate; the checks here hold in both modes."""

    ell: float

    def test_every_path_has_steps(self, paths):
        assert len(paths) == 200
        assert all(len(steps) >= 1 for steps in paths)

    def test_level_below_barrier_and_drift(self, paths):
        """Drift c below the barrier, (1 - ell) c on it from ``hit_time``."""
        for steps in paths:
            for st in steps:
                assert st.level_start <= st.barrier_start + 1e-12
                assert st.t_start <= st.hit_time <= st.t_end
                hit = st.hit_time < st.t_end or (
                    st.level_start == st.barrier_start and st.hit_time == st.t_start)
                if hit:
                    expected = st.barrier_start \
                        + (1.0 - self.ell) * 1.2 * (st.t_end - st.hit_time)
                else:
                    expected = st.level_start + 1.2 * (st.t_end - st.t_start)
                assert st.level_end == pytest.approx(expected, rel=1e-12)

    def test_barrier_never_decreases(self, paths):
        for steps in paths:
            for k, st in enumerate(steps):
                assert st.barrier_end == pytest.approx(
                    max(st.barrier_start, st.level_end), rel=1e-12)
                assert st.barrier_end >= st.barrier_start
                if k + 1 < len(steps):
                    assert steps[k + 1].barrier_start == st.barrier_end

    def test_tax_accrual_closed_form(self, paths):
        """Tax at rate ell*c over [hit_time, t_end] (t_w is the horizon 30
        here, so the discount is e^{-qt} throughout); none off the barrier."""
        ell_c, q = self.ell * 1.2, 0.05
        for steps in paths:
            for st in steps:
                expected = (ell_c / q) * math.exp(-q * st.hit_time) \
                    * (-math.expm1(-q * (st.t_end - st.hit_time)))
                assert st.tax_paid == pytest.approx(expected, abs=1e-14)
                if st.hit_time == st.t_end:
                    assert st.tax_paid == 0.0

    def test_time_and_level_chain(self, paths):
        """The next step starts at the claim, from the level after it
        (floored at zero by an injection); ``deficit`` is the shortfall of
        a paid claim."""
        for steps in paths:
            for k, st in enumerate(steps):
                assert st.t_end >= st.t_start
                assert st.deficit == (0.0 if st.truncated else pytest.approx(
                    max(st.claim_size - st.level_end, 0.0), rel=1e-12))
                if k + 1 < len(steps):
                    nxt = steps[k + 1]
                    assert nxt.t_start == pytest.approx(st.t_end, rel=1e-12)
                    assert nxt.level_start == pytest.approx(
                        max(st.level_end - st.claim_size, 0.0), abs=1e-12)


class TestTerminalPathSteps(PathStepChecks):
    ell = 0.1

    @pytest.fixture
    def paths(self, terminal_paths):
        return terminal_paths

    def test_terminal_flags_only_on_last_step(self, paths):
        """Ruin (a shortfall) or the stop ends the path, and only they do."""
        for steps in paths:
            for st in steps[:-1]:
                assert st.deficit == 0.0 and not st.truncated
            assert steps[-1].deficit > 0.0 or steps[-1].truncated


class TestInjectionPathSteps(PathStepChecks):
    ell = 0.2

    @pytest.fixture
    def paths(self, injection_paths):
        return injection_paths

    def test_injections_top_up_to_zero(self, paths):
        """A shortfall restarts the path at zero below the same barrier, and
        only the stop ends it."""
        injected = 0
        for steps in paths:
            for st, nxt in zip(steps, steps[1:]):
                assert not st.truncated
                if st.deficit > 0.0:
                    injected += 1
                    assert nxt.level_start == 0.0
                    assert nxt.barrier_start == st.barrier_end
            assert steps[-1].truncated
        assert injected > 0


def test_one_process_serves_both_modes(scale05):
    """With the same x0, threshold, ell and seed, the two engines step the
    same path: the terminal log is the injection log up to and including
    its ruin, and the whole log where the path is not ruined."""
    ruined = 0
    for seed in range(50):
        cfg = SimConfig(1, 100.0, seed)
        terminal = inspect_paths(
            simulate_terminal, TerminalProblem(scale05, 0.2, -5.0, 1.0), 2.0, cfg)[0]
        injection = inspect_paths(
            simulate_injection, InjectionProblem(scale05, 0.2, 1.5, 1.0), 2.0, cfg)[0]
        if terminal[-1].deficit > 0.0:
            ruined += 1
            assert injection[:len(terminal)] == terminal
        else:
            assert injection == terminal
    assert 0 < ruined < 50


# ---------------------------------------------------------------------------
# Live-path event loop: stream contract, path order and work counters
# ---------------------------------------------------------------------------


def _base_engine(scale, mode: str, x0: float = 1.0):
    """The engine and the base problem of ``mode``: terminal at ell 0.1,
    S -5, or injection at ell 0.2, varphi 1.5."""
    if mode == "terminal":
        return simulate_terminal, TerminalProblem(scale, 0.1, -5.0, x0)
    return simulate_injection, InjectionProblem(scale, 0.2, 1.5, x0)


class TestLivePathLoop:
    def test_stream_contract(self, scale05):
        """Iteration k draws 2m uniforms for the m paths still live, in path
        order: the waiting-time uniforms first, then the claim-size ones."""
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        paths = inspect_paths(simulate_terminal, p, 2.0, SimConfig(60, 30.0, 123))
        rng = np.random.Generator(np.random.Philox(key=123))
        for k in range(max(len(steps) for steps in paths)):
            live = [steps[k] for steps in paths if len(steps) > k]
            u = rng.random(2 * len(live))
            for st, u_wait, u_claim in zip(live, u[:len(live)], u[len(live):]):
                assert st.claim_size == pytest.approx(-math.log1p(-u_claim), rel=1e-12)
                if not st.truncated:
                    assert st.t_end - st.t_start == pytest.approx(
                        -math.log1p(-u_wait), rel=1e-9, abs=1e-12)

    def test_payoffs_kept_in_path_order(self, scale05):
        """Each path's payoff goes back to its own slot of the output:
        rebuild the payoffs from the step logs, in path order, and compare
        them with the engine's output array."""
        p = TerminalProblem(scale05, 0.1, -5.0, 1.0)
        cfg = SimConfig(400, 30.0, 7)
        paths = inspect_paths(simulate_terminal, p, 2.0, cfg)
        payoffs = [sum(st.tax_paid for st in steps)
                   + (-5.0 * math.exp(-0.05 * steps[-1].t_end)
                      if steps[-1].deficit > 0.0 else 0.0) for steps in paths]
        # paths end at different iterations, so path order is not end order
        assert [len(steps) for steps in paths] != sorted(len(steps) for steps in paths)

        def ruin(short, discount, level):
            return -5.0 * discount

        out, _, ruin_weight = simulate._run(cfg, p, 2.0, ruin, True, None)
        assert out.tolist() == pytest.approx(payoffs, rel=1e-12, abs=1e-15)
        # the loop, not the rule, sums the ruined paths' discounts
        assert ruin_weight == pytest.approx(sum(
            math.exp(-0.05 * steps[-1].t_end) for steps in paths if steps[-1].deficit > 0.0),
            rel=1e-12)
        mean = sum(payoffs) / 400
        stderr = math.sqrt(sum((x - mean) ** 2 for x in payoffs) / 399 / 400)
        r = simulate_terminal(p, 2.0, cfg)
        assert r.mean == pytest.approx(mean, rel=1e-12)
        assert r.stderr == pytest.approx(stderr, rel=1e-9)

    def test_injection_payoffs_kept_in_path_order(self, scale05):
        """As above for the injection engine: each path's taxes less its
        discounted injection costs, rebuilt from its step log."""
        p = InjectionProblem(scale05, 0.2, 1.5, 1.0)
        cfg = SimConfig(400, 30.0, 7)
        paths = inspect_paths(simulate_injection, p, 2.0, cfg)
        payoffs = [sum(st.tax_paid - 1.5 * st.deficit * math.exp(-0.05 * st.t_end)
                       for st in steps) for steps in paths]
        assert sum(st.deficit > 0.0 for steps in paths for st in steps) > 0

        def inject(short, discount, level):
            penalty = 1.5 * level[short] * discount
            level[short] = 0.0
            return penalty

        out, _, _ = simulate._run(cfg, p, 2.0, inject, False, None)
        assert out.tolist() == pytest.approx(payoffs, rel=1e-12, abs=1e-15)
        mean = sum(payoffs) / 400
        stderr = math.sqrt(sum((x - mean) ** 2 for x in payoffs) / 399 / 400)
        r = simulate_injection(p, 2.0, cfg)
        assert r.mean == pytest.approx(mean, rel=1e-12)
        assert r.stderr == pytest.approx(stderr, rel=1e-9)

    @pytest.mark.parametrize("horizon", [30.0, 100.0])
    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_work_counters_match_step_logs(self, scale05, mode, horizon):
        """At horizon 30 the stop clock cannot act (t_w = horizon); at 100
        it ends paths before the horizon, and the loop reaches its flat
        phase: an iteration whose every live path starts at or past t_w."""
        engine, p = _base_engine(scale05, mode)
        cfg = SimConfig(200, horizon, 99)
        t_w = min(math.log(1.0 / simulate.W_MIN) / 0.05, horizon)
        paths, result = inspect_paths(engine, p, 2.0, cfg), engine(p, 2.0, cfg)
        assert result.events == sum(len(steps) for steps in paths)
        assert result.iterations == max(len(steps) for steps in paths)
        assert result.killed == sum(
            1 for steps in paths
            if steps[-1].truncated and steps[-1].t_end < horizon)
        assert (result.killed > 0) == (horizon == 100.0)
        # frame k holds the k-th step of every path still live
        flat = [all(steps[k].t_start >= t_w for steps in paths if len(steps) > k)
                for k in range(result.iterations)]
        assert any(flat) == (horizon == 100.0)

    @pytest.mark.parametrize("horizon", [30.0, 100.0, 400.0])
    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_capture_changes_no_result(self, scale05, mode, horizon):
        engine, p = _base_engine(scale05, mode)
        cfg = SimConfig(200, horizon, 41)
        capture = Capture()
        plain, captured = (
            [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)]
            for r in (engine(p, 2.0, cfg), engine(p, 2.0, cfg, capture=capture)))
        assert capture.frames
        assert plain == captured

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_capture_copies_what_it_keeps(self, scale05, mode, monkeypatch):
        """The claim sizes a capture gets are a view of a draw buffer where
        a take fits in one, as it does once few paths are live, and
        7-value buffers are refilled while earlier frames are held.  The
        step logs still equal those of the default buffers and of inline
        draws, so the capture keeps copies, not the views."""
        engine, p = _base_engine(scale05, mode)
        cfg = SimConfig(4, 100.0, 3)
        monkeypatch.setattr(simulate, "_spare_cpu", lambda: True)
        default = inspect_paths(engine, p, 2.0, cfg)
        monkeypatch.setattr(simulate, "_CHUNK_MAX", 7)
        small = inspect_paths(engine, p, 2.0, cfg)
        monkeypatch.setattr(simulate, "_spare_cpu", lambda: False)
        inline = inspect_paths(engine, p, 2.0, cfg)
        assert sum(len(steps) for steps in inline) > 20
        assert small == inline
        assert default == inline


# ---------------------------------------------------------------------------
# Russian roulette past t_w
# ---------------------------------------------------------------------------


def _stops(cfg: SimConfig, q: float):
    """Each path's stop: t_w plus an Exp(q) time from the clock stream,
    capped at the horizon."""
    t_w = min(math.log(1.0 / simulate.W_MIN) / q, cfg.horizon)
    u = np.random.Generator(np.random.Philox(key=cfg.seed).jumped()).random(cfg.n_paths)
    return t_w, np.minimum(t_w - np.log1p(-u) / q, cfg.horizon).tolist()


def _flat_discount_tax(ell_c: float, q: float, t_w: float, u: float, v: float) -> float:
    """Tax at rate ell*c over [u, v] discounted by D(s) = exp(-q min(s, t_w))."""
    u_w, v_w = min(u, t_w), min(v, t_w)
    return (ell_c / q) * math.exp(-q * u_w) * -math.expm1(-q * (v_w - u_w)) \
        + ell_c * math.exp(-q * t_w) * ((v - u) - (v_w - u_w))


class TestStopClock:
    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_steps_past_t_w(self, scale05, mode):
        """Horizon 100 at q = 0.05 puts t_w at 46: every step's tax is the
        flat-discount closed form, and a path ends at its own stop, with
        ruin or injections only at claims before it."""
        cfg = SimConfig(200, 100.0, 99)
        t_w, stops = _stops(cfg, 0.05)
        engine, p = _base_engine(scale05, mode)
        ell = p.ell
        paths = inspect_paths(engine, p, 2.0, cfg)
        past = 0
        for steps, stop in zip(paths, stops):
            for st in steps:
                assert st.tax_paid == pytest.approx(
                    _flat_discount_tax(ell * 1.2, 0.05, t_w, st.hit_time, st.t_end), abs=1e-14)
                assert st.t_end <= stop <= 100.0
                if st.truncated:
                    assert st.t_end == stop
                elif st.deficit > 0.0:
                    assert st.t_end < stop
                past += st.t_end > t_w
            assert steps[-1].truncated or steps[-1].deficit > 0.0
        assert past > 0

    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_roulette_dominated_unbiased(self, base_model, mode):
        """At q = 0.5, t_w = 4.6: most of each payoff's weight comes from
        the flat discount and the stop clock, and both engines still agree
        with the closed forms within 3 sigma."""
        engine, p = _base_engine(ScaleSet(base_model, 0.5), mode)
        cfg = SimConfig(200_000, 100.0, 5150)
        result = engine(p, 2.0, cfg)
        target = phi(p, 1.0, 2.0)
        assert result.killed > cfg.n_paths // 10
        assert abs(result.mean - target) < 3.0 * result.stderr


# ---------------------------------------------------------------------------
# The taxed interval's flat-discount phase
# ---------------------------------------------------------------------------

T_W = 10.0
F, T = False, True
# Rows of (t, end, level, barrier, claim, truncated) at c = 1.2, with the
# loop's flat flag (every t >= T_W) each case must give.  Each case has a
# shortfall and a truncated path whose claim would be one.
PHASE_CASES = {
    "before t_w": (F, [(0.0, 1.5, 0.5, 2.0, 0.3, F), (3.0, 9.5, 2.0, 2.0, 20.0, F),
                       (4.0, 6.0, 1.0, 2.0, 9.0, T)]),
    "straddling t_w": (F, [(8.0, 12.5, 1.0, 2.0, 0.5, F), (9.5, 10.25, 0.0, 3.0, 0.1, F),
                           (7.0, 15.0, 2.0, 2.0, 20.0, F), (9.0, 11.0, 2.0, 2.0, 20.0, T)]),
    "past t_w": (T, [(10.0, 13.0, 1.0, 2.0, 0.5, F), (12.0, 12.75, 2.0, 2.0, 0.25, F),
                     (15.5, 19.0, 0.5, 4.0, 30.0, F), (11.0, 14.0, 2.0, 2.0, 30.0, T)]),
    # reach = 1.2 / 1.2 = 1.0 exactly, so hit_time = 9 + 1 = T_W
    "hit_time at t_w": (F, [(9.0, 12.0, 0.0, 1.2, 0.5, F), (9.0, 9.5, 2.0, 2.0, 9.0, F),
                            (9.0, 9.5, 2.0, 2.0, 9.0, T)]),
    "hit_time at t_w, past": (T, [(10.0, 11.5, 2.0, 2.0, 0.5, F),
                                  (10.0, 11.5, 0.0, 0.0, 9.0, F),
                                  (10.5, 11.5, 2.0, 2.0, 9.0, T)]),
    "end at t_w": (F, [(8.0, 10.0, 1.0, 2.0, 5.0, F), (9.0, 10.0, 1.0, 2.0, 0.1, F),
                       (8.0, 10.0, 2.0, 2.0, 9.0, T)]),
    "end at t_w, past": (T, [(10.0, 10.0, 1.0, 2.0, 0.0, F), (10.0, 10.0, 1.0, 2.0, 5.0, F),
                             (10.0, 10.0, 2.0, 2.0, 9.0, T)]),
    "above zero": (F, [(5.0, 6.0, 0.0, 3.0, 0.5, F), (9.0, 11.0, 0.0, 3.0, 0.5, F),
                       (5.0, 6.0, 0.5, 3.0, 4.0, F), (5.0, 6.0, 0.5, 3.0, 4.0, T)]),
    "above zero, past": (T, [(12.0, 13.0, 0.0, 3.0, 0.5, F), (12.0, 13.0, 0.5, 3.0, 4.0, F),
                             (12.0, 13.0, 0.5, 3.0, 4.0, T)]),
}


def _general_interval(p, t_w, t, end, level, barrier, claim, truncated):
    """Tax, shortfall positions and discount of one interval in the general
    form, valid in every phase: discount e^{-q min(s, t_w)}, with the tax
    at rate ell*c from hit_time to end in closed form."""
    c, ell, q = p.scale.model.c, p.ell, p.scale.q
    duration = end - t
    reach = (barrier - level) / c
    above = np.maximum(duration - reach, 0.0)
    hit_time = t + np.minimum(reach, duration)
    late = np.minimum(above, np.maximum(end - t_w, 0.0))
    tax = np.exp(-q * np.minimum(hit_time, t_w)) * np.expm1(-q * (above - late)) \
        * -(ell * c / q) + (ell * c * math.exp(-q * t_w)) * late
    level_post = level + c * duration - (ell * c) * above - claim
    short = np.flatnonzero((level_post < 0.0) & ~truncated)
    return tax, short, np.exp(-q * np.minimum(end[short], t_w))


class TestFlatPhase:
    @pytest.mark.parametrize("ell", [0.1, 0.0])
    @pytest.mark.parametrize("q", [0.05, 0.5])
    @pytest.mark.parametrize("case", list(PHASE_CASES))
    def test_phase_forms_match_general(self, base_model, case, q, ell):
        """The interval's tax and shortfall discount, in the form the loop
        picks for the case and in the general form, equal the general
        expression to the bit."""
        flat_case, rows = PHASE_CASES[case]
        t, end, level, barrier, claim = (np.array(col) for col in list(zip(*rows))[:5])
        truncated = np.array([row[5] for row in rows])
        p = TerminalProblem(ScaleSet(base_model, q), ell, -5.0, 1.0)
        interval = simulate._taxed_interval(p, T_W)
        flat = bool(t.min() >= T_W)
        assert flat == flat_case
        want_tax, want_short, want_discount = _general_interval(
            p, T_W, t, end, level, barrier, claim, truncated)
        assert want_short.size == 1
        for form in {flat, False}:
            tax, _, short, discount = interval((level, barrier), t, end, truncated, claim, form)
            assert [x.hex() for x in tax.tolist()] == [x.hex() for x in want_tax.tolist()]
            assert short.tolist() == want_short.tolist()
            assert [x.hex() for x in discount.tolist()] \
                == [x.hex() for x in want_discount.tolist()]
        if case.startswith("hit_time"):
            assert path_log.hit_time(t, end, level, barrier, p.scale.model.c)[0] == T_W

    @pytest.mark.parametrize("mu", [1.0, 20.0])
    @pytest.mark.parametrize("q", [0.05, 0.5])
    @pytest.mark.parametrize("mode", ["terminal", "injection"])
    def test_loop_taxes_match_general(self, mode, q, mu):
        """Every captured step of each engine, in whichever phase the loop
        was in, carries the general form's tax to the bit and its shortfalls.
        The paths start on the barrier, and at mu = 20 small claims keep
        them near it, so the last paths to pass t_w are still being taxed."""
        engine, p = _base_engine(ScaleSet(new_model(1.2, 1.0, mu), q), mode, x0=3.0)
        cfg = SimConfig(400, 100.0, 7)
        t_w = min(math.log(1.0 / simulate.W_MIN) / q, cfg.horizon)
        for fr in path_log.frames(engine, p, 2.0, cfg):
            tax, short, _ = _general_interval(
                p, t_w, fr["t_start"], fr["t_end"], fr["level_start"],
                fr["barrier_start"], fr["claim_size"], fr["truncated"])
            assert [x.hex() for x in fr["tax_paid"].tolist()] \
                == [x.hex() for x in tax.tolist()]
            assert short.tolist() == np.flatnonzero(fr["deficit"] > 0.0).tolist()
