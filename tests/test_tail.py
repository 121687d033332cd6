"""Tests for the closed-form tail integrals ``scale.Tails`` and the
finite-range exit functionals built from them.

The library evaluates every infinite-range tail through one Gauss
hypergeometric identity.  These tests check it against independent
high-precision oracles built from the public roots and model only:
``mpmath.hyp2f1`` of the same identity, and ``mpmath.quad`` of the
original integral, both at 32 significant digits.  Scenarios are drawn
from the fuzz box c, lam, mu in [0.1, 30], q in [1e-5, 1], ell in
[0, 0.98], negative safety loading included.  A finite range [x, b] is
the tail from x less (F(x)/F(b))^e times the tail from b; ``g_a``,
``r_a`` and ``ruin_time_laplace_taxed`` are checked against ``mpmath.quad``
of the finite integral itself.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp
import pytest
from scipy.special import betaincc, betaln, hyp2f1

from paper_functionals import g_a, injection_tail, r_a, ruin_time_laplace_taxed, tax_tail
from taxdelay.cli import main

from taxdelay.errors import DomainError, ToleranceNotMet
from taxdelay.model import new_model
from taxdelay.problem import InjectionProblem, TerminalProblem, exit_tail, h, optimize, psi
from taxdelay.scale import ScaleSet, Tails, _gauss_cf

DIGITS = 32
REL_TOL = 1e-10


def _fuzz_box(seed: int, count: int):
    rng = random.Random(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for _ in range(count):
        c, lam, mu = (log_uniform(0.1, 30.0) for _ in range(3))
        q = log_uniform(1e-5, 1.0)
        ell = rng.uniform(0.0, 0.98)
        out.append((ScaleSet(new_model(c, lam, mu), q), ell))
    return out


def _family(s: ScaleSet, family: str):
    # F(y) = f1 e^{theta1 y} - f2 e^{theta2 y} and its kernel constant,
    # rebuilt in extended precision from the public roots
    r, m = s.roots, s.model
    t1, t2 = mp.mpf(r.theta1), mp.mpf(r.theta2)
    a1, a2, c = mp.mpf(r.a1), mp.mpf(r.a2), mp.mpf(m.c)
    if family == "w":
        return t1, t2, a1 / c, a2 / c, mp.mpf(m.lam) / c ** 2
    q = mp.mpf(s.q)
    return (t1, t2, q * a1 / (c * t1), q * a2 / (c * t2),
            mp.mpf(m.lam) / (c * mp.mpf(m.mu)))


def _rho(s: ScaleSet, family: str, x: float) -> float:
    t1, t2, f1, f2, _ = _family(s, family)
    return float(f2 / f1 * mp.exp(-(t1 - t2) * x))


def mp_hyp2f1_tail(s: ScaleSet, family: str, e: float, x: float, kernel: bool):
    with mp.workdps(DIGITS):
        t1, t2, f1, f2, const = _family(s, family)
        e, x, k = mp.mpf(e), mp.mpf(x), int(kernel)
        delta = t1 - t2
        rho = f2 / f1 * mp.exp(-delta * x)
        g = (e * t1 - k * t2) / delta
        pref = (const * mp.exp(t2 * x) / f1) ** k
        return pref * (1 - rho) ** e * mp.hyp2f1(e + k, g, g + 1, rho) / (delta * g)


def _mp_integrand(s: ScaleSet, family: str, e, x, kernel: bool):
    """y -> (F(x)/F(y))^e g(y) at the working precision, and the levels
    past x where it bends: the scale of the decaying exponential, 1/delta,
    and of the slowest tail decay, 1/(e theta1)."""
    t1, t2, f1, f2, const = _family(s, family)

    def big_f(y):
        return f1 * mp.exp(t1 * y) - f2 * mp.exp(t2 * y)

    fx = big_f(x)

    def integrand(y):
        value = (fx / big_f(y)) ** e
        if kernel:
            value *= const * mp.exp((t1 + t2) * y) / big_f(y)
        return value

    knees = (1 / (t1 - t2), 1 / (e * t1))
    return integrand, {x + m * k for k in knees for m in (1, 10, 100)}


def mp_quad_tail(s: ScaleSet, family: str, e: float, x: float, kernel: bool):
    with mp.workdps(DIGITS):
        e, x = mp.mpf(e), mp.mpf(x)
        integrand, bends = _mp_integrand(s, family, e, x, kernel)
        return mp.quad(integrand, sorted({x} | bends) + [mp.inf])


CASES = [(s, ell, family, x, kernel)
         for s, ell in _fuzz_box(20261018, 60)
         for family in ("w", "z")
         for x in (0.0, 0.5, 3.0)
         for kernel in (False, True)]


class TestAgainstMpmath:
    def test_sample_covers_hard_regions(self):
        """The seeded sample reaches rho < -1 on Z and negative loading."""
        assert any(s.model.negative_loading for s, *_ in CASES)
        assert any(fam == "z" and _rho(s, fam, x) < -1.0 for s, _, fam, x, _ in CASES)
        assert any(fam == "z" and _rho(s, fam, x) < -1.0 and s.q < 1e-3
                   for s, _, fam, x, _ in CASES)

    def test_matches_hyp2f1_identity(self):
        worst = 0.0
        for s, ell, family, x, kernel in CASES:
            e = 1.0 / (1.0 - ell)
            want = mp_hyp2f1_tail(s, family, e, x, kernel)
            if want < 1e-280:  # below the double range; nothing to compare
                continue
            got = Tails(getattr(s, family.upper()), e)(x)[kernel]
            assert type(got) is float
            worst = max(worst, float(abs(got / want - 1)))
        assert worst <= REL_TOL

    def test_identity_matches_direct_quadrature(self):
        """mpmath quadrature of the original integral confirms the identity
        (and the library) on every ninth case of the sample, which spreads
        over all families, levels and kernels."""
        for s, ell, family, x, kernel in CASES[::9]:
            if x == 3.0:
                continue
            e = 1.0 / (1.0 - ell)
            want = mp_quad_tail(s, family, e, x, kernel)
            assert float(abs(mp_hyp2f1_tail(s, family, e, x, kernel) / want - 1)) <= 1e-15
            assert Tails(getattr(s, family.upper()), e)(x)[kernel] == pytest.approx(
                float(want), rel=REL_TOL)


class TestDomain:
    def test_negative_level_rejected(self, scale05):
        for p in (TerminalProblem(scale05, 0.1, -5.0, 1.0),
                  InjectionProblem(scale05, 0.2, 1.5, 1.0)):
            for fn in (exit_tail, psi, h):
                with pytest.raises(DomainError):
                    fn(p, -0.1)

    def test_far_level_limit(self, scale05):
        """Far out the ratio F(x)/F(y) is e^{-theta1 (y-x)}, so the plain
        tail tends to 1/(e theta1) and the kernel tail underflows to 0."""
        e = 2.0
        assert Tails(scale05.W, e)(5e3)[False] == pytest.approx(
            1.0 / (e * scale05.theta1), rel=1e-14)
        assert Tails(scale05.Z, e)(5e3)[False] == pytest.approx(
            1.0 / (e * scale05.theta1), rel=1e-14)
        assert Tails(scale05.Z, e)(5e3)[True] == 0.0

    def test_extreme_tax_rate_is_finite_or_documented_failure(self):
        """At ell = 0.99999 the closed form can leave double range; the
        outcome is then the documented numerical failure, nothing else."""
        s = ScaleSet(new_model(3.5, 7.0, 9.0), 0.5)
        e = 1.0 / (1.0 - 0.99999)
        for family in (s.W, s.Z):
            for kernel in (False, True):
                try:
                    value = Tails(family, e)(0.0)[kernel]
                except ToleranceNotMet:
                    continue
                assert math.isfinite(value) and value > 0.0


# ---------------------------------------------------------------------------
# Gauss's continued fraction, where scipy's hyp2f1 gives nan (ell >= 0.99999)
# ---------------------------------------------------------------------------


def mp_euler_2f1(a: float, g: float, z: float):
    """2F1(a, 1; g + 1; z) = g int_0^1 (1-t)^(g-1) (1-zt)^(-a) dt (DLMF 15.6.1)
    by mpmath quadrature at 30 digits, split where the integrand, peaked
    at t = 0, has fallen by e^-1, e^-10, ..."""
    with mp.workdps(30):
        a, g, z = mp.mpf(a), mp.mpf(g), mp.mpf(z)
        rate = (g - 1) - a * z  # -d/dt of the log integrand at t = 0

        def integrand(t):
            return mp.exp((g - 1) * mp.log1p(-t) - a * mp.log1p(-z * t))

        knees = {m / rate for m in (1, 10, 100, 1000) if m / rate < 1}
        return g * mp.quad(integrand, sorted({mp.mpf(0), mp.mpf(1)} | knees))


C3_SCENARIO = (3.5, 7.0, 9.0, 0.5)


class TestGaussContinuedFraction:
    @pytest.mark.parametrize("ell", [0.9999, 0.99999, 0.999999])
    def test_matches_mpmath_on_both_families(self, ell):
        """The 2F1 of the tails at x in {0, 0.5}, both families, both
        kernels, on the C3 scenario, the base scenario and a small-q one
        whose power series cancels thousands of digits."""
        e = 1.0 / (1.0 - ell)
        worst = 0.0
        for c, lam, mu, q in (C3_SCENARIO, (1.2, 1.0, 1.0, 0.05), (2.0, 0.4, 2.7, 0.0014)):
            s = ScaleSet(new_model(c, lam, mu), q)
            for family in (s.W, s.Z):
                delta = family.theta1 - family.theta2
                for k in (0.0, 1.0):
                    g = (e * family.theta1 - k * family.theta2) / delta
                    a = g + 1.0 - e - k
                    for x in (0.0, 0.5):
                        rho = family.f2 / family.f1 * math.exp(-delta * x)
                        assert rho >= -0.5
                        want = mp_euler_2f1(a, g, rho)
                        worst = max(worst, float(abs(_gauss_cf(a, g, rho) / want - 1)))
        assert worst <= 1e-14

    def test_slow_convergence_is_a_documented_failure(self):
        """At a = -1e5 and c + 1 = 4.5 (W at q = 9e-5, ell = 0.99999) the
        fraction needs far more than its 1000 terms."""
        with pytest.raises(ToleranceNotMet, match="continued fraction"):
            _gauss_cf(-1e5, 3.465, 0.3851)

    def test_tails_finite_where_hyp2f1_is_nan(self):
        s = ScaleSet(new_model(*C3_SCENARIO[:3]), C3_SCENARIO[3])
        e = 1.0 / (1.0 - 0.99999)
        family = s.W
        g = e * family.theta1 / (family.theta1 - family.theta2)
        assert math.isnan(hyp2f1(g + 1.0 - e, 1.0, g + 1.0, family.f2 / family.f1))
        for family in (s.W, s.Z):
            for kernel in (False, True):
                assert 0.0 < Tails(family, e)(0.0)[kernel] < math.inf

    def test_c3_example_solves(self, capsys):
        """ROADMAP C3: exit 3 before the continued fraction, b* = 0.763 now."""
        rc = main(["optimize", "--mode", "terminal", "--c", "3.5", "--lambda", "7",
                   "--mu", "9", "--q", "0.5", "--ell", "0.99999", "--S", "1",
                   "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == pytest.approx(0.763, abs=1e-3)


# ---------------------------------------------------------------------------
# Scenarios on which the quadrature-based tails failed (exit code 3)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c, lam, mu, q, ell, s_terminal", [
    # q < 1e-3 with ell > 0.9: quadrature hit its roundoff limit
    (0.35878036356194454, 1.297528542570777, 6.088248765895613,
     4.218328356615717e-05, 0.9038557493938278, 3.7370985366708105),
    (3.8909022676332135, 0.7247240808162062, 0.23845769460633257,
     2.5211766439684786e-05, 0.9581258018280652, 1.414195363042321),
    # ell = 0.964 at q = 0.002: quadrature reported a divergent integral
    (2.004792900437844, 19.48456937894278, 29.463757626856193,
     0.0020870623729160875, 0.9644213347878998, -8.024978050417918),
])
def test_former_quadrature_failures_solve(c, lam, mu, q, ell, s_terminal):
    p = TerminalProblem(ScaleSet(new_model(c, lam, mu), q), ell, s_terminal, 1.0)
    report = optimize(p)
    b = report.threshold
    assert math.isfinite(b) and b >= 0.0
    if report.boundary_case:
        assert h(p, 0.0) <= 0.0
    else:
        delta = 1e-4 * max(1.0, b)
        assert h(p, max(b - delta, 0.0)) > 0.0 > h(p, b + delta)


# ---------------------------------------------------------------------------
# Finite-range exit functionals
# ---------------------------------------------------------------------------


def mp_quad_exit(s: ScaleSet, family: str, e: float, x: float, b: float, kernel: bool):
    """e int_x^b (F(x)/F(y))^e g(y) dy by mpmath Gauss-Legendre quadrature."""
    with mp.workdps(DIGITS):
        e, x, b = mp.mpf(e), mp.mpf(x), mp.mpf(b)
        integrand, bends = _mp_integrand(s, family, e, x, kernel)
        points = sorted({x, b} | {y for y in bends if y < b})
        # mp.quad's tolerance is absolute: integrate relative to the value
        # at x so that kernel integrands far below 1 keep every digit
        top = integrand(x)
        return e * top * mp.quad(lambda y: integrand(y) / top, points,
                                 method="gauss-legendre")


EXIT_SCENARIOS = [  # c, lam, mu, q, ell
    (1.2, 1.0, 1.0, 0.05, 0.2),         # the baseline
    (2.0, 0.4, 2.7, 0.0014, 0.6),       # theta1 = 7.6e-4: ranges up to 1.3e4
    (0.8, 1.0, 1.0, 0.01, 0.5),         # negative loading, rho < -1/2 to x = 0.5
    (1.0, 2.0, 1.5, 0.2, 0.95),         # negative loading, exponent e = 20
    (0.127, 27.1, 24.5, 0.0186, 0.6),   # theta1 = 189: log F(20) is near 3800
]

#: theta1 (b - x), from far inside to far beyond the exit scale 1/theta1
EXIT_GAPS = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0)


def test_exit_scenarios_cover_hard_regions():
    scales = [ScaleSet(new_model(c, lam, mu), q) for c, lam, mu, q, _ in EXIT_SCENARIOS]
    assert any(s.model.negative_loading for s in scales)
    assert any(_rho(s, "z", 0.5) < -0.5 for s in scales)  # the incomplete-beta branch
    assert max(s.theta1 for s in scales) * 20.0 > 1e3


@pytest.mark.parametrize("c, lam, mu, q, ell", EXIT_SCENARIOS)
def test_finite_range_functionals_match_mpmath(c, lam, mu, q, ell):
    """Absolute error at most 1e-12 of the tail from x at every gap, and
    relative error at most 1e-10 once theta1 (b - x) >= 0.1.  The
    terminal problem (family W) starts above 0, so it skips x = 0."""
    s = ScaleSet(new_model(c, lam, mu), q)
    inj = InjectionProblem(s, ell, 1.5, 0.0)
    term = TerminalProblem(s, ell, 0.0, 1.0)
    functionals = [  # library call, its problem, its family, kernel, weight
        (g_a, inj, "z", False, ell),
        (r_a, inj, "z", True, 1.0),
        (ruin_time_laplace_taxed, term, "w", True, 1.0),
    ]
    for x in (0.0, 0.5, 3.0, 20.0):
        for call, p, family, kernel, weight in functionals:
            if not p.admits(x):
                continue
            tail = weight * exit_tail(p, x, kernel)
            for gap in EXIT_GAPS:
                b = x + gap / s.theta1
                got = call(p, x, b)
                want = weight * mp_quad_exit(s, family, p.exponent, x, b, kernel)
                where = f"{call.__name__} x={x} theta1*(b-x)={gap}"
                assert float(abs(got - want)) <= 1e-12 * tail, where
                if gap >= 0.1:
                    assert float(abs(got / want - 1)) <= 1e-10, where


def test_long_ranges_reach_their_tails():
    """A range of 1e4 (ten exit scales 1/theta1) holds nearly all the
    integrand's mass near x.  Adaptive quadrature samples missed that mass
    (r_a and the ruin factor came out near 1e-16, g_a above its own
    limit); the closed form lands on the tails."""
    s = ScaleSet(new_model(2.0, 0.4, 2.7), 0.0014)
    inj = InjectionProblem(s, 0.6, 1.5, 0.5)
    term = TerminalProblem(s, 0.6, 0.0, 0.5)
    assert s.theta1 * 14000.0 > 10.0
    r = r_a(inj, 0.5, 14000.0)
    assert r == pytest.approx(injection_tail(inj, 0.5), rel=1e-12)
    assert r == pytest.approx(0.0212061, rel=1e-5)
    ruin = ruin_time_laplace_taxed(term, 0.5, 14000.0)
    assert ruin == pytest.approx(ruin_time_laplace_taxed(term, 0.5, math.inf), rel=1e-12)
    assert ruin == pytest.approx(0.0521765, rel=1e-5)
    # the plain tail beyond b still holds e^{-e theta1 (b - x)} = 3.2e-12 of it
    g = g_a(inj, 0.5, 14000.0)
    assert g == pytest.approx(tax_tail(inj, 0.5), rel=1e-11)
    assert g < tax_tail(inj, 0.5)


# ---------------------------------------------------------------------------
# The fused evaluation of h against the composed oracle
# ---------------------------------------------------------------------------


def oracle_tail(F, e: float, x: float, kernel: bool) -> float:
    """One tail on its own, with scalar calls of scipy: the evaluation
    the library made before both tails shared one pass (``scale.Tails``)."""
    t1, t2 = F.theta1, F.theta2
    delta = t1 - t2
    k = 1.0 if kernel else 0.0
    g = (e * t1 - k * t2) / delta
    rho = F.f2 / F.f1 * math.exp(-delta * x)
    try:
        if rho < -0.5:
            b = e + k - g
            log_scale = e * math.log1p(-rho) - g * math.log(-rho) + betaln(g, b)
            value = math.exp(log_scale + math.log(betaincc(b, g, 1.0 / (1.0 - rho)))) / delta
        else:
            a = g + 1.0 - e - k
            f21 = float(hyp2f1(a, 1.0, g + 1.0, rho))
            if not math.isfinite(f21):
                f21 = _gauss_cf(a, g, rho)
            value = (1.0 - rho) ** (1.0 - k) * f21 / (delta * g)
        if kernel:
            value *= F.const * math.exp(t2 * x) / F.f1
    except (OverflowError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ToleranceNotMet(
            f"closed-form tail out of floating-point range (e={e:g}, rho={rho:g})")
    return value


def oracle_h(p, x: float) -> float:
    """psi - V (1 + w K), each piece taken on its own: two tails, then
    F/F' and K, each from its own e^{-delta x}."""
    F, w = p.family, p.weight
    e = 1.0 / (1.0 - p.ell)
    psi_x = p.ell * e * oracle_tail(F, e, x, False) + w * (e * oracle_tail(F, e, x, True))
    u = math.exp((F.theta2 - F.theta1) * x)
    v = (F.f1 - F.f2 * u) / (F.dk * (F.d1 - F.d2 * u))
    log_f = F.theta1 * x + math.log(F.f1) + math.log1p(
        -(F.f2 / F.f1) * math.exp((F.theta2 - F.theta1) * x))
    k = F.const * math.exp((F.theta1 + F.theta2) * x - log_f)
    return psi_x - v * (1.0 + w * k)


def _outcome(fn, *args):
    """The hex of fn's value, or the type and message of its numerical failure."""
    try:
        return fn(*args).hex()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


def _fused_matches_oracle(p, x: float) -> None:
    """h, psi and each tail at x are the oracle's to the bit, or fail with
    the oracle's error type and message; a tail, taken with the other in
    one call, fails as the first failing oracle tail does."""
    F, e = p.family, p.exponent
    where = f"{type(p).__name__} ell={p.ell!r} x={x!r}"
    assert _outcome(h, p, x) == _outcome(oracle_h, p, x), where
    psi_want = _outcome(lambda: p.ell * e * oracle_tail(F, e, x, False)
                        + p.weight * (e * oracle_tail(F, e, x, True)))
    assert _outcome(psi, p, x) == psi_want, where
    errors = [w for w in (_outcome(oracle_tail, F, e, x, k) for k in (False, True))
              if isinstance(w, tuple)]
    for kernel in (False, True):
        assert _outcome(lambda: Tails(F, e)(x)[kernel]) \
            == (errors[0] if errors else _outcome(oracle_tail, F, e, x, kernel)), where
        assert _outcome(exit_tail, p, x, kernel) \
            == (errors[0] if errors else _outcome(lambda: e * oracle_tail(F, e, x, kernel))), where


def _both_outcome(tails, x: float):
    """The hex of both tails of one call at x, or the type and message of its
    numerical failure."""
    try:
        t, t_k, _, _ = tails(x)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return t.hex(), t_k.hex()


FUSED_LEVELS = (0.0, 0.5, 3.0, 5e3)


class TestFusedEvaluation:
    def test_fuzz_box_matches_oracle_bit_for_bit(self):
        """Both families (terminal on W, injection on Z) and both kernels at
        four levels; the sample reaches the incomplete-beta branch."""
        beta_branch = 0
        for s, ell in _fuzz_box(20261018, 60):
            for p in (TerminalProblem(s, ell, -5.0, 1.0), InjectionProblem(s, ell, 1.5, 0.0)):
                for x in FUSED_LEVELS:
                    _fused_matches_oracle(p, x)
                    beta_branch += _rho(s, "z", x) < -0.5 and p.family is s.Z
        assert beta_branch >= 10

    def test_continued_fraction_fallback_matches_oracle(self):
        """The C3 scenario at ell = 0.99999, where hyp2f1 gives nan and
        Gauss's continued fraction stands in."""
        s = ScaleSet(new_model(*C3_SCENARIO[:3]), C3_SCENARIO[3])
        e = 1.0 / (1.0 - 0.99999)
        g = e * s.W.theta1 / (s.W.theta1 - s.W.theta2)
        assert math.isnan(hyp2f1(g + 1.0 - e, 1.0, g + 1.0, s.W.f2 / s.W.f1))
        for p in (TerminalProblem(s, 0.99999, 1.0, 1.0), InjectionProblem(s, 0.99999, 1.5, 0.0)):
            for x in (0.0, 0.5):
                _fused_matches_oracle(p, x)

    def test_both_tails_match_one_tail_near_ell_one(self):
        """Both tails of one call are the oracle's one-tail results to the
        bit, on both families at ell up to 0.99999 (ROADMAP C3), through the
        hyp2f1, incomplete-beta and continued-fraction branches; where a
        tail fails, the call fails as the first failing oracle tail does, so
        it also fails where only the plain tail does."""
        branches = {"hyp2f1": 0, "beta": 0, "cf": 0, "raised": 0, "plain_only": 0}
        for s, _ in _fuzz_box(20261018, 60):
            for ell in (0.9, 0.999, 0.9999, 0.99999):
                e = 1.0 / (1.0 - ell)
                for F in (s.W, s.Z):
                    tails = Tails(F, e)
                    for x in (0.0, 0.5, 3.0):
                        want = [_outcome(oracle_tail, F, e, x, kernel)
                                for kernel in (False, True)]
                        errors = [w for w in want if isinstance(w, tuple)]
                        assert _both_outcome(tails, x) == (errors[0] if errors else tuple(want)), \
                            (s.model, s.q, ell, x)
                        branches["raised"] += bool(errors)
                        branches["plain_only"] += errors == want[:1]
                        delta = F.theta1 - F.theta2
                        rho = F.f2 / F.f1 * math.exp(-delta * x)
                        if rho < -0.5:
                            branches["beta"] += 1
                            continue
                        g = e * F.theta1 / delta
                        branches["hyp2f1" if math.isfinite(
                            hyp2f1(g + 1.0 - e, 1.0, g + 1.0, rho)) else "cf"] += 1
        assert branches.pop("plain_only") >= 1, branches
        assert min(branches.values()) >= 5, branches

    def test_call_factors_match_family_methods(self):
        """The call's F/F' and K are the family's ``over_slope`` and ``kernel``
        at x to the bit, on both families at the box's ell and at 0.99999;
        levels where a tail fails raise before either is returned."""
        checked = 0
        for s, box_ell in _fuzz_box(20261018, 60):
            for ell in (box_ell, 0.99999):
                for F in (s.W, s.Z):
                    for x in FUSED_LEVELS:
                        try:
                            _, _, v, k = Tails(F, 1.0 / (1.0 - ell))(x)
                        except ToleranceNotMet:
                            continue
                        assert (v.hex(), k.hex()) == (F.over_slope(x).hex(), F.kernel(x).hex()), \
                            (s.model, s.q, ell, x)
                        checked += 1
        assert checked >= 900

    @pytest.mark.parametrize("c, lam, mu, q, ell, problem, param, message", [
        # the incomplete-beta branch leaves double range (ROADMAP C3)
        (0.172, 0.0429, 0.160, 0.0202, 0.99968, InjectionProblem, 2.80,
         "closed-form tail out of floating-point range (e=3125, rho=-0.849121)"),
        # the continued fraction does not converge (ROADMAP C3)
        (0.622, 2.7, 11.3, 9.2e-5, 0.99999, TerminalProblem, 1.0,
         "continued fraction for 2F1("),
    ])
    def test_failures_match_oracle(self, c, lam, mu, q, ell, problem, param, message):
        p = problem(ScaleSet(new_model(c, lam, mu), q), ell, param, 1.0)
        with pytest.raises(ToleranceNotMet) as failure:
            h(p, 0.0)
        assert str(failure.value).startswith(message)
        _fused_matches_oracle(p, 0.0)
