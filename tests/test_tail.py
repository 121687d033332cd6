"""Tests for the closed-form tail integrals ``ScaleSet.tail``.

The library evaluates every infinite-range tail through one Gauss
hypergeometric identity.  These tests check it against independent
high-precision oracles built from the public roots and model only:
``mpmath.hyp2f1`` of the same identity, and ``mpmath.quad`` of the
original integral, both at 32 significant digits.  Scenarios are drawn
from the fuzz box c, lam, mu in [0.1, 30], q in [1e-5, 1], ell in
[0, 0.98], negative safety loading included.
"""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

from taxdelay.errors import InvalidParameter, ToleranceNotMet
from taxdelay.model import new_model
from taxdelay.scale import ScaleSet
from taxdelay.tax_terminal import TerminalProblem, h_terminal, optimize_terminal

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


def mp_quad_tail(s: ScaleSet, family: str, e: float, x: float, kernel: bool):
    with mp.workdps(DIGITS):
        t1, t2, f1, f2, const = _family(s, family)
        e, x = mp.mpf(e), mp.mpf(x)

        def big_f(y):
            return f1 * mp.exp(t1 * y) - f2 * mp.exp(t2 * y)

        fx = big_f(x)

        def integrand(y):
            value = (fx / big_f(y)) ** e
            if kernel:
                value *= const * mp.exp((t1 + t2) * y) / big_f(y)
            return value

        # split where the integrand bends: the scale of the decaying
        # exponential, 1/delta, and of the slowest tail decay, 1/(e theta1)
        knees = (1 / (t1 - t2), 1 / (e * t1))
        points = sorted({x} | {x + m * k for k in knees for m in (1, 10, 100)})
        return mp.quad(integrand, points + [mp.inf])


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
            got = s.tail(family, e, x, kernel=kernel)
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
            assert s.tail(family, e, x, kernel=kernel) == pytest.approx(float(want), rel=REL_TOL)


class TestDomain:
    def test_negative_level_rejected(self, scale05):
        with pytest.raises(InvalidParameter):
            scale05.tail("w", 1.5, -0.1)

    def test_unknown_family_rejected(self, scale05):
        with pytest.raises(InvalidParameter):
            scale05.tail("v", 1.5, 0.0)

    def test_far_level_limit(self, scale05):
        """Far out the ratio F(x)/F(y) is e^{-theta1 (y-x)}, so the plain
        tail tends to 1/(e theta1) and the kernel tail underflows to 0."""
        e = 2.0
        assert scale05.tail("w", e, 5e3) == pytest.approx(1.0 / (e * scale05.theta1), rel=1e-14)
        assert scale05.tail("z", e, 5e3) == pytest.approx(1.0 / (e * scale05.theta1), rel=1e-14)
        assert scale05.tail("z", e, 5e3, kernel=True) == 0.0

    def test_extreme_tax_rate_is_finite_or_documented_failure(self):
        """At ell = 0.99999 the closed form can leave double range; the
        outcome is then the documented numerical failure, nothing else."""
        s = ScaleSet(new_model(3.5, 7.0, 9.0), 0.5)
        e = 1.0 / (1.0 - 0.99999)
        for family in ("w", "z"):
            for kernel in (False, True):
                try:
                    value = s.tail(family, e, 0.0, kernel=kernel)
                except ToleranceNotMet:
                    continue
                assert math.isfinite(value) and value > 0.0


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
    report = optimize_terminal(p)
    b = report.threshold
    assert math.isfinite(b) and b >= 0.0
    if report.boundary_case:
        assert h_terminal(p, 0.0) <= 0.0
    else:
        delta = 1e-4 * max(1.0, b)
        assert h_terminal(p, max(b - delta, 0.0)) > 0.0 > h_terminal(p, b + delta)
