"""The paper's named exit functionals, written on ``taxdelay.problem``.

The library computes every one of these through ``exit_ratio``,
``exit_integral``, ``exit_tail``, ``gap`` and ``potential`` (see
docs/paper_symbols.md) and calls none of them by the paper's name.  The
tests check them under those names, against quadrature, ``mpmath`` and
the Monte Carlo engines, so they live here next to ``quad_oracle``.

Terminal problem (family W): the ruin transform and the expected
discounted deficit before a level.  Injection problem (family Z): the
corridor functionals on [x, a]

    f_a(x) = (Z(x)/Z(a))^{1/(1-ell)}          discounted up-crossing
    g_a(x) = expected discounted tax collected until crossing a
    r_a(x) = expected discounted injections spent until crossing a

their tail limits as a -> infinity, the reflected up-crossing transform
and the injection cost until the first up-crossing.  ``upsilon`` serves
both problems.
"""

from __future__ import annotations

import math

from taxdelay.errors import DomainError
from taxdelay.problem import (DelayedTaxation, InjectionProblem, TerminalProblem,
                              exit_integral, exit_ratio, exit_tail, gap, potential,
                              psi)

__all__ = [
    "upsilon",
    "ruin_time_laplace_taxed",
    "expected_discounted_deficit",
    "reflected_upcross_laplace",
    "expected_injection_until_upcross",
    "f_a",
    "g_a",
    "r_a",
    "tax_tail",
    "injection_tail",
]


def upsilon(p: DelayedTaxation, x: float) -> float:
    """upsilon = psi - w G: psi - S Z, or psi - varphi (Zbar + d/q)."""
    return psi(p, x) - p.weight * potential(p, x)


# ---------------------------------------------------------------------------
# Terminal problem
# ---------------------------------------------------------------------------


def ruin_time_laplace_taxed(p: TerminalProblem, x: float, b: float) -> float:
    """E_x[e^{-q ruin}; ruin before reaching b] for the taxed process.

    The ruin-kernel exit integral on [x, b] in closed form
    (``exit_integral``); b may be infinite.
    """
    if not (0.0 < x <= b):
        raise DomainError(f"need 0 < x <= b, got x={x!r}, b={b!r}")
    return exit_integral(p, x, b, kernel=True)


def expected_discounted_deficit(p: TerminalProblem, x: float, a: float) -> float:
    """E_x[e^{-q ruin} |deficit at ruin|; ruin before reaching a].

    For exponential claims the overshoot below 0 is memoryless with mean
    1/mu, so this is ``ruin_time_laplace_taxed(p, x, a)`` divided by mu.
    """
    if not (0.0 < x < a and math.isfinite(a)):
        raise DomainError(f"need 0 < x < a finite, got x={x!r}, a={a!r}")
    return exit_integral(p, x, a, kernel=True) / p.scale.model.mu


# ---------------------------------------------------------------------------
# Injection problem
# ---------------------------------------------------------------------------

#: Discounted up-crossing factor (Z(x)/Z(a))^{1/(1-ell)} on [0, a].
f_a = exit_ratio


def reflected_upcross_laplace(p: InjectionProblem, x: float, a: float) -> float:
    """Discount factor of the first passage to a for the process reflected
    at 0: Z(x)/Z(a)."""
    if not (0.0 <= x <= a):
        raise DomainError(f"need 0 <= x <= a, got x={x!r}, a={a!r}")
    return math.exp(p.family.log_ratio(x, a))


def expected_injection_until_upcross(p: InjectionProblem, a: float) -> float:
    """Expected discounted injections, started at 0, until first reaching a:
    -d/q + (Zbar(a) + d/q)/Z(a), d = net drift.  This is the potential's
    ``gap(0, a)``, so nothing cancels as a -> 0 or overflows as a grows."""
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"need finite a >= 0, got {a!r}")
    return gap(p, 0.0, a)


def g_a(p: InjectionProblem, x: float, a: float) -> float:
    """Expected discounted tax collected before the process crosses a.

    (ell/(1-ell)) * int_x^a (Z(x)/Z(w))^{1/(1-ell)} dw, taken as
    tax_tail(x) - f_a(x) tax_tail(a) (strong Markov property at a).
    """
    if not (0.0 <= x <= a and math.isfinite(a)):
        raise DomainError(f"need 0 <= x <= a finite, got x={x!r}, a={a!r}")
    if p.ell == 0.0:
        return 0.0
    return p.ell * exit_integral(p, x, a)


def r_a(p: InjectionProblem, x: float, a: float) -> float:
    """Expected discounted injections spent before the process crosses a.

    (1/(1-ell)) * int_x^a kernel(w) (Z(x)/Z(w))^{1/(1-ell)} dw with the
    grouped injection kernel, taken as injection_tail(x) - f_a(x)
    injection_tail(a) (strong Markov property at a).
    """
    if not (0.0 <= x <= a and math.isfinite(a)):
        raise DomainError(f"need 0 <= x <= a finite, got x={x!r}, a={a!r}")
    return exit_integral(p, x, a, kernel=True)


def tax_tail(p: InjectionProblem, x: float) -> float:
    """Tail limit of g_a as a -> infinity (tax collected until forever):

    (ell/(1-ell)) * int_x^inf (Z(x)/Z(w))^{1/(1-ell)} dw, in closed form
    (``scale.Tails``).
    """
    return p.ell * exit_tail(p, x)


def injection_tail(p: InjectionProblem, x: float) -> float:
    """Tail limit of r_a as a -> infinity (injections paid forever):

    (1/(1-ell)) * int_x^inf kernel(w) (Z(x)/Z(w))^{1/(1-ell)} dw with the
    grouped injection kernel, in closed form (``scale.Tails``).
    """
    return exit_tail(p, x, kernel=True)
