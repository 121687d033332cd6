"""Terminal-value taxation: objective, exit functionals and optimal delay b*.

The insurer pays tax at rate ell on every increment of the running
maximum of the surplus, but only once the surplus has first reached a
threshold b; at ruin a terminal value S changes hands (S < 0 is a
benefit to the insurer, S > 0 an expense).  The objective

    phi(x; b) = E_x[ tax discounted until ruin + S e^{-q ruin} ]
              = S Z(x) + (W(x)/W(b)) * upsilon(b)

is maximized over b.  The optimality function

    h(b) = upsilon(b) - V(b) (1 - S q W(b)),     V = W/W'

has a single sign change from + to -.  This is the construction of
``problem`` on the family W: ``TerminalProblem`` supplies the data,
and ``h_terminal``, ``phi_value``, ... are the shared functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameter
from .problem import (DelayedTaxation, OptimumReport, exit_integral, exit_ratio,
                      h, optimize, phi, phi_partial, psi, upsilon)

__all__ = [
    "TerminalProblem",
    "OptimumReport",
    "two_sided_exit_taxed",
    "ruin_time_laplace_taxed",
    "expected_discounted_deficit",
    "psi",
    "upsilon",
    "h_terminal",
    "phi_value",
    "phi_partial_b",
    "optimize_terminal",
]


@dataclass(frozen=True)
class TerminalProblem(DelayedTaxation):
    """Tax rate, terminal value and start level on top of a ScaleSet."""

    s_terminal: float
    x0: float

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.s_terminal):
            raise InvalidParameter("s_terminal must be finite")
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise InvalidParameter(f"x0 must be finite and >= 0, got {self.x0!r}")
        self._bind(self.scale.W, self.s_terminal, self.scale.Z.f1, self.scale.Z.f2)  # G = Z

    # the family's data (see ``problem``)
    levels = "0 < x"
    admits = staticmethod(lambda x: 0.0 < x < math.inf)
    sign = 1  # weight = sign * s_terminal


#: Discounted chance of reaching b before ruin: (W(x)/W(b))^{1/(1-ell)}.
two_sided_exit_taxed = exit_ratio
h_terminal = h
phi_value = phi
phi_partial_b = phi_partial
optimize_terminal = optimize


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
