"""Quadrature references used as independent oracles in tests.

An arbitrary weight of the pre-ruin running maximum has no closed form,
so the penalty functional below is integrated by adaptive quadrature.
With the weight set to 1 it checks the library's closed ruin functionals;
with the weight z it checks the scalar simulator in ``mc_oracle``.
"""

from __future__ import annotations

import math
from typing import Callable

from taxdelay.errors import DomainError
from taxdelay.numerics import integrate_finite
from taxdelay.problem import TerminalProblem, exit_ratio

__all__ = ["expected_discounted_penalty"]


def expected_discounted_penalty(p: TerminalProblem, x: float, a: float,
                                hbar: Callable[[float], float]) -> float:
    """E_x[e^{-q ruin} hbar(max before ruin); ruin before reaching a].

    hbar is any bounded function of the pre-ruin running maximum.
    """
    if not (0.0 < x < a and math.isfinite(a)):
        raise DomainError(f"need 0 < x < a finite, got x={x!r}, a={a!r}")
    kernel = p.family.kernel
    return p.exponent * integrate_finite(
        lambda z: exit_ratio(p, x, z) * hbar(z) * kernel(z), x, a)
