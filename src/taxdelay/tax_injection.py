"""Taxation with forced capital injections: functionals and optimal delay a*.

The surplus is kept nonnegative by capital injections costing varphi > 1
per unit.  Taxation is again delayed: below the threshold a the process
is simply reflected at 0; once it reaches a, tax accrues at rate ell*c
whenever the net process sits at its running record, and after each ruin
(covered by an injection) taxation stays suspended until the pre-ruin
record level is regained.  The objective

    phibar(x; a) = (Z(x)/Z(a)) upsilonbar(a) + varphi (Zbar(x) + d/q)

is assembled from three building blocks on [x, a]:

    f_a(x) = (Z(x)/Z(a))^{1/(1-ell)}          discounted up-crossing
    g_a(x) = expected discounted tax collected until crossing a
    r_a(x) = expected discounted injections spent until crossing a

and their tail limits g, r as a -> infinity.  The optimality function

    hbar(a) = upsilonbar(a) - Vbar(a) (1 - varphi Z(a)),  Vbar = Z/Z'

has a single sign change from + to -.  This is the construction of
``problem`` on the family Z: ``InjectionProblem`` supplies the data,
and ``h_bar``, ``phi_bar_value``, ... are the shared functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameter
from .problem import (DelayedTaxation, exit_integral, exit_ratio, exit_tail, gap,
                      h, optimize, phi, phi_partial, psi, upsilon)

__all__ = [
    "InjectionProblem",
    "reflected_upcross_laplace",
    "expected_injection_until_upcross",
    "f_a",
    "g_a",
    "r_a",
    "tax_tail",
    "injection_tail",
    "psi_bar",
    "upsilon_bar",
    "h_bar",
    "phi_bar_value",
    "phi_bar_partial_a",
    "optimize_injection",
]


@dataclass(frozen=True)
class InjectionProblem(DelayedTaxation):
    """Tax rate, injection cost factor and start level on top of a ScaleSet.

    varphi <= 1 makes capital injections a free (or profitable) lunch and
    voids the optimizer guarantees; it is admitted only for exploration
    via allow_low_cost=True.
    """

    varphi: float
    x0: float
    allow_low_cost: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.varphi) and self.varphi > 0.0):
            raise InvalidParameter(f"varphi must be finite and > 0, got {self.varphi!r}")
        if self.varphi <= 1.0 and not self.allow_low_cost:
            raise InvalidParameter(
                "varphi <= 1 needs allow_low_cost=True (cost below one unit per unit injected)"
            )
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise InvalidParameter(f"x0 must be finite and >= 0, got {self.x0!r}")
        Z = self.scale.Z
        self._bind(Z, -self.varphi, -Z.f1 / Z.theta1, -Z.f2 / Z.theta2)  # potential -(Zbar + d/q)

    # the family's data (see ``problem``)
    levels = "0 <= x"
    admits = staticmethod(lambda x: 0.0 <= x < math.inf)
    sign = -1  # weight = sign * varphi


#: Discounted up-crossing factor (Z(x)/Z(a))^{1/(1-ell)} on [0, a].
f_a = exit_ratio
psi_bar = psi
upsilon_bar = upsilon
h_bar = h
phi_bar_value = phi
phi_bar_partial_a = phi_partial
optimize_injection = optimize


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
    (``ScaleFamily.tail``).
    """
    return p.ell * exit_tail(p, x)


def injection_tail(p: InjectionProblem, x: float) -> float:
    """Tail limit of r_a as a -> infinity (injections paid forever):

    (1/(1-ell)) * int_x^inf kernel(w) (Z(x)/Z(w))^{1/(1-ell)} dw with the
    grouped injection kernel, in closed form (``ScaleFamily.tail``).
    """
    return exit_tail(p, x, kernel=True)
