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

has a single sign change from + to -; a* is its root when hbar(0) > 0
and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameter
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    find_root_decreasing_sign,
    integrate_finite,
)
from .scale import ScaleSet
from .tax_terminal import OptimumReport

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
    "cap_v_bar",
    "h_bar",
    "phi_bar_value",
    "phi_bar_partial_a",
    "optimize_injection",
]

DEFAULT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class InjectionProblem:
    """Tax rate, injection cost factor and start level on top of a ScaleSet.

    varphi <= 1 makes capital injections a free (or profitable) lunch and
    voids the optimizer guarantees; it is admitted only for exploration
    via allow_low_cost=True.
    """

    scale: ScaleSet
    ell: float
    varphi: float
    x0: float
    allow_low_cost: bool = False

    def __post_init__(self):
        if not (0.0 <= self.ell < 1.0):
            raise InvalidParameter(f"ell must lie in [0, 1), got {self.ell!r}")
        if not (math.isfinite(self.varphi) and self.varphi > 0.0):
            raise InvalidParameter(f"varphi must be finite and > 0, got {self.varphi!r}")
        if self.varphi <= 1.0 and not self.allow_low_cost:
            raise InvalidParameter(
                "varphi <= 1 needs allow_low_cost=True (cost below one unit per unit injected)"
            )
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise InvalidParameter(f"x0 must be finite and >= 0, got {self.x0!r}")

    @property
    def exponent(self) -> float:
        """The taxed-exit exponent 1/(1 - ell)."""
        return 1.0 / (1.0 - self.ell)

    @property
    def drift_ratio(self) -> float:
        """Net drift over discount rate, (c - lam/mu)/q."""
        return self.scale.model.net_drift / self.scale.q


def _zratio_pow(s: ScaleSet, e: float, x: float, w: float) -> float:
    # (Z(x)/Z(w))^e via log space
    return math.exp(e * (s.log_z(x) - s.log_z(w)))


def reflected_upcross_laplace(p: InjectionProblem, x: float, a: float) -> float:
    """Discount factor of the first passage to a for the process reflected
    at 0: Z(x)/Z(a)."""
    if not (0.0 <= x <= a):
        raise DomainError(f"need 0 <= x <= a, got x={x!r}, a={a!r}")
    return math.exp(p.scale.log_z(x) - p.scale.log_z(a))


def expected_injection_until_upcross(p: InjectionProblem, a: float) -> float:
    """Expected discounted injections, started at 0, until first reaching a:

    -d/q + (Zbar(a) + d/q)/Z(a),  d = net drift.
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"need finite a >= 0, got {a!r}")
    s = p.scale
    if s.theta1 * a > 600.0:
        # both factors are about to overflow; at this depth the decaying
        # terms are long gone, so move the ratio into log space
        t1, t2 = s.theta1, s.theta2
        log_num = t1 * a + math.log(s._z1 / t1 - s._z2 / t2 * math.exp((t2 - t1) * a))
        ratio = math.exp(log_num - s.log_z(a))
    else:
        ratio = s.zbar_shifted(a) / s.z(a)
    return -p.drift_ratio + ratio


def f_a(p: InjectionProblem, x: float, a: float) -> float:
    """Discounted up-crossing factor (Z(x)/Z(a))^{1/(1-ell)} on [0, a]."""
    if not (0.0 <= x <= a):
        raise DomainError(f"need 0 <= x <= a, got x={x!r}, a={a!r}")
    return _zratio_pow(p.scale, p.exponent, x, a)


def g_a(p: InjectionProblem, x: float, a: float,
        spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Expected discounted tax collected before the process crosses a.

    (ell/(1-ell)) * int_x^a (Z(x)/Z(w))^{1/(1-ell)} dw; the value at
    x = 0 is the continuous right-limit.
    """
    if not (0.0 <= x <= a and math.isfinite(a)):
        raise DomainError(f"need 0 <= x <= a finite, got x={x!r}, a={a!r}")
    if p.ell == 0.0:
        return 0.0
    s = p.scale
    e = p.exponent
    return p.ell * e * integrate_finite(lambda w: _zratio_pow(s, e, x, w), x, a, spec)


def r_a(p: InjectionProblem, x: float, a: float,
        spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Expected discounted injections spent before the process crosses a.

    (1/(1-ell)) * int_x^a kernel(w) (Z(x)/Z(w))^{1/(1-ell)} dw with the
    grouped injection kernel.
    """
    if not (0.0 <= x <= a and math.isfinite(a)):
        raise DomainError(f"need 0 <= x <= a finite, got x={x!r}, a={a!r}")
    s = p.scale
    e = p.exponent
    return e * integrate_finite(
        lambda w: s.injection_kernel(w) * _zratio_pow(s, e, x, w), x, a, spec
    )


def tax_tail(p: InjectionProblem, x: float) -> float:
    """Tail limit of g_a as a -> infinity (tax collected until forever):

    (ell/(1-ell)) * int_x^inf (Z(x)/Z(w))^{1/(1-ell)} dw, in closed form
    (``ScaleSet.tail``).
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"need finite x >= 0, got {x!r}")
    e = p.exponent
    return p.ell * e * p.scale.tail("z", e, x)


def injection_tail(p: InjectionProblem, x: float) -> float:
    """Tail limit of r_a as a -> infinity (injections paid forever):

    (1/(1-ell)) * int_x^inf kernel(w) (Z(x)/Z(w))^{1/(1-ell)} dw with the
    grouped injection kernel, in closed form (``ScaleSet.tail``).
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"need finite x >= 0, got {x!r}")
    e = p.exponent
    return e * p.scale.tail("z", e, x, kernel=True)


def psi_bar(p: InjectionProblem, x: float) -> float:
    """Value of taxing immediately from level x, net of injection costs:

    psi_bar(x) = tax_tail(x) - varphi * injection_tail(x).  Affine in
    varphi.
    """
    return tax_tail(p, x) - p.varphi * injection_tail(p, x)


def upsilon_bar(p: InjectionProblem, a: float) -> float:
    """upsilonbar(a) = psi_bar(a) - varphi (Zbar(a) + d/q)."""
    return psi_bar(p, a) - p.varphi * p.scale.zbar_shifted(a)


def cap_v_bar(p: InjectionProblem, a: float) -> float:
    """Vbar(a) = Z(a)/Z'(a) = Z(a)/(q W(a)); right-limit c/q at 0."""
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"need finite a >= 0, got {a!r}")
    return p.scale.z_over_z1d(a)


def h_bar(p: InjectionProblem, a: float) -> float:
    """Optimality function hbar(a) = upsilonbar(a) - Vbar(a)(1 - varphi Z(a)).

    The terms Zbar + d/q, Vbar and varphi Z Vbar each grow like
    e^{theta1 a} while hbar stays bounded; the growth cancels through
    Z^2 - qW(Zbar + d/q) = (lam/(c mu)) e^{(theta1+theta2) a}, so hbar is
    computed as psi_bar(a) - Vbar(a)(1 - varphi * injection_kernel(a)).
    The limit at infinity is (ell - 1)/theta1 < 0.
    """
    s = p.scale
    return psi_bar(p, a) - s.z_over_z1d(a) * (1.0 - p.varphi * s.injection_kernel(a))


def phi_bar_value(p: InjectionProblem, x: float, a: float) -> float:
    """Objective phibar(x; a) = (Z(x)/Z(a)) upsilonbar(a) + varphi (Zbar(x) + d/q).

    Starting above the threshold lifts a to x (taxation immediate).
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"need finite x >= 0, got {x!r}")
    a = max(a, x)
    s = p.scale
    ratio = math.exp(s.log_z(x) - s.log_z(a))
    return ratio * upsilon_bar(p, a) + p.varphi * s.zbar_shifted(x)


def phi_bar_partial_a(p: InjectionProblem, x: float, a: float) -> float:
    """Analytic derivative of phibar(x; a) in the threshold:

    (ell/(1-ell)) * (Z(x) Z'(a) / Z(a)^2) * hbar(a)  for 0 <= x <= a.
    """
    if not (0.0 <= x <= a):
        raise DomainError(f"need 0 <= x <= a, got x={x!r}, a={a!r}")
    s = p.scale
    weight = math.exp(s.log_z(x) + math.log(s.q * s.w(a)) - 2.0 * s.log_z(a))
    return p.ell * p.exponent * weight * h_bar(p, a)


def _optimal_value(p: InjectionProblem, astar: float) -> float:
    # phibar(x0; a*) = varphi (Zbar(x0) + d/q) + Z(x0) (1 - varphi Z(a*)) / Z'(a*)
    # with 1/Z'(a*) = 1/(q W(a*)) taken in log form: Z(a*) overflows for large a*.
    s = p.scale
    bracket = math.exp(-s.log_w(astar)) / s.q - p.varphi * s.z_over_z1d(astar)
    return p.varphi * s.zbar_shifted(p.x0) + s.z(p.x0) * bracket


def optimize_injection(p: InjectionProblem, tol: float = DEFAULT_ROOT_TOL) -> OptimumReport:
    """Optimal delay threshold a* and the objective value at x0.

    a* is the root of hbar when hbar(0) > 0, else 0.  The value uses
    varphi (Zbar(x) + d/q) + Z(x)(1 - varphi Z(a*))/Z'(a*).
    """
    h0 = h_bar(p, 0.0)
    if h0 <= 0.0:
        return OptimumReport(threshold=0.0, value=_optimal_value(p, 0.0),
                             boundary_case=True, root_diag=None)
    diag = find_root_decreasing_sign(
        lambda a: h_bar(p, a), 0.0, tol,
        hi_cap=1e6 / p.scale.theta1,
    )
    return OptimumReport(threshold=diag.root, value=_optimal_value(p, diag.root),
                         boundary_case=False, root_diag=diag)
