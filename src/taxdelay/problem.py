"""The delayed-taxation construction shared by both problems.

Tax at rate ell is paid on every new running-maximum increment once the
surplus has first reached a threshold b.  Both problems, a terminal value
exchanged at ruin (``TerminalProblem``) and ruin prevented by costly
capital injections (``InjectionProblem``), are one optimal-stopping
construction on a scale-function family F.  With e = 1/(1-ell),
T(x) = int_x^inf (F(x)/F(y))^e dy and T_K the same tail weighted by the
grouped kernel K:

    psi(x)      = e (ell T(x) + w T_K(x))      value of taxing at once from x
    upsilon(x)  = psi(x) - w G(x)
    h(x)        = psi(x) - (F/F')(x) (1 + w K(x))
    phi(x; b)   = w gap(x, b) + (F(x)/F(b)) psi(b),  b lifted to max(b, x)
    dphi/db     = ell e F(x) F'(b) / F(b)^2 h(b)

with the gap G(x) - (F(x)/F(b)) G(b) of the potential G (``gap``), which
is phi's w G(x) + (F(x)/F(b)) upsilon(b) without its cancelling terms.
The same integrals over a finite range [x, b] are the tails from x less
(F(x)/F(b))^e times the tails from b (``exit_integral``).  h has a single
sign change from + to -; the optimal threshold is its root when h(0) > 0
and 0 otherwise.  Each problem is a dataclass that supplies its family's
data; F/F' (``over_slope``), K (``kernel``), log(F(x)/F(y)) and the
tails are methods of the family, a ``scale.ScaleFamily``:

    piece              TerminalProblem       InjectionProblem
    family F           W (ScaleSet.W)        Z (ScaleSet.Z)
    kernel K           W'Z/W - qW            Z - qW (Zbar + d/q)/Z
    weight w           S                     -varphi
    sign = w/param     +1                    -1
    potential G        Z                     -(Zbar + d/q)
    G's g1, g2         z1, z2                -z1/theta1, -z2/theta2
    levels x           x > 0                 x >= 0

h is one pass per level (``_psi_at``, shared with psi): the problem's
``tails`` (``scale.Tails``) gives T, T_K and the u, rho for F/F' and K.  psi's
grouping ell e T + w (e T_K) is pinned: regrouping moves roots where h is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DomainError, InvalidParameter
from .numerics import RootReport, find_root_decreasing_sign
from .scale import ScaleFamily, ScaleSet, Tails

__all__ = ["DelayedTaxation", "TerminalProblem", "InjectionProblem", "OptimumReport",
           "exit_ratio", "exit_integral", "exit_tail", "psi", "potential", "gap", "h",
           "phi", "phi_partial", "optimal_value", "optimize"]

# absolute tolerance of every threshold root
ROOT_TOL = 1e-8


@dataclass(frozen=True)
class DelayedTaxation:
    """Tax rate on top of a ScaleSet; a subclass supplies its family's data
    (see the module docstring) and no methods: the class attributes
    ``levels``, ``admits`` and ``sign``, and through ``_bind`` the family,
    the weight, the potential's coefficients ``g1``, ``g2``, the exponent
    1/(1 - ell) and the family's ``tails`` at it.  Each is bound once: h
    reads them on every call, and a plain attribute costs less there than a
    method or a property.
    """

    scale: ScaleSet
    ell: float

    def __post_init__(self):
        if not (0.0 <= self.ell < 1.0):
            raise InvalidParameter(f"ell must lie in [0, 1), got {self.ell!r}")

    def _bind(self, family: ScaleFamily, weight: float, g1: float, g2: float) -> None:
        e = 1.0 / (1.0 - self.ell)
        vars(self).update(family=family, weight=weight, g1=g1, g2=g2, exponent=e,
                          tails=Tails(family, e))  # frozen: plain assignment raises


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

    # the family's data (see the module docstring)
    levels = "0 < x"
    admits = staticmethod(lambda x: 0.0 < x < math.inf)
    sign = 1  # weight = sign * s_terminal


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

    # the family's data (see the module docstring)
    levels = "0 <= x"
    admits = staticmethod(lambda x: 0.0 <= x < math.inf)
    sign = -1  # weight = sign * varphi


@dataclass(frozen=True)
class OptimumReport:
    """Optimal threshold, objective value at x0, and root diagnostics.

    ``value`` is ``optimal_value(p, threshold)``: phi's formula with
    psi(threshold) replaced through h(threshold) = 0, and the threshold not
    lifted to x0.  So it equals phi(x0; threshold) only for x0 <= threshold
    at an interior optimum; at a boundary case h(0) < 0.
    """

    threshold: float
    value: float
    boundary_case: bool
    root_diag: Optional[RootReport] = None


def _ratio(p: DelayedTaxation, x: float, b: float, e: float = 1.0) -> float:
    # (F(x)/F(b))^e via log space; safe for any spread of x, b
    return math.exp(e * p.family.log_ratio(x, b))


def exit_ratio(p: DelayedTaxation, x: float, b: float) -> float:
    """(F(x)/F(b))^{1/(1-ell)}: the discounted chance that the taxed process
    reaches b from x, before ruin (W) or reflected at 0 (Z)."""
    if not (p.admits(x) and x <= b):
        raise DomainError(f"need {p.levels} <= b, got x={x!r}, b={b!r}")
    return _ratio(p, x, b, p.exponent)


def exit_integral(p: DelayedTaxation, x: float, b: float, kernel: bool = False) -> float:
    """e int_x^b (F(x)/F(y))^e g(y) dy, g = 1 or K, for x <= b <= inf.

    By the strong Markov property at the first passage to b this is the
    tail from x less the exit ratio times the tail from b, both in closed
    form.  The subtraction leaves an absolute error below 1e-13 times the
    tail from x, so the relative error grows only as b - x shrinks far
    below 1/theta1.  The caller checks the range.
    """
    tail = exit_tail(p, x, kernel)
    if b == math.inf:
        return tail
    return tail - exit_ratio(p, x, b) * exit_tail(p, b, kernel)


def exit_tail(p: DelayedTaxation, x: float, kernel: bool = False) -> float:
    """e int_x^inf (F(x)/F(y))^e g(y) dy, g = 1 or K, in closed form."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"need finite x >= 0, got {x!r}")
    return p.exponent * p.tails(x, (bool(kernel),))[0][0]


def _psi_at(p: DelayedTaxation, x: float) -> Tuple[float, float, float]:
    """psi(x), with the u and rho of its tails for F/F' and K at x."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"need finite x >= 0, got {x!r}")
    (t, t_k), u, rho = p.tails(x)
    e = p.exponent
    return p.ell * e * t + p.weight * (e * t_k), u, rho


def psi(p: DelayedTaxation, x: float) -> float:
    """Value of taxing immediately from level x, e (ell T + w T_K); affine in w.

    Terminal: (ell I2 + S I1)/(1-ell) with the plain and ruin-kernel tails
    I2, I1 of W.  Injection: g - varphi r, the paper's tail limits of g_a, r_a.
    """
    return _psi_at(p, x)[0]


def potential(p: DelayedTaxation, x: float) -> float:
    """G(x) = g1 e^{theta1 x} - g2 e^{theta2 x}: Z, or -(Zbar + d/q)."""
    f = p.family
    return math.exp(f.theta1 * x) * (p.g1 - p.g2 * math.exp((f.theta2 - f.theta1) * x))


def gap(p: DelayedTaxation, x: float, b: float) -> float:
    """G(x) - (F(x)/F(b)) G(b) for x, b >= 0, without cancellation or overflow.

    The e^{theta1 (x+b)} terms of G(x) F(b) - F(x) G(b) cancel exactly, so

        gap = C e^{theta2 x} expm1(-delta (b-x)) / (f1 - f2 e^{-delta b}),

    delta = theta1 - theta2 and C = f1 g2 - g1 f2.  For both problems the
    two products in C have opposite signs, so nothing cancels there either.
    Past b the numerator is -e^{theta1 x - delta b} expm1(-delta (x-b)).
    """
    f = p.family
    delta = f.theta1 - f.theta2
    num = math.exp(f.theta2 * x) * math.expm1(-delta * (b - x)) if x <= b \
        else -math.exp(f.theta1 * x - delta * b) * math.expm1(-delta * (x - b))
    return (f.f1 * p.g2 - p.g1 * f.f2) * num / (f.f1 - f.f2 * math.exp(-delta * b))


def h(p: DelayedTaxation, x: float) -> float:
    """Optimality function upsilon - V (1 - S q W), or upsilonbar - Vbar (1 - varphi Z).

    Both are computed as psi - V (1 + w K): the grouped kernel K removes
    the leading-order cancellation of the naive forms (see ``scale``).
    V = F/F' rises from c/(q+lam) (W) or c/q (Z) at 0 to 1/theta1.  The
    limit at infinity is (ell - 1)/theta1 < 0.
    """
    value, u, rho = _psi_at(p, x)
    f = p.family
    return value - f.over_slope_at(u) * (1.0 + p.weight * f.kernel_at(x, rho))


def phi(p: DelayedTaxation, x: float, b: float) -> float:
    """Objective phi(x; b) = w G(x) + (F(x)/F(b)) upsilon(b), taken as
    w gap(x, b) + (F(x)/F(b)) psi(b): every term is bounded.

    The ratio is the plain F ratio: the path is untaxed until it first
    reaches b.  Starting above the threshold lifts b to x (taxation is
    immediate from the running maximum).
    """
    if not p.admits(x):
        raise DomainError(f"need finite {p.levels}, got x={x!r}")
    b = max(b, x)
    return p.weight * gap(p, x, b) + _ratio(p, x, b) * psi(p, b)


def phi_partial(p: DelayedTaxation, x: float, b: float) -> float:
    """d phi(x; b)/db = (ell/(1-ell)) (F(x) F'(b)/F(b)^2) h(b) for x <= b,
    with F(x) F'(b)/F(b)^2 = (F(x)/F(b))/V(b)."""
    if not (p.admits(x) and x <= b):
        raise DomainError(f"need {p.levels} <= b, got x={x!r}, b={b!r}")
    return p.ell * p.exponent * (_ratio(p, x, b) / p.family.over_slope(b)) * h(p, b)


def optimal_value(p: DelayedTaxation, b: float) -> float:
    """phi's formula at (p.x0; b) with psi(b) = V(b) (1 + w K(b)), its value
    where h(b) = 0: w gap(x0, b) + (F(x0)/F(b)) V(b) (1 + w K(b)).  b is not
    lifted to x0 (see ``OptimumReport``)."""
    f, x0 = p.family, p.x0
    return p.weight * gap(p, x0, b) \
        + _ratio(p, x0, b) * f.over_slope(b) * (1.0 + p.weight * f.kernel(b))


def optimize(p: DelayedTaxation) -> OptimumReport:
    """Optimal delay threshold (the root of h if h(0) > 0, else 0) and the
    value ``optimal_value(p, threshold)``."""
    h0 = h(p, 0.0)
    if h0 <= 0.0:
        return OptimumReport(threshold=0.0, value=optimal_value(p, 0.0),
                             boundary_case=True, root_diag=None)
    diag = find_root_decreasing_sign(lambda x: h(p, x), 0.0, ROOT_TOL,
                                     hi_cap=1e6 / p.scale.theta1, h_lo=h0)
    return OptimumReport(threshold=diag.root, value=optimal_value(p, diag.root),
                         boundary_case=False, root_diag=diag)
