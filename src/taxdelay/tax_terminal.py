"""Terminal-value taxation: objective, exit functionals and optimal delay b*.

The insurer pays tax at rate ell on every increment of the running
maximum of the surplus, but only once the surplus has first reached a
threshold b; at ruin a terminal value S changes hands (S < 0 is a
benefit to the insurer, S > 0 an expense).  The objective

    phi(x; b) = E_x[ tax discounted until ruin + S e^{-q ruin} ]
              = S Z(x) + (W(x)/W(b))^{1/(1-ell)} * upsilon(b)

is maximized over b.  The optimality function

    h(b) = upsilon(b) - V(b) (1 - S q W(b)),     V = W/W'

has a single sign change from + to -; the optimal threshold is its root
when h(0) > 0 and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, InvalidParameter
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    RootReport,
    find_root_decreasing_sign,
    integrate_finite,
)
from .scale import ScaleSet

__all__ = [
    "TerminalProblem",
    "OptimumReport",
    "two_sided_exit_taxed",
    "ruin_time_laplace_taxed",
    "expected_discounted_penalty",
    "expected_discounted_deficit",
    "psi",
    "upsilon",
    "cap_v",
    "h_terminal",
    "phi_value",
    "phi_partial_b",
    "optimize_terminal",
]

DEFAULT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class TerminalProblem:
    """Tax rate, terminal value and start level on top of a ScaleSet."""

    scale: ScaleSet
    ell: float
    s_terminal: float
    x0: float

    def __post_init__(self):
        if not (0.0 <= self.ell < 1.0):
            raise InvalidParameter(f"ell must lie in [0, 1), got {self.ell!r}")
        if not math.isfinite(self.s_terminal):
            raise InvalidParameter("s_terminal must be finite")
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise InvalidParameter(f"x0 must be finite and >= 0, got {self.x0!r}")

    @property
    def exponent(self) -> float:
        """The taxed-exit exponent 1/(1 - ell)."""
        return 1.0 / (1.0 - self.ell)


@dataclass(frozen=True)
class OptimumReport:
    """Optimal threshold, objective value at x0, and root diagnostics."""

    threshold: float
    value: float
    boundary_case: bool
    root_diag: Optional[RootReport] = None


def _ratio_pow(s: ScaleSet, e: float, x: float, z: float) -> float:
    # (W(x)/W(z))^e via log space; safe for any spread of x, z >= 0
    return math.exp(e * (s.log_w(x) - s.log_w(z)))


def two_sided_exit_taxed(p: TerminalProblem, x: float, b: float) -> float:
    """Discounted chance of reaching b before ruin: (W(x)/W(b))^{1/(1-ell)}."""
    if not (0.0 < x <= b):
        raise DomainError(f"need 0 < x <= b, got x={x!r}, b={b!r}")
    return _ratio_pow(p.scale, p.exponent, x, b)


def ruin_time_laplace_taxed(p: TerminalProblem, x: float, b: float,
                            spec: QuadSpec = DEFAULT_QUAD) -> float:
    """E_x[e^{-q ruin}; ruin before reaching b] for the taxed process.

    b may be infinite; that tail is the closed form ``ScaleSet.tail``,
    while a finite b is integrated by adaptive quadrature.
    """
    if not (0.0 < x <= b):
        raise DomainError(f"need 0 < x <= b, got x={x!r}, b={b!r}")
    s = p.scale
    e = p.exponent
    if math.isinf(b):
        return e * s.tail("w", e, x, kernel=True)

    def f(z: float) -> float:
        return _ratio_pow(s, e, x, z) * s.ruin_kernel(z)

    return e * integrate_finite(f, x, b, spec)


def expected_discounted_penalty(p: TerminalProblem, x: float, a: float,
                                hbar: Callable[[float], float],
                                spec: QuadSpec = DEFAULT_QUAD) -> float:
    """E_x[e^{-q ruin} hbar(max before ruin); ruin before reaching a].

    hbar is any bounded function of the pre-ruin running maximum.
    """
    if not (0.0 < x < a and math.isfinite(a)):
        raise DomainError(f"need 0 < x < a finite, got x={x!r}, a={a!r}")
    s = p.scale
    e = p.exponent

    def f(z: float) -> float:
        return hbar(z) * _ratio_pow(s, e, x, z) * s.ruin_kernel(z)

    return e * integrate_finite(f, x, a, spec)


def expected_discounted_deficit(p: TerminalProblem, x: float, a: float,
                                spec: QuadSpec = DEFAULT_QUAD) -> float:
    """E_x[e^{-q ruin} |deficit at ruin|; ruin before reaching a].

    The deficit bracket collapses to ruin_kernel/mu for exponential
    claims (memoryless overshoot), which is how it is evaluated.
    """
    if not (0.0 < x < a and math.isfinite(a)):
        raise DomainError(f"need 0 < x < a finite, got x={x!r}, a={a!r}")
    s = p.scale
    e = p.exponent

    def f(z: float) -> float:
        return _ratio_pow(s, e, x, z) * s.deficit_kernel(z)

    return e * integrate_finite(f, x, a, spec)


def psi(p: TerminalProblem, b: float) -> float:
    """Value of taxing immediately from level b:

    psi(b) = (S/(1-ell)) I1(b) + (ell/(1-ell)) I2(b), with I1 the
    ruin-kernel tail integral and I2 the plain exit-ratio tail integral,
    both in closed form (``ScaleSet.tail``).  Affine in S.
    """
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"need finite b >= 0, got {b!r}")
    s = p.scale
    e = p.exponent
    return e * (p.s_terminal * s.tail("w", e, b, kernel=True) + p.ell * s.tail("w", e, b))


def upsilon(p: TerminalProblem, b: float) -> float:
    """upsilon(b) = psi(b) - S Z(b)."""
    return psi(p, b) - p.s_terminal * p.scale.z(b)


def cap_v(p: TerminalProblem, b: float) -> float:
    """V(b) = W(b)/W'(b); increasing in b, right-limit c/(q+lam) at 0."""
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"need finite b >= 0, got {b!r}")
    return p.scale.w_over_w1(b)


def h_terminal(p: TerminalProblem, b: float) -> float:
    """Optimality function h(b) = upsilon(b) - V(b)(1 - S q W(b)).

    Written as psi(b) - V(b)(1 + S*ruin_kernel(b)): the difference
    S(qW^2/W' - Z) hides the same leading-order cancellation as the ruin
    kernel, so it is evaluated through the grouped form.  The limit at
    infinity is (ell - 1)/theta1 < 0.
    """
    s = p.scale
    return psi(p, b) - s.w_over_w1(b) * (1.0 + p.s_terminal * s.ruin_kernel(b))


def phi_value(p: TerminalProblem, x: float, b: float) -> float:
    """Objective phi(x; b) = S Z(x) + (W(x)/W(b)) upsilon(b).

    The ratio is the plain W ratio: the path is untaxed until it first
    reaches b, so the prefactor is the ordinary two-sided exit factor.
    Starting above the threshold (x > b) means taxation is immediate
    from the running maximum, so b is lifted to x.
    """
    if x <= 0.0:
        raise DomainError(f"need x > 0, got {x!r}")
    b = max(b, x)
    s = p.scale
    ratio = math.exp(s.log_w(x) - s.log_w(b))
    return p.s_terminal * s.z(x) + ratio * upsilon(p, b)


def phi_partial_b(p: TerminalProblem, x: float, b: float) -> float:
    """Analytic derivative of phi(x; b) in the threshold:

    (ell/(1-ell)) * (W(x) W'(b) / W(b)^2) * h(b)  for 0 < x <= b.
    """
    if not (0.0 < x <= b):
        raise DomainError(f"need 0 < x <= b, got x={x!r}, b={b!r}")
    s = p.scale
    weight = math.exp(s.log_w(x) + math.log(s.w1(b)) - 2.0 * s.log_w(b))
    return p.ell * p.exponent * weight * h_terminal(p, b)


def _optimal_value(p: TerminalProblem, bstar: float) -> float:
    # phi(x0; b*) = S Z(x0) + W(x0) (1 - S q W(b*)) / W'(b*)
    s = p.scale
    S = p.s_terminal
    v = s.w_over_w1(bstar)
    return S * s.z(p.x0) + s.w(p.x0) * (v / s.w(bstar) - S * s.q * v)


def optimize_terminal(p: TerminalProblem, tol: float = DEFAULT_ROOT_TOL) -> OptimumReport:
    """Optimal delay threshold b* and the objective value at x0.

    b* is the root of h when h(0) > 0, else 0 (h(0) = 0 also maps to
    the boundary).  The value uses the closed combination
    S Z(x) + W(x)(1 - S q W(b*))/W'(b*), valid in both cases.
    """
    h0 = h_terminal(p, 0.0)
    if h0 <= 0.0:
        return OptimumReport(threshold=0.0, value=_optimal_value(p, 0.0),
                             boundary_case=True, root_diag=None)
    diag = find_root_decreasing_sign(
        lambda b: h_terminal(p, b), 0.0, tol,
        hi_cap=1e6 / p.scale.theta1,
    )
    return OptimumReport(threshold=diag.root, value=_optimal_value(p, diag.root),
                         boundary_case=False, root_diag=diag)
