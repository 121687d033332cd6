"""Cramer-Lundberg risk model with exponential claims.

The surplus process is X(t) = x + c*t - S(t), where S is a compound
Poisson sum of exponential claims: arrival intensity ``lam``, claim-size
rate ``mu`` (mean claim 1/mu).  Its Laplace exponent

    psi(theta) = c*theta - lam*theta / (mu + theta)

is strictly convex with psi(0) = 0, and for every discount rate q > 0
the equation psi(theta) = q has exactly two real roots theta2 < 0 < theta1,
the roots of the quadratic  c*theta^2 + (c*mu - lam - q)*theta - q*mu = 0.
theta1 is the right inverse of the Laplace exponent at q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, OutOfRange

__all__ = ["LevyModel", "SpectralRoots", "new_model", "laplace_exponent", "spectral_roots"]


@dataclass(frozen=True)
class LevyModel:
    """Validated model parameters.

    Fields
    ------
    c:   premium rate per unit time (> 0).
    lam: claim arrival intensity per unit time (> 0).
    mu:  exponential claim-size rate (> 0; mean claim 1/mu).
    """

    c: float
    lam: float
    mu: float

    @property
    def net_drift(self) -> float:
        """Mean surplus drift per unit time, c - lam/mu (may be <= 0)."""
        return self.c - self.lam / self.mu

    @property
    def negative_loading(self) -> bool:
        """True when the safety loading is not strictly positive."""
        return self.net_drift <= 0.0


@dataclass(frozen=True)
class SpectralRoots:
    """Roots and coefficients of the two-exponential scale family at rate q.

    theta1 > 0 > theta2 solve psi(theta) = q; kappa is the square root of
    the (strictly positive) discriminant; a1 - a2 = 1 exactly.
    """

    q: float
    theta1: float
    theta2: float
    kappa: float
    a1: float
    a2: float


def _require_rate(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameter(f"{name} must be finite and > 0, got {value!r}")
    return value


def new_model(c: float, lam: float, mu: float) -> LevyModel:
    """Build a validated model; negative or zero loading is allowed.

    Zero or negative loading (c <= lam/mu) is legal, it only changes which
    quantities stay bounded; callers can inspect ``negative_loading``.
    """
    return LevyModel(
        c=_require_rate("c", c),
        lam=_require_rate("lam", lam),
        mu=_require_rate("mu", mu),
    )


def laplace_exponent(m: LevyModel, theta: float) -> float:
    """psi(theta) = c*theta - lam*theta/(mu+theta), for theta >= 0."""
    return m.c * theta - m.lam * theta / (m.mu + theta)


def spectral_roots(m: LevyModel, q: float) -> SpectralRoots:
    """Closed-form roots of psi(theta) = q for a discount rate q > 0.

    kappa = sqrt(b^2 + 4*c*q*mu), b = lam + q - c*mu, is strictly positive,
    so the roots theta2 < 0 < theta1 never collide.  The one whose two terms
    share a sign, theta1 = (b + kappa)/(2c) if b >= 0, else
    theta2 = (b - kappa)/(2c), is taken directly; the other from Vieta,
    theta1 theta2 = -q mu/c, so neither loses digits to cancellation.

    The coefficients a1, a2 (with a1 - a2 = 1) weight the exp(theta1 x)
    and exp(theta2 x) terms of the scale function.  Raises OutOfRange where
    the roots leave double range.
    """
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise InvalidParameter(f"q must be finite and > 0, got {q!r}")
    c, lam, mu = m.c, m.lam, m.mu
    try:
        kappa = math.sqrt((c * mu - lam - q) ** 2 + 4.0 * c * q * mu)
        b = lam + q - c * mu
        if b >= 0.0:
            theta1 = (b + kappa) / (2.0 * c)
            theta2 = -q * mu / (c * theta1)
        else:
            theta2 = (b - kappa) / (2.0 * c)
            theta1 = -q * mu / (c * theta2)
        a1 = (lam + q + c * mu) / (2.0 * kappa) + 0.5
    except (OverflowError, ZeroDivisionError):
        raise OutOfRange(m, q) from None
    if not (0.0 < theta1 < math.inf and -math.inf < theta2 < 0.0 and math.isfinite(a1)):
        raise OutOfRange(m, q)
    return SpectralRoots(q=q, theta1=theta1, theta2=theta2, kappa=kappa, a1=a1, a2=a1 - 1.0)
