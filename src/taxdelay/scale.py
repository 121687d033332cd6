"""Scale function family for the exponential-claims model.

Everything here is a combination of two exponentials.  With
w1 = a1/c, w2 = a2/c and z1 = q*a1/(c*theta1), z2 = q*a2/(c*theta2):

    W(x)  = w1*e^{theta1 x} - w2*e^{theta2 x}
    Z(x)  = 1 + q * int_0^x W = z1*e^{theta1 x} - z2*e^{theta2 x}
    Zbar  = int_0^x Z

(The constant term of Z vanishes identically because z1 - z2 = 1.)

Two exact cancellation identities drive all tail evaluations.  Products
like W'Z - qW^2 look like they grow as e^{2 theta1 x}, but the leading
terms cancel and only the cross terms survive:

    W'(x)Z(x) - q W(x)^2          = (lam/c^2)    * e^{(theta1+theta2) x}
    Z(x)^2 - q W(x)*(Zbar(x)+d/q) = (lam/(c mu)) * e^{(theta1+theta2) x}

with d = net drift c - lam/mu.  Evaluating the left-hand sides naively
loses every significant digit once e^{theta1 x} dominates, so the
grouped kernels K below always use the right-hand sides over W or Z.

W and Z are each one ``ScaleFamily``, ``ScaleSet.W`` and ``ScaleSet.Z``:
the two exponentials' coefficients, those of the slope, the kernel
constant and the value below zero (W = 0 and Z = 1 for x < 0).  A family
is called for F(x) and has one ``slope`` (F'), ``integral`` (for Z,
Zbar + d/q), ``log``, ``log_ratio``, ``over_slope`` (F/F') and ``kernel``.
Every tail integral of the two problems is an Euler integral with a
closed form in the Gauss hypergeometric function; ``Tails`` evaluates it.

A ``Tails`` call at a level x returns (T, T_K, F/F', K) there: both tails
and the two factors of h, all from the one e^{-(theta1-theta2) x} they
share.  It is how every other module evaluates a level.
"""

from __future__ import annotations

import math
from typing import Tuple

# scipy's scalar entry points: the ufuncs' values, without their per-call set-up
from scipy.special.cython_special import betaincc, betaln, hyp2f1

from .errors import DomainError, InvalidParameter, OutOfRange, ToleranceNotMet
from .model import LevyModel, spectral_roots

__all__ = ["ScaleFamily", "ScaleSet", "Tails"]

# Gauss's continued fraction: stop once a step changes the value by at
# most this relative amount, or give up after this many terms
_CF_TOL = 2.0 * math.ulp(1.0)
_CF_MAX_TERMS = 1000
_CF_TINY = 1e-300


def _gauss_cf(a: float, c: float, z: float) -> float:
    """2F1(a, 1; c + 1; z) for c > 0 and z < 1 by Gauss's continued fraction.

    DLMF 15.7.5 with b = 0, where F(a, 0; c; z) = 1:

        c / 2F1(a, 1; c+1; z) = t0 - u1 z/(t1 - u2 z/(t2 - ...)),
        t_j = c + j,  u_{2n+1} = (a+n)(c+n),  u_{2n} = n(c-a+n),

    run by the modified Lentz algorithm (Thompson & Barnett 1986).  It
    stays accurate where scipy's hyp2f1 returns nan (a and c near 1e5).
    Raises ToleranceNotMet if it has not converged after 1000 terms, as
    for |a| z/c in the thousands.
    """
    f = cf = c
    d = 0.0
    for j in range(1, _CF_MAX_TERMS + 1):
        n = j // 2
        step = -((a + n) * (c + n) if j % 2 else n * (c - a + n)) * z
        d = c + j + step * d
        d = 1.0 / (d or _CF_TINY)
        cf = c + j + step / cf
        cf = cf or _CF_TINY
        delta = cf * d
        f *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            return c / f
    raise ToleranceNotMet(
        f"continued fraction for 2F1({a:g}, 1; {c + 1.0:g}; {z:g}) did not converge "
        f"in {_CF_MAX_TERMS} terms")


class ScaleFamily:
    """One scale function F(x) = f1 e^{theta1 x} - f2 e^{theta2 x}, x >= 0,
    held at the constant F(0-) (``below``) for x < 0.

    Its slope is F'(x) = dk (d1 e^{theta1 x} - d2 e^{theta2 x}), 0 for
    x < 0 and the right limit at 0, and its grouped kernel
    K(x) = const e^{(theta1+theta2) x}/F(x):

        F   f1, f2   d1, d2                 dk  const        K                       F(0-)
        W   w1, w2   w1 theta1, w2 theta2   1   lam/c^2      W'Z/W - qW              0
        Z   z1, z2   w1, w2                 q   lam/(c mu)   Z - qW (Zbar + d/q)/Z   1
    """

    __slots__ = ("theta1", "theta2", "f1", "f2", "d1", "d2", "dk", "const", "below")

    def __init__(self, theta1: float, theta2: float, f1: float, f2: float,
                 d1: float, d2: float, dk: float, const: float, below: float):
        self.theta1, self.theta2, self.f1, self.f2 = theta1, theta2, f1, f2
        self.d1, self.d2, self.dk, self.const = d1, d2, dk, const
        self.below = below

    def __call__(self, x: float) -> float:
        """F(x), with the e^{theta1 x} factor pulled out so the decaying term
        never cancels catastrophically; F(0-) for x < 0."""
        if x < 0.0:
            return self.below
        return math.exp(self.theta1 * x) * (
            self.f1 - self.f2 * math.exp((self.theta2 - self.theta1) * x))

    def slope(self, x: float) -> float:
        """F'(x) in the same factored form; 0 for x < 0."""
        if x < 0.0:
            return 0.0
        return self.dk * (math.exp(self.theta1 * x) * (
            self.d1 - self.d2 * math.exp((self.theta2 - self.theta1) * x)))

    def integral(self, x: float) -> float:
        """f1/theta1 e^{theta1 x} - f2/theta2 e^{theta2 x} for x >= 0: the
        antiderivative of F whose constant term vanishes.  For Z it is
        Zbar(x) + d/q (z1/theta1 - z2/theta2 = d/q), which never loses
        precision for large x."""
        t1, t2 = self.theta1, self.theta2
        return math.exp(t1 * x) * (self.f1 / t1 - self.f2 / t2 * math.exp((t2 - t1) * x))

    def log(self, x: float) -> float:
        """log F(x) for x >= 0, stable for arbitrarily large x."""
        if x < 0.0:
            raise InvalidParameter(f"log F needs x >= 0, got {x!r}")
        return self._log_at(x, self.f2 / self.f1 * math.exp((self.theta2 - self.theta1) * x))

    def _log_at(self, x: float, rho: float) -> float:
        """log F(x) = theta1 x + log f1 + log1p(-rho) from rho = (f2/f1) e^{-(theta1-theta2) x}."""
        return self.theta1 * x + math.log(self.f1) + math.log1p(-rho)

    def log_ratio(self, x: float, y: float) -> float:
        """log(F(x)/F(y)) for x, y >= 0.

        Taken as theta1 (x - y) plus the difference of the bounded factors
        log(1 - (f2/f1) e^{-(theta1-theta2) x}), never as the difference of
        two large logarithms, so its absolute error stays near machine
        epsilon however far out x and y lie.
        """
        t1, t2 = self.theta1, self.theta2
        r = self.f2 / self.f1
        return t1 * (x - y) + (math.log1p(-r * math.exp((t2 - t1) * x))
                               - math.log1p(-r * math.exp((t2 - t1) * y)))

    def over_slope(self, x: float) -> float:
        """F(x)/F'(x), evaluated as a ratio of the bounded bracket factors."""
        return self._over_slope_at(math.exp((self.theta2 - self.theta1) * x))

    def _over_slope_at(self, u: float) -> float:
        """F(x)/F'(x) from u = e^{-(theta1-theta2) x}."""
        return (self.f1 - self.f2 * u) / (self.dk * (self.d1 - self.d2 * u))

    def kernel(self, x: float) -> float:
        """K(x) = const e^{(theta1+theta2) x}/F(x); the combined exponent is
        evaluated in one shot so neither factor overflows."""
        return self.const * math.exp((self.theta1 + self.theta2) * x - self.log(x))

    def _kernel_at(self, x: float, rho: float) -> float:
        """K(x) from rho = (f2/f1) e^{-(theta1-theta2) x}, as ``kernel``."""
        return self.const * math.exp((self.theta1 + self.theta2) * x - self._log_at(x, rho))


class Tails:
    """The tails int_x^inf (F(x)/F(y))^e g(y) dy of one family in closed
    form, g = 1 and g = K, at exponent e with their constants bound once.
    Called at a level x, it gives both tails there, and F/F' and K from
    the u and rho the tails share.

    Write F(y) = f1 e^{theta1 y}(1 - rho0 e^{-delta y}), delta = theta1 - theta2,
    u = e^{-delta x}, rho = rho0 u and k = 1 with the kernel, else 0.  Euler's
    integral (DLMF 15.6.1) gives, with g = (e theta1 - k theta2)/delta,

        (const e^{theta2 x}/f1)^k (1-rho)^e 2F1(e+k, g; g+1; rho) / (delta g),

    evaluated after Euler's transformation (DLMF 15.8.1) as
    (1-rho)^{1-k} 2F1(g+1-e-k, 1; g+1; rho), so no factor under- or
    overflows at large e.  For Z, rho0 = z2/z1 < 0; below rho = -1/2,
    where hyp2f1 loses up to 1e-5 for g near e, the integral is taken
    as the incomplete beta function (1-rho)^e |rho|^{-g} B_T(g, e+k-g),
    T = rho/(rho-1) (DLMF 8.17.1).  Where hyp2f1 returns no finite
    value (from e near 1e5 on), 2F1 is Gauss's continued fraction
    (``_gauss_cf``).  A level that is not finite and >= 0 raises
    DomainError; a tail that is not a finite double raises
    ToleranceNotMet.
    """

    __slots__ = ("family", "e", "delta", "ratio", "terms")

    def __init__(self, family: ScaleFamily, e: float):
        t1, t2 = family.theta1, family.theta2
        self.family, self.e = family, e
        self.delta = delta = t1 - t2
        self.ratio = family.f2 / family.f1
        # (g, a, g + 1, delta g) for k = 0 plain, 1 kernel, with
        # g = (e theta1 - k theta2)/delta and a = g + 1 - e - k
        g0, g1 = e * t1 / delta, (e * t1 - t2) / delta
        self.terms = ((g0, g0 + 1.0 - e, g0 + 1.0, delta * g0),
                      (g1, g1 + 1.0 - e - 1.0, g1 + 1.0, delta * g1))

    def __call__(self, x: float) -> Tuple[float, float, float, float]:
        """(T, T_K, F/F', K) at level x; the plain tail is taken, and raises,
        first."""
        if not 0.0 <= x < math.inf:
            raise DomainError(f"need finite x >= 0, got {x!r}")
        u = math.exp(-self.delta * x)
        rho = self.ratio * u
        f = self.family
        return (self._tail(0, x, rho), self._tail(1, x, rho),
                f._over_slope_at(u), f._kernel_at(x, rho))

    def _tail(self, k: int, x: float, rho: float) -> float:
        g, a, g_plus_1, delta_g = self.terms[k]
        try:
            if rho < -0.5:
                e = self.e
                b = e + k - g  # > 0 for Z, the only family with rho < 0
                log_scale = e * math.log1p(-rho) - g * math.log(-rho) + betaln(g, b)
                value = math.exp(log_scale + math.log(betaincc(b, g, 1.0 / (1.0 - rho)))) \
                    / self.delta
            else:
                value = hyp2f1(a, 1.0, g_plus_1, rho)
                if not math.isfinite(value):
                    value = _gauss_cf(a, g, rho)
                value = (1.0 if k else 1.0 - rho) * value / delta_g  # (1-rho)^(1-k)
            if k:
                f = self.family
                value *= f.const * math.exp(f.theta2 * x) / f.f1
        except (OverflowError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ToleranceNotMet(
                f"closed-form tail out of floating-point range (e={self.e:g}, rho={rho:g})")
        return value


class ScaleSet:
    """The two families ``W`` and ``Z`` of one model at discount rate q.

    Immutable after construction; all coefficients are precomputed from
    the closed-form roots.  Raises OutOfRange where one of them is not a
    finite double.
    """

    def __init__(self, model: LevyModel, q: float):
        self.model = model
        self.q = float(q)
        r = self.roots = spectral_roots(model, q)
        c = model.c
        t1, t2 = self.theta1, self.theta2 = r.theta1, r.theta2
        w1, w2 = r.a1 / c, r.a2 / c
        try:
            self.W = ScaleFamily(t1, t2, w1, w2, w1 * t1, w2 * t2, 1.0, model.lam / (c * c), 0.0)
            self.Z = ScaleFamily(t1, t2, self.q * r.a1 / (c * t1), self.q * r.a2 / (c * t2),
                                 w1, w2, self.q, model.lam / (c * model.mu), 1.0)  # z2 < 0
        except ZeroDivisionError:
            raise OutOfRange(model, q) from None
        W, Z = self.W, self.Z  # a float division past the largest double gives inf silently
        if not all(map(math.isfinite, (W.f1, W.f2, W.d1, W.d2, W.const, Z.f1, Z.f2, Z.const))):
            raise OutOfRange(model, q)
