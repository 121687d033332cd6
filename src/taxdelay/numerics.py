"""Adaptive quadrature and bracketed roots.

Roots are bracketed by ``find_root_decreasing_sign`` and refined by
``brentq``, a pure-Python port of Brent's method as scipy's ``brentq.c``
writes it (Brent 1973, ch. 4), iterate for iterate.  The port takes the
two h values the bracket search already has and returns h at the root;
with h(lo) from the caller, no point is evaluated twice.

Every exit functional of the two problems has a closed form
(``ScaleFamily.tail``); the library keeps quadrature only for the
self-checks, which test the closed forms independently.  The penalty
functional with an arbitrary weight has no closed form; it is a
quadrature oracle in the tests (``tests/quad_oracle.py``).  Both routines
work to a relative tolerance of 1e-10 and an absolute tolerance of 1e-14,
with at most 2000 subdivisions.
``integrate_tail`` needs a known exponential envelope: if
|f(z)| <= |f(T)| e^{-decay (z-T)} for every z >= T >= a, the tail beyond
T is at most |f(T)|/decay, so T is extended until that bound drops below
the tolerance and the finite part is adaptive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import BracketFailure, InvalidParameter, ToleranceNotMet

__all__ = [
    "RootReport",
    "integrate_tail",
    "integrate_finite",
    "find_root_decreasing_sign",
]

# tolerances and subdivision limit of every adaptive quadrature
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_SUBDIVISIONS = 2000

# each tail chunk spans this many e-folds of the guaranteed envelope
_CHUNK_EFOLDS = 20.0

# a lying decay rate would otherwise extend the tail forever
_MAX_CHUNKS = 64

# brentq's relative tolerance (scipy's smallest allowed) and iteration cap
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 200


@dataclass(frozen=True)
class RootReport:
    """Diagnostics from a bracketed root search."""

    root: float
    residual: float
    bracket: Tuple[float, float]
    iterations: int


def quad(f: Callable[[float], float], a: float, b: float, **options):
    """scipy's adaptive ``quad``, imported on first use."""
    # scipy.integrate adds ~0.1 s to import; the solve paths never integrate
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(f, a, b, **options)


def _quad_once(f: Callable[[float], float], a: float, b: float) -> float:
    out = quad(f, a, b, epsabs=_ABS_TOL, epsrel=_REL_TOL,
               limit=_MAX_SUBDIVISIONS, full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # quadpack appended an error message (limit exhausted, ...)
        raise ToleranceNotMet(
            f"adaptive quadrature failed on [{a:g}, {b:g}]: {out[3].strip()}"
        )
    if abserr > 1e3 * (_REL_TOL * abs(value) + _ABS_TOL):
        raise ToleranceNotMet(
            f"quadrature error estimate {abserr:g} exceeds tolerance on [{a:g}, {b:g}]"
        )
    return value


def integrate_finite(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of f over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameter("integrate_finite requires finite endpoints")
    if b <= a:
        return 0.0
    return _quad_once(f, a, b)


def integrate_tail(f: Callable[[float], float], a: float, decay: float) -> float:
    """Integral of f over [a, infinity) under a guaranteed decay envelope.

    The caller guarantees |f(z)| <= |f(T)| e^{-decay (z-T)} for all
    z >= T >= a.  The integration window is extended in chunks of
    20/decay until the analytic tail bound |f(T)|/decay falls below
    1e-10*|integral| + 1e-14.
    """
    if not (math.isfinite(decay) and decay > 0.0):
        raise InvalidParameter(f"decay must be finite and > 0, got {decay!r}")
    if not math.isfinite(a):
        raise InvalidParameter("lower limit must be finite")
    chunk = _CHUNK_EFOLDS / decay
    total = 0.0
    left = a
    for _ in range(_MAX_CHUNKS):
        right = left + chunk
        total += _quad_once(f, left, right)
        tail_bound = abs(f(right)) / decay
        if tail_bound <= _REL_TOL * abs(total) + _ABS_TOL:
            return total
        left = right
    raise ToleranceNotMet(
        f"tail bound still {tail_bound:g} after {_MAX_CHUNKS} chunks; "
        "the guaranteed decay rate looks inconsistent with the integrand"
    )


def brentq(f: Callable[[float], float], xa: float, xb: float, fa: float, fb: float,
           xtol: float) -> Tuple[float, float, int]:
    """Root of f in [xa, xb] by Brent's method, given fa = f(xa) and fb = f(xb)
    of strictly opposite signs.

    A port of scipy's ``brentq.c``, operation for operation, so root and
    iteration count agree bit for bit with scipy's ``brentq`` at
    rtol = 4 eps and maxiter = 200.  f is evaluated only at new iterates.
    Returns (root, f(root), iterations).
    """
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise BracketFailure(f"f({xa:g}) = {fa!r} and f({xb:g}) = {fb!r} do not bracket a root")
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise BracketFailure(f"f({xcur!r}) is NaN")
    raise BracketFailure(f"bracketed solve failed to converge on [{xa:g}, {xb:g}]")


def find_root_decreasing_sign(h: Callable[[float], float], lo: float, tol: float,
                              hi_cap: float = 1e6,
                              h_lo: Optional[float] = None) -> RootReport:
    """Root of a function with a single sign change from + to - on [lo, inf).

    Requires h(lo) > 0; pass ``h_lo`` if it is known, and h is not
    evaluated at lo again.  The bracket is grown geometrically
    (hi = max(1, 2*hi)) until h(hi) <= 0; an exact zero at hi is the
    root (iterations = 0), otherwise the bracket and its two h values go
    to ``brentq``, the port of Brent's method, whose last iterate's h is
    the residual.  Every h value is computed once.  Deterministic for
    fixed inputs.
    """
    if not (math.isfinite(lo) and lo >= 0.0):
        raise InvalidParameter("lo must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter("tol must be finite and > 0")
    if h_lo is None:
        h_lo = h(lo)
    if not math.isfinite(h_lo) or h_lo <= 0.0:
        raise BracketFailure(f"h({lo:g}) = {h_lo!r} is not strictly positive")
    left, h_left = lo, h_lo
    hi = max(1.0, 2.0 * lo)
    while True:
        if hi > hi_cap:
            raise BracketFailure(
                f"no sign change found below the cap {hi_cap:g}; "
                "model and tolerance look inconsistent"
            )
        h_hi = h(hi)
        if not math.isfinite(h_hi):
            raise BracketFailure(f"h({hi:g}) is not finite")
        if h_hi == 0.0:
            return RootReport(root=hi, residual=0.0, bracket=(left, hi), iterations=0)
        if h_hi < 0.0:
            break
        left, h_left = hi, h_hi
        hi = 2.0 * hi
    root, residual, iterations = brentq(h, left, hi, h_left, h_hi, tol)
    return RootReport(root=root, residual=residual, bracket=(left, hi),
                      iterations=iterations)
