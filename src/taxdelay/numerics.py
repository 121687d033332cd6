"""Adaptive quadrature and bracketed roots.

Every exit functional of the two problems has a closed form
(``ScaleFamily.tail``); quadrature is left for the penalty functional with
an arbitrary weight and, in the self-checks, for testing the closed forms
independently.  Both routines work to a relative tolerance of 1e-10 and
an absolute tolerance of 1e-14, with at most 2000 subdivisions.
``integrate_tail`` needs a known exponential envelope: if
|f(z)| <= |f(T)| e^{-decay (z-T)} for every z >= T >= a, the tail beyond
T is at most |f(T)|/decay, so T is extended until that bound drops below
the tolerance and the finite part is adaptive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from scipy.optimize import brentq

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


def find_root_decreasing_sign(h: Callable[[float], float], lo: float, tol: float,
                              hi_cap: float = 1e6) -> RootReport:
    """Root of a function with a single sign change from + to - on [lo, inf).

    Requires h(lo) > 0.  The bracket is grown geometrically
    (hi = max(1, 2*hi)) until h(hi) <= 0; an exact zero at hi is the
    root (iterations = 0), otherwise the bracket is handed to a hybrid
    bisection/inverse-quadratic solver.  Deterministic for fixed inputs.
    """
    if not (math.isfinite(lo) and lo >= 0.0):
        raise InvalidParameter("lo must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter("tol must be finite and > 0")
    h_lo = h(lo)
    if not math.isfinite(h_lo) or h_lo <= 0.0:
        raise BracketFailure(f"h({lo:g}) = {h_lo!r} is not strictly positive")
    left = lo
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
        left = hi
        hi = 2.0 * hi
    root, info = brentq(h, left, hi, xtol=tol, rtol=4.0 * math.ulp(1.0),
                        maxiter=200, full_output=True, disp=False)
    if not info.converged:
        raise BracketFailure(f"bracketed solve failed to converge on [{left:g}, {hi:g}]")
    return RootReport(
        root=float(root),
        residual=h(float(root)),
        bracket=(left, hi),
        iterations=int(info.iterations),
    )
