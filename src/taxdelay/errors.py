"""Exception types shared across the library."""

from __future__ import annotations


class InvalidParameter(ValueError):
    """A model or problem parameter is outside its admissible range."""


class DomainError(ValueError):
    """A function argument is outside the domain of the requested quantity."""


class InvalidConfig(ValueError):
    """A simulation or run configuration is inconsistent."""


class ToleranceNotMet(ArithmeticError):
    """A numerical routine could not reach a usable result: an adaptive
    quadrature missed its tolerance, a closed-form tail left floating-point
    range, Gauss's continued fraction (``scale._gauss_cf``) did not
    converge, or h(0) is nan or ``problem.optimize``'s value is +-inf (the
    message names the problem's S or varphi)."""


class BracketFailure(ArithmeticError):
    """Root bracketing failed: no sign change found within the search cap."""


class OutOfRange(ArithmeticError):
    """The spectral roots or scale coefficients of a model leave double range."""

    def __init__(self, model, q: float):
        super().__init__(f"the model leaves double range at c={model.c!r}, "
                         f"lam={model.lam!r}, mu={model.mu!r}, q={q!r}")


class EventCapExceeded(RuntimeError):
    """A simulated path exceeded the hard per-path event budget."""
