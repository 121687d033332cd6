"""Optimal tax-implementation-delay thresholds for insurance surplus processes.

The library models an insurer's surplus as a compound Poisson process with
exponential claims and linear premium income, taxed loss-carry-forward
style (a share of every new running-maximum increment) once the surplus
first reaches a delay threshold.  It computes, in closed form (tail
integrals as Gauss hypergeometric functions) plus one-dimensional root
finding:

* the optimal threshold b* when a lump terminal value is exchanged at
  ruin (``TerminalProblem``), and
* the optimal threshold a* when ruin is instead prevented by costly
  capital injections (``InjectionProblem``).

Both are one optimal-stopping construction on a scale-function family,
written once in ``problem``, where each problem class supplies its
family's data and ``h``, ``phi``, ``optimize``, ... serve both; the
paper's symbols map to these calls in docs/paper_symbols.md.  The
library also has exact Monte Carlo engines for both controlled
processes (``simulate``), reference existence tables and sweeps that
step one parameter of a problem (``tables``), and a self-check battery
(``validate``).
"""

from __future__ import annotations

from .errors import (BracketFailure, DomainError, EventCapExceeded,
                     InvalidConfig, InvalidParameter, ToleranceNotMet)
from .model import (LevyModel, SpectralRoots, laplace_exponent, new_model,
                    spectral_roots)
from .numerics import (RootReport, find_root_decreasing_sign,
                       integrate_finite, integrate_tail)
from .scale import ScaleSet
from .simulate import (SimConfig, SimResult, inspect_injection_paths,
                       inspect_terminal_paths, simulate_injection,
                       simulate_terminal)
from .tables import (BASE_MODEL, TableRow, existence_grid, grid_values,
                     sweep_rows, table_rows)
from .problem import (InjectionProblem, OptimumReport, TerminalProblem, h,
                      optimize, phi, phi_partial, psi)
from .validate import CheckResult, run_checks

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "BracketFailure", "DomainError", "EventCapExceeded", "InvalidConfig",
    "InvalidParameter", "ToleranceNotMet",
    # model and scale functions
    "LevyModel", "SpectralRoots", "laplace_exponent", "new_model",
    "spectral_roots", "ScaleSet",
    # numerics
    "RootReport", "find_root_decreasing_sign", "integrate_finite",
    "integrate_tail",
    # the two problems and their shared construction
    "TerminalProblem", "InjectionProblem", "OptimumReport", "h", "optimize",
    "phi", "phi_partial", "psi",
    # simulation
    "SimConfig", "SimResult", "simulate_injection", "simulate_terminal",
    "inspect_injection_paths", "inspect_terminal_paths",
    # tables and sweeps
    "BASE_MODEL", "TableRow", "existence_grid", "grid_values", "sweep_rows",
    "table_rows",
    # self checks
    "CheckResult", "run_checks",
]
