"""The capital-injection problem under the names perfbench imports.

Kept only for the benchmark; it goes with ROADMAP Direction 1.  The
library's names are ``problem``'s (see docs/paper_symbols.md).
"""

from .problem import InjectionProblem, h as h_bar, optimize as optimize_injection

__all__ = ["InjectionProblem", "h_bar", "optimize_injection"]
