"""The terminal-value problem under the names perfbench imports.

Kept only for the benchmark; it goes with ROADMAP Direction 1.  The
library's names are ``problem``'s (see docs/paper_symbols.md).
"""

from .problem import TerminalProblem, h as h_terminal, optimize as optimize_terminal

__all__ = ["TerminalProblem", "h_terminal", "optimize_terminal"]
