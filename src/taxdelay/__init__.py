"""Optimal tax-implementation-delay thresholds for insurance surplus processes.

The library models an insurer's surplus as a compound Poisson process with
exponential claims and linear premium income, taxed loss-carry-forward
style (a share of every new running-maximum increment) once the surplus
first reaches a delay threshold.  It computes, in closed form (tail
integrals as Gauss hypergeometric functions) plus one-dimensional root
finding, the optimal threshold b* when a lump terminal value is exchanged
at ruin, and the optimal threshold a* when ruin is instead prevented by
costly capital injections.

The package root re-exports nothing: each name is imported from the
module that defines it.  ``problem`` writes both problems as one
optimal-stopping construction (``TerminalProblem``, ``InjectionProblem``,
``h``, ``phi``, ``optimize``, ...) on the scale functions of ``scale``
and the model of ``model``; ``simulate`` has exact Monte Carlo engines
for both controlled processes, ``tables`` the reference existence tables
and sweeps, ``validate`` a self-check battery and ``cli`` the command
line.  docs/paper_symbols.md maps the paper's symbols to these calls.
"""
