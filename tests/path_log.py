"""Step-by-step logs of the Monte Carlo engines' own paths, for the tests.

The engines' loop hands an optional ``capture`` the arrays it holds on
each iteration (``taxdelay.simulate._run`` names them).  ``Capture``
copies them, since they are valid only during the call, and ``frames``
rebuilds from each copy, independently of ``_taxed_interval``, what the
loop does not hand over: the hit time, the level before the claim and
the deficit of a paid claim.  ``inspect_paths`` turns the frames into one
``PathStep`` log per path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List

import numpy as np


@dataclass(frozen=True)
class PathStep:
    """One inter-claim interval of one simulated path, in either mode.

    Levels are net of tax.  ``hit_time`` is when the level reaches the
    barrier (``t_end`` if it does not); ``deficit`` > 0 marks the claim as
    a shortfall: ruin in terminal mode, an injection in injection mode.
    """

    t_start: float
    t_end: float
    level_start: float
    level_end: float
    barrier_start: float
    barrier_end: float
    hit_time: float
    tax_paid: float
    claim_size: float
    deficit: float
    truncated: bool


class Capture:
    """Keeps a copy of every array the loop hands over, one frame per
    iteration."""

    def __init__(self):
        self.frames: List[Dict[str, np.ndarray]] = []

    def add(self, **arrays: np.ndarray) -> None:
        self.frames.append({k: np.array(v, copy=True) for k, v in arrays.items()})


def hit_time(t_start, t_end, level_start, barrier_start, c: float):
    """When a level drifting at ``c`` from ``level_start`` reaches its
    barrier, or ``t_end`` if it does not."""
    return t_start + np.minimum((barrier_start - level_start) / c, t_end - t_start)


def frames(engine: Callable, problem, threshold: float, cfg) -> List[Dict[str, np.ndarray]]:
    """Run ``engine`` with a ``Capture`` and return its frames, each with
    ``hit_time``, ``level_end`` (the level before the claim) and
    ``deficit`` (the shortfall of a paid claim, else 0) added."""
    capture = Capture()
    engine(problem, threshold, cfg, capture=capture)
    c = problem.scale.model.c
    for fr in capture.frames:
        post, paid = fr["level_post"], ~fr["truncated"]
        fr["hit_time"] = hit_time(fr["t_start"], fr["t_end"], fr["level_start"],
                                  fr["barrier_start"], c)
        fr["level_end"] = post + fr["claim_size"]
        fr["deficit"] = np.where(paid & (post < 0.0), -post, 0.0)
    return capture.frames


def inspect_paths(engine: Callable, problem, threshold: float, cfg) -> List[List[PathStep]]:
    """Run ``engine`` (``simulate_terminal`` or ``simulate_injection``) and
    return every path's step log.

    Each frame array is named after the ``PathStep`` field it fills, so the
    dataclass's own field list is the table that drives the copy.
    """
    names = [f.name for f in fields(PathStep)]
    paths: List[List[PathStep]] = [[] for _ in range(cfg.n_paths)]
    for fr in frames(engine, problem, threshold, cfg):
        columns = [fr[name].tolist() for name in names]
        for j, *values in zip(fr["idx"].tolist(), *columns):
            paths[j].append(PathStep(*values))
    return paths
