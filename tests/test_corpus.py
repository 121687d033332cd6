"""Replay the committed output corpus (``tests/corpus``, written by
``record_corpus.py``) through ``cli.main`` in-process.

On the Python, numpy and scipy versions it was recorded with, every exit
code, stdout and stderr must match byte for byte.  On others the replay is
skipped, naming both sets of versions: there the near-ell = 1 tails
(ROADMAP C3) and the Monte Carlo streams depend on scipy and numpy, and
residuals at a root are rounding noise, so no tolerance has been shown to
separate a moved number from a moved library.
"""

from __future__ import annotations

import gzip
import json

import pytest
from record_corpus import CORPUS, run, versions


def test_corpus_replays():
    with gzip.open(CORPUS, "rt", encoding="utf-8") as handle:
        corpus = json.load(handle)
    if corpus["versions"] != versions():
        pytest.skip(f"corpus recorded on {corpus['versions']}, running on {versions()}")
    moved = []
    for record in corpus["records"]:
        code, out, err = run(record["argv"])
        for name, got in (("exit", code), ("stdout", out), ("stderr", err)):
            if got != record[name]:
                moved.append((record["argv"], name, got, record[name]))
    assert len(corpus["records"]) > 3000
    assert not moved, f"{len(moved)} outputs moved; first: {moved[0]}"
