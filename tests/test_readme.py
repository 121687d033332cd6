"""README's Library example must keep running as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5
    threshold, value, mean, stderr, injection_threshold = map(float, printed)
    assert abs(mean - value) < 5.0 * stderr
    assert threshold > 0.0 and injection_threshold > 0.0
