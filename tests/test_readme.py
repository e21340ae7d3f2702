"""The README's Quick start runs against the current public API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_block_runs():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    blocks = re.findall(r"^## Quick start\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md Quick start", "exec"), {})
