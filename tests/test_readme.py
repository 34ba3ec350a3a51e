"""The README's Python examples run as written and print what their comments state."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# A statement `print(...)  # text` states that it prints the line `text`.
STATED = re.compile(r"^print\(.*\)  # (.+)$")


def test_python_blocks_run_in_order_and_print_what_they_state():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.S | re.M)
    assert blocks
    namespace: dict = {}
    stated = 0
    for number, block in enumerate(blocks, start=1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(prints), f"block {number}"
        for statement, line in zip(prints, printed):
            match = STATED.match(statement)
            if match:
                assert line == match.group(1), f"block {number}: {statement}"
                stated += 1
    assert stated == 3
