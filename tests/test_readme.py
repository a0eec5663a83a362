"""The library quickstart in README.md runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_code() -> str:
    """The first python block under the "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert block is not None, "no python block under the quickstart heading"
    return block.group(1)


def test_quickstart_prints_two_finite_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_code(), str(README), "exec"), {"__name__": "quickstart"})
    fields = out.getvalue().split()
    assert len(fields) == 2
    assert all(math.isfinite(float(f)) for f in fields)
