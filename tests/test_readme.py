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


def pipeline_call() -> str:
    """The ``fit_pipeline(...)`` call in the text after the quickstart block."""
    text = README.read_text(encoding="utf-8")
    after = text.split("\n## Library quickstart\n", 1)[1].split("```", 2)[2]
    call = re.search(r"`(fit_pipeline\(.*?\))`", after)
    assert call is not None, "no fit_pipeline call after the quickstart"
    return call.group(1)


def test_quickstart_prints_two_finite_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_code(), str(README), "exec"), {"__name__": "quickstart"})
    fields = out.getvalue().split()
    assert len(fields) == 2
    assert all(math.isfinite(float(f)) for f in fields)


def test_the_pipeline_call_runs_after_the_quickstart():
    ns = {"__name__": "quickstart"}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quickstart_code(), str(README), "exec"), ns)
    fit = eval(pipeline_call(), ns)
    # one call does the quickstart's cross-validation, on the same grid
    assert fit.mean.bandwidth == ns["h_m"]
    assert len(fit.variances) == 1 and fit.cv_v[0] is not None
