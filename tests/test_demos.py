"""Every script in demos/ runs to completion in process, and its oracle checks pass."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text
    assert "FAIL" not in text
    for err in re.findall(r"max rel err ([0-9.e+-]+)", text):
        assert float(err) <= 1e-13
