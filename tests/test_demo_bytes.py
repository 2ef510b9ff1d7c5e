"""The stdout of demos 01, 04, 05 and 06, pinned by sha256.

Each demo runs in process (runpy) with its stdout captured.  These demos
print no wall-clock times, so their output is a fixed function of the code;
demo 07 is pinned byte for byte in tests/test_nilseq.py, and demos 02 and 03
print timings.  Bit reproducibility is a documented property, so a pin that
moves is a changed output.  A change that means to change a demo's output
re-pins it in the same change, with a line in CHANGES.md saying which outputs
moved and why.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

PINS = {
    "01_complexity_and_normal_forms": "0e065e04d0a305c2b15bf7aebcef2a4730d2019ac9e3cf66ee16beffae0d188a",
    "04_gowers_norms": "03de4159f745e7cd465b8e15592b984d3e6ff78658c3aa8c69013a5dbe9e079d",
    "05_gy_sieve": "1fc7a3dbfae6ed804b888dedb8bdb295c20fae0536051372bbe7e3ba33e8937c",
    "06_mobius_liouville": "defc7455cc8cbfd5bb00de103f018a60e49d2f8ee9c6df04f6eaa63d8f5a059c",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_demo_stdout_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINS[name]
