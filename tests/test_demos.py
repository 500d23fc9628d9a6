"""Every demo runs to completion with warnings as errors.

The demos are the only callers of some library functions (``band_slope``,
``expected_*_exponent``, ``harmonic_weights``), so
running them keeps those paths exercised.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import _src_env

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMO_DIR / demo)],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
