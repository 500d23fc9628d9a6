"""Every demo runs to completion with warnings as errors.

The demos are the only callers of some library functions (``band_slope``,
``expected_*_exponent``, ``harmonic_weights``), so
running them keeps those paths exercised.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinprobe

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
SRC_DIR = Path(spinprobe.__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMO_DIR / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
