"""Every demo runs to completion with warnings as errors.

The demos are the package's worked examples, so a change that breaks one
breaks what a reader copies.  No library name lives for the demos alone:
``test_harness.py::test_every_public_name_is_reached`` does not count
them as callers.
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
