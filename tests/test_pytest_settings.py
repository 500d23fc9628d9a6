"""The suite's own pytest settings, as a failing test meets them."""

import subprocess
import sys
from pathlib import Path

from conftest import _src_env

ROOT = Path(__file__).resolve().parents[1]

_FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # hypothesis builds its report with libcst, which warns on import; the
    # suite's warnings-as-errors must not turn that into an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(_FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
