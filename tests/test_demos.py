"""Smoke test of the demo scripts: each runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_REPO / "demos").glob("*.py"))


def test_demos_found():
    assert _DEMOS


@pytest.mark.parametrize("demo", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
