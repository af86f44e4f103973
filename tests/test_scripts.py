"""Smoke tests: the two demo scripts run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


@pytest.mark.parametrize("name", ["run_demo.py", "tune_synthetic.py"])
def test_script_exits_zero(tmp_path, name):
    proc = run_script(name, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    if name == "tune_synthetic.py":
        assert "within one grid step" in proc.stdout
