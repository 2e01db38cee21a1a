"""The demos, the public API's callers outside the tests, run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["damped_string", "delay_stability",
                                  "exact_recovery", "linear_demo"])
def test_demo_exits_0(demo, tmp_path):
    # the demo runs in tmp_path, where it writes its files, on the package
    # under src/
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
