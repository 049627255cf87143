"""Smoke tests: every demo runs to completion from a clean directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    result = run_demo(path, tmp_path)
    assert result.returncode == 0, result.stderr
    if path.stem == "02_variable_elimination":
        values = dict(re.findall(r"^(ve_argmax|via messages):.*value (\S+)$", result.stdout, re.M))
        assert set(values) == {"ve_argmax", "via messages"}
        assert values["via messages"] == values["ve_argmax"]
