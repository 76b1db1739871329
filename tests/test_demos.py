"""Every demo, and the README's library quick start, runs to the end.

The demos call the public API the way a reader would, so a change to a
signature they use breaks them and nothing else. Each runs in a subprocess
against the package sources.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run_python(["-c", code], tmp_path)
