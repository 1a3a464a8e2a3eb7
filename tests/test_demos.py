import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import treestats

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a copy, so that the demo's output directory lands under tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(treestats.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # the warning filter pytest applies through pyproject.toml
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
