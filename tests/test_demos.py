"""Each demo script runs to completion, with no warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aniso3d

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path, pytestconfig):
    # run in a scratch directory: demos 02 and 03 save a figure there
    # when matplotlib is installed; the suite's own warning filters make
    # a warning in a demo an error, as it is in the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(aniso3d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    warnings = [f"-W{f}" for f in pytestconfig.getini("filterwarnings")]
    done = subprocess.run([sys.executable, *warnings, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
