"""Each demo script, and README's library quickstart, runs to completion with no warning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aniso3d

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd, pytestconfig):
    """Run ``python *args`` in ``cwd`` on this checkout's package, with the
    suite's own warning filters, which make a warning an error there too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aniso3d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    warnings = [f"-W{f}" for f in pytestconfig.getini("filterwarnings")]
    return subprocess.run([sys.executable, *warnings, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path, pytestconfig):
    # run in a scratch directory: demos 02 and 03 save a figure there
    # when matplotlib is installed
    done = run_python([str(demo)], tmp_path, pytestconfig)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quickstart_runs(tmp_path, pytestconfig):
    # the one python block of README, so that a name or signature it uses
    # cannot go without the README changing too
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]], tmp_path, pytestconfig)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "0.99\n"  # the power it prints on its fixed seed
