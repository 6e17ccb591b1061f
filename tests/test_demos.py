"""Every narrative demo runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    result = subprocess.run([sys.executable, path], cwd=ROOT, env=src_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
