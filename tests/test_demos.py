"""Every script in demos/ runs to completion and prints something."""

import os
import pathlib
import subprocess
import sys

import pytest

import otrisk

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # the child imports the same otrisk as this process, installed or not
    src = os.path.dirname(os.path.dirname(otrisk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demos_are_found():
    assert DEMOS
