"""Demo scripts: each ``demos/*.py`` keeps its exit code 0 and prints
byte-identical stdout.

The scripts run in a subprocess with ``PYTHONPATH=src``, and the sha256 of
their stdout is compared against ``golden_demos.json``, read and re-recorded
by ``golden.py``.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from .golden import DEMOS, HERE, demo_digests

ROOT = HERE.parent


def run_demo(path) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def test_every_demo_has_a_digest():
    assert sorted(demo_digests()) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output(path):
    assert run_demo(path) == demo_digests()[path.name]
