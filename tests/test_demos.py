"""Demo scripts: each ``demos/*.py`` keeps its exit code 0 and prints
byte-identical stdout.

The scripts run in a subprocess with ``PYTHONPATH=src``, and the sha256 of
their stdout is compared against ``golden_demos.json``.  Re-record the
digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_demos.py --record
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden_demos.json")


def run_demo(path: Path) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def test_every_demo_has_a_digest():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output(path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_demo(path) == golden[path.name]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    digests = {path.name: run_demo(path) for path in DEMOS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} demos in {GOLDEN}")
