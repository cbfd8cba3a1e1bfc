"""Golden CLI corpus: exit code and stdout digest of a fixed command list.

Every command in ``golden_cli.json`` (read by ``golden.py``, which also
re-records it) must keep its exit code and produce byte-identical stdout, in
text and JSON format alike; a JSON report is ``json.dumps`` of its own
parse.  The corpus and the demos also replay in one ``python -S`` process,
with site-packages off, the guard for ``dependencies = []``.
"""

import json
import os
import subprocess
import sys

import pytest

from .golden import HERE, case_stdout, load_cases, sha256


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: " ".join(c["argv"]))
def test_golden_cli(case, tmp_path):
    code, out = case_stdout(case, tmp_path)
    assert (code, sha256(out)) == (case["exit"], case["stdout_sha256"])
    if "json" in case["argv"] and out:
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_the_corpus_and_the_demos_replay_with_site_packages_off():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    done = subprocess.run([sys.executable, "-S", str(HERE / "golden.py")], cwd=HERE.parent,
                          env=env, capture_output=True, text=True, timeout=600)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout + done.stderr
    assert done.stdout.endswith("(site off): 0 mismatches\n")
