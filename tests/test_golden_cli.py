"""Golden CLI corpus: exit code and stdout digest of a fixed command list.

Every command in ``golden_cli.json`` must keep its exit code and produce
byte-identical stdout, in text and JSON format alike.  ``{config}`` in an
argv list stands for a file holding the case's ``config`` object.

Re-record the digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from parahoric.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")


def run_case(case: dict, workdir: Path):
    argv = list(case["argv"])
    if "config" in case:
        path = workdir / "config.json"
        path.write_text(json.dumps(case["config"]), encoding="utf-8")
        argv = [str(path) if a == "{config}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def load_cases():
    return json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: " ".join(c["argv"]))
def test_golden_cli(case, tmp_path):
    assert run_case(case, tmp_path) == (case["exit"], case["stdout_sha256"])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cases = load_cases()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case["exit"], case["stdout_sha256"] = run_case(case, Path(tmp))
    CORPUS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases in {CORPUS}")
