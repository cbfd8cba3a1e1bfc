"""The golden corpora, read in one place, and their replay without site-packages.

``golden_cli.json`` pins the exit code and the stdout sha256 of a fixed list
of command lines, in text and JSON format alike; ``{config}`` in an argv list
stands for a file holding the case's ``config`` object.  ``golden_demos.json``
pins the stdout sha256 of each ``demos/*.py``.

This module imports only the standard library and ``parahoric``, so it runs
with site-packages off, the guard for ``dependencies = []``:

    PYTHONPATH=src python -S tests/golden.py

replays every golden case and every demo in one process, runs
``python -S -m parahoric.cli`` on the first case, and exits 1 on any
mismatch.  Re-record both corpora (only when an output change is intended)
with

    PYTHONPATH=src python tests/golden.py --record
"""

import contextlib
import hashlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

from parahoric.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden_cli.json"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
DEMO_DIGESTS = HERE / "golden_demos.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_cases():
    return json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


def demo_digests():
    return json.loads(DEMO_DIGESTS.read_text(encoding="utf-8"))


def case_stdout(case: dict, workdir: Path):
    """(exit code, stdout) of ``main`` on the case's argv, stderr dropped."""
    argv = list(case["argv"])
    if "config" in case:
        path = workdir / "config.json"
        path.write_text(json.dumps(case["config"]), encoding="utf-8")
        argv = [str(path) if a == "{config}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_case(case: dict, workdir: Path):
    """(exit code, stdout sha256) of the case, as the corpus records them."""
    code, out = case_stdout(case, workdir)
    return code, sha256(out)


def demo_stdout(path: Path) -> str:
    """The stdout of the demo script, run in this process as ``__main__``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def replay():
    """The mismatches of every golden case, every demo and one run of
    ``python -S -m parahoric.cli`` against their recorded digests."""
    cases, digests, faults = load_cases(), demo_digests(), []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            got = run_case(case, Path(tmp))
            if got != (case["exit"], case["stdout_sha256"]):
                faults.append(f"{' '.join(case['argv'])}: exit and digest {got}")
    for path in DEMOS:
        if sha256(demo_stdout(path)) != digests.get(path.name):
            faults.append(f"demos/{path.name}: stdout digest moved")
    first = cases[0]
    done = subprocess.run([sys.executable, "-S", "-m", "parahoric.cli", *first["argv"]],
                          capture_output=True)
    got = done.returncode, hashlib.sha256(done.stdout).hexdigest()
    if got != (first["exit"], first["stdout_sha256"]):
        faults.append(f"python -S -m parahoric.cli {' '.join(first['argv'])}: {got}")
    return faults


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cases = load_cases()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case["exit"], case["stdout_sha256"] = run_case(case, Path(tmp))
    CORPUS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    digests = {path.name: sha256(demo_stdout(path)) for path in DEMOS}
    DEMO_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"recorded {len(cases)} cases and {len(digests)} demos")
elif __name__ == "__main__":
    faults = replay()
    for fault in faults:
        print(fault)
    print(f"replayed {len(load_cases())} golden cases and {len(DEMOS)} demos "
          f"(site {'off' if sys.flags.no_site else 'on'}): {len(faults)} mismatches")
    sys.exit(1 if faults else 0)
