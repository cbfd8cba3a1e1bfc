"""The golden corpora, read in one place, and their replay without site-packages.

``golden_cli.json`` pins the exit code and the stdout sha256 of a fixed list
of command lines, in text and JSON format alike; ``{config}`` in an argv list
stands for a file holding the case's ``config`` object.  ``golden_demos.json``
pins the stdout sha256 of each ``demos/*.py``.

The replay is the one check of these digests.  This module imports only the
standard library and ``parahoric``, so it runs with site-packages off, the
guard for ``dependencies = []``:

    PYTHONPATH=src python -S tests/golden.py

runs every golden case through ``cli.main`` in this process, every demo in
a fresh ``python -S`` process of its own and ``python -S -m parahoric.cli``
on the first case, and exits 1 on any mismatch, each named by its argv or
demo.  Besides its digest, each case is held to two facts: a JSON report is
``json.dumps(json.loads(out), indent=2, sort_keys=True) + "\\n"``, and an
argv that ``cli.read_argv`` takes builds no ``argparse.ArgumentParser``.
With ``--json`` it prints the mismatches of every case, demo and
``-m`` run as one JSON report instead; ``site_off_run`` runs that once
per process, and the tier-1 tests read their verdicts from it.
Re-record both corpora from the same runs (only when an output change is
intended) with

    PYTHONPATH=src python tests/golden.py --record
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import parahoric
from parahoric.cli import build_parser, main, read_argv

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden_cli.json"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
DEMO_DIGESTS = HERE / "golden_demos.json"
# the subprocesses import the package this process imported
ENV = dict(os.environ, PYTHONPATH=str(Path(parahoric.__file__).resolve().parents[1]),
           PYTHONIOENCODING="utf-8")


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


@contextlib.contextmanager
def parsers_built():
    """The list of every ``argparse.ArgumentParser`` built in the block,
    with the memo of ``cli.build_parser`` cleared first, so that a call of
    it builds one."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    argparse.ArgumentParser.__init__ = counted
    try:
        yield built
    finally:
        argparse.ArgumentParser.__init__ = init


def case_name(case: dict) -> str:
    """The case's argv, as one string: its test id and the name of its faults."""
    return " ".join(case["argv"])


def case_faults(case: dict, workdir: Path):
    """The mismatches of one golden case, each named by its argv: its exit
    code and stdout digest, a JSON report that is not ``json.dumps`` of its
    own parse, and a parser built for an argv that ``read_argv`` takes."""
    name, faults = case_name(case), []
    with parsers_built() as built:
        code, out = case_stdout(case, workdir)
    if (code, sha256(out)) != (case["exit"], case["stdout_sha256"]):
        faults.append(f"{name}: exit and digest {(code, sha256(out))}")
    if "json" in case["argv"] and out:
        try:
            canonical = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        except ValueError:
            canonical = None
        if canonical != out:
            faults.append(f"{name}: the JSON report is not json.dumps of its own parse")
    if built and read_argv(case["argv"]) is not None:
        faults.append(f"{name}: the exact reader takes it, yet main built an argparse parser")
    return faults


def python_s(*args: str):
    """(exit code, stdout sha256) of ``python -S`` on the arguments, in a
    fresh process run from the repository root."""
    done = subprocess.run([sys.executable, "-S", *args], cwd=HERE.parent, env=ENV,
                          capture_output=True)
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def replay():
    """The mismatches of every golden case (a list in corpus order, since
    some argvs differ only in their config), of every demo and of one run of
    ``python -S -m parahoric.cli``, against their recorded digests."""
    cases, digests = load_cases(), demo_digests()
    with tempfile.TemporaryDirectory() as tmp:
        case_report = [case_faults(case, Path(tmp)) for case in cases]
    demo_report = {}
    for path in DEMOS:
        got = python_s(str(path))
        demo_report[path.name] = ([] if got == (0, digests.get(path.name))
                                  else [f"demos/{path.name}: exit and digest {got}"])
    first = cases[0]
    got = python_s("-m", "parahoric.cli", *first["argv"])
    module = ([] if got == (first["exit"], first["stdout_sha256"])
              else [f"python -S -m parahoric.cli {case_name(first)}: {got}"])
    return {"cases": case_report, "demos": demo_report, "module": module,
            "site": "off" if sys.flags.no_site else "on"}


def all_faults(report: dict):
    """Every mismatch of a ``replay`` report, in one list."""
    return [fault for faults in [*report["cases"], *report["demos"].values(), report["module"]]
            for fault in faults]


@functools.cache
def site_off_run():
    """One ``python -S tests/golden.py --json`` run, made once per process."""
    return subprocess.run([sys.executable, "-S", str(Path(__file__).resolve()), "--json"],
                          cwd=HERE.parent, env=ENV, capture_output=True, text=True,
                          timeout=600)


def site_off_report():
    """The JSON report of ``site_off_run``."""
    return json.loads(site_off_run().stdout)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cases = load_cases()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            code, out = case_stdout(case, Path(tmp))
            case["exit"], case["stdout_sha256"] = code, sha256(out)
    CORPUS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    digests = {path.name: python_s(str(path))[1] for path in DEMOS}
    DEMO_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"recorded {len(cases)} cases and {len(digests)} demos")
elif __name__ == "__main__":
    report = replay()
    faults = all_faults(report)
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(report, indent=1))
    else:
        for fault in faults:
            print(fault)
        print(f"replayed {len(report['cases'])} golden cases and {len(DEMOS)} demos "
              f"(site {report['site']}): {len(faults)} mismatches")
    sys.exit(1 if faults else 0)
