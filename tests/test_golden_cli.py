"""Golden CLI corpus and demos: the one check of their digests.

``golden.py`` replays every command of ``golden_cli.json`` in one
``python -S`` process, with site-packages off, the guard for
``dependencies = []``: each keeps its exit code and byte-identical stdout, in
text and JSON format alike.  Each demo runs in a fresh ``python -S`` process
of its own against ``golden_demos.json``.  The same replay makes the two
other checks of each case: a JSON report is ``json.dumps`` of its own parse,
and a command line that ``cli.read_argv`` takes builds no argparse parser.
The replay runs once per test session (``site_off_run``); each case's test
here, and each demo's in ``test_demos.py``, reads its own verdict from that
run, so every mismatch is named by its argv or demo.  A fresh ``python -S``
process that imports the CLI loads neither ``dataclasses`` nor ``inspect``:
the records of the package are NamedTuples.
"""

import subprocess
import sys

import pytest

from .golden import ENV, all_faults, case_name, load_cases, site_off_report, site_off_run


def test_the_corpus_and_the_demos_replay_with_site_packages_off():
    done = site_off_run()
    assert done.stderr == "", done.stdout + done.stderr
    report = site_off_report()
    assert all_faults(report) == []
    assert (done.returncode, report["site"], len(report["cases"])) == (0, "off", len(load_cases()))


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    code = "import sys, parahoric.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=ENV,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n", done.stdout + done.stderr


@pytest.mark.parametrize("index", range(len(load_cases())),
                         ids=[case_name(case) for case in load_cases()])
def test_golden_cli(index):
    assert site_off_report()["cases"][index] == []
