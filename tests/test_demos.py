"""Demo scripts: each ``demos/*.py`` has a digest in ``golden_demos.json``.

The replay of ``golden.py`` runs each demo in a fresh ``python -S`` process
and is the one check of its exit code 0 and its stdout digest; each demo's
test here reads its verdict from that replay, made once per test session
(``site_off_run``, shared with ``test_golden_cli.py``).  This module also
checks that the digests and the scripts match one to one.
"""

import pytest

from .golden import DEMOS, demo_digests, site_off_report


def test_every_demo_has_a_digest():
    assert sorted(demo_digests()) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output(path):
    assert site_off_report()["demos"][path.name] == []
