"""Correctness checks of one query outcome, and the cross-checks of a batch.

Every query is checked by rules that hold for any seed: exit codes, the
orbit sizes adding up to |H^1|, |H^1| = e^r for trivial actions, the
rank-one count floor((e+1)/2) at the base 1/e, the acceptance-suite values
of the SL_n and SU_n cases, the `global` product, and (across queries) the
apartment count equal to `local_types` and to Burnside.  At the default seed
the exit code and the sha256 of stdout must also match the golden digests.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Tuple

from workloads import Query, rank_of, sl_expected, su_expected

OK = "ok"
FAILED_KNOWN = "failed-known"  # the known crash: a failure, not a wrong answer
MISMATCH = "mismatch"

PRODUCT_CAP = 10 ** 4  # the `global` tuple-listing cap of the CLI at the default --cap


@dataclass
class Outcome:
    """What one query produced: exit code (None when an exception escaped),
    stdout, stderr and the name of the escaping exception, if any."""

    exit: Optional[int]
    stdout: str
    stderr: str = ""
    exception: Optional[str] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


class CheckError(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def _int(pattern: str, text: str) -> int:
    m = re.search(pattern, text, re.MULTILINE)
    _need(m is not None, f"no match for {pattern!r}")
    return int(m.group(1))


def _types_report(out: Outcome) -> Tuple[int, int, List[int]]:
    """(|H^1|, type count, orbit sizes) of a `types` report in either format."""
    if out.stdout.startswith("{"):
        report = json.loads(out.stdout)
        sizes = [t["orbit_size"] for t in report["types"]]
        return report["torus_h1"]["order"], report["type_count"], sizes
    order = _int(r"^H1\(Gamma, T\): order (\d+)", out.stdout)
    count = _int(r"^types: (\d+)$", out.stdout)
    sizes = [int(s) for s in re.findall(r"^type \d+: .*, orbit size (\d+),", out.stdout,
                                        re.MULTILINE)]
    return order, count, sizes


def _check_types(out: Outcome, e: Dict) -> Dict:
    order, count, sizes = _types_report(out)
    _need(len(sizes) == count, f"{len(sizes)} type rows for {count} types")
    _need(sum(sizes) == order, f"orbit sizes add to {sum(sizes)}, |H1| is {order}")
    _need(order == e["e"] ** rank_of(e["group"]), f"|H1| = {order} is not e^r")
    if e["group"] == "A1" and e["default_base"]:
        _need(count == (e["e"] + 1) // 2, f"rank-one count {count} at base 1/e")
    return {"count": count}


def _check_twist(out: Outcome, e: Dict) -> Dict:
    if out.stdout.startswith("{"):
        report = json.loads(out.stdout)
        rows = [r["facet_text"] for r in report["twists"]]
        _need(len(rows) == report["type_count"], "one twist row per type")
    else:
        rows = re.findall(r"^type \d+: point \[.*\], facet: (.*)$", out.stdout, re.MULTILINE)
    _need(len(rows) >= 1, "no twist rows")
    if e["group"] == "A1" and e["default_base"]:
        _need(len(rows) == (e["e"] + 1) // 2, "rank-one count at base 1/e")
        hyper = sum("hyperspecial" in r for r in rows)
        _need(hyper == e["e"] % 2, "one hyperspecial twist exactly for odd e")
    return {"count": len(rows)}


def _check_global(out: Outcome, e: Dict) -> Dict:
    if out.stdout.startswith("{"):
        report = json.loads(out.stdout)
        counts = [bp["type_count"] for bp in report["branch_points"]]
        pi0 = report["pi0"]
        tuples = report["tuples"]
        listed = None if tuples is None else len(tuples)
    else:
        counts = [int(c) for c in re.findall(r"^point .* -> types (\d+)$", out.stdout,
                                             re.MULTILINE)]
        pi0 = _int(r"^pi0: (\d+)$", out.stdout)
        listed = None if "tuples omitted" in out.stdout else out.stdout.count("\ntuple: (")
    _need(len(counts) == len(e["counts"]), "one line per branch point")
    for got, want in zip(counts, e["counts"]):
        _need(want is None or got == want, f"branch point count {got}, expected {want}")
    _need(pi0 == prod(counts), f"pi0 {pi0} is not the product of {counts}")
    capped = pi0 > PRODUCT_CAP
    _need(out.exit == (3 if capped else 0), f"exit {out.exit} for pi0 {pi0}")
    _need(listed == (None if capped else pi0), "tuple listing does not match pi0")
    return {"count": pi0}


def _check_orbit(out: Outcome, e: Dict) -> Dict:
    if out.stdout.startswith("{"):
        report = json.loads(out.stdout)
        count = report["count"]
        _need(len(report["representatives"]) == count, "one representative per orbit")
    else:
        count = _int(r"^count: (\d+)$", out.stdout)
        _need(out.stdout.count("\nrep (root values): ") == count, "one rep line per orbit")
    return {"count": count}


def _check_local_types(out: Outcome, e: Dict) -> Dict:
    sizes = [int(s) for s in re.findall(r"orbit size (\d+)$", out.stdout, re.MULTILINE)]
    count = _int(r"^types: (\d+)$", out.stdout)
    _need(len(sizes) == count, "one row per type")
    _need(sum(sizes) == e["e"] ** rank_of(e["group"]), "orbit sizes do not add to e^r")
    return {"count": count}


def _check_burnside(out: Outcome, e: Dict) -> Dict:
    return {"count": _int(r"^burnside: (\d+)$", out.stdout)}


def _check_sl(out: Outcome, e: Dict) -> Dict:
    order, count, sizes = _types_report(out)
    _need(sum(sizes) == order, "orbit sizes do not add to |H1|")
    want = sl_expected(e["n"], e["variant"])
    _need((order, count) == want, f"(|H1|, types) = {(order, count)}, expected {want}")
    return {"count": count}


def _check_su(out: Outcome, e: Dict) -> Dict:
    order = _int(r"^torus_h1_order: (\d+)$", out.stdout)
    count = _int(r"^types: (\d+)$", out.stdout)
    want = su_expected(e["n"], e["case"])
    _need((order, count) == want, f"(|H1|, types) = {(order, count)}, expected {want}")
    return {"count": count}


def _check_diagram(out: Outcome, e: Dict) -> Dict:
    order, count, _ = _types_report(out)
    _need((order, count) == (1, 1), "trivial H1 must give one type")
    return {"count": count}


def _check_error(out: Outcome, e: Dict) -> Dict:
    _need(out.stdout == "", "an error must print nothing on stdout")
    prefix = "cap exceeded: " if e["exit"] == 3 else "error: "
    _need(out.stderr.startswith(prefix), f"stderr does not start with {prefix!r}")
    return {}


CHECKERS = {
    "types_trivial": _check_types, "twist": _check_twist, "global": _check_global,
    "orbit": _check_orbit, "local_types": _check_local_types,
    "burnside": _check_burnside, "sl_types": _check_sl, "su": _check_su,
    "diagram": _check_diagram, "error": _check_error,
}


def check(query: Query, out: Outcome, golden: Optional[Dict] = None) -> Tuple[str, str, Dict]:
    """(status, reason, facts) of one outcome; facts feed the cross-checks."""
    e = query.expect
    if out.exception is not None:
        if out.exception == e.get("known_crash"):
            return FAILED_KNOWN, f"known crash: {out.exception} escapes cli.main", {}
        return MISMATCH, f"{out.exception} escaped", {}
    want_exit = e.get("exit", 0)
    if e["check"] != "global" and out.exit != want_exit:
        return MISMATCH, f"exit {out.exit}, expected {want_exit}", {}
    if golden is not None and (golden["exit"], golden["sha256"]) != (out.exit, out.digest):
        return MISMATCH, "exit code or stdout differs from the golden digest", {}
    try:
        facts = CHECKERS[e["check"]](out, e)
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return MISMATCH, f"{e['check']}: {exc}", {}
    return OK, "", facts


def cross_check(queries: List[Query], facts: Dict[str, Dict]) -> List[str]:
    """Apartment orbit count == local_types count == Burnside count for every
    (group, e, base) triple whose three queries all ran and passed their own
    checks; one problem per disagreeing triple."""
    triples: Dict[str, Dict[str, int]] = {}
    for q in queries:
        tag = q.expect.get("triple")
        if tag is not None and "count" in facts.get(q.qid, {}):
            triples.setdefault(tag, {})[q.expect["check"]] = facts[q.qid]["count"]
    problems = []
    for tag, counts in sorted(triples.items()):
        if len(counts) == 3 and len(set(counts.values())) != 1:
            problems.append(f"triple {tag}: counts disagree {counts}")
    return problems
