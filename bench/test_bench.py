"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q bench
"""

import json
import math
import sys

import pytest

import run
import spans
from checks import FAILED_KNOWN, MISMATCH, OK, Outcome, check
from workloads import WORKLOADS, Query, generate, grid_size, repeat_share

sys.path.insert(0, str(run.SRC))
import parahoric  # noqa: E402
import parahoric.cli  # noqa: E402,F401


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    first = [q.describe() for q in generate(workload, 7)]
    assert first == [q.describe() for q in generate(workload, 7)]
    assert first != [q.describe() for q in generate(workload, 8)]


def test_repeat_share():
    for seed in range(5):
        assert repeat_share(generate("census", seed)) == 0
        assert repeat_share(generate("apartment", seed)) > 0


def test_tail_percentile_rule():
    value, pct, beyond = run.tail_latency([float(x) for x in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    values = [float(x) for x in range(149, 0, -1)]
    value, pct, beyond = run.tail_latency(values)
    assert value == 139.0 and beyond == 10
    assert sum(v > value for v in values) == 10
    assert math.isclose(pct, 100 * 139 / 149)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_on_a_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert spans.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def _bindings():
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name == "parahoric" or name.startswith("parahoric.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert parahoric.cli.h1_elements is not before[("parahoric.cli", "h1_elements")]
        assert parahoric.cohomology.h1_elements is parahoric.cli.h1_elements
        assert parahoric.local_types.__wrapped__ is before[("parahoric", "local_types")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _cheap(workload):
    """Queries of the workload with small grids, to keep the test short."""
    return [q for q in generate(workload, 3)
            if q.keys and all(grid_size(g, e) <= 64 and int(g[1:]) <= 3 for g, e in q.keys)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload, tmp_path):
    pkg, cli, prepared = run.setup(workload, 3, tmp_path)
    cheap = {q.qid for q in _cheap(workload)}
    prepared = [(q, argv) for q, argv in prepared if q.qid in cheap]
    assert len(prepared) >= 5
    plain = run.run_pass(pkg, cli, prepared, math.inf)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(pkg, cli, prepared, math.inf, tracer=tracer)
    finally:
        tracer.restore()
    assert plain.problems == [] and traced.problems == []
    assert plain.digests == traced.digests
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(spans.layer_metric_names()) - {"trace.overhead_ratio"}
    assert metrics["rootdata.build_root_datum.calls"] > 0
    if workload != "involutions":
        assert metrics["slmodel.sl_local_types.calls"] == 0


def _types_text(order, sizes):
    return (f"H1(Gamma, T): order {order}, invariant factors [{order}]\n"
            + "".join(f"type {i}: rep [{i}/{order}], orbit size {s}, cocycle {{}}\n"
                      for i, s in enumerate(sizes))
            + f"types: {len(sizes)}\n")


def test_checks_catch_a_wrong_count():
    query = Query("q000", "cli", ("types", "--group", "A1", "--order", "5"),
                  {"check": "types_trivial", "group": "A1", "e": 5, "default_base": True})
    assert check(query, Outcome(0, _types_text(5, (1, 2, 2))))[0] == OK
    # self-consistent, but not floor((e+1)/2) types at the base 1/e
    assert check(query, Outcome(0, _types_text(5, (1, 1, 1, 2))))[0] == MISMATCH
    # |H1| is not e^r
    assert check(query, Outcome(0, _types_text(4, (1, 1, 2))))[0] == MISMATCH
    assert check(query, Outcome(2, ""))[0] == MISMATCH


def test_known_crash_is_a_failure_not_a_mismatch():
    query = Query("q000", "cli", ("global", "--config", "{config}"),
                  {"check": "error", "exit": 2, "known_crash": "AttributeError"})
    assert check(query, Outcome(None, "", exception="AttributeError"))[0] == FAILED_KNOWN
    assert check(query, Outcome(None, "", exception="KeyError"))[0] == MISMATCH
    assert check(query, Outcome(2, "", "error: malformed branch point"))[0] == OK


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == spans.layer_metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
