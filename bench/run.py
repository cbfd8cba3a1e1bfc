"""Benchmark of the parahoric classification CLI and library.

Runs one seeded workload (see workloads.py) in a closed loop: one client in
this process, one query at a time, no threads.  Each query is either
``parahoric.cli.main(argv)`` with stdout and stderr captured, or one of the
documented library calls.  Every outcome is checked (checks.py).

    python3 bench/run.py --workload census --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the batch
once untraced and once traced (spans.py) and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 unless an
output was wrong.  Run from the root of a checkout; the program is imported
from ``src/``.
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from calibrate import REFERENCE_S, calibrate, reference_kernel  # noqa: E402
from checks import MISMATCH, OK, Outcome, check, cross_check  # noqa: E402
from workloads import WORKLOADS, generate, grid_size, rank_of, repeat_share  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 9

# name -> (unit, better); the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# set-up and execution
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path):
    """Import the package and write the workload's inputs.  The first query
    is ready when this returns."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("parahoric")
    cli = importlib.import_module("parahoric.cli")
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = []
    for q in generate(workload, seed):
        argv = list(q.args)
        if q.config is not None:
            path = workdir / f"{q.qid}.json"
            path.write_text(q.config, encoding="utf-8")
            argv = [str(path) if a == "{config}" else a for a in argv]
        prepared.append((q, argv))
    return pkg, cli, prepared


def _datum_and_base(pkg, group, e, point):
    datum = pkg.build_root_datum(group[0], rank_of(group))
    x = pkg.point_from_root_values(datum, tuple(Fraction(v) for v in point))
    return datum, pkg.reduce_to_alcove(datum, x)[0]


def lib_local_types(pkg, group, e, point) -> str:
    datum, base = _datum_and_base(pkg, group, e, point)
    types = pkg.local_types(datum, pkg.trivial_action(datum.rank, e), base=base)
    lines = [f"type {t.index}: rep [{', '.join(str(x) for x in t.orbit_representative)}],"
             f" orbit size {t.orbit_size}" for t in types]
    return "\n".join(lines + [f"types: {len(types)}"]) + "\n"


def lib_burnside(pkg, group, e, point) -> str:
    datum, base = _datum_and_base(pkg, group, e, point)
    return f"burnside: {pkg.burnside_type_count(datum, e, base=base)}\n"


def lib_su(pkg, n, case) -> str:
    r = pkg.su_special_vertex_types(n, case)
    return (f"n: {r.n}\ncase: {r.case}\ninvolution: {r.involution_kind}\n"
            f"torus_h1_order: {r.torus_h1_order}\ntypes: {r.type_count}\n")


LIBRARY = {"local_types": lib_local_types, "burnside": lib_burnside, "su": lib_su}


def execute(pkg, cli, query, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if query.kind == "cli":
                code = cli.main(argv)
            else:
                print(LIBRARY[query.kind](pkg, *argv), end="")
                code = 0
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        except Exception as exc:  # an escaping exception is the query's outcome
            exception = type(exc).__name__
            err.write(repr(exc))
    return Outcome(code, out.getvalue(), err.getvalue(), exception)


class Pass:
    """The outcome of one pass over a batch."""

    def __init__(self):
        self.latencies = []
        self.kernel_times = []  # reference kernel timed before and after each query
        self.digests = {}
        self.statuses = {}
        self.facts = {}
        self.problems = []
        self.failed = 0
        self.out_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def calibrated(self):
        return calibrate(self.latencies, self.kernel_times)



def run_pass(pkg, cli, prepared, seconds, golden=None, tracer=None, between=None) -> Pass:
    """Run the batch in order until it ends or ``seconds`` have passed.

    Only the queries are timed; the reference kernel and the checks after
    each query, and the ``between(i)`` hook before query ``i``, are not.
    """
    result = Pass()
    result.kernel_times.append(reference_kernel())
    start = time.perf_counter()
    for i, (q, argv) in enumerate(prepared):
        if time.perf_counter() - start >= seconds:
            break
        if between is not None:
            between(i)
        if tracer is not None:
            tracer.query = q.qid
        t = time.perf_counter()
        outcome = execute(pkg, cli, q, argv)
        result.latencies.append(time.perf_counter() - t)
        result.kernel_times.append(reference_kernel())
        status, reason, facts = check(q, outcome, None if golden is None else golden[q.qid])
        result.digests[q.qid] = (outcome.exit, outcome.digest)
        result.statuses[q.qid] = status
        result.facts[q.qid] = facts
        result.out_bytes += len(outcome.stdout.encode())
        if status != OK:
            result.failed += 1
        if status == MISMATCH:
            result.problems.append(f"{q.qid} ({q.describe()}): {reason}")
    disagreements = cross_check([q for q, _ in prepared], result.facts)
    result.failed += len(disagreements)
    result.problems += disagreements
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def rate(latencies) -> float:
    """Queries per second of busy time."""
    return len(latencies) / sum(latencies)


def tail_latency(values):
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile that still has at least 10 samples above its rank."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0, 0
    ordered = sorted(values)
    rank = n - 10  # 1-based nearest rank; 10 samples lie beyond it
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def setup_probe(workload: str, seed: int):
    """(set-up seconds, reference kernel seconds) of a fresh process that
    imports the package and generates the inputs as the benchmark does."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def load_golden(workload: str, prepared):
    path = GOLDEN / f"{workload}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    recorded = data["queries"]
    for q, _ in prepared:
        entry = recorded.get(q.qid)
        if entry is not None and entry["query"] != q.describe():
            raise SystemExit(f"{path} is stale at {q.qid}: re-record it with --record-golden")
    return {q.qid: recorded.get(q.qid) for q, _ in prepared}


def record_golden(workload: str, pkg, cli, prepared) -> int:
    result = run_pass(pkg, cli, prepared, float("inf"))
    if result.problems:
        print("\n".join(result.problems), file=sys.stderr)
        return 1
    queries = {}
    for q, _ in prepared:
        code, digest = result.digests[q.qid]
        if result.statuses[q.qid] == OK:
            queries[q.qid] = {"query": q.describe(), "exit": code, "sha256": digest}
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / f"{workload}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "queries": queries},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(queries)} digests to {path}")
    return 0


def describe_workload(workload: str, prepared, result: Pass) -> str:
    queries = [q for q, _ in prepared]
    grids = sorted(grid_size(g, e) for q in queries for g, e in q.keys)
    return (f"workload {workload}: {len(queries)} queries, {result.attempted} run; "
            f"grid sizes e^r min {grids[0]} median {statistics.median(grids):g} "
            f"max {grids[-1]}; output {result.out_bytes} bytes; "
            f"repeated (group, e) share {repeat_share(queries):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="time budget of the query loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time")
    parser.add_argument("--record-golden", action="store_true",
                        help="record the golden digests of the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "parahoric" / "__init__.py").is_file():
        print(f"no package source at {SRC}/parahoric: run from a checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pkg, cli, prepared = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            setup_s = time.perf_counter() - T0
            kernel_s = statistics.median(reference_kernel() for _ in range(5))
            print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
            return 0
        if args.record_golden:
            if args.seed != DEFAULT_SEED:
                parser.error("golden digests are recorded at the default seed")
            return record_golden(args.workload, pkg, cli, prepared)
        golden = load_golden(args.workload, prepared) if args.seed == DEFAULT_SEED else None
        if args.trace:
            return traced_run(args, pkg, cli, prepared, golden)
        return untraced_run(args, pkg, cli, prepared, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result_passes, metrics, units) -> int:
    problems = [p for r in result_passes for p in r.problems]
    for p in problems:
        print(f"MISMATCH {p}")
    attempted = sum(r.attempted for r in result_passes)
    failed = sum(r.failed for r in result_passes)
    print(f"attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.6f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def untraced_run(args, pkg, cli, prepared, golden) -> int:
    # The set-up probes are spread over the run, so that their median does
    # not hang on one moment of the machine's load.
    probes = []
    marks = {int(k * len(prepared) / SETUP_PROBES) for k in range(SETUP_PROBES)}

    def between(i):
        if i in marks:
            probes.append(setup_probe(args.workload, args.seed))

    result = run_pass(pkg, cli, prepared, args.seconds, golden, between=between)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timings(latencies, setups):
        tail, pct, beyond = tail_latency(latencies)
        return {
            "setup_s": statistics.median(setups),
            "queries_per_s": rate(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": tail * 1000,
        }, f" (p{pct:.2f} of {len(latencies)} samples, {beyond} beyond)"

    metrics, tail_note = timings(result.calibrated(),
                                 [s * REFERENCE_S / k for s, k in probes])
    metrics["peak_rss_mb"] = peak_rss_mb
    raw, _ = timings(result.latencies, [s for s, _ in probes])
    print(describe_workload(args.workload, prepared, result))
    slowdowns = sorted(k / REFERENCE_S for k in result.kernel_times)
    print(f"machine slowdown against the reference kernel: median "
          f"{statistics.median(slowdowns):.3f}, range {slowdowns[0]:.3f}-{slowdowns[-1]:.3f}")
    for name, value in metrics.items():
        unit = END_TO_END[name][0]
        note = tail_note if name == "latency_tail_ms" else ""
        if name in raw:
            note += f"; uncalibrated {raw[name]:.6g} {unit}"
        print(f"{name} {value:.6g} {unit}{note}")
    return report([result], metrics, {k: u for k, (u, _) in END_TO_END.items()})


def traced_run(args, pkg, cli, prepared, golden) -> int:
    plain = run_pass(pkg, cli, prepared, args.seconds, golden)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(pkg, cli, prepared, args.seconds, golden, tracer)
    finally:
        tracer.restore()
    for qid in sorted(plain.digests.keys() & traced.digests.keys()):
        if plain.digests[qid] != traced.digests[qid]:
            traced.problems.append(f"{qid}: traced and untraced outputs differ")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = rate(traced.calibrated()) / rate(plain.calibrated())
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(str(span_file))
    print(describe_workload(args.workload, prepared, traced))
    print(f"{len(tracer.names)} spans written to {span_file}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {layer_unit(name)}")
    return report([plain, traced], metrics, {k: layer_unit(k) for k in metrics})


if __name__ == "__main__":
    sys.exit(main())
