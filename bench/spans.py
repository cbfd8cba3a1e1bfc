"""Tracing: spans around calls into the package's coarse public functions.

The tracer wraps each function in ``WRAPPED`` and rebinds the wrapper in every
``parahoric.*`` namespace that holds the original (the modules import each
other's functions by name), then restores every original binding.  Each call
records a span: name, start, end, parent span and query id.  Spans stay in
memory until the run ends.  Small helpers such as ``mat_vec`` and ``qz`` are
left alone: they run millions of times per run and wrapping them would
distort the timing.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _orbit_partition(args, kwargs, result) -> Dict[str, float]:
    points = sum(len(orbit) for orbit in result)
    actions = _arg(args, kwargs, 1, "actions")
    return {"points": points, "orbits": len(result),
            "applications": points * len(actions)}


def _h1_elements(args, kwargs, result) -> Dict[str, float]:
    action = _arg(args, kwargs, 1, "action")
    return {"grid_points": action.e ** action.rank,
            "classes": len(result.representatives)}


# (module, function) -> quantities read from the arguments and the result.
# Every wrapped function also reports `calls` and `self_s`.
WRAPPED: Dict[Tuple[str, str], Optional[Callable]] = {
    ("exactalg", "smith_normal_form"): None,
    ("rootdata", "build_root_datum"): None,
    ("rootdata", "weyl_elements"): lambda a, k, r: {"elements": len(r)},
    ("rootdata", "orbit_partition"): _orbit_partition,
    ("cohomology", "h1_structural"): lambda a, k, r: {"classes": r.order},
    ("cohomology", "h1_elements"): _h1_elements,
    ("cohomology", "local_types"): lambda a, k, r: {"types": len(r)},
    ("cohomology", "cocycle_of"): lambda a, k, r: {"entries": len(r)},
    ("cohomology", "burnside_type_count"): None,
    ("alcove", "reduce_to_alcove"): lambda a, k, r: {"reflections": len(r[1])},
    # `candidates` is filled in from the reduce_to_alcove spans it contains
    ("alcove", "apartment_orbit_types"): lambda a, k, r: {"distinct": len(r)},
    ("alcove", "type_to_alcove"): None,
    ("alcove", "facet_of"): None,
    ("slmodel", "reversal_fixed_permutations"): lambda a, k, r: {
        "scanned": factorial(_arg(a, k, 0, "n")), "kept": len(r)},
    ("slmodel", "sl_torus_h1"): lambda a, k, r: {"candidates": 2 ** _arg(a, k, 0, "n")},
    ("slmodel", "sl_local_types"): None,
    ("slmodel", "su_special_vertex_types"): None,
    ("slmodel", "involution_apply"): None,
    ("slmodel", "mm_mul"): None,
    ("cli", "main"): None,
    ("cli", "compute_types"): None,
    # `bytes_out` is measured on the captured stdout around the call
    ("cli", "emit"): None,
}

# Extra quantities per function, in the order they are reported.
QUANTITIES = {
    "rootdata.weyl_elements": ("elements",),
    "rootdata.orbit_partition": ("points", "orbits", "applications"),
    "cohomology.h1_structural": ("classes",),
    "cohomology.h1_elements": ("grid_points", "classes"),
    "cohomology.local_types": ("types",),
    "cohomology.cocycle_of": ("entries",),
    "alcove.reduce_to_alcove": ("reflections",),
    "alcove.apartment_orbit_types": ("candidates", "distinct", "distinct_ratio"),
    "slmodel.reversal_fixed_permutations": ("scanned", "kept", "kept_ratio"),
    "slmodel.sl_torus_h1": ("candidates",),
    "cli.emit": ("bytes_out",),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fn in WRAPPED]


def layer_metric_names() -> List[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{q}" for q in QUANTITIES.get(span, ())]
    return names + ["trace.overhead_ratio"]


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        covered = 0.0
        reach = starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


class Tracer:
    """Records spans while installed; ``restore`` puts every binding back."""

    def __init__(self):
        self.names: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.queries: List[str] = []
        self.counts: List[Optional[Dict[str, float]]] = []
        self.query = ""
        self._stack: List[int] = []
        self._rebound: List[Tuple[object, str, object]] = []

    def _wrap(self, index: int, fn: Callable, measure: Optional[Callable]) -> Callable:
        is_emit = SPAN_NAMES[index] == "cli.emit"

        def wrapper(*args, **kwargs):
            span = len(self.starts)
            self.names.append(index)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.queries.append(self.query)
            self.counts.append(None)
            self.ends.append(0.0)
            self._stack.append(span)
            pos = sys.stdout.tell() if is_emit else 0
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[span] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                self.counts[span] = measure(args, kwargs, result)
            elif is_emit:
                self.counts[span] = {"bytes_out": sys.stdout.tell() - pos}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        owners = [importlib.import_module(f"parahoric.{mod}") for mod, _ in WRAPPED]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "parahoric" or name.startswith("parahoric."))]
        for index, ((_, fn), measure) in enumerate(WRAPPED.items()):
            original = getattr(owners[index], fn)
            wrapper = self._wrap(index, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> Dict[str, float]:
        """calls, self_s and the quantities of every wrapped function."""
        own = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        sums: Dict[str, float] = defaultdict(float)
        reduce_index = SPAN_NAMES.index("alcove.reduce_to_alcove")
        apartment_index = SPAN_NAMES.index("alcove.apartment_orbit_types")
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += own[i]
            for q, v in (self.counts[i] or {}).items():
                sums[f"{SPAN_NAMES[name]}.{q}"] += v
            p = self.parents[i]
            if name == reduce_index and p >= 0 and self.names[p] == apartment_index:
                sums["alcove.apartment_orbit_types.candidates"] += 1
        out: Dict[str, float] = {}
        for index, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[index]
            out[f"{span}.self_s"] = self_s[index]
            for q in QUANTITIES.get(span, ()):
                out[f"{span}.{q}"] = sums[f"{span}.{q}"]
        out["alcove.apartment_orbit_types.distinct_ratio"] = _ratio(
            out["alcove.apartment_orbit_types.distinct"],
            out["alcove.apartment_orbit_types.candidates"])
        out["slmodel.reversal_fixed_permutations.kept_ratio"] = _ratio(
            out["slmodel.reversal_fixed_permutations.kept"],
            out["slmodel.reversal_fixed_permutations.scanned"])
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent, query."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": SPAN_NAMES[name], "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "query": self.queries[i]}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
