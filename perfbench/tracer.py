"""Span tracing of pocover's layers, applied from outside the program.

The tracer wraps the public functions listed in ``SPANNED`` and replaces every
module-level binding of each one inside the ``pocover`` package, so a call is
traced whether its caller looks the name up in the defining module
(``treecover.cover`` calling ``anchor_step``, ``dks_via_urcp`` importing
``exact_rcp`` at call time) or bound it at import time (``verify`` and
``reductions`` doing ``from .model import is_closed``).  The originals are put
back when the ``patched`` block ends.

Spans stay in memory until the run ends.  ``layer_metrics`` turns the spans of
one pass into the per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

SPANNED = {
    "generate": ("generate",),
    "serialize": (
        "dumps_instance",
        "loads_instance",
        "fingerprint",
        "cover_to_doc",
        "trace_to_doc",
    ),
    "model": ("validate_cover", "is_closed", "closure", "contained_hyperedges"),
    "treecover": ("preprocess", "anchor_step", "next_fit", "cover", "bounds"),
    "exact": (
        "enumerate_configurations",
        "exact_ct",
        "exact_rcp",
        "exact_dksh",
        "exact_bpcc",
    ),
    "reductions": (
        "bpcc_to_ct",
        "dksh_to_rcp",
        "rcp_to_dksh",
        "degree_augment",
        "dks_to_urcp",
        "dks_via_urcp",
    ),
    "verify": (
        "structural_checks",
        "verify_ct",
        "roundtrip_bpcc_to_ct",
        "roundtrip_dksh_to_rcp",
        "roundtrip_rcp_to_dksh",
        "roundtrip_degree_augment",
        "roundtrip_dks_pipeline",
    ),
}

REDUCTIONS = ("dksh_to_rcp", "dks_to_urcp", "rcp_to_dksh", "degree_augment", "bpcc_to_ct")
ROUNDTRIPS = ("bpcc_to_ct", "dksh_to_rcp", "rcp_to_dksh", "degree_augment", "dks_pipeline")
# Spans that call exact_rcp directly; its cost is reported per caller.
RCP_CALLERS = (
    "verify.roundtrip_dksh_to_rcp",
    "reductions.dks_via_urcp",
    "verify.roundtrip_rcp_to_dksh",
    "verify.roundtrip_degree_augment",
)


def _rcp_caller_metrics() -> list[tuple[str, str]]:
    out = []
    for caller in RCP_CALLERS:
        tag = caller.split(".")[1]
        out += [
            (f"exact.exact_rcp.in_{tag}.calls", "count"),
            (f"exact.exact_rcp.in_{tag}.busy_s", "s"),
            (f"exact.exact_rcp.in_{tag}.max_s", "s"),
        ]
    return out


# Every per-layer metric, in report order, with its unit.  A layer the
# workload does not call reports 0.
LAYER_METRICS: list[tuple[str, str]] = [
    ("treecover.cover.calls", "count"),
    ("treecover.cover.busy_s", "s"),
    ("treecover.cover.self_s", "s"),
    ("treecover.anchor_step.calls", "count"),
    ("treecover.anchor_step.busy_s", "s"),
    ("treecover.next_fit.calls", "count"),
    ("treecover.next_fit.busy_s", "s"),
    ("treecover.preprocess.busy_s", "s"),
    ("treecover.bounds.busy_s", "s"),
    ("treecover.rounds", "count"),
    ("treecover.anchors", "count"),
    ("treecover.sets", "count"),
    ("treecover.output_vertices", "count"),
    ("treecover.cover.ns_per_unit", "ns"),
    ("treecover.deferred_frac", "ratio"),
    ("verify.structural_checks.busy_s", "s"),
    ("verify.verify_ct.busy_s", "s"),
    *[(f"verify.roundtrip_{kind}.busy_s", "s") for kind in ROUNDTRIPS],
    ("verify.checks_failed", "count"),
    ("exact.exact_rcp.calls", "count"),
    ("exact.exact_rcp.busy_s", "s"),
    ("exact.exact_rcp.max_s", "s"),
    *_rcp_caller_metrics(),
    ("exact.exact_ct.calls", "count"),
    ("exact.exact_ct.busy_s", "s"),
    ("exact.exact_ct.max_s", "s"),
    ("exact.enumerate_configurations.busy_s", "s"),
    ("exact.exact_dksh.busy_s", "s"),
    ("exact.exact_bpcc.busy_s", "s"),
    ("exact.size_guard_errors", "count"),
    *[(f"reductions.{kind}.busy_s", "s") for kind in REDUCTIONS],
    ("reductions.dks_via_urcp.self_s", "s"),
    ("reductions.target_vertices", "count"),
    ("reductions.target_edges", "count"),
    ("model.validate_cover.busy_s", "s"),
    ("model.is_closed.calls", "count"),
    ("model.is_closed.busy_s", "s"),
    ("model.closure.calls", "count"),
    ("model.contained_hyperedges.busy_s", "s"),
    ("serialize.loads_instance.busy_s", "s"),
    ("serialize.fingerprint.busy_s", "s"),
    ("serialize.cover_to_doc.busy_s", "s"),
    ("serialize.trace_to_doc.busy_s", "s"),
    ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("generate.generate.calls", "count"),
    ("generate.generate.busy_s", "s"),
    ("serialize.dumps_instance.busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a span no traced call encloses
    name: str
    op: int  # index of the benchmark op (or set-up item) that caused it
    start_ns: int
    end_ns: int
    error: Optional[str]  # exception class name when the call raised


class Tracer:
    """Records one span per traced call plus boundary counts.

    ``op`` is set by the harness before each op; spans carry it.  Span ids
    stay unique across ``reset``, so spans of several passes can be merged.
    """

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._first_id = 0

    def reset(self) -> None:
        self._first_id += len(self.spans)
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            sid = self._first_id + index
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = Span(sid, parent, name, self.op, start, end, error)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = [s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns, s.error]
                fh.write(json.dumps(row) + "\n")


def _count_cover(counts: Counter, args, result) -> None:
    instance = args[0]
    trace = result.trace
    counts["treecover.rounds"] += max((rec.iteration for rec in trace.anchors), default=0)
    counts["treecover.anchors"] += len(trace.anchors)
    counts["treecover.sets"] += len(result.cover)
    out_vertices = sum(len(s) for s in result.cover)
    counts["treecover.output_vertices"] += out_vertices
    counts["cover_units"] += instance.tree.vertex_count + out_vertices
    counts["anchored_mass"] += sum(rec.anchored_size for rec in trace.anchors)
    counts["leftover_mass"] += sum(rec.leftover_size for rec in trace.anchors)


def _count_target(counts: Counter, args, artifact) -> None:
    target = artifact.target
    if hasattr(target, "tree"):
        vertices, edges = target.tree.vertex_count, target.tree.vertex_count - 1
    elif hasattr(target, "graph"):
        vertices, edges = target.graph.vertex_count, len(target.graph.edges)
    else:
        vertices, edges = target.vertex_count, len(target.hyperedges)
    counts["reductions.target_vertices"] += vertices
    counts["reductions.target_edges"] += edges


def _count_bytes_in(counts: Counter, args, result) -> None:
    counts["serialize.bytes_in"] += len(args[0].encode())


COUNTERS = {
    "treecover.cover": _count_cover,
    "serialize.loads_instance": _count_bytes_in,
    **{f"reductions.{kind}": _count_target for kind in REDUCTIONS},
}


@contextmanager
def patched(tracer: Tracer):
    """Trace every function in SPANNED for the duration of the block."""
    package = {
        name: mod
        for name, mod in list(sys.modules.items())
        if (name == "pocover" or name.startswith("pocover.")) and mod is not None
    }
    replaced = []
    for module, functions in SPANNED.items():
        home = package[f"pocover.{module}"]
        for function in functions:
            original = getattr(home, function)
            name = f"{module}.{function}"
            wrapper = tracer.wrap(name, original, COUNTERS.get(name))
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def layer_metrics(spans: list[Span], counts: Counter, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up spans included).

    ``busy_s`` sums a function's span durations, ``self_s`` subtracts the
    time its traced callees cover, ``max_s`` is its longest single call.
    ``extra`` supplies what the harness measures itself (failed checks,
    bytes written, tracing overhead).
    """
    calls: Counter = Counter()
    busy: Counter = Counter()
    child: Counter = Counter()
    longest: defaultdict = defaultdict(int)
    by_id = {s.id: s for s in spans}
    per_caller: dict[str, list[int]] = defaultdict(list)
    guard_errors = 0
    for s in spans:
        d = s.end_ns - s.start_ns
        calls[s.name] += 1
        busy[s.name] += d
        longest[s.name] = max(longest[s.name], d)
        if s.parent >= 0:
            child[s.parent] += d
        if s.name == "exact.exact_rcp" and s.parent >= 0:
            per_caller[by_id[s.parent].name].append(d)
        if s.name.startswith("exact.") and s.error == "SizeGuardError":
            guard_errors += 1
    self_ns: Counter = Counter()
    for s in spans:
        self_ns[s.name] += (s.end_ns - s.start_ns) - child[s.id]

    out: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[base]
        elif stat == "busy_s":
            out[name] = busy[base] / 1e9
        elif stat == "self_s":
            out[name] = self_ns[base] / 1e9
        elif stat == "max_s":
            out[name] = longest[base] / 1e9
    for caller in RCP_CALLERS:
        tag = caller.split(".")[1]
        times = per_caller.get(caller, [])
        out[f"exact.exact_rcp.in_{tag}.calls"] = len(times)
        out[f"exact.exact_rcp.in_{tag}.busy_s"] = sum(times) / 1e9
        out[f"exact.exact_rcp.in_{tag}.max_s"] = max(times, default=0) / 1e9
    for key in (
        "treecover.rounds",
        "treecover.anchors",
        "treecover.sets",
        "treecover.output_vertices",
        "reductions.target_vertices",
        "reductions.target_edges",
        "serialize.bytes_in",
    ):
        out[key] = counts[key]
    units = counts["cover_units"]
    out["treecover.cover.ns_per_unit"] = busy["treecover.cover"] / units if units else 0.0
    mass = counts["anchored_mass"] + counts["leftover_mass"]
    out["treecover.deferred_frac"] = counts["leftover_mass"] / mass if mass else 0.0
    out["exact.size_guard_errors"] = guard_errors
    out["trace.spans"] = len(spans)
    out.update(extra)
    return {name: out[name] for name, _ in LAYER_METRICS}
