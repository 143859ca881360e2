"""Instance file format (JSON documents, format_version 1) and DOT emission.

One self-describing document per instance: a top-level object with
``format_version``, ``kind`` and kind-specific fields.  Serialization is
canonical (sorted keys), so equal instances produce identical bytes and the
parse/serialize round trip is the identity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Union

from .model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    KIND,
    RcpInstance,
    SizedOutTree,
    _values,
)

FORMAT_VERSION = 1

Instance = Union[CtInstance, RcpInstance, DkshInstance, BpccInstance]


def instance_to_doc(instance: Instance) -> dict[str, Any]:
    kind = KIND.get(type(instance))
    if kind == "ct":
        tree = instance.tree
        fields = {"n": tree.vertex_count, "parent": list(tree.parent), "size": list(tree.size),
                  "k": instance.capacity}
    elif kind == "rcp":
        graph = instance.graph
        fields = {"n": graph.vertex_count, "edges": [list(e) for e in graph.edges],
                  "profit": list(instance.profit), "k": instance.budget}
    elif kind == "dksh":
        fields = {"n": instance.vertex_count, "hyperedges": [sorted(e) for e in instance.hyperedges],
                  "weight": list(instance.weight), "k": instance.budget}
    elif kind == "bpcc":
        fields = {"clusters": [list(g) for g in instance.clusters],
                  "weight": list(instance.weight), "k": instance.capacity}
    else:
        raise InputError(f"cannot serialize {type(instance).__name__}")
    return {"format_version": FORMAT_VERSION, "kind": kind, **fields}


def doc_to_instance(doc: dict[str, Any]) -> Instance:
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    try:
        if kind == "ct":
            tree = SizedOutTree(doc["parent"], doc["size"])
            if type(doc["n"]) is not int or tree.vertex_count != doc["n"]:
                raise InputError("declared vertex count does not match arrays")
            return CtInstance(tree, doc["k"])
        if kind == "rcp":
            n, edges, profit = doc["n"], doc["edges"], _values(doc["profit"], "profit")
            # before the graph allocates n adjacency lists
            if type(n) is int and n > 0 and len(profit) != n:
                raise InputError("profit array length must match vertex count")
            graph = Digraph(n, edges)
            return RcpInstance(graph, profit, doc["k"])
        if kind == "dksh":
            return DkshInstance(doc["n"], doc["hyperedges"], doc["weight"], doc["k"])
        if kind == "bpcc":
            return BpccInstance(doc["clusters"], doc["weight"], doc["k"])
    except KeyError as exc:
        raise InputError(f"{kind} document is missing field {exc}") from exc
    except TypeError as exc:
        # a scalar where a list belongs, or a list where a scalar belongs
        raise InputError(f"{kind} document has a field of the wrong shape: {exc}") from exc
    raise InputError(f"unknown instance kind {kind!r}")


def dumps_instance(instance: Instance) -> str:
    """The instance file: json's bytes for ``instance_to_doc`` with sorted
    keys, a one-space indent and a trailing newline, written without the
    pure-Python encoder that json falls back to whenever it indents.  It
    relies on what ``instance_to_doc`` emits: ints (the model constructors
    reject bools and floats), lists of ints or of nonempty int lists, one
    null in the ct ``parent`` list, and one string, ``kind``."""
    fields = []
    for key, value in sorted(instance_to_doc(instance).items()):
        if type(value) is not list:
            text = str(value) if type(value) is int else json.dumps(value)
        elif not value:
            text = "[]"
        else:
            if key == "parent":  # the root's null: json's C encoder, re-spaced
                body = json.dumps(value)[1:-1].replace(", ", ",\n  ")
            elif type(value[0]) is list:
                body = ",\n  ".join(["[\n   " + ",\n   ".join(map(str, v)) + "\n  ]" for v in value])
            else:
                body = ",\n  ".join(map(str, value))
            text = "[\n  " + body + "\n ]"
        fields.append(f'"{key}": {text}')
    return "{\n " + ",\n ".join(fields) + "\n}\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack allows
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(
            f"instance document must be a JSON object, not {type(doc).__name__}"
        )
    return doc_to_instance(doc)


def fingerprint(instance: Instance) -> str:
    """Short stable identifier: SHA-256 of the canonical compact document."""
    blob = json.dumps(
        instance_to_doc(instance), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def cover_to_doc(cover) -> list[list[int]]:
    return [sorted(s) for s in cover]


def trace_to_doc(trace) -> dict[str, Any]:
    return {
        "anchors": [
            {
                "anchor": rec.anchor,
                "iteration": rec.iteration,
                "h": rec.h,
                "anchored_size": rec.anchored_size,
                "leftover_size": rec.leftover_size,
                "anchored_vertices": sorted(rec.anchored_vertices),
                "emitted_sets": list(rec.emitted_sets),
            }
            for rec in trace.anchors
        ],
        "top_anchors": sorted(trace.top_anchors),
        "alpha": trace.alpha,
        "forced_prefix": [sorted(s) for s in trace.forced_prefix],
        "final_residual": (
            sorted(trace.final_residual) if trace.final_residual is not None else None
        ),
        "zero_leaf_attachments": {
            str(leaf): idx for leaf, idx in sorted(trace.zero_leaf_attachments.items())
        },
    }


def emit_dot(instance: Instance) -> str:
    """Render the instance's graph in DOT for offline inspection."""
    lines = ["digraph instance {"]
    if isinstance(instance, CtInstance):
        tree = instance.tree
        for v in range(tree.vertex_count):
            lines.append(f'  v{v} [label="{v} ({tree.size[v]})"];')
        for v, p in enumerate(tree.parent):
            if p is not None:
                lines.append(f"  v{p} -> v{v};")
    elif isinstance(instance, RcpInstance):
        for v in range(instance.graph.vertex_count):
            lines.append(f'  v{v} [label="{v} (p={instance.profit[v]})"];')
        for u, v in instance.graph.edges:
            lines.append(f"  v{u} -> v{v};")
    elif isinstance(instance, DkshInstance):
        for v in range(instance.vertex_count):
            lines.append(f'  v{v} [label="{v}"];')
        for i, e in enumerate(instance.hyperedges):
            lines.append(
                f'  e{i} [shape=box, label="e{i} (w={instance.weight[i]})"];'
            )
            for v in sorted(e):
                lines.append(f"  v{v} -> e{i};")
    elif isinstance(instance, BpccInstance):
        for i, group in enumerate(instance.clusters):
            lines.append(f'  c{i} [shape=box, label="cluster {i}"];')
            for v in group:
                lines.append(f'  v{v} [label="{v} (w={instance.weight[v]})"];')
                lines.append(f"  c{i} -> v{v};")
    else:
        raise InputError(f"cannot render {type(instance).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"
