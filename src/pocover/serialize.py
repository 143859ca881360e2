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
    RcpInstance,
    SizedOutTree,
)

FORMAT_VERSION = 1

Instance = Union[CtInstance, RcpInstance, DkshInstance, BpccInstance]


def instance_to_doc(instance: Instance) -> dict[str, Any]:
    if isinstance(instance, CtInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "ct",
            "n": instance.tree.vertex_count,
            "parent": list(instance.tree.parent),
            "size": list(instance.tree.size),
            "k": instance.capacity,
        }
    if isinstance(instance, RcpInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "rcp",
            "n": instance.graph.vertex_count,
            "edges": [list(e) for e in instance.graph.edges],
            "profit": list(instance.profit),
            "k": instance.budget,
        }
    if isinstance(instance, DkshInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "dksh",
            "n": instance.vertex_count,
            "hyperedges": [sorted(e) for e in instance.hyperedges],
            "weight": list(instance.weight),
            "k": instance.budget,
        }
    if isinstance(instance, BpccInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "bpcc",
            "clusters": [list(g) for g in instance.clusters],
            "weight": list(instance.weight),
            "k": instance.capacity,
        }
    raise InputError(f"cannot serialize {type(instance).__name__}")


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
            graph = Digraph(doc["n"], [tuple(e) for e in doc["edges"]])
            return RcpInstance(graph, doc["profit"], doc["k"])
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
    return json.dumps(instance_to_doc(instance), sort_keys=True, indent=1) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
