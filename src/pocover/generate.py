"""Deterministic, seeded instance generators.

Randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixing
generator), implemented here in plain integer arithmetic so identical seeds
produce identical instances on every platform and Python version.  Generation
never consults ambient entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
    _check_ints,
    _check_positive,
)

_MASK64 = (1 << 64) - 1
_RETRIES = 100


class GenerationError(ValueError):
    """The requested shape could not be satisfied within the retry budget."""


class SplitMix64:
    """SplitMix64: x += 0x9E3779B97F4A7C15; two xor-shift multiplies."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise InputError("randrange bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if lo > hi:
            raise InputError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def sample(self, population: int, count: int) -> list[int]:
        """Distinct values from range(population), in draw order."""
        if count > population:
            raise InputError("sample larger than population")
        pool = list(range(population))
        out = []
        for _ in range(count):
            i = self.randrange(len(pool))
            out.append(pool.pop(i))
        return out


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


# Each known shape field: the type its value must have, and the test for it.
_SHAPE_FIELDS = {
    **dict.fromkeys(
        ("size_range", "profit_range", "arity_range", "weight_range"),
        ("a pair of ints, the first at most the second",
         lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and _ints(*v) and v[0] <= v[1]),
    ),
    "max_children": ("an int or null", lambda v: v is None or _ints(v)),
    "num_edges": ("an int", _ints),
    "cluster_count": ("an int", _ints),
    "edge_density": ("a finite number", lambda v: _ints(v) or type(v) is float and math.isfinite(v)),
    "items": ("a list of ints", lambda v: isinstance(v, list) and _ints(*v)),
}


@dataclass(frozen=True)
class GenSpec:
    """A fully reproducible description of one random instance."""

    kind: str
    n: int
    k: int
    seed: int
    shape: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GEN_KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}")
        _check_positive(self.n, "n")
        _check_positive(self.k, "k")
        _check_ints((self.seed,), "seed")
        if not isinstance(self.shape, dict):
            raise InputError(f"shape must be an object, not {type(self.shape).__name__}")
        for name, value in self.shape.items():
            what, ok = _SHAPE_FIELDS.get(name, ("", lambda v: True))
            if not ok(value):
                raise InputError(f"shape field {name!r} must be {what}")


def _gen_out_tree(spec: GenSpec, rng: SplitMix64) -> CtInstance:
    """Random out-tree whose root paths all weigh strictly less than k.

    Vertex i attaches to a uniform earlier vertex; sizes are drawn from
    size_range but clamped to the remaining path budget so preprocessing
    never finds a forced or infeasible path."""
    lo, hi = spec.shape.get("size_range", (0, spec.k))
    max_children = spec.shape.get("max_children")
    if spec.n > 1 and max_children is not None and max_children < 1:
        raise GenerationError(
            f"shape field 'max_children' must be at least 1 when n > 1, not {max_children}"
        )
    if lo > min(hi, spec.k - 1):
        raise GenerationError(
            f"shape field 'size_range' ({lo}, {hi}) leaves no root size below capacity {spec.k}"
        )
    for _ in range(_RETRIES):
        parent: list[int | None] = [None]
        child_count = [0] * spec.n
        # The earlier vertices with room for a child, in ascending order.
        eligible = [0]
        for v in range(1, spec.n):
            i = rng.randrange(len(eligible))
            p = eligible[i]
            parent.append(p)
            child_count[p] += 1
            if child_count[p] == max_children:
                del eligible[i]
            eligible.append(v)
        depth_budget = [0] * spec.n
        size = [0] * spec.n
        ok = True
        for v in range(spec.n):
            above = 0 if parent[v] is None else depth_budget[parent[v]]
            top = min(hi, spec.k - 1 - above)
            if lo > top:
                ok = False
                break
            size[v] = rng.randint(lo, top)
            depth_budget[v] = size[v] + above
        if ok:
            return CtInstance(SizedOutTree(parent, size), spec.k)
    raise GenerationError(
        f"could not satisfy size_range ({lo}, {hi}) under capacity {spec.k}"
    )


def _gen_bp_star(spec: GenSpec, rng: SplitMix64) -> CtInstance:
    """Star embedding of a bin packing instance: zero-size root, one leaf per
    item."""
    items = spec.shape.get("items")
    if items is None:
        lo, hi = spec.shape.get("size_range", (0, spec.k))
        top = min(hi, spec.k)
        if lo > top:
            raise GenerationError("size_range exceeds the capacity")
        items = [rng.randint(lo, top) for _ in range(spec.n)]
    if any(w > spec.k for w in items):
        raise GenerationError("item larger than the capacity")
    parent = [None] + [0] * len(items)
    size = [0] + items
    return CtInstance(SizedOutTree(parent, size), spec.k)


def _gen_rcp(spec: GenSpec, rng: SplitMix64, acyclic: bool) -> RcpInstance:
    density = float(spec.shape.get("edge_density", 0.3))
    if not 0 <= density <= 1:
        raise GenerationError(f"shape field 'edge_density' must be in [0, 1], not {density}")
    plo, phi = spec.shape.get("profit_range", (0, 10))
    threshold = int(density * (_MASK64 + 1))
    edges = []
    for u in range(spec.n):
        for v in range(u + 1 if acyclic else 0, spec.n):
            if u == v:
                continue
            if rng.next_u64() < threshold:
                edges.append((u, v))
    profit = [rng.randint(plo, phi) for _ in range(spec.n)]
    return RcpInstance(Digraph(spec.n, edges), profit, spec.k)


def _gen_hypergraph(spec: GenSpec, rng: SplitMix64) -> DkshInstance:
    num_edges = spec.shape.get("num_edges", max(1, spec.n // 2))
    if num_edges < 0:
        raise GenerationError(f"shape field 'num_edges' must be at least 0, not {num_edges}")
    alo, ahi = spec.shape.get("arity_range", (1, min(3, spec.n)))
    wlo, whi = spec.shape.get("weight_range", (0, 5))
    if alo < 1 or ahi > spec.n:
        raise GenerationError(f"arity_range ({alo}, {ahi}) is unsatisfiable")
    hyperedges = []
    weight = []
    for _ in range(num_edges):
        arity = rng.randint(alo, ahi)
        hyperedges.append(sorted(rng.sample(spec.n, arity)))
        weight.append(rng.randint(wlo, whi))
    return DkshInstance(spec.n, hyperedges, weight, spec.k)


def _gen_bpcc(spec: GenSpec, rng: SplitMix64) -> BpccInstance:
    cluster_count = spec.shape.get("cluster_count", min(spec.n, 3))
    if not 1 <= cluster_count <= spec.n:
        raise GenerationError("cluster_count must be in [1, n]")
    wlo, whi = spec.shape.get("weight_range", (0, spec.k))
    if wlo > min(whi, spec.k):
        raise GenerationError("weight_range exceeds the capacity")
    groups: list[list[int]] = [[] for _ in range(cluster_count)]
    for v in range(spec.n):
        # Seed every cluster once, then assign uniformly.
        target = v if v < cluster_count else rng.randrange(cluster_count)
        groups[target].append(v)
    weight = [rng.randint(wlo, min(whi, spec.k)) for _ in range(spec.n)]
    return BpccInstance(groups, weight, spec.k)


# kind -> generator ``(spec, rng) -> instance``.
GENERATORS = {
    "out_tree": _gen_out_tree,
    "bp_star": _gen_bp_star,
    "dag": lambda spec, rng: _gen_rcp(spec, rng, acyclic=True),
    "digraph": lambda spec, rng: _gen_rcp(spec, rng, acyclic=False),
    "hypergraph": _gen_hypergraph,
    "bpcc": _gen_bpcc,
}
GEN_KINDS = tuple(GENERATORS)


def generate(spec: GenSpec):
    """Build the instance described by ``spec`` (same spec, same bytes)."""
    return GENERATORS[spec.kind](spec, SplitMix64(spec.seed))
