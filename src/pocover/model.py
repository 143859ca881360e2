"""Core domain types: sized out-trees, capacity instances, directed graphs,
profit/budget instances, weighted hypergraphs, and clustered packing instances,
plus the shared queries and validators every solver builds on.

Vertices are dense integers ``0..n-1`` throughout.  All quantities (sizes,
profits, weights, capacities) are nonnegative integers; nothing in this package
uses floating point.  The constructors check this: every vertex id, count and
quantity must be a plain ``int`` (a ``bool`` or ``float`` raises
``InputError``).  Every type is immutable after construction and may be shared
freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Sequence


Configuration = frozenset[int]
Cover = list[Configuration]


class InputError(ValueError):
    """Raised when an instance or argument violates a documented invariant."""


def _check_ints(values: Iterable, what: str) -> None:
    """Every value must be a plain ``int``: bools and floats are rejected."""
    other = set(map(type, values)) - {int}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise InputError(f"{what}: expected int, got {names}")


def _check_range(n: int, vertices: Iterable[int], what: str) -> None:
    for v in vertices:
        if not (0 <= v < n):
            raise InputError(f"{what}: vertex {v} out of range [0, {n})")


@dataclass(frozen=True)
class SizedOutTree:
    """Rooted out-tree with integer vertex sizes.

    ``parent[v]`` is None exactly for the root; every vertex reaches the root
    by following parent links.  ``order`` lists every vertex once, each
    parent before its children.
    """

    parent: tuple[Optional[int], ...]
    size: tuple[int, ...]
    root: int = field(init=False, compare=False, repr=False)
    children: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, parent: Sequence[Optional[int]], size: Sequence[int]):
        parent = tuple(parent)
        size = tuple(size)
        n = len(parent)
        if n < 1:
            raise InputError("tree must have at least one vertex")
        if len(size) != n:
            raise InputError("parent and size arrays must have equal length")
        roots = [v for v in range(n) if parent[v] is None]
        if len(roots) != 1:
            raise InputError(f"expected exactly one root, found {len(roots)}")
        ids = [p for p in parent if p is not None]
        _check_ints(ids, "parent ids")
        _check_range(n, ids, "parent")
        _check_ints(size, "vertex sizes")
        if any(s < 0 for s in size):
            raise InputError("vertex sizes must be nonnegative")
        kids: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if p is not None:
                kids[p].append(v)
        # BFS from the root; anything unreached sits on a parent cycle.
        order = [roots[0]]
        for u in order:
            order.extend(kids[u])
        if len(order) != n:
            raise InputError("parent links contain a cycle or disconnected vertex")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "root", roots[0])
        object.__setattr__(self, "children", tuple(tuple(c) for c in kids))
        object.__setattr__(self, "order", tuple(order))

    @property
    def vertex_count(self) -> int:
        return len(self.parent)

    def ancestors(self, v: int) -> frozenset[int]:
        """All ancestors of ``v`` including ``v`` itself."""
        _check_range(self.vertex_count, [v], "ancestors")
        out = []
        u: Optional[int] = v
        while u is not None:
            out.append(u)
            u = self.parent[u]
        return frozenset(out)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.vertex_count) if not self.children[v])


@dataclass(frozen=True)
class CtInstance:
    """A sized out-tree together with the configuration capacity."""

    tree: SizedOutTree
    capacity: int

    def __post_init__(self) -> None:
        _check_ints((self.capacity,), "capacity")
        if self.capacity < 1:
            raise InputError("capacity must be at least 1")
        for v in range(self.tree.vertex_count):
            if self.tree.size[v] > self.capacity:
                raise InputError(
                    f"vertex {v} has size {self.tree.size[v]} > capacity {self.capacity}"
                )


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph on dense vertex ids; duplicate edges are merged."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    successors: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    predecessors: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        _check_ints((vertex_count,), "vertex count")
        if vertex_count < 1:
            raise InputError("graph must have at least one vertex")
        pairs = [tuple(e) for e in edges]
        for e in pairs:
            if len(e) != 2:
                raise InputError(f"edge {list(e)} is not a pair")
        _check_ints(chain.from_iterable(pairs), "edge endpoints")
        dedup = sorted(set(pairs))
        for u, v in dedup:
            if u == v:
                raise InputError(f"self-loop ({u},{v}) is not allowed")
        _check_range(vertex_count, (x for e in dedup for x in e), "edges")
        succ: list[list[int]] = [[] for _ in range(vertex_count)]
        pred: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in dedup:
            succ[u].append(v)
            pred[v].append(u)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(dedup))
        object.__setattr__(self, "successors", tuple(tuple(s) for s in succ))
        object.__setattr__(self, "predecessors", tuple(tuple(p) for p in pred))


@dataclass(frozen=True)
class RcpInstance:
    """Directed graph with vertex profits and a cardinality budget.

    A feasible solution is a predecessor-closed vertex set of cardinality at
    most ``budget``; the objective maximizes total profit.
    """

    graph: Digraph
    profit: tuple[int, ...]
    budget: int

    def __init__(self, graph: Digraph, profit: Sequence[int], budget: int):
        profit = tuple(profit)
        if len(profit) != graph.vertex_count:
            raise InputError("profit array length must match vertex count")
        _check_ints(profit, "profits")
        if any(p < 0 for p in profit):
            raise InputError("profits must be nonnegative")
        _check_ints((budget,), "budget")
        if budget < 1:
            raise InputError("budget must be at least 1")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "profit", profit)
        object.__setattr__(self, "budget", budget)


@dataclass(frozen=True)
class DkshInstance:
    """Weighted hypergraph with a vertex budget.

    A solution is a set of at most ``budget`` vertices; its value is the total
    weight of hyperedges fully contained in the set.  Parallel hyperedges are
    kept as distinct entries with their own weights.
    """

    vertex_count: int
    hyperedges: tuple[frozenset[int], ...]
    weight: tuple[int, ...]
    budget: int

    def __init__(
        self,
        vertex_count: int,
        hyperedges: Iterable[Iterable[int]],
        weight: Sequence[int],
        budget: int,
    ):
        _check_ints((vertex_count,), "vertex count")
        if vertex_count < 1:
            raise InputError("hypergraph must have at least one vertex")
        members = [tuple(e) for e in hyperedges]
        _check_ints(chain.from_iterable(members), "hyperedge members")
        edges = tuple(frozenset(e) for e in members)
        weight = tuple(weight)
        if len(weight) != len(edges):
            raise InputError("weight array length must match hyperedge count")
        for e in edges:
            if not e:
                raise InputError("hyperedges must be nonempty")
            _check_range(vertex_count, e, "hyperedge")
        _check_ints(weight, "weights")
        if any(w < 0 for w in weight):
            raise InputError("weights must be nonnegative")
        _check_ints((budget,), "budget")
        if budget < 1:
            raise InputError("budget must be at least 1")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "hyperedges", edges)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "budget", budget)


@dataclass(frozen=True)
class BpccInstance:
    """Bin packing whose conflict graph is the complement of disjoint clusters.

    Items are partitioned into clusters; a configuration is a subset of a
    single cluster with total weight at most ``capacity``.  Items heavier than
    the capacity are rejected on construction since no solution could exist.
    """

    clusters: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]
    capacity: int

    def __init__(
        self,
        clusters: Iterable[Iterable[int]],
        weight: Sequence[int],
        capacity: int,
    ):
        members = [tuple(c) for c in clusters]
        _check_ints(chain.from_iterable(members), "cluster members")
        groups = tuple(tuple(sorted(c)) for c in members)
        weight = tuple(weight)
        n = len(weight)
        _check_ints(weight, "item weights")
        _check_ints((capacity,), "capacity")
        if capacity < 1:
            raise InputError("capacity must be at least 1")
        if any(not g for g in groups):
            raise InputError("clusters must be nonempty")
        flat = [v for g in groups for v in g]
        if sorted(flat) != list(range(n)):
            raise InputError("clusters must partition the item ids 0..n-1")
        if any(w < 0 for w in weight):
            raise InputError("item weights must be nonnegative")
        for v in range(n):
            if weight[v] > capacity:
                raise InputError(f"item {v} has weight {weight[v]} > capacity {capacity}")
        object.__setattr__(self, "clusters", groups)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "capacity", capacity)

    @property
    def item_count(self) -> int:
        return len(self.weight)


def path_weight(tree: SizedOutTree, v: int) -> int:
    """Total size along the root-to-``v`` path, inclusive of ``v``."""
    return sum(tree.size[u] for u in tree.ancestors(v))


def closure(graph: Digraph, seed: Iterable[int]) -> frozenset[int]:
    """Smallest superset of ``seed`` with no incoming edges from outside.

    Equivalently the union of predecessor sets of the seed vertices: every
    vertex with a directed path into the result is pulled in.
    """
    seed = list(seed)
    _check_range(graph.vertex_count, seed, "closure seed")
    out = set(seed)
    stack = list(out)
    while stack:
        v = stack.pop()
        for u in graph.predecessors[v]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return frozenset(out)


def is_closed(graph: Digraph, members: Iterable[int]) -> bool:
    members = frozenset(members)
    return closure(graph, members) == members


def validate_configuration(instance: CtInstance, members: Iterable[int]) -> Optional[str]:
    """Return None if ``members`` is a valid configuration, else a message
    naming the first ancestor-closure violation or the size excess."""
    tree = instance.tree
    members = frozenset(members)
    _check_range(tree.vertex_count, members, "configuration")
    for v in sorted(members):
        p = tree.parent[v]
        if p is not None and p not in members:
            return f"vertex {v} is included without its parent {p}"
    total = sum(tree.size[v] for v in members)
    if total > instance.capacity:
        return f"total size {total} exceeds capacity {instance.capacity}"
    return None


def validate_cover(instance: CtInstance, cover: Sequence[Iterable[int]]) -> Optional[str]:
    """Return None if every set is a valid configuration and the union is V."""
    covered: set[int] = set()
    for i, members in enumerate(cover):
        problem = validate_configuration(instance, members)
        if problem is not None:
            return f"set {i}: {problem}"
        covered.update(members)
    missing = [v for v in range(instance.tree.vertex_count) if v not in covered]
    if missing:
        return f"vertex {missing[0]} is not covered"
    return None


def contained_hyperedges(
    instance: DkshInstance, members: Iterable[int]
) -> tuple[frozenset[int], int]:
    """Hyperedge indices fully contained in ``members`` and their weight sum."""
    members = frozenset(members)
    _check_range(instance.vertex_count, members, "vertex set")
    inside = frozenset(
        i for i, e in enumerate(instance.hyperedges) if e <= members
    )
    return inside, sum(instance.weight[i] for i in inside)
