"""Core domain types: sized out-trees, capacity instances, directed graphs,
profit/budget instances, weighted hypergraphs, and clustered packing instances,
plus the shared queries and validators every solver builds on.

Vertices are dense integers ``0..n-1`` throughout.  All quantities (sizes,
profits, weights, capacities) are nonnegative integers; nothing in this package
uses floating point.  Each input rule has one helper: ``_check_ints`` (plain
``int``s: a ``bool`` or ``float`` raises ``InputError``), ``_check_positive``,
``_check_quantities`` (none negative) and ``_check_fits`` (none above the
capacity).  Every function that takes vertex ids passes them through
``_check_range``: each must be a plain ``int`` in [0, n), and the first that is
not is named.  Every type is immutable after construction and may be shared
freely across workers.  The two derived caches, a ``Digraph``'s condensation
and a ``SizedOutTree``'s padded parent table, each depend only on their graph
or tree, are filled once on first use, and take no part in comparison or
hashing.

Whole-list checks run in C (``map``, ``set``, ``min``, ``max``, ``sorted``);
only a failed one scans the list, to name the first offender (for types, the
types found).  ``Digraph`` runs ``_check_range`` only after such a check
fails, and a row that is not a sequence is named too.
``validate_configuration`` gathers each member's parent from the padded table
and runs ``_check_range`` only when that gather fails, or when a member's
parent is missing from the set and some member is out of range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, starmap
from operator import eq, itemgetter
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


def _check_positive(value, what: str) -> None:
    """``value`` must be a plain ``int`` of at least 1."""
    _check_ints((value,), what)
    if value < 1:
        raise InputError(f"{what} must be at least 1")


def _values(values: Iterable, what: str) -> tuple:
    """The list as a tuple, or ``InputError`` naming it when it is not a
    sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} list {values!r} is not a sequence") from None


def _rows(rows: Iterable, what: str, shape: str = "a sequence") -> list[tuple]:
    """Each row as a tuple, in one pass in C.  Only when that fails is the
    list scanned, to raise ``InputError`` naming the first row that is not a
    sequence, or the list itself when it is not one."""
    rows = _values(rows, what)  # read twice when a row is not a sequence
    try:
        return list(map(tuple, rows))
    except TypeError:
        bad = [row for row in rows if not isinstance(row, Iterable)]
        if bad:
            raise InputError(f"{what} {bad[0]!r} is not {shape}") from None
        raise


def _check_quantities(values: tuple, what: str) -> None:
    """Every value must be a plain ``int`` of at least 0."""
    _check_ints(values, what)
    if min(values, default=0) < 0:
        raise InputError(f"{what} must be nonnegative")


def _check_fits(values: tuple, capacity: int, noun: str, quantity: str) -> None:
    """No value may exceed ``capacity``; the first that does is named."""
    if max(values, default=0) > capacity:
        v = next(v for v, x in enumerate(values) if x > capacity)
        raise InputError(f"{noun} {v} has {quantity} {values[v]} > capacity {capacity}")


def _check_range(n: int, vertices: Iterable[int], what: str) -> None:
    """Every id must be a plain ``int`` in [0, n); the first that is not is
    named.  One Python loop: most calls pass one id or a few."""
    for v in vertices:
        if type(v) is not int:
            raise InputError(f"{what}: expected int, got {type(v).__name__}")
        if not 0 <= v < n:
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
    # the parent table padded for one gather, kept by ``_parent_table``
    _padded_parent: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, parent: Sequence[Optional[int]], size: Sequence[int]):
        parent = tuple(parent)
        size = tuple(size)
        n = len(parent)
        if n < 1:
            raise InputError("tree must have at least one vertex")
        if len(size) != n:
            raise InputError("parent and size arrays must have equal length")
        roots = parent.count(None)
        if roots != 1:
            raise InputError(f"expected exactly one root, found {roots}")
        root = parent.index(None)
        # The ids with the root's None replaced by a valid id, checked in C;
        # _check_range runs only to name the first bad one.
        ids = list(parent)
        ids[root] = root
        if set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= n:
            _check_range(n, [p for p in parent if p is not None], "parent")
        _check_quantities(size, "vertex sizes")
        # The root lands in a spare last list, dropped after the loop.
        ids[root] = n
        kids: list[list[int]] = [[] for _ in range(n + 1)]
        for v, p in enumerate(ids):
            kids[p].append(v)
        kids.pop()
        # BFS from the root; anything unreached sits on a parent cycle.
        order = [root]
        for u in order:
            order.extend(kids[u])
        if len(order) != n:
            raise InputError("parent links contain a cycle or disconnected vertex")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "children", tuple(map(tuple, kids)))
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
        _check_positive(self.capacity, "capacity")
        _check_fits(self.tree.size, self.capacity, "vertex", "size")


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph on dense vertex ids; duplicate edges are merged."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    successors: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    predecessors: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    # the strongly connected components, kept by ``exact._scc`` on first use
    _condensation: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        _check_ints((vertex_count,), "vertex count")
        if vertex_count < 1:
            raise InputError("graph must have at least one vertex")
        pairs = _rows(edges, "edge", "a pair")
        if set(map(len, pairs)) - {2}:
            e = next(e for e in pairs if len(e) != 2)
            raise InputError(f"edge {list(e)} is not a pair")
        ends = list(chain.from_iterable(pairs))
        _check_ints(ends, "edge endpoints")
        # First occurrences keep the sorted runs the reductions emit, which
        # the sort then merges in near-linear time.
        dedup = tuple(sorted(dict.fromkeys(pairs)))
        if any(starmap(eq, dedup)):
            u, v = next(e for e in dedup if e[0] == e[1])
            raise InputError(f"self-loop ({u},{v}) is not allowed")
        if ends and not (0 <= min(ends) and max(ends) < vertex_count):
            _check_range(vertex_count, chain.from_iterable(dedup), "edges")
        succ: list[list[int]] = [[] for _ in range(vertex_count)]
        pred: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in dedup:
            succ[u].append(v)
            pred[v].append(u)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", dedup)
        object.__setattr__(self, "successors", tuple(map(tuple, succ)))
        object.__setattr__(self, "predecessors", tuple(map(tuple, pred)))


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
        profit = _values(profit, "profit")
        if len(profit) != graph.vertex_count:
            raise InputError("profit array length must match vertex count")
        _check_quantities(profit, "profits")
        _check_positive(budget, "budget")
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
        members = _rows(hyperedges, "hyperedge")
        weight = _values(weight, "weight")
        if len(weight) != len(members):
            raise InputError("weight array length must match hyperedge count")
        if not all(members):
            raise InputError("hyperedges must be nonempty")
        _check_range(vertex_count, chain.from_iterable(members), "hyperedge")
        edges = tuple(map(frozenset, members))
        _check_quantities(weight, "weights")
        _check_positive(budget, "budget")
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
        members = _rows(clusters, "cluster")
        weight = _values(weight, "weight")
        _check_range(len(weight), chain.from_iterable(members), "cluster members")
        groups = tuple(tuple(sorted(c)) for c in members)
        _check_quantities(weight, "item weights")
        _check_positive(capacity, "capacity")
        if not all(groups):
            raise InputError("clusters must be nonempty")
        if sorted(chain.from_iterable(groups)) != list(range(len(weight))):
            raise InputError("clusters must partition the item ids 0..n-1")
        _check_fits(weight, capacity, "item", "weight")
        object.__setattr__(self, "clusters", groups)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "capacity", capacity)

    @property
    def item_count(self) -> int:
        return len(self.weight)


# instance type -> the name of its problem kind, as instance files spell it
KIND = {CtInstance: "ct", RcpInstance: "rcp", DkshInstance: "dksh", BpccInstance: "bpcc"}


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


def _parent_table(tree: SizedOutTree) -> tuple:
    """``tree.parent`` with the root as its own parent, followed by n Nones:
    ids in [n, 2n) and, by wrapping, [-n, 0) read None.  Built on first use
    and kept on the tree."""
    if tree._padded_parent is None:
        table = list(tree.parent)
        table[tree.root] = tree.root
        table += [None] * len(table)
        object.__setattr__(tree, "_padded_parent", tuple(table))
    return tree._padded_parent


def validate_configuration(instance: CtInstance, members: Iterable[int]) -> Optional[str]:
    """Return None if ``members`` is a valid configuration, else a message
    naming the first ancestor-closure violation or the size excess."""
    tree = instance.tree
    members = frozenset(members)
    if not members:
        return None
    # One C gather from the padded table.  The set holds every entry read iff
    # it is closed and has no id in [n, 2n) or [-n, 0), which read None.  An
    # id in [-2n, -n) wraps into the parents but not into ``size``, whose
    # gather rejects it.  On any failure the id check names a bad member,
    # or else the gather's error or the closure scan stands.
    get = itemgetter(*members)
    try:
        parents = get(_parent_table(tree))
        if len(members) == 1:  # itemgetter of one index returns the item bare
            parents = (parents,)
        closed = members.issuperset(parents)
        sizes = get(tree.size) if closed else ()
    except (IndexError, TypeError):
        _check_range(tree.vertex_count, members, "configuration")
        raise
    if not closed:
        if None in parents or min(members) < 0:  # some id is out of range
            _check_range(tree.vertex_count, members, "configuration")
        for v in sorted(members):
            p = tree.parent[v]
            if p is not None and p not in members:
                return f"vertex {v} is included without its parent {p}"
    total = sizes if len(members) == 1 else sum(sizes)
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
    n = instance.tree.vertex_count
    if len(covered) < n:  # members are in range, so that means some is missing
        missing = next(v for v in range(n) if v not in covered)
        return f"vertex {missing} is not covered"
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
