"""Constructive reductions between the covering and packing problems, with
bidirectional solution maps.

Five transformations are provided, each as an instance transformer returning a
ReductionArtifact plus map functions that carry solutions across:

* clustered bin packing  -> tree covering (two-level star, tripled capacity)
* weighted hypergraph selection -> profit selection (vertex copies + edge
  vertices, enlarged budget)
* profit selection -> weighted hypergraph selection (one predecessor-closure
  hyperedge per vertex)
* densest-k-subgraph -> uniform profit selection (cyclic copy groups + edge
  vertices), plus the search pipeline that recovers an exact densest subgraph
  from an exact uniform solver
* degree reduction for profit selection (binary in/out-tree gadgets, every
  degree at most 2)

All constructions are deterministic: ids are laid out in documented blocks and
edge lists are emitted in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, permutations, product
from typing import Optional

from .model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
    _check_positive,
    _check_range,
    closure,
    contained_hyperedges,
    is_closed,
    validate_configuration,
)
from .serialize import fingerprint


@dataclass(frozen=True)
class ReductionArtifact:
    """A constructed instance together with the reduction's parameters and a
    handle on the source instance for the solution maps."""

    kind: str
    source: object
    target: object
    parameters: dict[str, int]

    def __post_init__(self) -> None:
        if self.kind not in REDUCTION_KINDS:
            raise InputError(f"unknown reduction kind {self.kind!r}")


# ---------------------------------------------------------------------------
# clustered bin packing -> tree covering


def bpcc_to_ct(bpcc: BpccInstance) -> ReductionArtifact:
    """Two-level star: a zero-size root, one size-2k child per cluster, one
    leaf per item, capacity 3k.  Ids: root 0, cluster i -> 1+i, item v ->
    1 + #clusters + v."""
    k = bpcc.capacity
    m = len(bpcc.clusters)
    parent: list[Optional[int]] = [None] + [0] * m
    size = [0] + [2 * k] * m
    cluster_of = {v: i for i, group in enumerate(bpcc.clusters) for v in group}
    parent += [1 + cluster_of[v] for v in range(bpcc.item_count)]
    size += bpcc.weight
    target = CtInstance(SizedOutTree(parent, size), 3 * k)
    params = {"m": m, "K": 3 * k}
    return ReductionArtifact("bpcc_to_ct", bpcc, target, params)


def bpcc_map(
    artifact: ReductionArtifact, config, direction: str
) -> frozenset[int]:
    """Carry one configuration across the star reduction.

    ``lift`` maps an item set to the tree configuration {root, its cluster
    vertex, its leaves}; ``project`` keeps the items whose leaves appear."""
    _expect(artifact, "bpcc_to_ct")
    bpcc: BpccInstance = artifact.source
    m = artifact.parameters["m"]
    members = frozenset(config)
    if direction == "lift":
        _check_range(bpcc.item_count, members, "configuration")
        leaves = {1 + m + v for v in members}
        # each leaf's parent in the target star is its cluster's vertex
        touched = {artifact.target.tree.parent[leaf] for leaf in leaves}
        if len(touched) > 1:
            raise InputError("configuration spans more than one cluster")
        if sum(bpcc.weight[v] for v in members) > bpcc.capacity:
            raise InputError("configuration exceeds the packing capacity")
        return frozenset({0} | touched | leaves)
    if direction == "project":
        problem = validate_configuration(artifact.target, members)
        if problem is not None:
            raise InputError(f"not a valid tree configuration: {problem}")
        return frozenset(v - 1 - m for v in members if v >= 1 + m)
    raise InputError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# weighted hypergraph selection -> profit selection


def dksh_to_rcp(dksh: DkshInstance) -> ReductionArtifact:
    """m+1 copies of every hypergraph vertex plus one edge-vertex per
    hyperedge; copies feed the edge-vertices containing them.  Profits sit on
    edge-vertices only; the budget becomes k*(m+1)+m.

    Ids: copy i of vertex v -> v*(m+1)+i; hyperedge j -> n*(m+1)+j."""
    n = dksh.vertex_count
    m = len(dksh.hyperedges)
    copies = m + 1
    edges = []
    for j, e in enumerate(dksh.hyperedges):
        ev = n * copies + j
        for v in sorted(e):
            for i in range(copies):
                edges.append((v * copies + i, ev))
    profit = [0] * (n * copies) + list(dksh.weight)
    c = dksh.budget * copies + m
    graph = Digraph(n * copies + m, edges)
    target = RcpInstance(graph, profit, c)
    params = {"m": m, "c": c}
    return ReductionArtifact("dksh_to_rcp", dksh, target, params)


def dksh_rcp_map(
    artifact: ReductionArtifact, solution, direction: str
) -> frozenset[int]:
    """``lift`` sends a vertex selection S to (its contained edge-vertices +
    all copies of S); ``project`` keeps vertices all of whose copies appear."""
    _expect(artifact, "dksh_to_rcp")
    dksh: DkshInstance = artifact.source
    n = dksh.vertex_count
    m = artifact.parameters["m"]
    copies = m + 1
    members = frozenset(solution)
    if direction == "lift":
        _check_range(n, members, "vertex selection")
        if len(members) > dksh.budget:
            raise InputError("not a feasible vertex selection")
        inside, _ = contained_hyperedges(dksh, members)
        return frozenset(
            {n * copies + j for j in inside}
            | {v * copies + i for v in members for i in range(copies)}
        )
    if direction == "project":
        target: RcpInstance = artifact.target
        _check_range(target.graph.vertex_count, members, "vertex selection")
        if len(members) > target.budget or not is_closed(target.graph, members):
            raise InputError("not a feasible closed selection")
        return frozenset(
            v
            for v in range(n)
            if all(v * copies + i in members for i in range(copies))
        )
    raise InputError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# profit selection -> weighted hypergraph selection


def rcp_to_dksh(rcp: RcpInstance) -> ReductionArtifact:
    """One hyperedge per vertex: its predecessor closure, weighted by the
    vertex profit.  Vertices and budget are unchanged; duplicate closures stay
    as parallel hyperedges so each vertex keeps its own weight."""
    n = rcp.graph.vertex_count
    hyperedges = [closure(rcp.graph, [v]) for v in range(n)]
    target = DkshInstance(n, hyperedges, rcp.profit, rcp.budget)
    return ReductionArtifact("rcp_to_dksh", rcp, target, {"n": n})


def minimalize(dksh: DkshInstance, solution) -> frozenset[int]:
    """Drop vertices not covered by any hyperedge contained in the solution.

    Preserves the contained-hyperedge weight and is idempotent."""
    members = frozenset(solution)
    if len(members) > dksh.budget:
        raise InputError("solution exceeds the budget")
    inside, _ = contained_hyperedges(dksh, members)
    covered: set[int] = set()
    for j in inside:
        covered |= dksh.hyperedges[j]
    return members & covered


# ---------------------------------------------------------------------------
# densest k-subgraph -> uniform profit selection


def undirected_edges(graph: Digraph) -> list[tuple[int, int]]:
    """The simple undirected edge set underlying a digraph, sorted."""
    return sorted({(min(u, v), max(u, v)) for u, v in graph.edges})


def dks_to_urcp(graph: Digraph, k: int, m: int) -> ReductionArtifact:
    """Replace each vertex by 2m mutually cyclic copies and each undirected
    edge by an edge-vertex fed by all copies of its endpoints; uniform unit
    profits and budget 2k*m + m.

    Ids: copy i of vertex v -> v*2m+i; edge j (sorted order) -> n*2m+j."""
    _check_positive(m, "copy multiplier m")
    _check_positive(k, "subgraph budget k")
    n = graph.vertex_count
    und = undirected_edges(graph)
    width = 2 * m
    arcs: list[tuple[int, int]] = []
    for v in range(n):
        arcs += permutations(range(v * width, (v + 1) * width), 2)
    for j, (u, v) in enumerate(und):
        feeders = chain(range(u * width, (u + 1) * width), range(v * width, (v + 1) * width))
        arcs += product(feeders, (n * width + j,))
    h_m = 2 * k * m + m
    target = RcpInstance(
        Digraph(n * width + len(und), arcs), [1] * (n * width + len(und)), h_m
    )
    params = {"m": m, "h_m": h_m, "k": k}
    return ReductionArtifact("dks_to_urcp", graph, target, params)


def fingerprint_graph(graph: Digraph) -> str:
    """The fingerprint of a bare digraph: that of a zero-profit, budget-1
    instance on it."""
    return fingerprint(RcpInstance(graph, [0] * graph.vertex_count, 1))


@dataclass(frozen=True)
class PipelineRecord:
    m: int
    edge_vertex_hits: int
    solution: frozenset[int]


@dataclass(frozen=True)
class PipelineResult:
    solution: frozenset[int]
    chosen_m: Optional[int]
    records: tuple[PipelineRecord, ...] = field(default_factory=tuple)


PIPELINE_MAX_VERTICES = 12
PIPELINE_MAX_BUDGET = 6


def dks_via_urcp(graph: Digraph, k: int) -> PipelineResult:
    """Recover an exact densest k-subgraph through the uniform-profit solver.

    Tries every copy multiplier m up to k*(k-1)/2, solves each constructed
    instance exactly, keeps the m whose solution hits the most edge-vertices,
    and reads off the vertices all of whose copies were taken.  Guarded to
    brute-force-tractable inputs.
    """
    from .exact import SizeGuardError, exact_rcp

    n = graph.vertex_count
    if n > PIPELINE_MAX_VERTICES or k > PIPELINE_MAX_BUDGET:
        raise SizeGuardError(
            f"pipeline is limited to {PIPELINE_MAX_VERTICES} vertices "
            f"and budget {PIPELINE_MAX_BUDGET}"
        )
    if k < 2:
        return PipelineResult(frozenset(range(min(k, n))), None)
    records: list[PipelineRecord] = []
    best_m = 1
    best_hits = -1
    best_solution: frozenset[int] = frozenset()
    for m in range(1, k * (k - 1) // 2 + 1):
        artifact = dks_to_urcp(graph, k, m)
        solution, _ = exact_rcp(artifact.target)
        first_edge_id = n * 2 * m
        hits = sum(1 for v in solution if v >= first_edge_id)
        records.append(PipelineRecord(m, hits, solution))
        if hits > best_hits:
            best_hits = hits
            best_m = m
            best_solution = solution
    width = 2 * best_m
    chosen = frozenset(
        v
        for v in range(n)
        if all(v * width + i in best_solution for i in range(width))
    )
    return PipelineResult(chosen, best_m, tuple(records))


# ---------------------------------------------------------------------------
# degree reduction for profit selection


def _gadget_dims(n: int) -> tuple[int, int, int]:
    """(m, l0, t): leaf count (least power of two >= n), tree depth, and the
    per-vertex gadget size: the shared root and two trees of 2m - 2 more
    vertices each, 4m - 3."""
    m = 1 << (n - 1).bit_length()
    return m, m.bit_length() - 1, 4 * m - 3


def degree_augment(rcp: RcpInstance) -> ReductionArtifact:
    """Replace every vertex by a strongly connected gadget of one binary
    in-tree and one binary out-tree sharing the root, and reroute each
    original edge leaf-to-leaf.  Every vertex of the result has in-degree and
    out-degree at most 2; profits stay on the original vertices and the
    budget scales by the gadget size.

    Ids: original x keeps x; gadget block of x starts at n + x*(t-1), in-tree
    levels first, then out-tree levels, each level in position order."""
    n = rcp.graph.vertex_count
    if n < 2:
        raise InputError("degree reduction needs at least two vertices")
    m, l0, t = _gadget_dims(n)

    # One gadget's arcs between its own block's vertices, as offsets from the
    # block start and sorted.  A level at depth d sits at offset 2**d - 2 of
    # its tree; the out-tree starts 2m - 2 after the in-tree, and the leaf
    # level (d = l0) at m - 2.
    out = 2 * m - 2
    inner: list[tuple[int, int]] = []
    for level in range(1, l0):
        up = 2**level - 2
        down = 2 * up + 2
        for i in range(2**level):
            inner += [
                (down + 2 * i, up + i),
                (down + 2 * i + 1, up + i),
                (out + up + i, out + down + 2 * i),
                (out + up + i, out + down + 2 * i + 1),
            ]
    inner += [(out + i, i) for i in range(m - 2, 2 * m - 2)]
    inner.sort()
    # Original ids sort below every block, so the arcs come in three sorted
    # runs: each root to its out-tree's top level; block by block, the
    # in-tree's top level to the root and then the gadget's own arcs; the
    # cross arcs.
    arcs = [(x, n + x * (t - 1) + out + i) for x in range(n) for i in (0, 1)]
    for x in range(n):
        base = n + x * (t - 1)
        arcs += [(base, x), (base + 1, x)]
        arcs += [(base + a, base + b) for a, b in inner]
    for x, y in rcp.graph.edges:
        arcs.append((n + x * (t - 1) + 3 * m - 4 + y, n + y * (t - 1) + m - 2 + x))

    profit = list(rcp.profit) + [0] * (n * (t - 1))
    k_i = rcp.budget * t
    target = RcpInstance(Digraph(n * t, arcs), profit, k_i)
    params = {"m": m, "l0": l0, "t": t, "k_I": k_i}
    return ReductionArtifact("degree_augment", rcp, target, params)


def gadget_vertices(artifact: ReductionArtifact, x: int) -> frozenset[int]:
    """All vertices of x's gadget, including x itself."""
    _expect(artifact, "degree_augment")
    rcp: RcpInstance = artifact.source
    n = rcp.graph.vertex_count
    t = artifact.parameters["t"]
    base = n + x * (t - 1)
    return frozenset({x} | set(range(base, base + t - 1)))


def _gadget_owners(n: int, t: int) -> list[int]:
    """``owner[v]`` is the original vertex whose gadget holds ``v``: ``v``
    itself for ``v < n``, else ``(v - n) // (t - 1)``."""
    owner = list(range(n))
    for x in range(n):
        owner += [x] * (t - 1)
    return owner


def augment_map(
    artifact: ReductionArtifact, solution, direction: str
) -> frozenset[int]:
    """``lift`` swells a closed original selection to whole gadgets (size
    scales by t, profit unchanged); ``project`` keeps the originals whose
    gadget is touched."""
    _expect(artifact, "degree_augment")
    rcp: RcpInstance = artifact.source
    target: RcpInstance = artifact.target
    members = frozenset(solution)
    if direction == "lift":
        if len(members) > rcp.budget or not is_closed(rcp.graph, members):
            raise InputError("not a feasible closed selection")
        out: set[int] = set()
        for x in members:
            out |= gadget_vertices(artifact, x)
        return frozenset(out)
    if direction == "project":
        if len(members) > target.budget or not is_closed(target.graph, members):
            raise InputError("not a feasible closed selection")
        owner = _gadget_owners(rcp.graph.vertex_count, artifact.parameters["t"])
        return frozenset(owner[v] for v in members)
    raise InputError(f"unknown direction {direction!r}")


def _expect(artifact: ReductionArtifact, kind: str) -> None:
    if artifact.kind != kind:
        raise InputError(f"artifact is {artifact.kind!r}, expected {kind!r}")


# kind -> (source instance type, builder).  ``dks_to_urcp`` reads the digraph
# of an rcp instance and takes the subgraph budget and copy multiplier as
# arguments; every other builder takes the source instance alone.
REDUCTIONS = {
    "bpcc_to_ct": (BpccInstance, bpcc_to_ct),
    "dksh_to_rcp": (DkshInstance, dksh_to_rcp),
    "rcp_to_dksh": (RcpInstance, rcp_to_dksh),
    "dks_to_urcp": (RcpInstance, dks_to_urcp),
    "degree_augment": (RcpInstance, degree_augment),
}
REDUCTION_KINDS = tuple(REDUCTIONS)
