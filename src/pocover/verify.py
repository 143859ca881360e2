"""End-to-end property harness.

``verify_ct`` runs the full approximation pipeline on one tree instance and
checks every claimed property of the output: cover validity, the even-set and
consecutive-pair structure of the packing, anchor disjointness and ordering,
the bound sandwich, and (when the exact oracle is in range) the factor-2
guarantee against the true optimum.  The ``roundtrip_*`` functions do the
analogous work for each reduction: solve both sides exactly, compare optima,
carry the optima across the solution maps, and check the structural claims of
the construction.  ``ROUNDTRIPS`` maps each reduction kind to its round trip
and to the draw of the CLI's round-trip corpus; ``run_roundtrip`` dispatches
through it.

A report with an ``error`` is an instance that could not be processed (e.g.
infeasible, or beyond an oracle guard); it does not count as a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import exact, reductions
from .generate import GenSpec, SplitMix64, generate
from .model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    RcpInstance,
    SizedOutTree,
    _check_range,
    contained_hyperedges,
    is_closed,
    validate_cover,
)
from .serialize import fingerprint
from .treecover import AnchorRecord, InfeasibleInstance, RunTrace, bounds, cover, preprocess


class _Checked:
    """``passed`` and ``failed_checks`` over a report's ``checks`` tuple."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


@dataclass(frozen=True)
class VerifyReport(_Checked):
    """Per-instance verdict of the approximation pipeline.  The report of an
    infeasible instance holds only its fingerprint and the error."""

    fingerprint: str
    alg_cardinality: Optional[int] = None
    exact_cardinality: Optional[int] = None
    exact_reduced_cardinality: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None
    alpha: Optional[int] = None
    ratio: Optional[float] = None
    checks: tuple[tuple[str, bool], ...] = ()
    error: Optional[str] = None


@dataclass(frozen=True)
class RoundtripReport(_Checked):
    """Per-instance verdict of one reduction round trip."""

    kind: str
    fingerprint: str
    checks: tuple[tuple[str, bool], ...]
    error: Optional[str]


def structural_checks(instance: CtInstance, result_cover, trace: RunTrace) -> list[tuple[str, bool]]:
    """Trace-level properties of one solver run (no oracle involved)."""
    k = instance.capacity
    checks: list[tuple[str, bool]] = []
    checks.append(("cover_valid", validate_cover(instance, result_cover) is None))
    checks.append(
        (
            "next_fit_even",
            all(
                len(rec.emitted_sets) >= 2 and len(rec.emitted_sets) % 2 == 0
                for rec in trace.anchors
            ),
        )
    )

    pair_ok = True
    for rec in trace.anchors:
        anchored_sizes = [
            sum(instance.tree.size[v] for v in result_cover[i] & rec.anchored_vertices)
            for i in rec.emitted_sets
        ]
        for j in range(0, len(anchored_sizes) - 1, 2):
            if anchored_sizes[j] + anchored_sizes[j + 1] < k - rec.h + 1:
                pair_ok = False
    checks.append(("next_fit_pairs", pair_ok))

    disjoint = True
    taken: set[int] = set()
    for rec in trace.anchors:
        if rec.anchored_vertices & taken:
            disjoint = False
        taken |= rec.anchored_vertices
    checks.append(("anchored_disjoint", disjoint))

    checks.append(
        ("anchor_ancestors_fire_later", _ancestors_fire_later(instance.tree, trace.anchors))
    )

    mass_ok = all(
        rec.anchored_size
        == sum(instance.tree.size[v] for v in rec.anchored_vertices)
        for rec in trace.anchors
    )
    checks.append(("anchored_mass_consistent", mass_ok))
    return checks


def _ancestors_fire_later(tree: SizedOutTree, anchors: tuple[AnchorRecord, ...]) -> bool:
    """Each anchor's proper ancestors fire later, if at all; an anchor that
    the trace records twice counts with its earliest round.  ``above[v]``,
    the earliest round of a proper ancestor of v, is filled by one walk up
    each anchor's root path that stops at a known vertex: O(n + anchors).
    An anchor out of range raises ``InputError``, as ``tree.ancestors`` does."""
    fired: dict[int, int] = {}
    for rec in anchors:
        fired[rec.anchor] = min(rec.iteration, fired.get(rec.anchor, rec.iteration))
    never = 1 + max((rec.iteration for rec in anchors), default=0)  # later than any
    parent = tree.parent
    above = {tree.root: never}
    for rec in anchors:
        _check_range(tree.vertex_count, (rec.anchor,), "ancestors")
        path = []
        v = rec.anchor
        while v not in above:
            path.append(v)
            v = parent[v]
        for u in reversed(path):  # v is the parent of u
            above[u] = min(above[v], fired.get(v, never))
            v = u
        if rec.iteration >= above[rec.anchor]:
            return False
    return True


def reduced_instance(instance: CtInstance) -> Optional[CtInstance]:
    """The vertices that ``preprocess`` keeps, as an instance of their own
    relabelled densely in ascending id, or None when it keeps none.  The
    lower bound holds against this instance's optimum; ``cover`` never
    builds it."""
    kept = [v for v, keep in enumerate(preprocess(instance).alive) if keep]
    if not kept:
        return None
    tree = instance.tree
    new_id = {old: i for i, old in enumerate(kept)}
    parent = [None if tree.parent[v] is None else new_id[tree.parent[v]] for v in kept]
    return CtInstance(SizedOutTree(parent, [tree.size[v] for v in kept]), instance.capacity)


def verify_ct(instance: CtInstance, with_exact: bool = False) -> VerifyReport:
    """Run the pipeline on one instance and check every claimed property."""
    fp = fingerprint(instance)
    try:
        result = cover(instance)
    except InfeasibleInstance as exc:
        return VerifyReport(fingerprint=fp, error=f"infeasible: {exc}")
    trace = result.trace
    b = bounds(trace, instance)
    loop_count = trace.loop_and_residual_count()

    checks = structural_checks(instance, result.cover, trace)
    checks.append(("loop_le_upper", loop_count <= b.upper))
    checks.append(("upper_le_twice_lower", b.upper <= 2 * b.lower))
    checks.append(
        ("cover_le_upper_plus_forced", len(result.cover) <= b.upper + len(trace.forced_prefix))
    )

    exact_cardinality: Optional[int] = None
    exact_reduced: Optional[int] = None
    ratio: Optional[float] = None
    error: Optional[str] = None
    if with_exact:
        try:
            exact_cardinality = len(exact.exact_ct(instance))
            reduced = reduced_instance(instance)
            exact_reduced = 0 if reduced is None else len(exact.exact_ct(reduced))
        except exact.SizeGuardError as exc:
            error = f"oracle guard: {exc}"
        if exact_cardinality is not None and exact_reduced is not None:
            ratio = len(result.cover) / exact_cardinality if exact_cardinality else None
            checks.append(("ratio_at_most_2", len(result.cover) <= 2 * exact_cardinality))
            checks.append(("lower_le_exact_reduced", b.lower <= exact_reduced))
            checks.append(("exact_reduced_le_loop", exact_reduced <= loop_count))

    return VerifyReport(
        fingerprint=fp,
        alg_cardinality=len(result.cover),
        exact_cardinality=exact_cardinality,
        exact_reduced_cardinality=exact_reduced,
        lower=b.lower,
        upper=b.upper,
        alpha=b.alpha,
        ratio=ratio,
        checks=tuple(checks),
        error=error,
    )


# ---------------------------------------------------------------------------
# reduction round trips


def roundtrip_bpcc_to_ct(bpcc: BpccInstance) -> RoundtripReport:
    checks: list[tuple[str, bool]] = []
    artifact = reductions.bpcc_to_ct(bpcc)
    ct: CtInstance = artifact.target
    bpcc_cover, bpcc_opt = exact.exact_bpcc(bpcc)
    ct_cover = exact.exact_ct(ct)
    checks.append(("opt_equal", bpcc_opt == len(ct_cover)))

    lifted = [reductions.bpcc_map(artifact, c, "lift") for c in bpcc_cover]
    checks.append(("lift_covers_target", validate_cover(ct, lifted) is None))

    projected = [reductions.bpcc_map(artifact, c, "project") for c in ct_cover]
    proj_ok = all(_bpcc_config_ok(bpcc, c) for c in projected)
    covered = set().union(*projected) if projected else set()
    checks.append(
        ("project_covers_source", proj_ok and covered == set(range(bpcc.item_count)))
    )
    checks.append(
        ("size_formula", ct.tree.vertex_count == 1 + len(bpcc.clusters) + bpcc.item_count)
    )
    return RoundtripReport("bpcc_to_ct", fingerprint(bpcc), tuple(checks), None)


def _bpcc_config_ok(bpcc: BpccInstance, config: frozenset[int]) -> bool:
    touched = [i for i, g in enumerate(bpcc.clusters) if config & set(g)]
    weight = sum(bpcc.weight[v] for v in config)
    return len(touched) <= 1 and weight <= bpcc.capacity


def roundtrip_dksh_to_rcp(dksh: DkshInstance) -> RoundtripReport:
    checks: list[tuple[str, bool]] = []
    artifact = reductions.dksh_to_rcp(dksh)
    rcp: RcpInstance = artifact.target
    best_set, best_weight = exact.exact_dksh(dksh)
    rcp_set, rcp_profit = exact.exact_rcp(rcp)
    checks.append(("opt_equal", best_weight == rcp_profit))

    lifted = reductions.dksh_rcp_map(artifact, best_set, "lift")
    lift_profit = sum(rcp.profit[v] for v in lifted)
    checks.append(
        (
            "lift_feasible",
            is_closed(rcp.graph, lifted)
            and len(lifted) <= rcp.budget
            and lift_profit == best_weight,
        )
    )

    projected = reductions.dksh_rcp_map(artifact, rcp_set, "project")
    _, proj_weight = contained_hyperedges(dksh, projected)
    checks.append(
        ("project_feasible", len(projected) <= dksh.budget and proj_weight >= rcp_profit)
    )

    checks.append(("target_dag_bipartite", _dag_and_bipartite(rcp.graph, dksh)))
    return RoundtripReport("dksh_to_rcp", fingerprint(dksh), tuple(checks), None)


def _dag_and_bipartite(graph: Digraph, dksh: DkshInstance) -> bool:
    boundary = dksh.vertex_count * (len(dksh.hyperedges) + 1)
    return all(u < boundary <= v for u, v in graph.edges)


def roundtrip_rcp_to_dksh(rcp: RcpInstance) -> RoundtripReport:
    checks: list[tuple[str, bool]] = []
    artifact = reductions.rcp_to_dksh(rcp)
    dksh: DkshInstance = artifact.target
    rcp_set, rcp_profit = exact.exact_rcp(rcp)
    dksh_set, dksh_weight = exact.exact_dksh(dksh)
    checks.append(("opt_equal", rcp_profit == dksh_weight))

    _, lifted_weight = contained_hyperedges(dksh, rcp_set)
    checks.append(("closed_set_keeps_weight", lifted_weight == rcp_profit))

    minimal = reductions.minimalize(dksh, dksh_set)
    _, minimal_weight = contained_hyperedges(dksh, minimal)
    checks.append(
        (
            "minimal_projects_feasible",
            is_closed(rcp.graph, minimal)
            and len(minimal) <= rcp.budget
            and minimal_weight == dksh_weight,
        )
    )
    checks.append(("minimalize_idempotent", reductions.minimalize(dksh, minimal) == minimal))
    return RoundtripReport("rcp_to_dksh", fingerprint(rcp), tuple(checks), None)


def roundtrip_degree_augment(rcp: RcpInstance) -> RoundtripReport:
    checks: list[tuple[str, bool]] = []
    artifact = reductions.degree_augment(rcp)
    big: RcpInstance = artifact.target
    t = artifact.parameters["t"]

    src_set, src_profit = exact.exact_rcp(rcp)
    big_set, big_profit = exact.exact_rcp(big)
    checks.append(("opt_equal", src_profit == big_profit))

    lifted = reductions.augment_map(artifact, src_set, "lift")
    checks.append(
        (
            "lift_feasible",
            is_closed(big.graph, lifted)
            and len(lifted) == t * len(src_set)
            and len(lifted) <= big.budget
            and sum(big.profit[v] for v in lifted) == src_profit,
        )
    )

    projected = reductions.augment_map(artifact, big_set, "project")
    checks.append(
        (
            "project_feasible",
            is_closed(rcp.graph, projected)
            and len(projected) <= rcp.budget
            and sum(rcp.profit[v] for v in projected) == big_profit,
        )
    )

    checks += _augment_structure_checks(artifact)
    return RoundtripReport("degree_augment", fingerprint(rcp), tuple(checks), None)


def _augment_structure_checks(artifact) -> list[tuple[str, bool]]:
    """The claims of the degree reduction that need no oracle: degrees, size,
    reachability among the originals, and strongly connected gadgets.
    O(V + E) on the gadget graph, plus the reachability masks."""
    big: RcpInstance = artifact.target
    small: Digraph = artifact.source.graph
    n = small.vertex_count
    adjacency = big.graph.successors + big.graph.predecessors
    return [
        ("degree_at_most_2", max(map(len, adjacency)) <= 2),
        ("size_formula", big.graph.vertex_count == n * artifact.parameters["t"]),
        ("reachability_preserved", _reachability_match(small, big.graph, n)),
        ("gadgets_strongly_connected", _gadgets_connected(artifact)),
    ]


def _reachability_match(small: Digraph, big: Digraph, n: int) -> bool:
    """Original x reaches original y in the gadget graph iff it did before.

    One condensation per graph and one pass over its component DAG: O(V + E)
    plus one n-bit OR per arc between components."""
    return _original_reach(small, n) == _original_reach(big, n)


def _original_reach(graph: Digraph, n: int) -> list[int]:
    """Bit y of entry x is set iff x reaches y (x itself included), for the
    vertices x, y < n."""
    comps, comp_of, preds = exact._scc(graph)
    reach = [0] * len(comps)
    for v in range(n):
        reach[comp_of[v]] |= 1 << v
    # Components are in topological order, so a component is complete before
    # the descending scan reaches it and passes it to its predecessors.
    for c in reversed(range(len(comps))):
        for p in preds[c]:
            reach[p] |= reach[c]
    return [reach[comp_of[x]] for x in range(n)]


def _gadgets_connected(artifact) -> bool:
    """Every gadget (root included) is strongly connected using only its
    internal edges.

    One forward and one backward search per gadget, each following only arcs
    whose far end has the same owner: every vertex and edge is looked at a
    constant number of times, O(V + E).  Gadgets are disjoint, so one flat
    ``seen`` list per direction serves every gadget's search."""
    graph: Digraph = artifact.target.graph
    n = artifact.source.graph.vertex_count
    t = artifact.parameters["t"]
    owner = reductions._gadget_owners(n, t)
    for adjacency in (graph.successors, graph.predecessors):
        seen = [False] * len(owner)
        for x in range(n):
            seen[x] = True
            found = [x]
            for v in found:  # breadth-first: the loop reads what it appends
                for w in adjacency[v]:
                    if not seen[w] and owner[w] == x:
                        seen[w] = True
                        found.append(w)
            # the search stays inside x's gadget, which has t vertices
            if len(found) != t:
                return False
    return True


def roundtrip_dks_pipeline(graph: Digraph, k: int) -> RoundtripReport:
    """Check the densest-subgraph pipeline against direct enumeration, plus
    the copy all-or-nothing structure and the edge-hit floor at the true
    optimum."""
    checks: list[tuple[str, bool]] = []
    und = reductions.undirected_edges(graph)
    fp = reductions.fingerprint_graph(graph) + f"/k{k}"

    # dks_via_urcp's guard implies exact_dksh's, so a graph it refuses is never
    # enumerated
    result = reductions.dks_via_urcp(graph, k)
    if und:
        dks = DkshInstance(graph.vertex_count, [list(e) for e in und], [1] * len(und), k)
        _, optimum = exact.exact_dksh(dks)
    else:
        optimum = 0

    induced = sum(1 for u, v in und if u in result.solution and v in result.solution)
    checks.append(("pipeline_matches_exact", induced == optimum))
    checks.append(("solution_within_budget", len(result.solution) <= k))

    if k >= 2 and optimum >= 1:
        hits_at_opt = next(
            rec.edge_vertex_hits for rec in result.records if rec.m == optimum
        )
        checks.append(("edge_hits_floor", hits_at_opt >= optimum))

    group_ok = True
    for rec in result.records:
        width = 2 * rec.m
        for v in range(graph.vertex_count):
            inside = sum(
                1 for i in range(width) if v * width + i in rec.solution
            )
            if inside not in (0, width):
                group_ok = False
    checks.append(("copies_all_or_nothing", group_ok))
    return RoundtripReport("dks_to_urcp", fp, tuple(checks), None)


def _draw_bpcc(rng: SplitMix64, seed: int) -> BpccInstance:
    n = 1 + rng.randrange(8)
    k = 1 + rng.randrange(6)
    shape = {"cluster_count": 1 + rng.randrange(min(n, 4))}
    return generate(GenSpec(kind="bpcc", n=n, k=k, seed=seed, shape=shape))


def _draw_hypergraph(rng: SplitMix64, seed: int) -> DkshInstance:
    n = 2 + rng.randrange(5)
    k = 1 + rng.randrange(n)
    shape = {"num_edges": 1 + rng.randrange(4)}
    return generate(GenSpec(kind="hypergraph", n=n, k=k, seed=seed, shape=shape))


def _draw_digraph(budgets: int):
    def draw(rng: SplitMix64, seed: int) -> RcpInstance:
        n = 2 + rng.randrange(7)
        k = 1 + rng.randrange(budgets)
        return generate(GenSpec(kind="digraph", n=n, k=k, seed=seed))

    return draw


def _draw_graph_and_budget(rng: SplitMix64, seed: int) -> tuple[Digraph, int]:
    n = 2 + rng.randrange(9)
    spec = GenSpec(kind="digraph", n=n, k=1, seed=seed, shape={"edge_density": 0.4})
    return generate(spec).graph, 2 + rng.randrange(4)


# kind -> (draw, check), in ``reductions.REDUCTION_KINDS`` order.
# ``draw(rng, seed)`` makes one source instance of the CLI's round-trip corpus;
# ``check`` runs the round trip on it.  ``dks_to_urcp`` items are (graph, k)
# pairs.
ROUNDTRIPS = {
    "bpcc_to_ct": (_draw_bpcc, roundtrip_bpcc_to_ct),
    "dksh_to_rcp": (_draw_hypergraph, roundtrip_dksh_to_rcp),
    "rcp_to_dksh": (_draw_digraph(5), roundtrip_rcp_to_dksh),
    "dks_to_urcp": (_draw_graph_and_budget, lambda pair: roundtrip_dks_pipeline(*pair)),
    "degree_augment": (_draw_digraph(4), roundtrip_degree_augment),
}


def run_roundtrip(kind: str, instances: Iterable) -> list[RoundtripReport]:
    """Run a stream of instances through one reduction's round trip.

    For ``dks_to_urcp`` the stream consists of (graph, k) pairs.  Oracle
    guard violations become error entries rather than failures.
    """
    if kind not in ROUNDTRIPS:
        raise ValueError(f"unknown roundtrip kind {kind!r}")
    _, check = ROUNDTRIPS[kind]
    reports = []
    for item in instances:
        try:
            reports.append(check(item))
        except exact.SizeGuardError as exc:
            reports.append(
                RoundtripReport(kind, "?", (), f"oracle guard: {exc}")
            )
    return reports
