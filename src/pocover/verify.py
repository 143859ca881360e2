"""End-to-end property harness.

``verify_ct`` runs the full approximation pipeline on one tree instance and
checks every claimed property of the output: cover validity, the even-set and
consecutive-pair structure of the packing, anchor disjointness and ordering,
the bound sandwich, and (when the exact oracle is in range) the factor-2
guarantee against the true optimum.  ``VALUE[kind](instance, solution)`` is
the value of a feasible rcp, dksh, ct or bpcc solution, else None.  Each row
of ``TRIPS`` is one reduction's optimum round trip: solve both sides exactly,
compare the optima, carry each optimum across and ask ``VALUE`` that it keeps
its value, then check the construction's own claims.  ``ROUNDTRIPS`` maps each
reduction kind to its check and to the draw of the CLI's round-trip corpus.

A report with an ``error`` is an instance that could not be processed (e.g.
infeasible, or beyond an oracle guard); it does not count as a failed check.
Every check reports its own oracle guard that way: none raises
``SizeGuardError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    emitted = [len(rec.emitted_sets) for rec in trace.anchors]
    checks.append(("next_fit_even", all(c >= 2 and c % 2 == 0 for c in emitted)))

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


def _rcp_value(rcp: RcpInstance, solution) -> Optional[int]:
    """The profit of a closed set within the budget."""
    members = frozenset(solution)
    if len(members) > rcp.budget or not is_closed(rcp.graph, members):
        return None
    return sum(rcp.profit[v] for v in members)


def _dksh_value(dksh: DkshInstance, solution) -> Optional[int]:
    """The contained weight of a set within the budget."""
    members = frozenset(solution)
    return None if len(members) > dksh.budget else contained_hyperedges(dksh, members)[1]


def _ct_value(ct: CtInstance, cover) -> Optional[int]:
    """The set count of a cover that ``validate_cover`` accepts."""
    return None if validate_cover(ct, cover) is not None else len(cover)


def _bpcc_value(bpcc: BpccInstance, packing) -> Optional[int]:
    """The bin count of a packing whose bins each sit in one cluster and fit
    the capacity, and together hold every item."""
    cluster_of = {v: i for i, group in enumerate(bpcc.clusters) for v in group}
    for bin_ in packing:
        _check_range(bpcc.item_count, bin_, "bin")
        weight = sum(bpcc.weight[v] for v in bin_)
        if len({cluster_of[v] for v in bin_}) > 1 or weight > bpcc.capacity:
            return None
    return len(packing) if len(set().union(*packing)) == bpcc.item_count else None


# problem kind -> value(instance, solution): the value of a feasible solution,
# else None.  An id out of range raises ``InputError``, as the model's checks do.
VALUE = {"rcp": _rcp_value, "dksh": _dksh_value, "ct": _ct_value, "bpcc": _bpcc_value}


def _optimum(kind: str, instance) -> tuple:
    """An optimal solution and its value, from the exact oracle of ``kind``."""
    if kind == "ct":
        cover = exact.exact_ct(instance)
        return cover, len(cover)
    return getattr(exact, f"exact_{kind}")(instance)


# reduction kind -> (source kind, target kind, (lift check, project check),
# lift, project, extra).  ``lift(artifact, solution)`` carries the source
# optimum across and ``project`` the target optimum back; ``extra(artifact,
# solution, lifted, target value, projected)`` gives the trip's own checks, and
# one that repeats a name is ANDed into that check.  Maps, reductions and
# oracles are looked up when a trip runs, so a patched module binding is seen.
TRIPS = {
    "bpcc_to_ct": (
        "bpcc", "ct", ("lift_covers_target", "project_covers_source"),
        lambda a, cover: [reductions.bpcc_map(a, c, "lift") for c in cover],
        lambda a, cover: [reductions.bpcc_map(a, c, "project") for c in cover],
        lambda a, *_: [("size_formula", a.target.tree.vertex_count
                        == 1 + len(a.source.clusters) + a.source.item_count)],
    ),
    "dksh_to_rcp": (
        "dksh", "rcp", ("lift_feasible", "project_feasible"),
        lambda a, s: reductions.dksh_rcp_map(a, s, "lift"),
        lambda a, s: reductions.dksh_rcp_map(a, s, "project"),
        lambda a, *_: [("target_dag_bipartite", _dag_and_bipartite(a.target.graph, a.source))],
    ),
    "rcp_to_dksh": (
        "rcp", "dksh", ("closed_set_keeps_weight", "minimal_projects_feasible"),
        lambda a, s: s,  # a closed set is its own vertex selection
        lambda a, s: reductions.minimalize(a.target, s),
        lambda a, s, lifted, weight, minimal: [
            # minimalize keeps the contained weight, and is idempotent
            ("minimal_projects_feasible", _dksh_value(a.target, minimal) == weight),
            ("minimalize_idempotent", reductions.minimalize(a.target, minimal) == minimal),
        ],
    ),
    "degree_augment": (
        "rcp", "rcp", ("lift_feasible", "project_feasible"),
        lambda a, s: reductions.augment_map(a, s, "lift"),
        lambda a, s: reductions.augment_map(a, s, "project"),
        lambda a, s, lifted, *_: [
            ("lift_feasible", len(lifted) == a.parameters["t"] * len(s)),  # whole gadgets
            *_augment_structure_checks(a),
        ],
    ),
}


def _round_trip(kind: str, source) -> RoundtripReport:
    """Reduce, solve both sides exactly and compare the optima, carry each
    optimum across, and run the checks of ``TRIPS[kind]``."""
    source_kind, target_kind, (lift_name, project_name), lift, project, extra = TRIPS[kind]
    artifact = getattr(reductions, kind)(source)
    try:
        solution, value = _optimum(source_kind, source)
        target_solution, target_value = _optimum(target_kind, artifact.target)
    except exact.SizeGuardError as exc:
        return RoundtripReport(kind, fingerprint(source), (), f"oracle guard: {exc}")
    lifted = lift(artifact, solution)
    projected = project(artifact, target_solution)
    checks = {
        "opt_equal": value == target_value,
        lift_name: VALUE[target_kind](artifact.target, lifted) == value,
        project_name: VALUE[source_kind](source, projected) == target_value,
    }
    for name, ok in extra(artifact, solution, lifted, target_value, projected):
        checks[name] = checks.get(name, True) and ok
    return RoundtripReport(kind, fingerprint(source), tuple(checks.items()), None)


def roundtrip_bpcc_to_ct(bpcc: BpccInstance) -> RoundtripReport:
    return _round_trip("bpcc_to_ct", bpcc)


def roundtrip_dksh_to_rcp(dksh: DkshInstance) -> RoundtripReport:
    return _round_trip("dksh_to_rcp", dksh)


def roundtrip_rcp_to_dksh(rcp: RcpInstance) -> RoundtripReport:
    return _round_trip("rcp_to_dksh", rcp)


def roundtrip_degree_augment(rcp: RcpInstance) -> RoundtripReport:
    return _round_trip("degree_augment", rcp)


def _dag_and_bipartite(graph: Digraph, dksh: DkshInstance) -> bool:
    boundary = dksh.vertex_count * (len(dksh.hyperedges) + 1)
    return all(u < boundary <= v for u, v in graph.edges)


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
    try:
        result = reductions.dks_via_urcp(graph, k)
        optimum = 0
        if und:
            dks = DkshInstance(graph.vertex_count, [list(e) for e in und], [1] * len(und), k)
            _, optimum = exact.exact_dksh(dks)
    except exact.SizeGuardError as exc:
        return RoundtripReport("dks_to_urcp", fp, (), f"oracle guard: {exc}")

    induced = sum(1 for u, v in und if u in result.solution and v in result.solution)
    checks.append(("pipeline_matches_exact", induced == optimum))
    checks.append(("solution_within_budget", len(result.solution) <= k))

    if k >= 2 and optimum >= 1:
        hits_at_opt = next(rec.edge_vertex_hits for rec in result.records if rec.m == optimum)
        checks.append(("edge_hits_floor", hits_at_opt >= optimum))

    group_ok = all(
        len(rec.solution.intersection(range(v * 2 * rec.m, (v + 1) * 2 * rec.m))) in (0, 2 * rec.m)
        for rec in result.records
        for v in range(graph.vertex_count)
    )
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
