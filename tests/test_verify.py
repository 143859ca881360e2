from dataclasses import replace

import pytest

from pocover import reductions, verify
from pocover.generate import GenSpec, SplitMix64, generate
from pocover.model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
)
from pocover.treecover import AnchorRecord, InfeasibleInstance, cover
from pocover.verify import (
    roundtrip_bpcc_to_ct,
    roundtrip_degree_augment,
    roundtrip_dks_pipeline,
    roundtrip_dksh_to_rcp,
    roundtrip_rcp_to_dksh,
    structural_checks,
    verify_ct,
)


def test_verify_report_star3(star3):
    report = verify_ct(star3, with_exact=True)
    assert report.error is None
    assert report.passed
    assert report.alg_cardinality == 3
    assert report.exact_cardinality == 3
    assert report.lower == 2
    assert report.upper == 3
    assert report.alpha == 1
    assert report.ratio == 1.0


def test_verify_infeasible_is_error_not_failure():
    inst = CtInstance(SizedOutTree([None, 0], [2, 1]), 2)
    report = verify_ct(inst, with_exact=True)
    assert report.error is not None
    assert report.passed  # no failed checks, just an error entry
    assert report.alg_cardinality is None


def test_verify_past_the_oracle_guard_is_error_not_failure():
    star = CtInstance(SizedOutTree([None] + [0] * 18, [1] * 19), 4)
    report = verify_ct(star, with_exact=True)
    assert report.error == "oracle guard: exact tree covering is limited to 18 vertices"
    assert report.exact_cardinality is None and report.exact_reduced_cardinality is None
    assert report.ratio is None
    assert report.passed
    assert report.alg_cardinality is not None


def test_verify_without_exact(star4):
    report = verify_ct(star4, with_exact=False)
    assert report.exact_cardinality is None
    assert report.ratio is None
    assert report.passed


def test_run_verify_batch():
    rng = SplitMix64(5)
    instances = [
        generate(GenSpec(kind="out_tree", n=1 + rng.randrange(10), k=1 + rng.randrange(8), seed=i))
        for i in range(50)
    ]
    reports = [verify_ct(instance, with_exact=True) for instance in instances]
    assert all(r.passed for r in reports)
    assert all(r.error is None for r in reports)


def test_roundtrip_bpcc():
    bpcc = generate(GenSpec(kind="bpcc", n=6, k=4, seed=77, shape={"cluster_count": 2}))
    report = roundtrip_bpcc_to_ct(bpcc)
    assert report.error is None and report.passed, report.failed_checks()


def test_roundtrip_dksh():
    h = generate(GenSpec(kind="hypergraph", n=5, k=3, seed=41, shape={"num_edges": 3}))
    report = roundtrip_dksh_to_rcp(h)
    assert report.error is None and report.passed, report.failed_checks()


def test_roundtrip_rcp():
    rcp = generate(GenSpec(kind="digraph", n=6, k=3, seed=13))
    report = roundtrip_rcp_to_dksh(rcp)
    assert report.error is None and report.passed, report.failed_checks()


def test_roundtrip_degree():
    rcp = generate(GenSpec(kind="digraph", n=5, k=2, seed=29))
    report = roundtrip_degree_augment(rcp)
    assert report.error is None and report.passed, report.failed_checks()
    names = dict(report.checks)
    assert names["degree_at_most_2"]
    assert names["reachability_preserved"]
    assert names["gadgets_strongly_connected"]


def test_roundtrip_pipeline_triangle():
    report = roundtrip_dks_pipeline(Digraph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    assert report.error is None and report.passed, report.failed_checks()


def test_pipeline_check_catches_a_record_that_splits_a_copy_group(monkeypatch):
    pipeline = reductions.dks_via_urcp

    def split_copies(graph, k):
        # m = 1: vertex 0's copies are the target vertices 0 and 1
        result = pipeline(graph, k)
        rec = result.records[0]
        assert rec.m == 1 and {0, 1} <= rec.solution
        split = replace(rec, solution=rec.solution - {1})
        return replace(result, records=(split,) + result.records[1:])

    monkeypatch.setattr(reductions, "dks_via_urcp", split_copies)
    report = roundtrip_dks_pipeline(Digraph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    assert report.failed_checks() == ["copies_all_or_nothing"]


def test_run_roundtrip_dispatch_and_guard():
    h = generate(GenSpec(kind="hypergraph", n=4, k=2, seed=3, shape={"num_edges": 2}))
    _, check = verify.ROUNDTRIPS["dksh_to_rcp"]
    report = check(h)
    assert report.error is None and report.passed

    # beyond the pipeline's oracle guard: error entry, not a crash
    big = Digraph(30, [(i, i + 1) for i in range(29)])
    _, check = verify.ROUNDTRIPS["dks_to_urcp"]
    assert check((big, 6)).error is not None


def _multi_round_run():
    # Leftovers of anchor 2 are finished later by anchor 0, its grandparent.
    inst = CtInstance(
        SizedOutTree([None, 0, 1, 2, 2, 2, 0, 0], [0, 0, 1, 2, 2, 2, 3, 3]), 4
    )
    result = cover(inst)
    assert [(rec.anchor, rec.iteration) for rec in result.trace.anchors] == [(2, 1), (0, 2)]
    return inst, result


def _corrupt_anchor(trace, i, **fields):
    anchors = list(trace.anchors)
    anchors[i] = replace(anchors[i], **fields)
    return replace(trace, anchors=tuple(anchors))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("anchor_ancestors_fire_later", lambda t: _corrupt_anchor(t, 1, iteration=1)),
        ("anchor_ancestors_fire_later", lambda t: _corrupt_anchor(t, 0, iteration=3)),
        # vertex 3 (size 2) is anchored by anchor 2 already
        (
            "anchored_disjoint",
            lambda t: _corrupt_anchor(
                t,
                1,
                anchored_vertices=t.anchors[1].anchored_vertices | {3},
                anchored_size=t.anchors[1].anchored_size + 2,
            ),
        ),
        ("next_fit_even", lambda t: _corrupt_anchor(t, 0, emitted_sets=(0, 1, 2))),
        # anchor 2 claims anchor 0's sets, which hold none of its vertices
        ("next_fit_pairs", lambda t: _corrupt_anchor(t, 0, emitted_sets=(2, 3))),
    ],
)
def test_structural_checks_catch_a_corrupted_trace(name, corrupt):
    inst, result = _multi_round_run()
    assert all(ok for _, ok in structural_checks(inst, result.cover, result.trace))
    checks = structural_checks(inst, result.cover, corrupt(result.trace))
    assert [n for n, ok in checks if not ok] == [name]


def test_order_check_takes_the_earliest_record_of_an_anchor():
    inst, result = _multi_round_run()
    inner, outer = result.trace.anchors
    trace = replace(result.trace, anchors=(inner, replace(outer, iteration=1), outer))
    checks = dict(structural_checks(inst, result.cover, trace))
    assert not checks["anchor_ancestors_fire_later"]


def _oracle_ancestors_fire_later(tree, anchors):
    """The all-pairs order check that the root-path walk replaced: every
    record against every proper ancestor of its anchor, an anchor recorded
    twice counting with its earliest iteration."""
    fired = {}
    for rec in anchors:
        fired[rec.anchor] = min(rec.iteration, fired.get(rec.anchor, rec.iteration))
    return all(
        fired.get(u, rec.iteration + 1) > rec.iteration
        for rec in anchors
        for u in tree.ancestors(rec.anchor) - {rec.anchor}
    )


def _order_traces(count, seed):
    """(tree, anchor records): the traces of ``cover`` on seeded random trees
    and caterpillars, whose anchors sit on one path, most of them corrupted
    in one of four ways: an anchor recorded twice, iterations shifted up and
    down, an anchor moved onto the root path of another, or an anchor out of
    range."""
    rng = SplitMix64(seed)
    for i in range(count):
        if i % 3 == 0:
            # a caterpillar: a zero-size spine, two size-3 leaves per spine vertex
            spine = 1 + rng.randrange(20)
            parent = [None] + list(range(spine - 1)) + [v for v in range(spine) for _ in "ab"]
            inst = CtInstance(SizedOutTree(parent, [0] * spine + [3] * (2 * spine)), 10)
        else:
            n = 1 + rng.randrange(30)
            k = 4 + rng.randrange(10)
            parent = [None] + [rng.randrange(v) for v in range(1, n)]
            size = [0 if rng.randrange(3) == 0 else rng.randint(1, 1 + k // 8) for _ in range(n)]
            inst = CtInstance(SizedOutTree(parent, size), k)
        tree, n = inst.tree, inst.tree.vertex_count
        try:
            anchors = list(cover(inst).trace.anchors)
        except InfeasibleInstance:
            anchors = []
        if not anchors:
            anchors = [AnchorRecord(rng.randrange(n), 1 + rng.randrange(3), 0, 1, 0, frozenset(), ())]
        j = rng.randrange(len(anchors))
        how = i % 5
        if how == 1:
            twin = replace(anchors[j], iteration=anchors[j].iteration + rng.randint(-2, 2))
            anchors.insert(rng.randrange(len(anchors) + 1), twin)
        elif how == 2:
            anchors = [
                replace(rec, iteration=rec.iteration + rng.randint(-2, 2))
                if rng.randrange(2) else rec
                for rec in anchors
            ]
        elif how == 3:
            path = sorted(tree.ancestors(anchors[rng.randrange(len(anchors))].anchor))
            anchors[j] = replace(anchors[j], anchor=path[rng.randrange(len(path))])
        elif how == 4:
            bad = n + rng.randrange(3) if rng.randrange(2) else -1 - rng.randrange(3)
            anchors[j] = replace(anchors[j], anchor=bad)
        yield tree, tuple(anchors)


def _outcome(check, tree, anchors):
    try:
        return check(tree, anchors)
    except InputError as exc:
        return str(exc)


def test_order_check_matches_the_all_pairs_oracle():
    """The root-path walk gives the all-pairs check's verdict on 2,500 traces,
    corrupted ones included, and raises the same ``InputError`` where it
    raises one."""
    seen = {True: 0, False: 0, "raised": 0}
    for i, (tree, anchors) in enumerate(_order_traces(2500, 1616)):
        want = _outcome(_oracle_ancestors_fire_later, tree, anchors)
        assert _outcome(verify._ancestors_fire_later, tree, anchors) == want, i
        seen["raised" if isinstance(want, str) else want] += 1
    assert seen[True] >= 1500
    assert seen[False] >= 250
    assert seen["raised"] >= 400


# ---------------------------------------------------------------------------
# the degree reduction's oracle-free checks against per-vertex oracles

# The per-original searches that the linear checks replaced: one search per
# original vertex for reachability, one rescan of every edge per gadget.


def _oracle_reachable(graph, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in graph.successors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _oracle_reachability_match(small, big, n):
    for x in range(n):
        small_reach = _oracle_reachable(small, x)
        big_reach = _oracle_reachable(big, x)
        if {y for y in small_reach if y != x} != {
            y for y in big_reach if y < n and y != x
        }:
            return False
    return True


def _oracle_gadgets_connected(artifact):
    big = artifact.target
    for x in range(artifact.source.graph.vertex_count):
        gadget = reductions.gadget_vertices(artifact, x)
        forward = {v: [] for v in gadget}
        backward = {v: [] for v in gadget}
        for u, v in big.graph.edges:
            if u in gadget and v in gadget:
                forward[u].append(v)
                backward[v].append(u)
        for adjacency in (forward, backward):
            seen = {x}
            stack = [x]
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != gadget:
                return False
    return True


DENSITIES_PERCENT = (10, 25, 50)


def _seeded_digraph(seed):
    """A digraph on 2..12 vertices; each arc is kept with one of three
    densities."""
    rng = SplitMix64(seed)
    n = 2 + rng.randrange(11)
    density = DENSITIES_PERCENT[seed % len(DENSITIES_PERCENT)]
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.randrange(100) < density
    ]
    return rng, Digraph(n, arcs)


def _rerouted(rng, small):
    """``small`` plus up to n extra vertices: each arc is kept, dropped, or
    routed through a shared extra vertex, and a few stray arcs are added."""
    n = small.vertex_count
    extra = rng.randrange(n + 1)
    arcs = []
    for u, v in small.edges:
        roll = rng.randrange(8)
        if roll == 0:
            continue
        if roll < 4 or not extra:
            arcs.append((u, v))
        else:
            w = n + rng.randrange(extra)
            arcs += [(u, w), (w, v)]
    for _ in range(rng.randrange(3)):
        u, v = rng.randrange(n + extra), rng.randrange(n + extra)
        if u != v:
            arcs.append((u, v))
    return Digraph(n + extra, arcs)


def test_reachability_match_agrees_with_the_per_vertex_oracle():
    outcomes = []
    for seed in range(2000):
        rng, small = _seeded_digraph(seed)
        big = _rerouted(rng, small)
        n = small.vertex_count
        got = verify._reachability_match(small, big, n)
        assert got == _oracle_reachability_match(small, big, n), seed
        outcomes.append(got)
    assert 300 <= sum(outcomes) <= 1700


def test_degree_round_trip_condenses_each_graph_once(monkeypatch):
    """``exact_rcp`` and the reachability check share one condensation per
    graph: two computations per round trip, the source and the gadget graph.
    Calls that find the condensation already kept on the graph are lookups
    and are not counted."""
    from pocover import exact

    computed = []
    inner = exact._scc

    def counting(graph):
        if getattr(graph, "_condensation", None) is None:
            computed.append(graph)
        return inner(graph)

    monkeypatch.setattr(exact, "_scc", counting)
    draw, check = verify.ROUNDTRIPS["degree_augment"]
    rng = SplitMix64(3)
    for i in range(60):
        rcp = draw(rng, 3 + 104729 * i)
        before = len(computed)
        report = check(rcp)
        assert report.error is None and report.passed
        trip = computed[before:]
        # the source graph, then the gadget graph
        assert len(trip) == 2 and trip[0] is rcp.graph
        assert trip[1].vertex_count > rcp.graph.vertex_count
    assert len(computed) == 120


def _with_target_edges(artifact, edges):
    big = artifact.target
    target = RcpInstance(Digraph(big.graph.vertex_count, edges), big.profit, big.budget)
    return replace(artifact, target=target)


def _corrupted(rng, artifact, how):
    """The artifact with one arc of its gadget graph removed or added:
    ``internal`` drops an arc inside a gadget, ``cross_removed`` one between
    gadgets, ``cross_added`` adds one between gadgets."""
    n = artifact.source.graph.vertex_count
    t = artifact.parameters["t"]
    owner = [v if v < n else (v - n) // (t - 1) for v in range(n * t)]
    edges = list(artifact.target.graph.edges)
    if how == "cross_added":
        while True:
            u, v = rng.randrange(n * t), rng.randrange(n * t)
            if owner[u] != owner[v] and (u, v) not in edges:
                return _with_target_edges(artifact, edges + [(u, v)])
    inside = how == "internal"
    pool = [i for i, (u, v) in enumerate(edges) if (owner[u] == owner[v]) == inside]
    if not pool:
        return None
    del edges[pool[rng.randrange(len(pool))]]
    return _with_target_edges(artifact, edges)


def test_degree_checks_agree_with_the_oracles_on_corrupted_gadget_graphs():
    # kind -> [runs, reachability failures, gadget failures]
    tally = {"internal": [0, 0, 0], "cross_removed": [0, 0, 0], "cross_added": [0, 0, 0]}
    for seed in range(300):
        rng, small = _seeded_digraph(seed)
        artifact = reductions.degree_augment(RcpInstance(small, [0] * small.vertex_count, 1))
        # seed % 3 picks the density, seed // 3 % 3 the corruption
        how = tuple(tally)[seed // 3 % 3]
        bad = _corrupted(rng, artifact, how)
        if bad is None:
            continue
        n = small.vertex_count
        reach = verify._reachability_match(small, bad.target.graph, n)
        gadgets = verify._gadgets_connected(bad)
        assert reach == _oracle_reachability_match(small, bad.target.graph, n), seed
        assert gadgets == _oracle_gadgets_connected(bad), seed
        tally[how][0] += 1
        tally[how][1] += not reach
        tally[how][2] += not gadgets
    # a gadget is a minimal strongly connected graph: losing any internal arc
    # breaks it, and the cross arcs are outside every gadget
    assert tally["internal"][2] == tally["internal"][0] > 90
    assert tally["cross_removed"][2] == tally["cross_added"][2] == 0
    assert tally["cross_removed"][1] > 0 and tally["cross_added"][1] > 0


@pytest.mark.parametrize(
    "extra, ok",
    [([(0, 7)], False), ([(6, 0)], False), ([(0, 4), (0, 4)], True)],
    ids=["third-out-arc", "third-in-arc", "duplicate-arc"],
)
def test_degree_at_most_2_counts_distinct_arcs_on_each_side(extra, ok):
    # In the gadget graph of 0 -> 1 (t = 5), original 0 has the out-arcs
    # (0, 4), (0, 5) and the in-arcs (2, 0), (3, 0); vertex 7 has one in-arc
    # and vertex 6 one out-arc, so each of the first two cases raises one
    # degree to 3; the duplicate of (0, 4) is merged.
    artifact = reductions.degree_augment(RcpInstance(Digraph(2, [(0, 1)]), [1, 1], 1))
    edges = list(artifact.target.graph.edges)
    checks = dict(verify._augment_structure_checks(_with_target_edges(artifact, edges + extra)))
    assert checks["degree_at_most_2"] is ok


def test_degree_checks_at_scale():
    """The oracle-free checks of the degree reduction on a 96-vertex digraph
    (gadget size 509, 48,864 vertices), beyond what the exact oracle takes."""
    rng = SplitMix64(96)
    arcs = [(u, v) for u in range(96) for v in range(96) if u != v and rng.randrange(100) < 3]
    artifact = reductions.degree_augment(RcpInstance(Digraph(96, arcs), [1] * 96, 4))
    assert artifact.target.graph.vertex_count == 96 * 509
    checks = verify._augment_structure_checks(artifact)
    assert [name for name, ok in checks] == [
        "degree_at_most_2",
        "size_formula",
        "reachability_preserved",
        "gadgets_strongly_connected",
    ]
    assert all(ok for _, ok in checks)


# kind -> the names of its round trip's checks, in order, on the first
# instance of the CLI's corpus at seed 0.  They go into perfbench's output
# digest, so a dropped, renamed or reordered check shows here first.
CHECK_NAMES = {
    "bpcc_to_ct": ["opt_equal", "lift_covers_target", "project_covers_source", "size_formula"],
    "dksh_to_rcp": ["opt_equal", "lift_feasible", "project_feasible", "target_dag_bipartite"],
    "rcp_to_dksh": [
        "opt_equal",
        "closed_set_keeps_weight",
        "minimal_projects_feasible",
        "minimalize_idempotent",
    ],
    "dks_to_urcp": [
        "pipeline_matches_exact",
        "solution_within_budget",
        "edge_hits_floor",
        "copies_all_or_nothing",
    ],
    "degree_augment": [
        "opt_equal",
        "lift_feasible",
        "project_feasible",
        "degree_at_most_2",
        "size_formula",
        "reachability_preserved",
        "gadgets_strongly_connected",
    ],
}


@pytest.mark.parametrize("kind", list(CHECK_NAMES))
def test_round_trip_check_names_in_order(kind):
    draw, check = verify.ROUNDTRIPS[kind]
    report = check(draw(SplitMix64(0), 0))
    assert report.error is None and report.passed
    assert [name for name, _ in report.checks] == CHECK_NAMES[kind]


def _patch_map(monkeypatch, name, direction, broken):
    """Send ``reductions.<name>``'s answers in ``direction`` through
    ``broken(artifact, solution, answer)``."""
    inner = getattr(reductions, name)

    def patched(artifact, solution, d):
        answer = inner(artifact, solution, d)
        return broken(artifact, solution, answer) if d == direction else answer

    monkeypatch.setattr(reductions, name, patched)


def _bpcc_leaves_dropped(monkeypatch):
    # keeps the root and the cluster vertex: the items' leaves go uncovered
    _patch_map(monkeypatch, "bpcc_map", "lift", lambda a, c, out: frozenset(
        v for v in out if v <= a.parameters["m"]
    ))


def _bpcc_every_item(monkeypatch):
    # every item in every bin: the bins span both clusters
    _patch_map(monkeypatch, "bpcc_map", "project", lambda a, c, out: frozenset(
        range(a.source.item_count)
    ))


def _dksh_edge_vertices_only(monkeypatch):
    # the edge-vertices without the copies that feed them: not closed
    _patch_map(monkeypatch, "dksh_rcp_map", "lift", lambda a, s, out: frozenset(
        v for v in out if v >= a.source.vertex_count * (a.parameters["m"] + 1)
    ))


def _dksh_nothing_projected(monkeypatch):
    _patch_map(monkeypatch, "dksh_rcp_map", "project", lambda a, s, out: frozenset())


def _rcp_optimum_emptied(monkeypatch):
    # the lift of rcp_to_dksh is the identity, so its input is broken instead:
    # the empty set, reported with the optimum's profit
    from pocover import exact

    inner = exact.exact_rcp
    monkeypatch.setattr(exact, "exact_rcp", lambda rcp: (frozenset(), inner(rcp)[1]))


def _minimalize_to_nothing(monkeypatch):
    # idempotent, but it loses the contained weight
    monkeypatch.setattr(reductions, "minimalize", lambda dksh, solution: frozenset())


def _augment_spare_gadget(monkeypatch):
    # closed, within the budget and of the same profit, but one gadget too
    # many: only the t*|S| size test catches it
    inner = reductions.augment_map

    def spare(a, s, out):
        assert 2 not in s and a.source.profit[2] == 0
        return inner(a, s | {2}, "lift")

    _patch_map(monkeypatch, "augment_map", "lift", spare)


def _augment_nothing_projected(monkeypatch):
    _patch_map(monkeypatch, "augment_map", "project", lambda a, s, out: frozenset())


_BPCC = GenSpec(kind="bpcc", n=6, k=4, seed=77, shape={"cluster_count": 2})
_DKSH = GenSpec(kind="hypergraph", n=5, k=3, seed=41, shape={"num_edges": 3})
_RCP = GenSpec(kind="digraph", n=6, k=3, seed=13)
_SPARE = RcpInstance(Digraph(3, [(0, 1)]), [1, 4, 0], 3)  # optimum {0, 1}; 2 is spare

# (round trip, source, how its lift or project map breaks, the check that fails)
BROKEN_MAPS = [
    ("bpcc_to_ct", _BPCC, _bpcc_leaves_dropped, "lift_covers_target"),
    ("bpcc_to_ct", _BPCC, _bpcc_every_item, "project_covers_source"),
    ("dksh_to_rcp", _DKSH, _dksh_edge_vertices_only, "lift_feasible"),
    ("dksh_to_rcp", _DKSH, _dksh_nothing_projected, "project_feasible"),
    ("rcp_to_dksh", _RCP, _rcp_optimum_emptied, "closed_set_keeps_weight"),
    ("rcp_to_dksh", _RCP, _minimalize_to_nothing, "minimal_projects_feasible"),
    ("degree_augment", _SPARE, _augment_spare_gadget, "lift_feasible"),
    ("degree_augment", _SPARE, _augment_nothing_projected, "project_feasible"),
]


@pytest.mark.parametrize(
    "kind, source, breaks, failed",
    BROKEN_MAPS,
    ids=[breaks.__name__.lstrip("_") for _, _, breaks, _ in BROKEN_MAPS],
)
def test_a_broken_map_fails_exactly_its_check(monkeypatch, kind, source, breaks, failed):
    check = getattr(verify, f"roundtrip_{kind}")
    instance = generate(source) if isinstance(source, GenSpec) else source
    report = check(instance)
    assert report.error is None and report.passed
    breaks(monkeypatch)
    assert check(instance).failed_checks() == [failed]


def test_a_guard_error_names_its_instance():
    from pocover.serialize import fingerprint

    # one cluster past exact_bpcc's guard
    bpcc = BpccInstance([list(range(19))], [1] * 19, 5)
    report = roundtrip_bpcc_to_ct(bpcc)
    assert report.error is not None and report.checks == ()
    assert report.fingerprint == fingerprint(bpcc)

    big = Digraph(30, [(i, i + 1) for i in range(29)])
    report = roundtrip_dks_pipeline(big, 6)
    assert report.error is not None and report.checks == ()
    assert report.fingerprint == reductions.fingerprint_graph(big) + "/k6"


_PIPELINE_PATH = Digraph(30, [(i, i + 1) for i in range(29)])

# kind -> (the guard it lowers, to what, the source); dks_to_urcp needs no
# patch, as a 30-vertex path is past the pipeline's own guard
GUARDS = {
    "bpcc_to_ct": ("BPCC_MAX_CLUSTER", 0, generate(_BPCC)),
    "dksh_to_rcp": ("DKSH_MAX_COMBINATIONS", 0, generate(_DKSH)),
    "rcp_to_dksh": ("RCP_MAX_MASK_BITS", -1, generate(_RCP)),
    "dks_to_urcp": (None, None, (_PIPELINE_PATH, 6)),
    "degree_augment": ("RCP_MAX_MASK_BITS", -1, _SPARE),
}


@pytest.mark.parametrize("kind", list(GUARDS))
def test_each_round_trip_reports_its_guard(monkeypatch, kind):
    from pocover import exact
    from pocover.serialize import fingerprint

    name, limit, source = GUARDS[kind]
    if name is not None:
        monkeypatch.setattr(exact, name, limit)
    _, check = verify.ROUNDTRIPS[kind]
    report = check(source)  # a report, not a raise
    assert report.kind == kind and report.checks == ()
    assert report.error.startswith("oracle guard: ")
    if kind == "dks_to_urcp":
        assert report.fingerprint == reductions.fingerprint_graph(_PIPELINE_PATH) + "/k6"
    else:
        assert report.fingerprint == fingerprint(source)


_PATH = RcpInstance(Digraph(3, [(0, 1), (1, 2)]), [1, 2, 4], 2)
_HYPER = DkshInstance(4, [[0, 1], [1, 2], [3]], [5, 7, 1], 2)
# root 0 with children 1 and 2, and 3 below 1
_TREE = CtInstance(SizedOutTree([None, 0, 0, 1], [1, 1, 2, 2]), 4)
_BINS = BpccInstance([[0, 1], [2, 3, 4]], [2, 2, 1, 3, 2], 4)


@pytest.mark.parametrize(
    "kind, instance, solution, value",
    [
        ("rcp", _PATH, set(), 0),
        ("rcp", _PATH, {0}, 1),
        ("rcp", _PATH, {0, 1}, 3),
        ("rcp", _PATH, {0, 1, 2}, None),  # over the budget
        ("rcp", _PATH, {1}, None),  # not closed
        ("rcp", _PATH, {0, 2}, None),  # not closed
        ("dksh", _HYPER, {0, 1}, 5),
        ("dksh", _HYPER, {1, 2}, 7),
        ("dksh", _HYPER, {0, 3}, 1),
        ("dksh", _HYPER, {0, 2}, 0),
        ("dksh", _HYPER, {0, 1, 2}, None),  # over the budget
        ("ct", _TREE, [{0, 2}, {0, 1, 3}], 2),
        ("ct", _TREE, [{0, 2}, {0, 1}, {0, 1, 3}], 3),
        ("ct", _TREE, [{0, 1, 2, 3}], None),  # over the capacity
        ("ct", _TREE, [{0, 2}, {1, 3}], None),  # 1 without its parent
        ("ct", _TREE, [{0, 2}, {0, 1}], None),  # 3 uncovered
        ("bpcc", _BINS, [{0, 1}, {2, 3}, {4}], 3),
        ("bpcc", _BINS, [{0}, {1}, {2, 4}, {3}], 4),
        ("bpcc", _BINS, [{0, 2}, {1}, {3}, {4}], None),  # spans two clusters
        ("bpcc", _BINS, [{0, 1}, {2, 3, 4}], None),  # over the capacity
        ("bpcc", _BINS, [{0, 1}, {2, 3}], None),  # 4 uncovered
    ],
)
def test_value_of_each_kind(kind, instance, solution, value):
    assert verify.VALUE[kind](instance, solution) == value


@pytest.mark.parametrize(
    "kind, instance, solution",
    [
        ("rcp", _PATH, {0, 3}),
        ("dksh", _HYPER, {4}),
        ("ct", _TREE, [{0, 2}, {0, 1, 3}, {4}]),
        ("bpcc", _BINS, [{0, 1}, {2, 3}, {4}, {-1}]),
    ],
)
def test_value_of_an_id_out_of_range_is_an_input_error(kind, instance, solution):
    with pytest.raises(InputError, match="out of range"):
        verify.VALUE[kind](instance, solution)


def test_projected_cover_packs_at_scale():
    """``bpcc_map`` projects the factor-2 cover of a 2*10^4-item star to a
    packing that ``VALUE`` accepts, with no more bins than the cover has sets."""
    bpcc = generate(
        GenSpec(kind="bpcc", n=20000, k=1000, seed=1, shape={"cluster_count": 50})
    )
    artifact = reductions.bpcc_to_ct(bpcc)
    sets = cover(artifact.target).cover
    projected = (reductions.bpcc_map(artifact, c, "project") for c in sets)
    packing = [bin_ for bin_ in projected if bin_]
    bins = verify.VALUE["bpcc"](bpcc, packing)
    assert bins is not None and bins == len(packing) <= len(sets)
