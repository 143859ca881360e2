from dataclasses import replace

import pytest

from pocover import reductions, verify
from pocover.generate import GenSpec, SplitMix64, generate
from pocover.model import CtInstance, Digraph, RcpInstance, SizedOutTree
from pocover.treecover import cover
from pocover.verify import (
    roundtrip_bpcc_to_ct,
    roundtrip_degree_augment,
    roundtrip_dks_pipeline,
    roundtrip_dksh_to_rcp,
    roundtrip_rcp_to_dksh,
    run_roundtrip,
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
    assert report.passed, report.failed_checks()


def test_roundtrip_dksh():
    h = generate(GenSpec(kind="hypergraph", n=5, k=3, seed=41, shape={"num_edges": 3}))
    report = roundtrip_dksh_to_rcp(h)
    assert report.passed, report.failed_checks()


def test_roundtrip_rcp():
    rcp = generate(GenSpec(kind="digraph", n=6, k=3, seed=13))
    report = roundtrip_rcp_to_dksh(rcp)
    assert report.passed, report.failed_checks()


def test_roundtrip_degree():
    rcp = generate(GenSpec(kind="digraph", n=5, k=2, seed=29))
    report = roundtrip_degree_augment(rcp)
    assert report.passed, report.failed_checks()
    names = dict(report.checks)
    assert names["degree_at_most_2"]
    assert names["reachability_preserved"]
    assert names["gadgets_strongly_connected"]


def test_roundtrip_pipeline_triangle():
    report = roundtrip_dks_pipeline(Digraph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    assert report.passed, report.failed_checks()


def test_run_roundtrip_dispatch_and_guard():
    h = generate(GenSpec(kind="hypergraph", n=4, k=2, seed=3, shape={"num_edges": 2}))
    reports = run_roundtrip("dksh_to_rcp", [h])
    assert len(reports) == 1 and reports[0].passed

    # beyond the pipeline's oracle guard: error entry, not a crash
    big = Digraph(30, [(i, i + 1) for i in range(29)])
    reports = run_roundtrip("dks_to_urcp", [(big, 6)])
    assert reports[0].error is not None

    with pytest.raises(ValueError):
        run_roundtrip("upside_down", [h])


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
