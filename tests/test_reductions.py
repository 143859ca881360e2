import pytest
from hypothesis import given, settings, strategies as st

from pocover.exact import BPCC_MAX_CLUSTER, SizeGuardError, exact_bpcc, exact_dksh, exact_rcp
from pocover.generate import GenSpec, SplitMix64, generate
from pocover.model import (
    BpccInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    closure,
    contained_hyperedges,
    is_closed,
    validate_configuration,
)
from pocover.reductions import (
    ReductionArtifact,
    augment_map,
    bpcc_map,
    bpcc_to_ct,
    degree_augment,
    dks_to_urcp,
    dks_via_urcp,
    dksh_rcp_map,
    dksh_to_rcp,
    gadget_vertices,
    minimalize,
    rcp_to_dksh,
    undirected_edges,
)
from pocover.verify import VALUE


FIG_HYPERGRAPH = DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 3)
FIG_GRAPH = Digraph(4, [(3, 0), (0, 1), (2, 1)])


# ---------------------------------------------------------------------------
# clustered packing -> tree covering


def test_bpcc_to_ct_construction():
    bpcc = BpccInstance([[0, 1], [2]], [2, 2, 3], 4)
    art = bpcc_to_ct(bpcc)
    ct = art.target
    assert ct.capacity == 12
    assert ct.tree.size == (0, 8, 8, 2, 2, 3)
    assert ct.tree.parent == (None, 0, 0, 1, 1, 2)
    assert art.parameters == {"m": 2, "K": 12}

    tiny = BpccInstance([[0]], [5], 5)
    tiny_ct = bpcc_to_ct(tiny).target
    assert tiny_ct.capacity == 15
    assert tiny_ct.tree.parent == (None, 0, 1)


def test_bpcc_map_directions():
    bpcc = BpccInstance([[0, 1], [2]], [2, 2, 3], 4)
    art = bpcc_to_ct(bpcc)
    lifted = bpcc_map(art, [0, 1], "lift")
    assert lifted == {0, 1, 3, 4}
    assert validate_configuration(art.target, lifted) is None
    assert bpcc_map(art, frozenset({0}), "project") == frozenset()
    assert bpcc_map(art, frozenset({0, 2, 5}), "project") == {2}


def test_bpcc_map_rejects_bad_inputs():
    bpcc = BpccInstance([[0, 1], [2]], [2, 2, 3], 4)
    art = bpcc_to_ct(bpcc)
    with pytest.raises(InputError):
        bpcc_map(art, [0, 2], "lift")  # spans two clusters
    with pytest.raises(InputError):
        bpcc_map(art, frozenset({3}), "project")  # leaf without ancestors
    with pytest.raises(InputError):
        bpcc_map(art, [0], "sideways")


# ---------------------------------------------------------------------------
# hypergraph selection -> profit selection


def test_dksh_to_rcp_construction():
    art = dksh_to_rcp(FIG_HYPERGRAPH)
    rcp = art.target
    assert rcp.graph.vertex_count == 14
    assert len(rcp.graph.edges) == 15
    assert rcp.budget == 11
    assert art.parameters == {"m": 2, "c": 11}
    # profits: zero on copies, hyperedge weights on edge-vertices
    assert set(rcp.profit[:12]) == {0}
    assert rcp.profit[12:] == (1, 1)


def test_dksh_to_rcp_no_hyperedges():
    bare = DkshInstance(3, [], [], 2)
    art = dksh_to_rcp(bare)
    assert art.target.graph.vertex_count == 3
    assert art.target.graph.edges == ()
    assert art.target.budget == 2
    assert set(art.target.profit) == {0}


def test_dksh_to_rcp_is_dag_and_bipartite():
    art = dksh_to_rcp(FIG_HYPERGRAPH)
    boundary = 12
    for u, v in art.target.graph.edges:
        assert u < boundary <= v


def test_dksh_rcp_map_directions():
    art = dksh_to_rcp(FIG_HYPERGRAPH)
    rcp = art.target
    lifted = dksh_rcp_map(art, {0, 1, 2}, "lift")
    assert len(lifted) == 10
    assert sum(rcp.profit[v] for v in lifted) == 1
    assert is_closed(rcp.graph, lifted)
    assert dksh_rcp_map(art, lifted, "project") >= {0, 1, 2}

    all_of_it = dksh_to_rcp(
        DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 4)
    )
    lifted_all = dksh_rcp_map(all_of_it, {0, 1, 2, 3}, "lift")
    assert len(lifted_all) == 14 == all_of_it.target.budget
    assert sum(all_of_it.target.profit[v] for v in lifted_all) == 2


def test_dksh_rcp_map_rejects_bad_inputs():
    art = dksh_to_rcp(FIG_HYPERGRAPH)
    with pytest.raises(InputError):
        dksh_rcp_map(art, {0, 1, 2, 3}, "lift")  # budget is 3
    with pytest.raises(InputError):
        dksh_rcp_map(art, {12}, "project")  # edge-vertex without its copies


# ---------------------------------------------------------------------------
# profit selection -> hypergraph selection


def test_rcp_to_dksh_predecessor_hyperedges():
    art = rcp_to_dksh(RcpInstance(FIG_GRAPH, [1, 1, 1, 1], 2))
    assert [sorted(e) for e in art.target.hyperedges] == [
        [0, 3],
        [0, 1, 2, 3],
        [2],
        [3],
    ]
    assert art.target.weight == (1, 1, 1, 1)
    assert art.target.budget == 2


def test_rcp_to_dksh_edgeless_and_cycle():
    bare = rcp_to_dksh(RcpInstance(Digraph(3, []), [5, 6, 7], 2))
    assert [sorted(e) for e in bare.target.hyperedges] == [[0], [1], [2]]

    two_cycle = rcp_to_dksh(
        RcpInstance(Digraph(2, [(0, 1), (1, 0)]), [3, 9], 2)
    )
    assert [sorted(e) for e in two_cycle.target.hyperedges] == [[0, 1], [0, 1]]
    assert two_cycle.target.weight == (3, 9)


def test_minimalize():
    h = DkshInstance(4, [[0, 1]], [5], 3)
    assert minimalize(h, {0, 1, 3}) == {0, 1}
    assert minimalize(h, set()) == frozenset()
    derived = rcp_to_dksh(RcpInstance(FIG_GRAPH, [1, 1, 1, 1], 4)).target
    assert minimalize(derived, {0, 1, 2, 3}) == {0, 1, 2, 3}
    with pytest.raises(InputError):
        minimalize(h, {0, 1, 2, 3})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimalize_preserves_weight_and_is_idempotent(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 4))
    edges = [
        sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(m)
    ]
    weights = [data.draw(st.integers(0, 5)) for _ in range(m)]
    inst = DkshInstance(n, edges, weights, n)
    members = frozenset(
        data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    )
    smaller = minimalize(inst, members)
    assert smaller <= members
    assert (
        contained_hyperedges(inst, smaller)[1]
        == contained_hyperedges(inst, members)[1]
    )
    assert minimalize(inst, smaller) == smaller


# ---------------------------------------------------------------------------
# densest subgraph -> uniform profit selection


def test_dks_to_urcp_construction():
    art = dks_to_urcp(Digraph(2, [(0, 1)]), 2, 2)
    rcp = art.target
    assert rcp.graph.vertex_count == 9  # 8 copies + 1 edge-vertex
    clique_arcs = [e for e in rcp.graph.edges if e[1] < 8]
    into_edge = [e for e in rcp.graph.edges if e[1] == 8]
    assert len(clique_arcs) == 2 * (4 * 3)
    assert len(into_edge) == 8
    assert rcp.budget == 10  # 2*2*2 + 2
    assert set(rcp.profit) == {1}
    assert art.parameters["h_m"] == 10


def test_dks_to_urcp_edgeless_and_guards():
    art = dks_to_urcp(Digraph(3, []), 1, 1)
    assert art.target.graph.vertex_count == 6
    with pytest.raises(InputError):
        dks_to_urcp(Digraph(2, [(0, 1)]), 2, 0)


def test_undirected_view_merges_arc_directions():
    both = Digraph(3, [(0, 1), (1, 0), (2, 1)])
    assert undirected_edges(both) == [(0, 1), (1, 2)]
    art = dks_to_urcp(both, 2, 1)
    # 3 vertices * 2 copies + 2 edge-vertices
    assert art.target.graph.vertex_count == 8


def test_dks_to_urcp_copy_groups_all_or_nothing():
    art = dks_to_urcp(Digraph(3, [(0, 1), (1, 2)]), 2, 2)
    g = art.target.graph
    for v in range(3):
        grabbed = closure(g, [4 * v])
        assert grabbed >= set(range(4 * v, 4 * v + 4))


def _oracle_dks_to_urcp_graph(graph, m):
    """The per-arc loops that built dks_to_urcp's target graph before it
    emitted whole cliques and feeder runs."""
    n = graph.vertex_count
    und = undirected_edges(graph)
    width = 2 * m
    arcs = []
    for v in range(n):
        base = v * width
        for i in range(width):
            for j in range(width):
                if i != j:
                    arcs.append((base + i, base + j))
    for j, (u, v) in enumerate(und):
        ev = n * width + j
        for x in (u, v):
            for i in range(width):
                arcs.append((x * width + i, ev))
    return Digraph(n * width + len(und), arcs)


def test_dks_to_urcp_matches_the_per_arc_builder():
    rng = SplitMix64(18)
    graphs = 0
    for n in range(1, 11):
        for density in (0, 1, 3, 6):  # in sixths; 0 is edgeless
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.randrange(6) < density]
            graph = Digraph(n, arcs)
            graphs += 1
            for m in range(1, 7):
                expected = _oracle_dks_to_urcp_graph(graph, m)
                target = dks_to_urcp(graph, 2, m).target.graph
                assert target.vertex_count == expected.vertex_count
                assert target.edges == expected.edges
    assert graphs == 40


@pytest.mark.parametrize(
    "edges,n,k,expected_edges",
    [
        ([(0, 1), (1, 2), (0, 2)], 3, 2, 1),  # triangle
        ([(a, b) for a in range(4) for b in range(a + 1, 4)], 4, 3, 3),  # K4
        ([(0, 1), (1, 2)], 3, 2, 1),  # path
        ([(0, 1)], 4, 3, 1),  # single edge, room to spare
    ],
)
def test_dks_via_urcp_matches_brute_force(edges, n, k, expected_edges):
    graph = Digraph(n, edges)
    result = dks_via_urcp(graph, k)
    und = undirected_edges(graph)
    induced = sum(
        1 for u, v in und if u in result.solution and v in result.solution
    )
    assert induced == expected_edges
    assert len(result.solution) <= k


def test_dks_via_urcp_degenerate_budget():
    result = dks_via_urcp(Digraph(3, [(0, 1)]), 1)
    assert len(result.solution) <= 1
    assert result.chosen_m is None


# ---------------------------------------------------------------------------
# degree reduction


def test_degree_augment_two_vertices():
    rcp = RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1)
    art = degree_augment(rcp)
    assert art.parameters == {"m": 2, "l0": 1, "t": 5, "k_I": 5}
    assert art.target.graph.vertex_count == 10
    assert art.target.budget == 5
    assert art.target.profit[:2] == (1, 5)
    assert set(art.target.profit[2:]) == {0}


def test_degree_augment_two_vertex_edge_set():
    # Exact wiring for V={x,y}, E={(x,y)}: ids are x=0, y=1, then x's gadget
    # (in-leaves 2,3; out-leaves 4,5) and y's (in-leaves 6,7; out-leaves 8,9).
    art = degree_augment(RcpInstance(Digraph(2, [(0, 1)]), [1, 1], 1))
    expected = {
        (2, 0), (3, 0), (0, 4), (0, 5), (4, 2), (5, 3),
        (6, 1), (7, 1), (1, 8), (1, 9), (8, 6), (9, 7),
        (5, 6),  # out-leaf of x labelled y -> in-leaf of y labelled x
    }
    assert set(art.target.graph.edges) == expected


def _oracle_degree_augment_graph(rcp):
    """The level loops that built degree_augment's target graph, run again
    for every vertex, before one gadget's offsets were shifted per block."""
    n = rcp.graph.vertex_count
    m = 1
    while m < n:
        m *= 2
    l0 = m.bit_length() - 1
    t = 4 * m - 3
    arcs = []
    for x in range(n):
        base = n + x * (t - 1)
        out = base + 2 * m - 2
        arcs += [(base, x), (base + 1, x), (x, out), (x, out + 1)]
        for level in range(1, l0):
            up = 2**level - 2
            down = 2 * up + 2
            for i in range(2**level):
                arcs += [
                    (base + down + 2 * i, base + up + i),
                    (base + down + 2 * i + 1, base + up + i),
                    (out + up + i, out + down + 2 * i),
                    (out + up + i, out + down + 2 * i + 1),
                ]
        for i in range(m - 2, 2 * m - 2):
            arcs.append((out + i, base + i))
    for x, y in rcp.graph.edges:
        arcs.append((n + x * (t - 1) + 3 * m - 4 + y, n + y * (t - 1) + m - 2 + x))
    return Digraph(n * t, arcs)


@pytest.mark.parametrize("n", [*range(2, 41), 64, 65, 100, 128])
def test_degree_augment_matches_the_level_loops(n):
    rng = SplitMix64(n)
    arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    rcp = RcpInstance(Digraph(n, [(u, v) for u, v in arcs if u != v]), [1] * n, 1)
    expected = _oracle_degree_augment_graph(rcp)
    target = degree_augment(rcp).target.graph
    assert target.vertex_count == expected.vertex_count
    assert target.edges == expected.edges


def test_degree_augment_dims_scale():
    rcp = RcpInstance(Digraph(3, [(0, 1)]), [1, 1, 1], 2)
    art = degree_augment(rcp)
    assert art.parameters["m"] == 4
    assert art.parameters["t"] == 13
    assert art.target.graph.vertex_count == 3 * 13


def test_degree_augment_degree_bound():
    rcp = RcpInstance(
        Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 0)]),
        [1, 2, 3, 4],
        2,
    )
    art = degree_augment(rcp)
    indeg = [0] * art.target.graph.vertex_count
    outdeg = [0] * art.target.graph.vertex_count
    for u, v in art.target.graph.edges:
        outdeg[u] += 1
        indeg[v] += 1
    assert max(indeg) <= 2
    assert max(outdeg) <= 2


def test_degree_augment_rejects_single_vertex():
    with pytest.raises(InputError):
        degree_augment(RcpInstance(Digraph(1, []), [1], 1))


def test_augment_map_round_trip():
    rcp = RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1)
    art = degree_augment(rcp)
    lifted = augment_map(art, {0}, "lift")
    assert lifted == gadget_vertices(art, 0)
    assert len(lifted) == 5
    assert augment_map(art, lifted, "project") == {0}
    with pytest.raises(InputError):
        augment_map(art, {1}, "lift")  # {y} is not closed


def test_augment_project_names_the_owner_of_every_member():
    from pocover.generate import SplitMix64

    rng = SplitMix64(12)
    for n in range(2, 10):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.randrange(4) == 0]
        art = degree_augment(RcpInstance(Digraph(n, arcs), [1] * n, n))
        size = art.target.graph.vertex_count
        for _ in range(6):
            members = closure(art.target.graph, [rng.randrange(size)])
            expected = {x for x in range(n) if gadget_vertices(art, x) & members}
            assert augment_map(art, members, "project") == expected
        with pytest.raises(InputError):
            augment_map(art, {size}, "project")


_AUGMENT = degree_augment(RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1))
_BPCC = bpcc_to_ct(BpccInstance([[0, 1], [2]], [2, 3, 3], 4))


@pytest.mark.parametrize(
    "call, message",
    [
        # an arc's tail without its head is not closed
        (lambda: augment_map(_AUGMENT, {_AUGMENT.target.graph.edges[0][0]}, "project"),
         "not a feasible closed selection"),
        (lambda: augment_map(_AUGMENT, {0}, "sideways"), "unknown direction 'sideways'"),
        (lambda: dksh_rcp_map(dksh_to_rcp(FIG_HYPERGRAPH), {0}, "sideways"),
         "unknown direction 'sideways'"),
        (lambda: augment_map(_BPCC, {0}, "lift"),
         "artifact is 'bpcc_to_ct', expected 'degree_augment'"),
        (lambda: bpcc_map(_BPCC, [0, 1], "lift"), "configuration exceeds the packing capacity"),
        (lambda: bpcc_map(_BPCC, [0, 2], "lift"), "configuration spans more than one cluster"),
        (lambda: bpcc_map(_BPCC, [0, 0.5], "project"), "configuration: expected int, got float"),
        (lambda: bpcc_map(_BPCC, ["a"], "project"), "configuration: expected int, got str"),
        (lambda: ReductionArtifact("bogus", None, None, {}), "unknown reduction kind 'bogus'"),
        # ids are checked before any lookup: -1 would read the last item
        (lambda: bpcc_map(_BPCC, [-1], "lift"), "configuration: vertex -1 out of range [0, 3)"),
        (lambda: bpcc_map(_BPCC, [99], "lift"), "configuration: vertex 99 out of range [0, 3)"),
        (lambda: bpcc_map(_BPCC, [1.5], "lift"), "configuration: expected int, got float"),
        (lambda: dksh_rcp_map(dksh_to_rcp(FIG_HYPERGRAPH), [1.0], "lift"),
         "vertex selection: expected int, got float"),
        (lambda: dksh_rcp_map(dksh_to_rcp(FIG_HYPERGRAPH), [1.0], "project"),
         "vertex selection: expected int, got float"),
        (lambda: dks_to_urcp(Digraph(2, [(0, 1)]), 2, 1.5),
         "copy multiplier m: expected int, got float"),
        (lambda: dks_to_urcp(Digraph(2, [(0, 1)]), 2, True),
         "copy multiplier m: expected int, got bool"),
        (lambda: dks_to_urcp(Digraph(2, [(0, 1)]), 2, 0), "copy multiplier m must be at least 1"),
    ],
    ids=[
        "augment-unclosed", "augment-direction", "dksh-direction", "augment-wrong-artifact",
        "bpcc-over-capacity", "bpcc-two-clusters", "bpcc-float-member", "bpcc-str-member", "unknown-kind",
        "bpcc-lift-negative", "bpcc-lift-past-end", "bpcc-lift-float", "dksh-lift-float",
        "dksh-project-float", "urcp-float-m", "urcp-bool-m", "urcp-zero-m",
    ],
)
def test_map_misuse_is_an_input_error_with_its_message(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_augment_preserves_optimum_small():
    rcp = RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1)
    art = degree_augment(rcp)
    assert exact_rcp(rcp)[1] == exact_rcp(art.target)[1] == 1


# ---------------------------------------------------------------------------
# optimum preservation spot checks (bulk runs live in the acceptance suite)


def test_optimum_preservation_spot_checks():
    h = FIG_HYPERGRAPH
    art = dksh_to_rcp(h)
    assert exact_dksh(h)[1] == exact_rcp(art.target)[1] == 1

    rcp = RcpInstance(FIG_GRAPH, [2, 1, 1, 3], 2)
    back = rcp_to_dksh(rcp)
    assert exact_rcp(rcp)[1] == exact_dksh(back.target)[1]

    bpcc = BpccInstance([[0, 1, 2], [3]], [3, 3, 3, 1], 4)
    from pocover.exact import exact_bpcc, exact_ct

    assert exact_bpcc(bpcc)[1] == len(exact_ct(bpcc_to_ct(bpcc).target))


# ---------------------------------------------------------------------------
# solution maps on drawn, not optimal, solutions past the exact guards


def _closed_draws(rng, target, draw_seed, count):
    """``count`` closed sets of ``target`` within its budget, each the
    closure of the vertices ``draw_seed(rng)`` returns."""
    drawn = []
    while len(drawn) < count:
        members = closure(target.graph, draw_seed(rng))
        if len(members) <= target.budget:
            drawn.append(members)
    return drawn


def test_dksh_rcp_project_keeps_the_budget_and_the_value_past_the_guard():
    """A closed target set within the budget projects to a vertex selection
    within the hypergraph budget whose contained weight is at least the set's
    profit.  Each target has 24 edge-vertices, past the sink walk's guard."""
    rng = SplitMix64(17)
    checked = 0
    for seed in range(10):
        spec = GenSpec("hypergraph", n=12, k=4, seed=seed, shape={"num_edges": 24})
        dksh = generate(spec)
        art = dksh_to_rcp(dksh)
        target = art.target
        with pytest.raises(SizeGuardError):
            exact_rcp(target)
        size, m = target.graph.vertex_count, art.parameters["m"]

        def draw_seed(rng):
            # one to three edge-vertices, sometimes with a lone vertex copy
            seed = [size - m + rng.randrange(m) for _ in range(1 + rng.randrange(3))]
            return seed + [rng.randrange(size)] * rng.randrange(2)

        for members in _closed_draws(rng, target, draw_seed, 100):
            selection = dksh_rcp_map(art, members, "project")
            assert len(selection) <= dksh.budget
            profit = sum(target.profit[v] for v in members)
            assert contained_hyperedges(dksh, selection)[1] >= profit
            checked += 1
    assert checked == 1000


def test_augment_project_keeps_the_budget_and_the_profit_past_the_guard():
    """A closed target set within the budget holds whole gadgets, so it
    projects to a closed selection within the source budget, of equal
    profit and with exactly ``t`` target vertices per selected vertex.  Each
    source has 24 vertices, so the target has 24 components."""
    rng = SplitMix64(29)
    checked = 0
    for seed in range(10):
        spec = GenSpec("dag", n=24, k=6, seed=seed, shape={"edge_density": 0.1})
        rcp = generate(spec)
        art = degree_augment(rcp)
        target, t = art.target, art.parameters["t"]
        with pytest.raises(SizeGuardError):
            exact_rcp(target)
        size = target.graph.vertex_count

        def draw_seed(rng):
            return [rng.randrange(size) for _ in range(1 + rng.randrange(3))]

        for members in _closed_draws(rng, target, draw_seed, 100):
            selection = augment_map(art, members, "project")
            assert is_closed(rcp.graph, selection)
            assert len(selection) <= rcp.budget
            assert len(members) == t * len(selection)
            profit = sum(target.profit[v] for v in members)
            assert sum(rcp.profit[x] for x in selection) == profit
            checked += 1
    assert checked == 1000


def test_bpcc_map_carries_drawn_packings_past_the_guard():
    """A packing lifts to a cover of the ``bpcc_to_ct`` star with as many
    sets, and each lifted bin projects back to itself.  The packings are
    next-fit over seeded shuffles of each cluster, and every instance has
    clusters of more than ``BPCC_MAX_CLUSTER`` items."""
    rng = SplitMix64(31)
    checked = 0
    for seed in range(10):
        bpcc = generate(GenSpec("bpcc", n=60, k=100, seed=seed, shape={"cluster_count": 2}))
        assert min(map(len, bpcc.clusters)) > BPCC_MAX_CLUSTER
        with pytest.raises(SizeGuardError):
            exact_bpcc(bpcc)
        art = bpcc_to_ct(bpcc)
        for _ in range(100):
            packing = []
            for group in bpcc.clusters:
                load = bpcc.capacity + 1  # the first item opens a bin
                for i in rng.sample(len(group), len(group)):
                    v = group[i]
                    if load + bpcc.weight[v] > bpcc.capacity:
                        packing.append(set())
                        load = 0
                    packing[-1].add(v)
                    load += bpcc.weight[v]
            assert VALUE["bpcc"](bpcc, packing) == len(packing)
            lifted = [bpcc_map(art, bin_, "lift") for bin_ in packing]
            assert VALUE["ct"](art.target, lifted) == len(packing)
            assert [bpcc_map(art, c, "project") for c in lifted] == packing
            checked += 1
    assert checked == 1000
