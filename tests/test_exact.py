from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pocover.exact import (
    BPCC_MAX_CLUSTER,
    RCP_MAX_MASK_BITS,
    SizeGuardError,
    enumerate_configurations,
    exact_bpcc,
    exact_ct,
    exact_dksh,
    exact_rcp,
)
from pocover.model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    RcpInstance,
    SizedOutTree,
    closure,
    validate_configuration,
)
from pocover.treecover import InfeasibleInstance


# ---------------------------------------------------------------------------
# configuration enumeration


def powerset_configurations(instance):
    """Reference enumeration: filter the full power set."""
    n = instance.tree.vertex_count
    out = []
    for mask in range(1, 1 << n):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        if validate_configuration(instance, members) is None:
            out.append(members)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def test_enumerate_examples():
    single = CtInstance(SizedOutTree([None], [1]), 1)
    assert enumerate_configurations(single) == [frozenset({0})]

    star = CtInstance(SizedOutTree([None, 0, 0], [0, 3, 3]), 6)
    assert enumerate_configurations(star) == [
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    ]

    chain = CtInstance(SizedOutTree([None, 0], [1, 2]), 2)
    assert enumerate_configurations(chain) == [frozenset({0})]


def test_enumerate_guard():
    inst = CtInstance(SizedOutTree([None] + [0] * 20, [0] * 21), 3)
    with pytest.raises(SizeGuardError):
        enumerate_configurations(inst)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_enumerate_matches_powerset_filter(data):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 6))
    parent = [None] + [
        data.draw(st.integers(0, i - 1)) for i in range(1, n)
    ]
    size = [data.draw(st.integers(0, k)) for _ in range(n)]
    inst = CtInstance(SizedOutTree(parent, size), k)
    assert enumerate_configurations(inst) == powerset_configurations(inst)


# ---------------------------------------------------------------------------
# exact tree covering


def reference_min_cover_size(instance):
    """Independent oracle: breadth-first layering over coverage masks with
    all configurations as moves."""
    n = instance.tree.vertex_count
    masks = []
    for c in enumerate_configurations(instance):
        m = 0
        for v in c:
            m |= 1 << v
        masks.append(m)
    full = (1 << n) - 1
    depth = {0: 0}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        if cur == full:
            return depth[cur]
        for m in masks:
            nxt = cur | m
            if nxt not in depth:
                depth[nxt] = depth[cur] + 1
                queue.append(nxt)
    return None


def test_exact_ct_examples(star4, star3):
    assert len(exact_ct(star4)) == 2
    assert len(exact_ct(star3)) == 3
    whole = CtInstance(SizedOutTree([None, 0, 0], [1, 1, 1]), 5)
    assert len(exact_ct(whole)) == 1


def test_exact_ct_returns_valid_cover(star3):
    from pocover.model import validate_cover

    assert validate_cover(star3, exact_ct(star3)) is None


def test_exact_ct_infeasible():
    inst = CtInstance(SizedOutTree([None, 0], [2, 1]), 2)
    with pytest.raises(InfeasibleInstance):
        exact_ct(inst)


def test_exact_ct_guard():
    inst = CtInstance(SizedOutTree([None] + [0] * 18, [0] * 19), 3)
    with pytest.raises(SizeGuardError):
        exact_ct(inst)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_ct_matches_mask_bfs(data):
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, 7))
    parent = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    size = [data.draw(st.integers(0, k)) for _ in range(n)]
    inst = CtInstance(SizedOutTree(parent, size), k)
    reference = reference_min_cover_size(inst)
    if reference is None:
        with pytest.raises(InfeasibleInstance):
            exact_ct(inst)
    else:
        assert len(exact_ct(inst)) == reference


# ---------------------------------------------------------------------------
# exact profit selection


def reference_rcp(instance):
    """Independent oracle: all vertex subsets, closure check by definition."""
    n = instance.graph.vertex_count
    best = (0, ())
    for mask in range(1 << n):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        if len(members) > instance.budget:
            continue
        if closure(instance.graph, members) != members:
            continue
        profit = sum(instance.profit[v] for v in members)
        key = (profit, tuple(sorted(members)))
        if key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key
    return best[1], best[0]


FIG_GRAPH = Digraph(4, [(3, 0), (0, 1), (2, 1)])


def test_exact_rcp_examples():
    solution, profit = exact_rcp(RcpInstance(FIG_GRAPH, [1, 1, 1, 1], 2))
    assert (sorted(solution), profit) == ([0, 3], 2)

    free = RcpInstance(FIG_GRAPH, [2, 3, 4, 5], 4)
    assert exact_rcp(free)[1] == 14

    edge = RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1)
    assert exact_rcp(edge) == (frozenset({0}), 1)


def test_exact_rcp_edgeless_is_top_k():
    inst = RcpInstance(Digraph(5, []), [3, 9, 1, 9, 4], 2)
    solution, profit = exact_rcp(inst)
    assert profit == 18
    assert solution == {1, 3}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_rcp_matches_subset_enumeration(data):
    n = data.draw(st.integers(1, 6))
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    )
    g = Digraph(n, [(u, v) for u, v in pairs if u != v])
    inst = RcpInstance(
        g,
        [data.draw(st.integers(0, 6)) for _ in range(n)],
        data.draw(st.integers(1, n)),
    )
    expected_set, expected_profit = reference_rcp(inst)
    got_set, got_profit = exact_rcp(inst)
    assert got_profit == expected_profit
    assert tuple(sorted(got_set)) == expected_set


def run_layer_strategy(instance, which):
    """Drive one of the walks directly, whatever ``exact_rcp`` would pick,
    so each can be compared against the others and the reference."""
    from pocover import exact

    comps, comp_of = exact._scc(instance.graph)
    pred = [set() for _ in comps]
    succ = [set() for _ in comps]
    for u, v in instance.graph.edges:
        if comp_of[u] != comp_of[v]:
            pred[comp_of[v]].add(comp_of[u])
            succ[comp_of[u]].add(comp_of[v])
    sizes = [len(c) for c in comps]
    profits = [sum(instance.profit[v] for v in c) for c in comps]
    sources = [i for i in range(len(comps)) if not pred[i]]
    sinks = [i for i in range(len(comps)) if pred[i] and not succ[i]]
    assert len(sources) + len(sinks) == len(comps)
    walk = {
        "components": exact._rcp_component_subsets,
        "sinks": exact._rcp_sink_subsets,
        "sources": exact._rcp_source_subsets,
    }[which]
    return walk(instance, comps, pred, sizes, profits, sources, sinks)


def test_layered_solvers_agree_with_component_path():
    from pocover.reductions import dks_to_urcp, dksh_to_rcp

    # Small gadget instances keep the component count under the general
    # solver's guard, so every strategy can be compared head on.
    for budget in (1, 2, 3):
        h = DkshInstance(3, [[0, 1], [1, 2]], [4, 2], budget)
        reduced = dksh_to_rcp(h).target
        assert (
            run_layer_strategy(reduced, "sinks")
            == run_layer_strategy(reduced, "components")
            == exact_rcp(reduced)
        )

    for m in (1, 2):
        art = dks_to_urcp(Digraph(3, [(0, 1), (1, 2)]), 2, m)
        assert (
            run_layer_strategy(art.target, "sources")
            == run_layer_strategy(art.target, "components")
            == exact_rcp(art.target)
        )


def draw_two_layer(data, source_sizes, source_profit):
    """A random two-layer graph: source components with sizes drawn by
    ``source_sizes`` (a cycle each, profit drawn per vertex by
    ``source_profit``), then singleton sinks, each fed by a nonempty set of
    sources; vertex ids are shuffled."""
    source_sizes = data.draw(source_sizes)
    sink_count = data.draw(st.integers(0, 4))
    n = sum(source_sizes) + sink_count
    label = data.draw(st.permutations(range(n)))
    profit = [0] * n
    edges = []
    groups = []
    next_id = 0
    for size in source_sizes:
        group = [label[next_id + i] for i in range(size)]
        next_id += size
        groups.append(group)
        for v in group:
            profit[v] = data.draw(source_profit)
        if size > 1:
            edges += [(group[i], group[(i + 1) % size]) for i in range(size)]
    for _ in range(sink_count):
        sink = label[next_id]
        next_id += 1
        profit[sink] = data.draw(st.integers(0, 4))
        feeders = data.draw(
            st.sets(st.integers(0, len(groups) - 1), min_size=1)
        )
        edges += [(data.draw(st.sampled_from(groups[g])), sink) for g in feeders]
    return RcpInstance(Digraph(n, edges), profit, data.draw(st.integers(1, n)))


# The sink walk needs zero-profit sources; the source walk is drawn with one-
# to three-vertex source cycles that carry profit.  Each walk is also run
# directly, whatever exact_rcp picks.
@pytest.mark.parametrize(
    "walk, sizes, profit",
    [
        ("sinks", st.lists(st.integers(1, 2), min_size=1, max_size=5), st.just(0)),
        (
            "sources",
            st.lists(st.integers(1, 3), min_size=1, max_size=3),
            st.integers(0, 3),
        ),
    ],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_layered_walk_matches_subset_enumeration(walk, sizes, profit, data):
    inst = draw_two_layer(data, sizes, profit)
    expected_set, expected_profit = reference_rcp(inst)
    for got_set, got_profit in (exact_rcp(inst), run_layer_strategy(inst, walk)):
        assert (tuple(sorted(got_set)), got_profit) == (expected_set, expected_profit)


def test_sink_walk_padding_follows_the_growing_maximum():
    # The closure of sink 2 is {1, 2}.  Padding with the cycle {0, 4} raises
    # the maximum to 4, which makes the later source {3} worth adding too.
    inst = RcpInstance(Digraph(5, [(0, 4), (4, 0), (1, 2)]), [0, 0, 1, 0, 0], 5)
    assert reference_rcp(inst) == ((0, 1, 2, 3, 4), 1)
    expected = (frozenset(range(5)), 1)
    assert exact_rcp(inst) == run_layer_strategy(inst, "sinks") == expected


def test_exact_rcp_guard():
    # 25 components, no layered structure: a long path of 2-cycles.
    edges = []
    for i in range(24):
        edges.append((2 * i, 2 * i + 1))
        edges.append((2 * i + 1, 2 * i))
        edges.append((2 * i, 2 * i + 2))
    g = Digraph(50, edges)
    with pytest.raises(SizeGuardError):
        exact_rcp(RcpInstance(g, [1] * 50, 3))


def test_exact_rcp_at_the_mask_ceiling():
    # Edgeless: every vertex is its own component and a source, so each walk
    # needs one mask bit per vertex.  Profits tie in threes.
    n = RCP_MAX_MASK_BITS
    inst = RcpInstance(Digraph(n, []), [v % 3 for v in range(n)], 5)
    assert exact_rcp(inst) == (frozenset({2, 5, 8, 11, 14}), 10)
    wider = RcpInstance(Digraph(n + 1, []), [1] * (n + 1), 5)
    with pytest.raises(SizeGuardError):
        exact_rcp(wider)


def test_exact_rcp_guard_on_wide_two_layer_graph():
    # 42 components, 21 on each layer: every walk is over the mask ceiling.
    g = Digraph(42, [(i, 21 + i) for i in range(21)])
    with pytest.raises(SizeGuardError):
        exact_rcp(RcpInstance(g, [0] * 21 + [1] * 21, 3))


# ---------------------------------------------------------------------------
# exact hypergraph selection


def test_exact_dksh_examples():
    h3 = DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 3)
    assert exact_dksh(h3) == (frozenset({0, 1, 2}), 1)
    h4 = DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 4)
    assert exact_dksh(h4) == (frozenset({0, 1, 2, 3}), 2)
    empty = DkshInstance(3, [[0]], [0], 5)
    assert exact_dksh(empty)[1] == 0


def test_exact_dksh_cardinality_and_ties():
    # all-zero weights: every subset ties and the lexicographically first wins
    h = DkshInstance(4, [[0, 1]], [0], 2)
    assert exact_dksh(h) == (frozenset({0, 1}), 0)
    # budget above n: cardinality is n, not the budget
    h2 = DkshInstance(3, [[0, 2]], [7], 9)
    assert exact_dksh(h2) == (frozenset({0, 1, 2}), 7)


def test_exact_dksh_guard():
    h = DkshInstance(40, [[0, 1]], [1], 20)
    with pytest.raises(SizeGuardError):
        exact_dksh(h)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_dksh_matches_combination_scan(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 4))
    edges = [
        sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
            )
        )
        for _ in range(m)
    ]
    weights = [data.draw(st.integers(0, 5)) for _ in range(m)]
    k = data.draw(st.integers(1, n))
    inst = DkshInstance(n, edges, weights, k)
    solution, got = exact_dksh(inst)
    best = max(
        sum(
            weights[i]
            for i, e in enumerate(inst.hyperedges)
            if e <= frozenset(combo)
        )
        for combo in combinations(range(n), min(k, n))
    )
    assert got == best
    # the reported weight matches the returned set
    from pocover.model import contained_hyperedges

    assert contained_hyperedges(inst, solution)[1] == got


# ---------------------------------------------------------------------------
# exact clustered packing


def all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def reference_bpcc(instance):
    """Independent oracle: try every partition of every cluster."""
    total = 0
    for group in instance.clusters:
        best = len(group)
        for part in all_partitions(list(group)):
            if all(
                sum(instance.weight[v] for v in block) <= instance.capacity
                for block in part
            ):
                best = min(best, len(part))
        total += best
    return total


def test_exact_bpcc_simple():
    inst = BpccInstance([[0, 1], [2]], [2, 2, 3], 4)
    cover, count = exact_bpcc(inst)
    assert count == 2
    assert set().union(*cover) == {0, 1, 2}
    for group in cover:
        clusters = [i for i, g in enumerate(inst.clusters) if group & set(g)]
        assert len(clusters) == 1
        assert sum(inst.weight[v] for v in group) <= inst.capacity


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_bpcc_matches_partition_scan(data):
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 6))
    cluster_count = data.draw(st.integers(1, n))
    assignment = [
        i if i < cluster_count else data.draw(st.integers(0, cluster_count - 1))
        for i in range(n)
    ]
    clusters = [
        [v for v in range(n) if assignment[v] == c] for c in range(cluster_count)
    ]
    weight = [data.draw(st.integers(0, k)) for _ in range(n)]
    inst = BpccInstance(clusters, weight, k)
    cover, count = exact_bpcc(inst)
    assert count == len(cover) == reference_bpcc(inst)
    assert sorted(v for group in cover for v in group) == list(range(n))
    for group in cover:
        assert any(group <= set(c) for c in clusters)
        assert sum(weight[v] for v in group) <= k


def test_exact_bpcc_guard():
    # The limit is per cluster: two clusters at half the limit pack, one
    # cluster over it is refused before any packing starts.
    half = BPCC_MAX_CLUSTER // 2
    split = BpccInstance(
        [range(half), range(half, 2 * half)], [1] * (2 * half), 3
    )
    assert exact_bpcc(split)[1] == 2 * -(-half // 3)
    one = BpccInstance([range(BPCC_MAX_CLUSTER + 1)], [1] * (BPCC_MAX_CLUSTER + 1), 3)
    with pytest.raises(SizeGuardError):
        exact_bpcc(one)
