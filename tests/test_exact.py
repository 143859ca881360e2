import hashlib
import json
import operator
import tracemalloc
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pocover import exact
from pocover.exact import (
    BPCC_MAX_CLUSTER,
    RCP_MAX_MASK_BITS,
    SizeGuardError,
    _mask,
    _precedes,
    enumerate_configurations,
    exact_bpcc,
    exact_ct,
    exact_dksh,
    exact_rcp,
)
from pocover.generate import GenSpec, SplitMix64, generate
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
from pocover.reductions import bpcc_to_ct
from pocover.serialize import dumps_instance
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
    assert enumerate_configurations(star) == [frozenset({0, 1, 2})]

    tight_star = CtInstance(SizedOutTree([None, 0, 0], [0, 3, 3]), 5)
    assert enumerate_configurations(tight_star) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
    ]

    chain = CtInstance(SizedOutTree([None, 0], [1, 2]), 2)
    assert enumerate_configurations(chain) == [frozenset({0})]


def test_enumerate_guard():
    inst = CtInstance(SizedOutTree([None] + [0] * 20, [0] * 21), 3)
    with pytest.raises(SizeGuardError):
        enumerate_configurations(inst)


def test_enumerate_zero_star_at_the_guard():
    """2^19 configurations, one of them maximal: the walk yields only it."""
    inst = CtInstance(SizedOutTree([None] + [0] * 19, [0] * 20), 1)
    assert enumerate_configurations(inst) == [frozenset(range(20))]


def maximal_configurations(instance):
    """Reference: the configurations that no single further vertex extends
    to another configuration."""
    n = instance.tree.vertex_count
    return [
        c
        for c in powerset_configurations(instance)
        if all(
            validate_configuration(instance, c | {v}) is not None
            for v in range(n)
            if v not in c
        )
    ]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_enumerate_matches_powerset_filter(data):
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, 6))
    parent = [None] + [
        data.draw(st.integers(0, i - 1)) for i in range(1, n)
    ]
    size = [data.draw(st.one_of(st.just(0), st.integers(0, k))) for _ in range(n)]
    inst = CtInstance(SizedOutTree(parent, size), k)
    assert enumerate_configurations(inst) == maximal_configurations(inst)


# ---------------------------------------------------------------------------
# exact tree covering


def reference_min_cover_size(instance):
    """Independent oracle: breadth-first layering over coverage masks with
    all configurations as moves."""
    n = instance.tree.vertex_count
    masks = []
    for c in powerset_configurations(instance):
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


def test_exact_ct_enumerates_once_through_the_module(monkeypatch, star4):
    """The benchmark's traced run expects an ``exact.enumerate_configurations``
    span under ``exact_ct``, so the call must go through the module."""
    calls = []
    inner = exact.enumerate_configurations

    def counting(instance):
        calls.append(instance)
        return inner(instance)

    monkeypatch.setattr(exact, "enumerate_configurations", counting)
    exact_ct(star4)
    assert calls == [star4]


def _ct_digest_corpus():
    """(label, instance): zero-heavy random trees with n <= 14, zero stars,
    zero and unit paths, one tree over the guard, and the trees of
    ``bpcc_to_ct``."""
    rng = SplitMix64(8)
    for _ in range(1500):
        n = 1 + rng.randrange(14)
        k = 1 + rng.randrange(9)
        top = 1 + rng.randrange(k)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        size = [0 if rng.randrange(3) else rng.randint(1, top) for _ in range(n)]
        yield "random", CtInstance(SizedOutTree(parent, size), k)
    for n in range(1, 15):
        for k in (1, 3):
            star = [None] + [0] * (n - 1)
            path = [None] + list(range(n - 1))
            yield "zero_star", CtInstance(SizedOutTree(star, [0] * n), k)
            yield "zero_path", CtInstance(SizedOutTree(path, [0] * n), k)
            yield "unit_path", CtInstance(SizedOutTree(path, [1] * n), k)
    yield "over_guard", CtInstance(SizedOutTree([None] + [0] * 18, [0] * 19), 1)
    for seed in range(60):
        spec = GenSpec("bpcc", n=2 + seed % 9, k=2 + seed % 5, seed=seed,
                       shape={"cluster_count": 1 + seed % 3})
        yield "bpcc_to_ct", bpcc_to_ct(generate(spec)).target


def test_exact_ct_digest_on_seeded_corpus():
    """``exact_ct`` covers, set order included, or the exception type and
    message, hashed over a seeded corpus.  The digest changes only with a
    deliberate change of output, which CHANGES.md records together with the
    new value."""
    digest = hashlib.sha256()
    for label, inst in _ct_digest_corpus():
        line = [label, dumps_instance(inst)]
        try:
            line.append([sorted(c) for c in exact_ct(inst)])
        except (InfeasibleInstance, SizeGuardError) as exc:
            line.append([type(exc).__name__, str(exc)])
        digest.update(json.dumps(line).encode() + b"\n")
    assert digest.hexdigest() == "5004b3527359aceb66a08bab5e3d3b27321f5ab68f2b31b703363814b8e43539"


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
    so each can be compared against the others and the reference:
    ``components`` walks every component, ``sources`` walks the sources and
    takes the sinks greedily, and ``sinks`` walks the sinks."""
    from pocover import exact

    comps, _, pred = exact._scc(instance.graph)
    has_succ = set().union(*pred)
    by_member = sorted(range(len(comps)), key=lambda i: comps[i][0])
    sources = [i for i in by_member if not pred[i]]
    sinks = [i for i in by_member if pred[i] and i not in has_succ]
    assert which == "components" or len(sources) + len(sinks) == len(comps)
    walk, walked, greedy = {
        "components": (exact._rcp_component_subsets, range(len(comps)), []),
        "sinks": (exact._rcp_sink_subsets, sources, sinks),
        "sources": (exact._rcp_component_subsets, sources, sinks),
    }[which]
    return walk(instance, comps, pred, walked, greedy)


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


def _subset_table(values, combine=operator.add) -> list:
    """The list whose entry ``[mask]`` combines ``values[i]`` over the set
    bits of ``mask`` (0 for the empty mask), built by doubling."""
    table = [0]
    for x in values:  # a 0 doubles the table as it stands: t + 0 == t | 0 == t
        table += [combine(t, x) for t in table] if x else table
    return table


def _table_component_subsets(
    instance: RcpInstance,
    comps: tuple[tuple[int, ...], ...],
    pred_comps: tuple[frozenset[int], ...],
    walked: range | list[int],
    greedy: list[int],
) -> tuple[frozenset[int], int]:
    """The component walk as it was before it went depth first, kept as the
    reference: it tests every mask over the ``walked`` components against
    per-mask tables of predecessors, sizes and profits."""
    index = {s: i for i, s in enumerate(walked)}
    needs = {s: _mask(map(index.__getitem__, pred_comps[s])) for s in (*walked, *greedy)}
    groups = [comps[s] for s in walked]
    preds_of = _subset_table((needs[s] for s in walked), operator.or_)
    size_of = _subset_table(map(len, groups))
    profit_of = _subset_table(sum(map(instance.profit.__getitem__, g)) for g in groups)
    # (-profit, vertex, enabling mask): by falling profit, then ascending vertex
    ranked = sorted((-instance.profit[comps[s][0]], comps[s][0], needs[s]) for s in greedy)
    paying = [t for t in ranked if t[0]]
    free = [t[1:] for t in ranked if not t[0]]
    budget = instance.budget
    best_profit = -1
    best_vertices: tuple[int, ...] = ()
    for mask in range(1 << len(groups)):
        size = size_of[mask]
        if size > budget or preds_of[mask] & ~mask:
            continue
        profit = profit_of[mask]
        room = budget - size
        members: list[int] = []
        for p, v, need in paying:
            if room < 1:
                break
            if need & ~mask == 0:
                members.append(v)
                profit -= p
                room -= 1
        if profit < best_profit:
            continue
        members += [v for i, g in enumerate(groups) if mask >> i & 1 for v in g]
        top = max(members, default=-1) if free else -1
        for v, need in free:
            if room < 1 or v > top:
                break
            if need & ~mask == 0:
                members.append(v)
                room -= 1
        vertices = tuple(sorted(members))
        if profit > best_profit or vertices < best_vertices:
            best_profit, best_vertices = profit, vertices
    return frozenset(best_vertices), best_profit


def _table_sink_subsets(
    instance: RcpInstance,
    comps: tuple[tuple[int, ...], ...],
    pred_comps: tuple[frozenset[int], ...],
    sources: list[int],
    sinks: list[int],
) -> tuple[frozenset[int], int]:
    """The sink walk as it was before it went depth first, kept as the
    reference: it tests every mask over the sinks against per-mask tables of
    profits and needed sources, and pads each closure that fits."""
    source_index = {s: i for i, s in enumerate(sources)}
    need_of = _subset_table(
        (_mask(source_index[p] for p in pred_comps[s]) for s in sinks), operator.or_
    )
    profit_of = _subset_table(instance.profit[comps[s][0]] for s in sinks)
    source_size = [len(comps[s]) for s in sources]
    best_profit = -1
    best_vertices: tuple[int, ...] = ()
    for mask in range(1 << len(sinks)):
        profit = profit_of[mask]
        if profit < best_profit:
            continue
        need = need_of[mask]
        card = mask.bit_count() + sum(source_size[i] for i in range(len(sources)) if need >> i & 1)
        if card > instance.budget:
            continue
        members = [comps[sinks[j]][0] for j in range(len(sinks)) if mask >> j & 1]
        for i in range(len(sources)):
            if need >> i & 1:
                members.extend(comps[sources[i]])
        top = max(members, default=-1)
        room = instance.budget - card
        for i in range(len(sources)):
            group = comps[sources[i]]
            if room < 1 or group[0] > top:
                break
            if not need >> i & 1 and len(group) <= room:
                members.extend(group)
                room -= len(group)
                top = max(top, group[-1])
        vertices = tuple(sorted(members))
        if profit > best_profit or vertices < best_vertices:
            best_profit, best_vertices = profit, vertices
    return frozenset(best_vertices), best_profit


def _walk_corpus():
    """(instance, walks): seeded random digraphs and dags with at most 11
    vertices, walked over all components, and ``dksh_to_rcp`` and
    ``dks_to_urcp`` targets, walked over their sources with greedy sinks and,
    up to 12 components, over all components.  Each graph is taken with
    zero, uniform, 0..2 and 0..1000 profits and every budget from 1 to n + 1."""
    from pocover.reductions import dks_to_urcp, dksh_to_rcp

    graphs = []
    for seed in range(110):
        spec = GenSpec(("digraph", "dag")[seed % 2], n=1 + seed % 11, k=1, seed=seed,
                       shape={"edge_density": (0.1, 0.3, 0.6)[seed % 3]})
        graphs.append((generate(spec).graph, ("components",)))
    for seed in range(12):
        spec = GenSpec("hypergraph", n=2 + seed % 2, k=1, seed=seed,
                       shape={"num_edges": 1 + seed % 3})
        graphs.append((dksh_to_rcp(generate(spec)).target.graph, ("sources", "components")))
    for seed in range(8):
        spec = GenSpec("digraph", n=2 + seed % 3, k=1, seed=seed, shape={"edge_density": 0.5})
        graphs.append((dks_to_urcp(generate(spec).graph, 2, 1 + seed % 2).target.graph,
                       ("sources", "components")))
    rng = SplitMix64(20)
    for graph, walks in graphs:
        n = graph.vertex_count
        if len(exact._scc(graph)[0]) > 12:
            walks = walks[:1]
        for profit in ([0] * n, [1] * n, [rng.randrange(3) for _ in range(n)],
                       [rng.randrange(1001) for _ in range(n)]):
            for budget in range(1, n + 2):
                yield RcpInstance(graph, profit, budget), walks


def test_component_walk_matches_the_table_walk(monkeypatch):
    """The depth-first component walk returns the table walk's (selection,
    profit) wherever it runs, over all components and over the sources with
    the sinks taken greedily."""
    counts = dict.fromkeys(("components", "sources"), 0)
    for inst, walks in _walk_corpus():
        for which in walks:
            got = run_layer_strategy(inst, which)
            with monkeypatch.context() as patch:
                patch.setattr(exact, "_rcp_component_subsets", _table_component_subsets)
                assert got == run_layer_strategy(inst, which), (inst, which)
            counts[which] += 1
    assert sum(counts.values()) >= 3000 and min(counts.values()) >= 800, counts


def test_component_walk_memory_at_the_ceiling():
    """At the mask ceiling the component walk holds O(c) state: 20-vertex
    path with rising profits, where the table walk peaked near 120 MB, and
    the edgeless 20-vertex graph with 184,756 tied optima."""
    path = RcpInstance(Digraph(20, [(v, v + 1) for v in range(19)]), range(1000, 1020), 20)
    tracemalloc.start()
    try:
        assert exact_rcp(path) == (frozenset(range(20)), sum(range(1000, 1020)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    wide = RcpInstance(Digraph(20, []), [1] * 20, 10)
    assert exact_rcp(wide) == (frozenset(range(10)), 10)


def _straddling_two_layer(seed):
    """Two to five source cycles of one to three vertices and one to three
    singleton sinks, each fed by one source, with the vertex ids shuffled, so
    that padding meets cycles that straddle the set's maximum and raise it."""
    rng = SplitMix64(seed)
    groups, edges, n = [], [], 0
    for _ in range(2 + rng.randrange(4)):
        size = 1 + rng.randrange(3)
        groups.append(range(n, n + size))
        edges += [(n + i, n + (i + 1) % size) for i in range(size) if size > 1]
        n += size
    for _ in range(1 + rng.randrange(3)):
        group = groups[rng.randrange(len(groups))]
        edges.append((group[rng.randrange(len(group))], n))
        n += 1
    label = rng.sample(n, n)
    return Digraph(n, [(label[u], label[v]) for u, v in edges])


def _ring(s):
    """``s`` sources and ``s`` sinks, sink i fed by sources i and i + 1 mod s."""
    return Digraph(2 * s, [(src, s + i) for i in range(s) for src in (i, (i + 1) % s)])


def _sink_walk_corpus():
    """Instances whose sources carry no profit: ``dksh_to_rcp`` targets of
    seeded hypergraphs with their own weights, equal sink profits and sink
    profits from 0..1000, ``_two_layer`` graphs with their source cycles set
    to zero profit, ``_straddling_two_layer`` graphs, and rings of 3 to 10
    sinks with zero, unit and 0..2 profits, where almost every node ties the
    best; each at every budget from 1 to n + 1."""
    from pocover.reductions import dksh_to_rcp

    rng = SplitMix64(22)
    graphs = []
    for seed in range(24):
        spec = GenSpec("hypergraph", n=2 + seed % 4, k=1, seed=seed,
                       shape={"num_edges": 1 + seed % 6})
        art = dksh_to_rcp(generate(spec))
        target, m = art.target, art.parameters["m"]
        n = target.graph.vertex_count
        for sink_profit in (target.profit[n - m:], [7] * m, [rng.randrange(1001) for _ in range(m)]):
            graphs.append((target.graph, [0] * (n - m) + list(sink_profit)))
    for seed in range(60):
        inst = _two_layer(seed)
        _, comp_of, pred = exact._scc(inst.graph)
        graphs.append((inst.graph, [p if pred[comp_of[v]] else 0 for v, p in enumerate(inst.profit)]))
    for seed in range(100):
        graph = _straddling_two_layer(seed)
        _, comp_of, pred = exact._scc(graph)
        graphs.append((graph, [rng.randrange(3) if pred[c] else 0 for c in comp_of]))
    for s in range(3, 11):
        for sink_profit in ([0] * s, [1] * s, [rng.randrange(3) for _ in range(s)]):
            graphs.append((_ring(s), [0] * s + sink_profit))
    for graph, profit in graphs:
        for budget in range(1, graph.vertex_count + 2):
            yield RcpInstance(graph, profit, budget)


def test_sink_walk_matches_the_table_walk(monkeypatch):
    """The depth-first sink walk returns the table walk's (selection, profit)
    on every two-layered graph with zero-profit sources."""
    walks = 0
    for inst in _sink_walk_corpus():
        got = run_layer_strategy(inst, "sinks")
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_rcp_sink_subsets", _table_sink_subsets)
            assert got == run_layer_strategy(inst, "sinks"), inst
        walks += 1
    assert walks >= 2900, walks


def test_sink_walk_on_18_sink_rings():
    """Ties at every node of the 2^18 sink subsets: with zero profits every
    closure ties the empty set, and with unit profits the 10-sink closures
    of 22 vertices tie one another."""
    assert exact_rcp(RcpInstance(_ring(18), [0] * 36, 36)) == (frozenset(), 0)
    selection, profit = exact_rcp(RcpInstance(_ring(18), [0] * 18 + [1] * 18, 22))
    assert (sorted(selection), profit) == ([*range(12), *range(18, 28)], 10)


def test_precedes_orders_like_sorted_tuples():
    """``_precedes`` on the keys of two unions of components, each key the
    bits of its components' smallest and largest members, agrees with
    comparing their sorted vertex tuples: seeded splits of range(n), n <= 12,
    into components of one to four members, with equal sets and prefixes
    among the pairs."""
    rng = SplitMix64(23)
    kinds = dict.fromkeys(("equal", "prefix", "other"), 0)
    several = 0
    for _ in range(300):
        n = 1 + rng.randrange(12)
        label = rng.sample(n, n)
        comps, start = [], 0
        while start < n:
            size = 1 + rng.randrange(4)
            comps.append(sorted(label[start:start + size]))
            start += size
        several += any(len(g) > 1 for g in comps)
        for _ in range(20):
            a = [g for g in comps if rng.randrange(2)]
            top = max((g[-1] for g in a), default=-1)
            b = (a, a + [g for g in comps if g[0] > top and rng.randrange(2)],
                 [g for g in comps if rng.randrange(2)])[rng.randrange(3)]
            ta, tb = (tuple(sorted(v for g in x for v in g)) for x in (a, b))
            ka, kb = (_mask(v for g in x for v in (g[0], g[-1])) for x in (a, b))
            assert _precedes(ka, kb) == (ta < tb), (ta, tb)
            assert _precedes(kb, ka) == (tb < ta), (ta, tb)
            kind = "equal" if ta == tb else "prefix" if tb[:len(ta)] == ta else "other"
            kinds[kind] += 1
    assert min(kinds.values()) >= 500 and several >= 200, (kinds, several)


def test_sink_walk_memory_at_the_ceiling():
    """20 zero-profit sources feeding 20 sinks, sink i fed by sources i and
    i + 1 mod 20, with profits 1000..1019 and budget 30: the table walk
    peaked at 84.5 MiB under tracemalloc; the depth-first walk holds O(c)
    state."""
    n = RCP_MAX_MASK_BITS
    inst = RcpInstance(_ring(n), [0] * n + list(range(1000, 1000 + n)), 30)
    tracemalloc.start()
    try:
        selection, profit = exact_rcp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sorted(selection), profit) == ([0, 1, *range(6, 20), *range(26, 40)], 14175)
    assert peak < 1 << 20


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


def _two_layer(seed):
    """Source cycles of one to three vertices that carry profit, over
    singleton sinks each fed by the first source and by some of the others."""
    rng = SplitMix64(seed)
    groups, edges, n = [], [], 0
    for _ in range(1 + rng.randrange(4)):
        size = 1 + rng.randrange(3)
        group = list(range(n, n + size))
        n += size
        groups.append(group)
        if size > 1:
            edges += [(group[i], group[(i + 1) % size]) for i in range(size)]
    for _ in range(rng.randrange(5)):
        edges.append((groups[0][0], n))
        edges += [(g[rng.randrange(len(g))], n) for g in groups[1:] if rng.randrange(2)]
        n += 1
    profit = [rng.randrange(5) for _ in range(n)]
    return RcpInstance(Digraph(n, edges), profit, 1 + rng.randrange(n))


def _rcp_digest_corpus():
    """(label, instance): seeded random digraphs and dags, the targets of
    ``dksh_to_rcp`` (zero-profit sources) and ``dks_to_urcp`` (cyclic
    sources), two-layer graphs with profitable sources, and three graphs
    over the mask ceiling."""
    from pocover.reductions import dks_to_urcp, dksh_to_rcp

    rng = SplitMix64(9)
    for seed in range(600):
        kind = ("digraph", "dag")[seed % 2]
        n = 1 + rng.randrange(12)
        shape = {"edge_density": (0.1, 0.3, 0.6)[seed % 3]}
        yield kind, generate(GenSpec(kind, n=n, k=1 + rng.randrange(n), seed=seed, shape=shape))
    for seed in range(300):
        spec = GenSpec("hypergraph", n=2 + seed % 5, k=1 + seed % 4, seed=seed,
                       shape={"num_edges": 1 + seed % 4})
        yield "dksh_to_rcp", dksh_to_rcp(generate(spec)).target
    for seed in range(200):
        spec = GenSpec("digraph", n=2 + seed % 5, k=1, seed=seed, shape={"edge_density": 0.4})
        yield "dks_to_urcp", dks_to_urcp(generate(spec).graph, 1 + seed % 3, 1 + seed % 2).target
    for seed in range(200):
        yield "two_layer", _two_layer(seed)
    cycles = [e for i in range(24) for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i), (2 * i, 2 * i + 2))]
    yield "over_guard_path", RcpInstance(Digraph(50, cycles), [1] * 50, 3)
    yield "over_guard_edgeless", RcpInstance(Digraph(21, []), [1] * 21, 5)
    wide = Digraph(42, [(i, 21 + i) for i in range(21)])
    yield "over_guard_two_layer", RcpInstance(wide, [0] * 21 + [1] * 21, 3)


def test_exact_rcp_digest_on_seeded_corpus(monkeypatch):
    """``exact_rcp`` selections and profits, or the guard's message, hashed
    over a seeded corpus on which each of the two walks runs hundreds of
    times, the component walk both over all components and over the sources
    with the sinks taken greedily.  The full digest also hashes each
    instance; the answers digest does not.  Either changes only with a
    deliberate change of output, which CHANGES.md records together with the
    new value."""
    runs = dict.fromkeys(("sinks", "greedy", "components"), 0)
    sink_walk, component_walk = exact._rcp_sink_subsets, exact._rcp_component_subsets

    def count_sinks(*args):
        runs["sinks"] += 1
        return sink_walk(*args)

    def count_components(*args):
        runs["greedy" if args[-1] else "components"] += 1
        return component_walk(*args)

    monkeypatch.setattr(exact, "_rcp_sink_subsets", count_sinks)
    monkeypatch.setattr(exact, "_rcp_component_subsets", count_components)
    digest, answers = hashlib.sha256(), hashlib.sha256()
    guarded = 0
    for label, inst in _rcp_digest_corpus():
        try:
            selection, profit = exact_rcp(inst)
            answer = [sorted(selection), profit]
        except SizeGuardError as exc:
            answer = [type(exc).__name__, str(exc)]
            guarded += 1
        digest.update(json.dumps([label, dumps_instance(inst), answer]).encode() + b"\n")
        answers.update(json.dumps([label, answer]).encode() + b"\n")
    assert min(runs.values()) >= 300, runs
    assert guarded == 3
    # the answers alone, which a change of a reduction's arcs that keeps its
    # closed sets leaves as they are
    assert answers.hexdigest() == "7b2d66ccf16535320797e2b87fdda22c66e5941557735c43b48a54daeb19a0de"
    assert digest.hexdigest() == "9f5fcae3e06b8b48327832db359e373f860af7a439f3ff8a3b8684eb116d5f07"


def _kosaraju(graph):
    """The two-pass Kosaraju that ``_scc`` replaced: a (vertex, index) tuple
    per edge crossed, then a sort and a relabel by smallest member."""
    n = graph.vertex_count
    finish = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, 0)]
        seen[s] = True
        while stack:
            v, i = stack[-1]
            if i < len(graph.successors[v]):
                stack[-1] = (v, i + 1)
                w = graph.successors[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                finish.append(v)
                stack.pop()

    comp_of = [-1] * n
    comps = []
    for s in reversed(finish):
        if comp_of[s] != -1:
            continue
        group = [s]
        comp_of[s] = -2
        queue = [s]
        while queue:
            v = queue.pop()
            for w in graph.predecessors[v]:
                if comp_of[w] == -1:
                    comp_of[w] = -2
                    group.append(w)
                    queue.append(w)
        idx = len(comps)
        comps.append(tuple(sorted(group)))
        for v in group:
            comp_of[v] = idx
    order = sorted(range(len(comps)), key=lambda i: comps[i][0])
    relabel = {old: new for new, old in enumerate(order)}
    comps = [comps[i] for i in order]
    comp_of = [relabel[c] for c in comp_of]
    return comps, comp_of


def _check_condensation(graph):
    """``_scc`` against ``_kosaraju`` up to renumbering, plus the order and
    predecessor contract, and the result kept on the graph."""
    comps, comp_of, preds = exact._scc(graph)
    ref_comps, ref_comp_of = _kosaraju(graph)
    assert sorted(comps) == ref_comps
    assert all(list(c) == sorted(c) for c in comps)
    leaders = [comps[c][0] for c in comp_of]
    assert leaders == [ref_comps[c][0] for c in ref_comp_of]
    assert all(comp_of[u] <= comp_of[v] for u, v in graph.edges)
    assert preds == tuple(
        {comp_of[u] for u, v in graph.edges if comp_of[v] == c and comp_of[u] != c}
        for c in range(len(comps))
    )
    assert exact._scc(graph) is graph._condensation


def test_scc_matches_kosaraju_on_seeded_digraphs():
    # One 64-bit draw per vertex: its 6-bit field v decides the arc to v, kept
    # with density 3, 10, 19 or 38 in 64.
    rng = SplitMix64(20_000)
    for _ in range(20_000):
        n = 1 + rng.randrange(10)
        density = (3, 10, 19, 38)[rng.randrange(4)]
        arcs = []
        for u in range(n):
            word = rng.next_u64()
            arcs += [(u, v) for v in range(n) if v != u and (word >> 6 * v) & 63 < density]
        _check_condensation(Digraph(n, arcs))


def test_scc_matches_kosaraju_on_gadget_graphs():
    from pocover.reductions import degree_augment

    rng = SplitMix64(61)
    for n in range(2, 13):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.randrange(4) == 0]
        big = degree_augment(RcpInstance(Digraph(n, arcs), [0] * n, 1)).target.graph
        _check_condensation(big)
        # each gadget is strongly connected, so it is one component or inside one
        assert len(big._condensation[0]) <= n
        # without one arc the gadgets split
        for _ in range(5):
            edges = list(big.edges)
            del edges[rng.randrange(len(edges))]
            _check_condensation(Digraph(big.vertex_count, edges))


def test_scc_is_kept_out_of_equality_and_hashing():
    g, h = Digraph(3, [(0, 1), (1, 0)]), Digraph(3, [(1, 0), (0, 1)])
    exact._scc(g)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert h._condensation is None


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_scc_walks_a_long_path_without_recursion(closed):
    n = 10**5
    arcs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * closed
    comps, comp_of, preds = exact._scc(Digraph(n, arcs))
    if closed:
        assert comps == (tuple(range(n)),) and comp_of == (0,) * n and preds == (set(),)
    else:
        assert comps == tuple((v,) for v in range(n)) and comp_of == tuple(range(n))
        assert preds == (set(),) + tuple({v - 1} for v in range(1, n))


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
