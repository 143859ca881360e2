import random
import re
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from pocover.model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
    _check_ints,
    _check_range,
    closure,
    contained_hyperedges,
    is_closed,
    validate_configuration,
    validate_cover,
)
from pocover.reductions import (
    augment_map,
    bpcc_map,
    bpcc_to_ct,
    degree_augment,
    dksh_rcp_map,
    dksh_to_rcp,
    minimalize,
)
from pocover.verify import VALUE


def test_tree_requires_single_root():
    with pytest.raises(InputError):
        SizedOutTree([None, None], [1, 1])
    with pytest.raises(InputError):
        SizedOutTree([0, 1], [1, 1])


def test_tree_rejects_cycles():
    with pytest.raises(InputError):
        SizedOutTree([None, 2, 1], [0, 0, 0])


@pytest.mark.parametrize(
    "parent, message",
    [
        ([None, None, 0], "expected exactly one root, found 2"),
        ([1, 2, 0], "expected exactly one root, found 0"),
        ([None, "0", 0], "parent: expected int, got str"),
        ([None, 0.0, 0], "parent: expected int, got float"),
        ([None, 0, True], "parent: expected int, got bool"),
        ([None, -1, 0], "parent: vertex -1 out of range [0, 3)"),
        ([None, 0, 3], "parent: vertex 3 out of range [0, 3)"),
        ([None, 2, 1], "parent links contain a cycle or disconnected vertex"),
        # the first offender in id order is named, whatever its fault
        ([None, 7, "a"], "parent: vertex 7 out of range [0, 3)"),
        (["a", None, 9], "parent: expected int, got str"),
        ([1, 0, None], "parent links contain a cycle or disconnected vertex"),
    ],
    ids=["two-roots", "no-root", "str", "float", "bool", "negative", "out-of-range", "cycle",
         "range-before-type", "type-before-range", "root-last-cycle"],
)
def test_tree_constructor_messages(parent, message):
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        SizedOutTree(parent, [0, 0, 0])


def test_tree_with_its_root_anywhere():
    t = SizedOutTree([2, 2, None, 0], [1, 2, 3, 4])
    assert (t.root, t.order, t.children) == (2, (2, 0, 1, 3), ((3,), (), (0, 1), ()))


def test_tree_rejects_negative_sizes():
    with pytest.raises(InputError):
        SizedOutTree([None], [-1])


def test_tree_basic_queries():
    t = SizedOutTree([None, 0, 0, 1], [1, 2, 3, 4])
    assert t.root == 0
    assert t.children[0] == (1, 2)
    assert t.leaves() == (2, 3)
    assert t.ancestors(3) == {0, 1, 3}


def test_ct_instance_invariants():
    with pytest.raises(InputError):
        CtInstance(SizedOutTree([None], [0]), 0)
    with pytest.raises(InputError):
        CtInstance(SizedOutTree([None], [3]), 2)


def test_digraph_deduplicates_and_validates():
    g = Digraph(3, [(0, 1), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (2, 1))
    assert g.successors[0] == (1,)
    assert g.predecessors[1] == (0, 2)
    with pytest.raises(InputError):
        Digraph(2, [(0, 0)])
    with pytest.raises(InputError):
        Digraph(2, [(0, 5)])


def test_digraph_names_an_edge_that_is_not_a_sequence():
    with pytest.raises(InputError, match=r"^edge 5 is not a pair$"):
        Digraph(2, [5])
    with pytest.raises(InputError, match=r"^edge None is not a pair$"):
        Digraph(3, [(0, 1), None, 7])
    with pytest.raises(InputError, match=r"^edge list 5 is not a sequence$"):
        Digraph(2, 5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DkshInstance(2, [5], [1], 1), "hyperedge 5 is not a sequence"),
        (lambda: DkshInstance(2, [[0, 1], None], [1, 1], 1), "hyperedge None is not a sequence"),
        (lambda: DkshInstance(2, 5, [1], 1), "hyperedge list 5 is not a sequence"),
        (lambda: BpccInstance([5], [1], 2), "cluster 5 is not a sequence"),
        (lambda: BpccInstance([[0], 1], [1, 1], 2), "cluster 1 is not a sequence"),
        (lambda: BpccInstance(None, [1], 2), "cluster list None is not a sequence"),
        (lambda: RcpInstance(Digraph(2, []), 5, 1), "profit list 5 is not a sequence"),
        (lambda: DkshInstance(2, [[0, 1]], 5, 1), "weight list 5 is not a sequence"),
        (lambda: BpccInstance([[0]], None, 2), "weight list None is not a sequence"),
    ],
)
def test_rows_that_are_not_sequences_are_named(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("profit", [[0, -1, 2], [-1, 0, 0], [5, 5, -7]])
def test_rcp_instance_rejects_a_negative_profit(profit):
    with pytest.raises(InputError, match=r"^profits must be nonnegative$"):
        RcpInstance(Digraph(3, [(0, 1)]), profit, 1)
    RcpInstance(Digraph(3, [(0, 1)]), [max(p, 0) for p in profit], 1)


def _oracle_digraph(vertex_count, edges):
    """The item-by-item constructor the whole-list checks replaced, returning
    (edges, successors, predecessors)."""
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
    succ = [[] for _ in range(vertex_count)]
    pred = [[] for _ in range(vertex_count)]
    for u, v in dedup:
        succ[u].append(v)
        pred[v].append(u)
    return tuple(dedup), tuple(tuple(s) for s in succ), tuple(tuple(p) for p in pred)


def _seeded_edge_list(rng):
    """A vertex count and an edge list that is mostly well formed, with the
    faults the constructor checks drawn now and then."""
    size = rng.randrange(9)
    n = rng.choice([True, float(size), str(size)]) if rng.random() < 0.02 else size
    edges = []
    for _ in range(rng.randrange(12)):
        r = rng.random()
        if r < 0.15 and edges:
            edges.append(rng.choice(edges))  # a duplicate, in any position
        elif r < 0.955:
            u, v = rng.randrange(max(size, 1)), rng.randrange(max(size, 1))
            if u == v and size > 1 and rng.random() < 0.95:
                v = (u + 1 + rng.randrange(size - 1)) % size
            if rng.random() < 0.04:
                u = rng.randrange(-2, size + 2)
            edges.append([u, v] if rng.random() < 0.3 else (u, v))
        elif r < 0.965:
            edges.append((rng.choice([True, False, 0.0, 1.5]), rng.randrange(max(size, 1))))
        elif r < 0.975:
            edges.append((rng.randrange(max(size, 1)), rng.choice([True, 1.0, "1"])))
        elif r < 0.985:
            edges.append([rng.randrange(max(size, 1))])
        elif r < 0.995:
            edges.append((0, 1, 2))
        else:
            edges.append([])
    if rng.random() < 0.3:
        edges.sort(key=lambda e: [str(x) for x in e])
    return n, edges


def test_digraph_matches_the_checked_oracle():
    """The whole-list checks build the same graph as the item-by-item scans,
    or raise the same error with the same message."""
    rng = random.Random(20261019)
    built = 0
    kinds = ("vertex count:", "graph must", "not a pair", "endpoints:", "self-loop", "out of range")
    seen = set()
    for _ in range(20000):
        n, edges = _seeded_edge_list(rng)
        try:
            expected = _oracle_digraph(n, edges)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                Digraph(n, iter(edges) if rng.random() < 0.5 else edges)
            assert str(got.value) == str(exc)
            seen.update(kind for kind in kinds if kind in str(exc))
            continue
        g = Digraph(n, iter(edges) if rng.random() < 0.5 else edges)
        assert (g.edges, g.successors, g.predecessors) == expected
        built += 1
    assert built >= 5000
    assert seen == set(kinds)


# Small reference graph: arcs 3->0, 0->1, 2->1 (a fan into vertex 1).
FIG_GRAPH = Digraph(4, [(3, 0), (0, 1), (2, 1)])


def test_closure_examples():
    assert closure(FIG_GRAPH, [1]) == {0, 1, 2, 3}
    assert closure(FIG_GRAPH, []) == frozenset()
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert closure(two_cycle, [0]) == {0, 1}


def digraphs(max_n=7):
    def build(n, pairs):
        edges = [(u % n, v % n) for u, v in pairs if u % n != v % n]
        return Digraph(n, edges)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max_n), st.integers(0, max_n)),
                max_size=20,
            ),
        )
    )


@given(digraphs(), st.data())
def test_closure_idempotent_and_monotone(g, data):
    seed = data.draw(
        st.sets(st.integers(0, g.vertex_count - 1), max_size=g.vertex_count)
    )
    closed = closure(g, seed)
    assert closure(g, closed) == closed
    assert is_closed(g, closed)
    bigger = data.draw(
        st.sets(st.integers(0, g.vertex_count - 1), max_size=g.vertex_count)
    )
    assert closure(g, seed) <= closure(g, seed | bigger)


def sized_trees(max_n=8, max_size=6):
    def build(parent_picks, sizes):
        n = len(parent_picks) + 1
        parent = [None] + [parent_picks[i - 1] % i for i in range(1, n)]
        return SizedOutTree(parent, sizes[:n])

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.lists(st.integers(0, max_n), min_size=n - 1, max_size=n - 1),
            st.lists(st.integers(0, max_size), min_size=n, max_size=n),
        )
    )


@given(sized_trees())
def test_tree_closure_is_ancestor_set(t):
    """Viewing the tree as a digraph with parent->child arcs, the predecessor
    closure of a vertex is its ancestor set."""
    arcs = [(p, v) for v, p in enumerate(t.parent) if p is not None]
    g = Digraph(t.vertex_count, arcs)
    for v in range(t.vertex_count):
        assert closure(g, [v]) == t.ancestors(v)


@pytest.fixture
def two_leaf_instance():
    return CtInstance(SizedOutTree([None, 0, 0], [0, 3, 3]), 6)


def test_validate_configuration(two_leaf_instance):
    assert validate_configuration(two_leaf_instance, {0, 1, 2}) is None
    problem = validate_configuration(two_leaf_instance, {1})
    assert problem is not None and "parent" in problem
    tight = CtInstance(two_leaf_instance.tree, 5)
    problem = validate_configuration(tight, {0, 1, 2})
    assert problem is not None and "capacity" in problem


@pytest.mark.parametrize("vertex", [-1, 3])
def test_validate_configuration_names_a_vertex_out_of_range(two_leaf_instance, vertex):
    assert validate_configuration(two_leaf_instance, []) is None
    message = rf"^configuration: vertex {vertex} out of range \[0, 3\)$"
    for members in ([vertex], [0, 1, vertex]):
        with pytest.raises(InputError, match=message):
            validate_configuration(two_leaf_instance, members)


@pytest.mark.parametrize("member, name", [(0.5, "float"), ("a", "str")])
def test_a_configuration_member_that_is_not_an_int_is_an_input_error(
    two_leaf_instance, member, name
):
    message = rf"^configuration: expected int, got {name}$"
    for members in ([member], [0, 1, member]):
        with pytest.raises(InputError, match=message):
            validate_configuration(two_leaf_instance, members)
        with pytest.raises(InputError, match=message):
            validate_cover(two_leaf_instance, [members])


def test_rcp_instance_rejects_a_profit_list_of_another_length():
    with pytest.raises(InputError, match=r"^profit array length must match vertex count$"):
        RcpInstance(Digraph(2, []), [1], 1)


def test_validate_cover(two_leaf_instance):
    single = CtInstance(SizedOutTree([None], [1]), 1)
    assert validate_cover(single, [frozenset({0})]) is None
    missing = validate_cover(two_leaf_instance, [frozenset({0, 1})])
    assert missing is not None and "not covered" in missing
    broken = validate_cover(two_leaf_instance, [frozenset({0, 1}), frozenset({2})])
    assert broken is not None and "parent" in broken


def test_contained_hyperedges_examples():
    h = DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 3)
    assert contained_hyperedges(h, [0, 1, 2]) == ({0}, 1)
    assert contained_hyperedges(h, [0, 1, 2, 3]) == ({0, 1}, 2)
    assert contained_hyperedges(h, []) == (frozenset(), 0)


def test_dksh_instance_validation():
    with pytest.raises(InputError):
        DkshInstance(2, [[]], [1], 1)
    with pytest.raises(InputError):
        DkshInstance(2, [[0]], [-1], 1)
    with pytest.raises(InputError):
        DkshInstance(2, [[0, 5]], [1], 1)


def test_bpcc_instance_validation():
    with pytest.raises(InputError):
        BpccInstance([[0], []], [1], 2)
    with pytest.raises(InputError):
        BpccInstance([[0], [0]], [1], 2)
    with pytest.raises(InputError):
        BpccInstance([[0, 1]], [1, 5], 2)
    inst = BpccInstance([[0, 2], [1]], [1, 1, 1], 2)
    assert inst.item_count == 3


# The id rule: every function that takes vertex ids rejects one that is not a
# plain int in [0, n), naming it.  Each row: the call on one bad id, the name
# the message gives, n, and whether the ids go through
# ``validate_configuration``, whose gather still accepts a bool.
_TREE = SizedOutTree([None, 0, 0], [0, 3, 3])
_HYPER = DkshInstance(4, [[0, 1, 2], [2, 3]], [1, 1], 3)
_PACKING = BpccInstance([[0, 1], [2]], [2, 3, 3], 4)
_AUGMENTED = degree_augment(RcpInstance(Digraph(2, [(0, 1)]), [1, 5], 1))  # 2 -> 10 vertices
_LIFTED = dksh_to_rcp(_HYPER)  # 4 -> 14 vertices
_ID_TAKERS = {
    "closure": (lambda x: closure(FIG_GRAPH, [x]), "closure seed", 4, False),
    "is_closed": (lambda x: is_closed(FIG_GRAPH, [x]), "closure seed", 4, False),
    "contained_hyperedges": (lambda x: contained_hyperedges(_HYPER, [x]), "vertex set", 4, False),
    "ancestors": (lambda x: _TREE.ancestors(x), "ancestors", 3, False),
    "validate_configuration": (
        lambda x: validate_configuration(CtInstance(_TREE, 6), [0, x]), "configuration", 3, True
    ),
    "value_rcp": (
        lambda x: VALUE["rcp"](RcpInstance(FIG_GRAPH, [1] * 4, 2), [x]), "closure seed", 4, False
    ),
    "value_dksh": (lambda x: VALUE["dksh"](_HYPER, [x]), "vertex set", 4, False),
    "value_bpcc": (lambda x: VALUE["bpcc"](_PACKING, [[x]]), "bin", 3, False),
    "minimalize": (lambda x: minimalize(_HYPER, [x]), "vertex set", 4, False),
    "augment_lift": (lambda x: augment_map(_AUGMENTED, [x], "lift"), "closure seed", 2, False),
    "augment_project": (
        lambda x: augment_map(_AUGMENTED, [x], "project"), "closure seed", 10, False
    ),
    "dksh_lift": (lambda x: dksh_rcp_map(_LIFTED, [x], "lift"), "vertex selection", 4, False),
    "dksh_project": (
        lambda x: dksh_rcp_map(_LIFTED, [x], "project"), "vertex selection", 14, False
    ),
    "bpcc_lift": (
        lambda x: bpcc_map(bpcc_to_ct(_PACKING), [x], "lift"), "configuration", 3, False
    ),
}
_BAD_IDS = ("float", "bool", "str", "negative", "past_end")


def _bad_id(bad, n):
    """The bad id, and the message after ``<what>: ``."""
    return {
        "float": (1.0, "expected int, got float"),
        "bool": (True, "expected int, got bool"),
        "str": ("a", "expected int, got str"),
        "negative": (-1, f"vertex -1 out of range [0, {n})"),
        "past_end": (n, f"vertex {n} out of range [0, {n})"),
    }[bad]


@pytest.mark.parametrize(
    "taker, bad",
    [
        pytest.param(taker, bad, id=f"{taker}-{bad}")
        for taker, (_, _, _, gathers) in _ID_TAKERS.items()
        for bad in _BAD_IDS
        if not (gathers and bad == "bool")
    ],
)
def test_every_id_taker_rejects_an_id_that_is_not_an_int_in_range(taker, bad):
    call, what, n, _ = _ID_TAKERS[taker]
    value, message = _bad_id(bad, n)
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{what}: {message}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SizedOutTree([None, 0.0], [1, 1]), "parent: expected int, got float"),
        (lambda: SizedOutTree([None, True], [1, 1]), "parent: expected int, got bool"),
        (lambda: SizedOutTree([None, 2], [1, 1]), "parent: vertex 2 out of range [0, 2)"),
        (lambda: SizedOutTree([None, 0], [1, -1]), "vertex sizes must be nonnegative"),
        (lambda: CtInstance(SizedOutTree([None, 0, 0], [1, 3, 4]), 2),
         "vertex 1 has size 3 > capacity 2"),
        (lambda: DkshInstance(2, [[0, 1.0]], [1], 1), "hyperedge: expected int, got float"),
        (lambda: DkshInstance(2, [[0], [5]], [1, 1], 1), "hyperedge: vertex 5 out of range [0, 2)"),
        (lambda: DkshInstance(2, [[0], []], [1, 1], 1), "hyperedges must be nonempty"),
        (lambda: DkshInstance(2, [[0]], [-1], 1), "weights must be nonnegative"),
        (lambda: BpccInstance([[0, 1, 2]], [1, 5, 6], 4), "item 1 has weight 5 > capacity 4"),
        (lambda: BpccInstance([[0], []], [1], 2), "clusters must be nonempty"),
        (lambda: BpccInstance([[0, 1.0]], [1, 1], 2), "cluster members: expected int, got float"),
        (lambda: BpccInstance([[0], [2]], [1, 1], 2),
         "cluster members: vertex 2 out of range [0, 2)"),
    ],
)
def test_constructor_rules_name_the_first_offender(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_a_hypergraph_may_have_no_hyperedges():
    assert DkshInstance(2, [], [], 1).hyperedges == ()
