import pytest
from hypothesis import given, strategies as st

from pocover.model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    SizedOutTree,
    closure,
    contained_hyperedges,
    is_closed,
    path_weight,
    validate_configuration,
    validate_cover,
)


def test_tree_requires_single_root():
    with pytest.raises(InputError):
        SizedOutTree([None, None], [1, 1])
    with pytest.raises(InputError):
        SizedOutTree([0, 1], [1, 1])


def test_tree_rejects_cycles():
    with pytest.raises(InputError):
        SizedOutTree([None, 2, 1], [0, 0, 0])


def test_tree_rejects_negative_sizes():
    with pytest.raises(InputError):
        SizedOutTree([None], [-1])


def test_tree_basic_queries():
    t = SizedOutTree([None, 0, 0, 1], [1, 2, 3, 4])
    assert t.root == 0
    assert t.children[0] == (1, 2)
    assert t.leaves() == (2, 3)
    assert t.ancestors(3) == {0, 1, 3}


def test_path_weight_examples():
    assert path_weight(SizedOutTree([None], [0]), 0) == 0
    assert path_weight(SizedOutTree([None, 0], [2, 3]), 1) == 5
    # bin-packing star embedding: size-3 leaf under a zero-size root
    star = SizedOutTree([None, 0, 0], [0, 3, 1])
    assert path_weight(star, 1) == 3


def test_path_weight_rejects_out_of_range():
    with pytest.raises(InputError):
        path_weight(SizedOutTree([None], [0]), 1)


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
    closure of a vertex is its ancestor set and its size sum is the path
    weight."""
    arcs = [(p, v) for v, p in enumerate(t.parent) if p is not None]
    g = Digraph(t.vertex_count, arcs)
    for v in range(t.vertex_count):
        anc = closure(g, [v])
        assert anc == t.ancestors(v)
        assert sum(t.size[u] for u in anc) == path_weight(t, v)


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
