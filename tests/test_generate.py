import pytest

from pocover.generate import GenSpec, GenerationError, SplitMix64, generate
from pocover.model import (
    BpccInstance,
    CtInstance,
    DkshInstance,
    InputError,
    RcpInstance,
)
from pocover.serialize import dumps_instance
from pocover.treecover import preprocess


def test_splitmix64_known_streams():
    # Published reference vectors for the algorithm.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_ranges():
    rng = SplitMix64(9)
    draws = [rng.randint(2, 5) for _ in range(200)]
    assert set(draws) <= {2, 3, 4, 5}
    assert len(set(draws)) == 4
    sampled = rng.sample(10, 10)
    assert sorted(sampled) == list(range(10))
    with pytest.raises(InputError):
        rng.randint(3, 2)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: rng.randrange(0), "randrange bound must be positive"),
        (lambda rng: rng.sample(2, 3), "sample larger than population"),
    ],
)
def test_splitmix64_refuses_an_empty_draw(draw, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        draw(SplitMix64(1))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 0}, "n must be at least 1"),
        ({"n": 2.0}, "n: expected int, got float"),
        ({"n": "3"}, "n: expected int, got str"),
        ({"n": True}, "n: expected int, got bool"),  # would build a 1-vertex tree
        ({"k": 0}, "k must be at least 1"),
        ({"seed": 1.5}, "seed: expected int, got float"),
    ],
    ids=["n-zero", "n-float", "n-str", "n-bool", "k-zero", "seed-float"],
)
def test_genspec_numbers_are_ints_of_at_least_one(fields, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        GenSpec(**{"kind": "out_tree", "n": 3, "k": 2, "seed": 0, **fields})


def test_genspec_rejects_an_unknown_shape_field_and_keeps_another_kinds():
    with pytest.raises(InputError, match=r"^unknown shape field 'size_rnage'$"):
        GenSpec(kind="out_tree", n=3, k=5, seed=0, shape={"size_rnage": [9, 9]})
    # a field that only another generator kind reads is accepted and ignored
    plain = generate(GenSpec(kind="out_tree", n=6, k=5, seed=3))
    other = generate(GenSpec(kind="out_tree", n=6, k=5, seed=3, shape={"num_edges": 2}))
    assert dumps_instance(other) == dumps_instance(plain)


def test_genspec_validation():
    with pytest.raises(InputError):
        GenSpec(kind="nope", n=3, k=2, seed=0)
    with pytest.raises(InputError):
        GenSpec(kind="out_tree", n=0, k=2, seed=0)
    with pytest.raises(InputError):
        GenSpec(kind="out_tree", n=3, k=0, seed=0)


@pytest.mark.parametrize("kind", ["out_tree", "bp_star", "dag", "digraph", "hypergraph", "bpcc"])
def test_generation_is_deterministic(kind):
    spec = GenSpec(kind=kind, n=9, k=5, seed=321)
    a = generate(spec)
    b = generate(GenSpec(kind=kind, n=9, k=5, seed=321))
    assert dumps_instance(a) == dumps_instance(b)
    different = generate(GenSpec(kind=kind, n=9, k=5, seed=322))
    assert dumps_instance(a) != dumps_instance(different) or kind == "out_tree"


def test_out_tree_paths_stay_below_capacity():
    for seed in range(40):
        inst = generate(GenSpec(kind="out_tree", n=12, k=6, seed=seed))
        assert isinstance(inst, CtInstance)
        tree = inst.tree
        for v in range(tree.vertex_count):
            assert sum(tree.size[u] for u in tree.ancestors(v)) < inst.capacity
        # preprocessing therefore never finds forced configurations
        assert preprocess(inst).forced == ()


def test_out_tree_single_vertex():
    inst = generate(GenSpec(kind="out_tree", n=1, k=3, seed=5))
    assert inst.tree.vertex_count == 1


def test_out_tree_max_children():
    inst = generate(
        GenSpec(kind="out_tree", n=12, k=6, seed=0, shape={"max_children": 1})
    )
    assert all(len(c) <= 1 for c in inst.tree.children)


def test_out_tree_childless_shape():
    """With no children allowed only a single vertex can be built; a larger n
    fails at once, naming the field."""
    for max_children in (0, -1):
        shape = {"max_children": max_children}
        single = generate(GenSpec(kind="out_tree", n=1, k=3, seed=5, shape=shape))
        assert single.tree.vertex_count == 1
        with pytest.raises(GenerationError, match="max_children"):
            generate(GenSpec(kind="out_tree", n=2, k=3, seed=5, shape=shape))


def test_out_tree_unsatisfiable_range():
    """A size_range with no size below the capacity fails before any draw,
    and an inverted one already in the spec; one that fits the root but no
    deeper vertex still uses its retries."""
    for lo, hi, k in ((3, 3, 3), (2, 9, 2)):
        shape = {"size_range": (lo, hi)}
        with pytest.raises(GenerationError, match="'size_range'"):
            generate(GenSpec(kind="out_tree", n=4, k=k, seed=0, shape=shape))
    with pytest.raises(InputError, match="'size_range'"):
        GenSpec(kind="out_tree", n=4, k=100, seed=0, shape={"size_range": (5, 1)})
    with pytest.raises(GenerationError, match="could not satisfy"):
        generate(GenSpec(kind="out_tree", n=4, k=3, seed=0, shape={"size_range": (2, 2)}))
    single = generate(GenSpec(kind="out_tree", n=1, k=3, seed=0, shape={"size_range": (2, 2)}))
    assert single.tree.size == (2,)


def test_bp_star_explicit_items():
    inst = generate(
        GenSpec(kind="bp_star", n=4, k=6, seed=0, shape={"items": [3, 3, 3, 3]})
    )
    assert inst.tree.parent == (None, 0, 0, 0, 0)
    assert inst.tree.size == (0, 3, 3, 3, 3)
    assert inst.capacity == 6


def test_bp_star_random_items_fit():
    inst = generate(GenSpec(kind="bp_star", n=6, k=4, seed=11))
    assert all(s <= 4 for s in inst.tree.size)


def test_digraph_and_dag_shapes():
    dag = generate(GenSpec(kind="dag", n=8, k=3, seed=2, shape={"edge_density": 0.5}))
    assert isinstance(dag, RcpInstance)
    assert all(u < v for u, v in dag.graph.edges)
    cyc = generate(
        GenSpec(kind="digraph", n=8, k=3, seed=2, shape={"edge_density": 0.5})
    )
    assert isinstance(cyc, RcpInstance)


def test_hypergraph_shape():
    inst = generate(
        GenSpec(
            kind="hypergraph",
            n=6,
            k=3,
            seed=7,
            shape={"num_edges": 4, "arity_range": (2, 3)},
        )
    )
    assert isinstance(inst, DkshInstance)
    assert len(inst.hyperedges) == 4
    assert all(2 <= len(e) <= 3 for e in inst.hyperedges)


@pytest.mark.parametrize("kind", ["dag", "digraph"])
def test_edge_density_outside_unit_interval(kind):
    for density in (0, 1, 0.0, 1.0):
        generate(GenSpec(kind=kind, n=4, k=2, seed=1, shape={"edge_density": density}))
    for density in (-1, -0.1, 1.5, 2):
        with pytest.raises(GenerationError, match="'edge_density'"):
            generate(GenSpec(kind=kind, n=4, k=2, seed=1, shape={"edge_density": density}))


def test_negative_num_edges():
    inst = generate(GenSpec(kind="hypergraph", n=4, k=2, seed=1, shape={"num_edges": 0}))
    assert inst.hyperedges == ()
    with pytest.raises(GenerationError, match="'num_edges'"):
        generate(GenSpec(kind="hypergraph", n=4, k=2, seed=1, shape={"num_edges": -1}))


def test_bpcc_shape():
    inst = generate(
        GenSpec(kind="bpcc", n=9, k=4, seed=3, shape={"cluster_count": 3})
    )
    assert isinstance(inst, BpccInstance)
    assert len(inst.clusters) == 3
    assert all(w <= 4 for w in inst.weight)
