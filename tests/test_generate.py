import hashlib
import math

import pytest

from pocover.generate import (
    GenSpec,
    GenerationError,
    SplitMix64,
    _Draws,
    _gen_out_tree,
    generate,
)
from pocover.model import (
    BpccInstance,
    CtInstance,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
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


@pytest.mark.parametrize("seed", [0, 1, 1234567, 2**64 - 1])
def test_block_is_next_u64_many_at_a_time(seed):
    """Counts within one chunk, at and across chunk edges, and over several
    chunks."""
    for count in (0, 1, 7, 8, 63, 64, 1023, 1024, 1025, 5000):
        lanes, one_by_one = SplitMix64(seed), SplitMix64(seed)
        assert lanes.block(count) == [one_by_one.next_u64() for _ in range(count)]
        assert lanes.next_u64() == one_by_one.next_u64()


_SPAN = 1 << 64
# Turns down 2^64 mod bound = 2^63 - 1 values: about half of all draws.
_HALF_REJECTED = (1 << 63) + 1


@pytest.mark.parametrize("count", [5, 64, 1025])
def test_block_fed_draws_reject_as_randrange_does(count):
    """A rejected value is replaced by the next one, inside the block and past
    its end alike, so block-fed draws and randrange agree value by value."""
    draws, rng = _Draws(SplitMix64(1), count), SplitMix64(1)
    got = [draws.randrange(_HALF_REJECTED) for _ in range(count)]
    assert got == [rng.randrange(_HALF_REJECTED) for _ in range(count)]
    assert draws.rejected == rng.rejected > 0
    # The rejections ran the draws past the block's end, and some were there.
    past = SplitMix64(1).block(count + rng.rejected)[count:]
    assert any(x >= _SPAN - _SPAN % _HALF_REJECTED for x in past)
    assert draws.next_u64() == rng.next_u64()


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


def _contract_out_tree(spec, rng):
    """The out_tree generator's attempt contract, from ``rng.next_u64``
    alone: the instance, "refused" or "exhausted", and the pass ("parent" or
    "size") in which each failed attempt stopped.  Leaves ``rng`` where the
    contract leaves it.

    A draw reads values one at a time until one lies below the largest
    multiple of its bound.  An attempt draws n - 1 parents, then n sizes, and
    stops at the first vertex that cannot fit: in the parent pass when even
    size ``lo`` everywhere overflows its root path, in the size pass when the
    sizes above leave no room.  A stopped attempt then reads one value per
    draw it did not make, so the next attempt starts past all 2n - 1 draws
    and the values rejected draws took."""
    n, k = spec.n, spec.k
    lo, hi = spec.shape.get("size_range", (0, k))
    cap = spec.shape.get("max_children")

    def draw(bound):
        x = rng.next_u64()
        while x >= _SPAN - _SPAN % bound:
            x = rng.next_u64()
        return x % bound

    if (n > 1 and cap is not None and cap < 1) or lo > min(hi, k - 1):
        return "refused", []
    stops = []
    for _ in range(100):
        made = 0
        parent, depth, kids, room = [None], [0], [0] * n, [0]
        for v in range(1, n):
            i = draw(len(room))
            p = room[i]
            made += 1
            parent.append(p)
            depth.append(depth[p] + 1)
            if lo * (depth[v] + 1) > k - 1:
                stops.append("parent")
                break
            kids[p] += 1
            if kids[p] == cap:
                del room[i]
            room.append(v)
        else:
            size, path = [], []
            for v in range(n):
                above = 0 if v == 0 else path[parent[v]]
                top = min(hi, k - 1 - above)
                if lo > top:
                    stops.append("size")
                    break
                size.append(lo + draw(top - lo + 1))
                made += 1
                path.append(above + size[v])
            else:
                return CtInstance(SizedOutTree(parent, size), k), stops
        for _ in range(2 * n - 1 - made):
            rng.next_u64()
    return "exhausted", stops


def _digest_specs():
    """The 240 out_tree specs of ``test_output_digest_on_seeded_corpus``."""
    for max_children in (None, 0, 1, 2, 3):
        for size_range in ((0, 0), (0, 3), (0, 12), (1, 5)):
            for seed in range(12):
                shape = {"size_range": size_range}
                if max_children is not None:
                    shape["max_children"] = max_children
                yield GenSpec("out_tree", n=1 + 3 * seed, k=2 + seed % 9, seed=seed, shape=shape)


def _outcome(spec, rng=None):
    """What the out_tree generator makes of ``spec`` (with ``rng``, or with
    the spec's seed as ``generate`` runs it): the instance bytes or the
    error."""
    try:
        if rng is None:
            return dumps_instance(generate(spec))
        return dumps_instance(_gen_out_tree(spec, rng))
    except GenerationError as exc:
        return str(exc)


def _assert_follows_the_contract(spec):
    """The generator's outcome and final state are the contract's."""
    reference, rng = SplitMix64(spec.seed), SplitMix64(spec.seed)
    expected, stops = _contract_out_tree(spec, reference)
    got = _outcome(spec, rng)
    assert rng._state == reference._state
    if expected == "refused":
        assert "'size_range'" in got or "'max_children'" in got
    elif expected == "exhausted":
        assert got.startswith("could not satisfy size_range")
    else:
        assert got == dumps_instance(expected)
    return expected, stops


def test_out_tree_attempts_follow_the_contract_on_the_digest_corpus():
    outcomes = [_assert_follows_the_contract(spec) for spec in _digest_specs()]
    assert len(outcomes) == 240
    kinds = {
        "refused" if made == "refused" else "exhausted" if made == "exhausted"
        else "retried" if stops else "first"
        for made, stops in outcomes
    }
    assert kinds == {"refused", "exhausted", "retried", "first"}


@pytest.mark.parametrize(
    "max_children, specs",
    [
        (None, [(2000, 1000, 3), (2000, 24, 0), (2000, 22, 1), (2000, 16, 0)]),
        (3, [(2000, 1000, 3), (2000, 24, 0), (2000, 24, 2), (2000, 16, 0)]),
    ],
)
def test_out_tree_attempts_follow_the_contract_at_scale(max_children, specs):
    """Trees of 2000 vertices, (n, k, seed) each: one drawn at the first
    attempt, two only after retries, one that exhausts them; failed attempts
    stopped in both passes."""
    outcomes = []
    for n, k, seed in specs:
        shape = {"size_range": (1, 2)}
        if max_children is not None:
            shape["max_children"] = max_children
        outcomes.append(_assert_follows_the_contract(GenSpec("out_tree", n, k, seed, shape)))
    assert outcomes[0][1] == []
    assert all(0 < len(stops) < 100 for _, stops in outcomes[1:3])
    assert outcomes[3][0] == "exhausted"
    assert {stop for _, stops in outcomes for stop in stops} == {"parent", "size"}


# The digest corpus specs, as (n, k, seed, max_children) with size_range
# (1, 5), whose instance or error differs under the earlier retry rule, where
# a failed attempt left the stream right after its last draw.  The first
# attempt of each fails.  The other 232 specs kept their outcomes, which the
# digest below pins.
_MOVED = {
    (7, 4, 2, None), (10, 5, 3, None), (13, 6, 4, None), (19, 8, 6, None),
    (22, 9, 7, None), (25, 10, 8, None), (7, 4, 2, 3), (10, 5, 3, 3),
}


def test_digest_corpus_keeps_its_bytes_outside_the_moved_specs():
    digest = hashlib.sha256()
    kept = 0
    for spec in _digest_specs():
        key = (spec.n, spec.k, spec.seed, spec.shape.get("max_children"))
        if key in _MOVED and spec.shape["size_range"] == (1, 5):
            assert _contract_out_tree(spec, SplitMix64(spec.seed))[1]  # its first attempt failed
            continue
        digest.update(_outcome(spec).encode() + b"\n")
        kept += 1
    assert kept == 232
    assert digest.hexdigest() == "526c711d919f21654b396d072996501fa120533485fef61abfbec8c31d4a7132"


@pytest.mark.parametrize("max_children", [None, 3], ids=["free", "capped"])
@pytest.mark.parametrize("n", [64, 1000, 2500, 10**5])
@pytest.mark.parametrize("shape", [{"size_range": (1, 60)}, {}], ids=["sizes_1_60", "default"])
def test_out_tree_follows_the_contract_across_sizes(max_children, n, shape):
    """Bytes and final state equal the contract's for both fan-outs, from a
    spec that reads its values one at a time to ones of many chunks."""
    if max_children is not None:
        shape = {**shape, "max_children": max_children}
    made, _ = _assert_follows_the_contract(GenSpec("out_tree", n, 1000, 1, shape))
    assert made not in ("refused", "exhausted")


_TOP = _SPAN - 1  # turned down by every bound that is not a power of two
_GAMMA = 0x9E3779B97F4A7C15
_MIX = SplitMix64.next_u64


def _planted(start, n, parents, sizes):
    """Stream positions -> values for one attempt that starts at position
    ``start`` and makes every draw: ``parents[v]`` (and ``sizes[v]``) lists
    the values vertex v's draw reads, the last one kept; None leaves the
    stream's own value there.  Every other draw reads one value."""
    out, at = {}, start
    for design, vertices in ((parents, range(1, n)), (sizes, range(n))):
        for v in vertices:
            for x in design.get(v, [None]):
                if x is not None:
                    out[at] = x
                at += 1
    return out


def _plant(monkeypatch, seed, plants):
    """Make every SplitMix64 return ``plants[j]`` as value j of the stream
    from ``seed`` (its own value elsewhere), one at a time and in blocks."""
    inverse = pow(_GAMMA, -1, _SPAN)

    def next_u64(self):
        x = _MIX(self)
        return plants.get(((self._state - seed) * inverse - 1) % _SPAN, x)

    monkeypatch.setattr(SplitMix64, "next_u64", next_u64)
    monkeypatch.setattr(SplitMix64, "block", lambda self, count: [self.next_u64() for _ in range(count)])


def test_out_tree_rejections_in_a_crafted_stream(monkeypatch):
    """Values at or above the rejection limit, and values between the fast
    test and the limit, planted at parent and size positions of three
    attempts: the first stops in the parent pass (with a turned-down parent
    and sizes after its stop, and sizes the generator read before finding
    it), the second in the size pass (with a turned-down size after its
    stop), the third finishes.  Bytes and final state equal the contract's."""
    n, k, seed = 2500, 1000, 7
    # lcm(1..40) - 1 is one below a multiple of every bound of size_range
    # (1, 40), so a size drawn from it is the largest that fits.
    biggest = math.lcm(*range(1, 41)) - 1
    # Attempt 1: a chain of 1000 vertices, deeper than the depth rule allows
    # (lo = 1, k = 1000: depth 999 stops at vertex 999).  Turned down: parents
    # 3, 500 (twice) and 999 itself, counted; 1000 and 1010, in the stop's
    # chunk, and 1500, not counted.  The last vertex of the first chunk reads
    # 2^64 - 1 and keeps it: 1024 is a power of two.
    first_parents = {v: [v - 1] for v in range(1, 1000)}
    first_parents.update({3: [_TOP, 2], 500: [_TOP, _TOP, 499], 999: [_TOP, 998], 1024: [_TOP]})
    first_parents.update({v: [_TOP, None] for v in (1000, 1010, 1500)})
    first_sizes = {0: [_TOP, None], 5: [_TOP, None], 2000: [_TOP, None]}
    plants = _planted(0, n, first_parents, first_sizes)
    second = 2 * n - 1 + 4
    # Attempt 2: a chain of 100 vertices whose sizes are all the largest that
    # fit, so vertex 26 finds no room; parent 2499 (the last) and size 10 are
    # turned down, size 11 reads a value between 2^64 - 40 and the limit
    # 2^64 - 16, and size 60 is turned down after the stop.
    second_parents = {v: [v - 1] for v in range(1, 100)}
    second_parents.update({7: [_TOP, 6], 2499: [_TOP, None]})
    second_sizes = {v: [biggest] for v in range(100)}
    second_sizes.update({10: [_TOP, biggest], 11: [_SPAN - 20], 60: [_TOP, biggest]})
    plants.update(_planted(second, n, second_parents, second_sizes))
    third = second + 2 * n - 1 + 3
    # Attempt 3 finishes.  Turned down: parent 7 by a value below 2^64 - 1
    # (2^64 mod 7 = 2) in a chunk whose largest value it is, parent 1025 (the
    # first of the second chunk), and size 9 by a value below 2^64 - 1 too.
    plants.update(_planted(third, n, {7: [_SPAN - 2, None], 1025: [_TOP, None]}, {9: [_SPAN - 10, None]}))

    _plant(monkeypatch, seed, plants)
    spec = GenSpec("out_tree", n, k, seed, {"size_range": (1, 40)})
    made, stops = _assert_follows_the_contract(spec)
    assert isinstance(made, CtInstance)
    assert stops == ["parent", "size"]


def test_capped_out_tree_rejections_in_a_crafted_stream(monkeypatch):
    """With capped fan-out every parent value at 2^64 - n or above takes the
    exact test: 2^64 - 1 is turned down unless the number of eligible
    vertices is a power of two.  Planted in the first chunk, at the last
    vertex of the first and the last chunk, and at sizes."""
    n, k, seed = 2500, 1000, 11
    parents = {v: [_TOP, None] for v in (2, 3, 6, 700, 1024, 2499)}
    sizes = {v: [_TOP, None] for v in (0, 4, 2400)}
    _plant(monkeypatch, seed, _planted(0, n, parents, sizes))
    spec = GenSpec("out_tree", n, k, seed, {"size_range": (1, 40), "max_children": 2})
    made, stops = _assert_follows_the_contract(spec)
    assert isinstance(made, CtInstance)
    assert stops == []
