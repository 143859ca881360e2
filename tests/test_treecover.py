import hashlib
import heapq
import json
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from pocover.exact import exact_ct
from pocover.generate import GenerationError, GenSpec, SplitMix64, generate
from pocover.model import (
    CtInstance,
    SizedOutTree,
    validate_configuration,
    validate_cover,
)
from pocover.serialize import cover_to_doc, dumps_instance, trace_to_doc
from pocover.treecover import (
    AnchorRecord,
    CoverResult,
    InfeasibleInstance,
    RunTrace,
    anchor_step,
    bounds,
    cover,
    next_fit,
    preprocess,
    _path_weights,
)
from pocover.verify import reduced_instance, structural_checks


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_infeasible_deep_path():
    inst = CtInstance(SizedOutTree([None, 0], [2, 1]), 2)
    with pytest.raises(InfeasibleInstance):
        preprocess(inst)
    with pytest.raises(InfeasibleInstance):
        cover(inst)


def test_preprocess_forced_leaf():
    # r(2) with leaves of size 3 and 1, capacity 5: the size-3 leaf fills its
    # root path exactly, so {r, leaf} is forced; r stays for the other leaf.
    inst = CtInstance(SizedOutTree([None, 0, 0], [2, 3, 1]), 5)
    pre = preprocess(inst)
    assert pre.forced == (frozenset({0, 1}),)
    assert pre.alive == (True, False, True)
    assert pre.zero_leaves == ()
    assert reduced_instance(inst).tree.size == (2, 1)


def test_preprocess_zero_leaf():
    inst = CtInstance(SizedOutTree([None, 0, 0], [1, 0, 1]), 3)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((1, 0),)
    assert pre.forced == ()
    assert pre.alive == (True, False, True)


def test_preprocess_zero_leaf_with_full_path():
    # With capacity 2 the positive leaf's path is exactly full, so after the
    # zero leaf detaches the remaining leaf is forced and the tree empties.
    inst = CtInstance(SizedOutTree([None, 0, 0], [1, 0, 1]), 2)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((1, 0),)
    assert pre.forced == (frozenset({0, 2}),)
    assert reduced_instance(inst) is None
    result = cover(inst)
    assert validate_cover(inst, result.cover) is None
    assert len(result.cover) == len(exact_ct(inst)) == 1


def test_preprocess_zero_chain():
    # Detaching a zero leaf can expose another zero leaf.
    inst = CtInstance(SizedOutTree([None, 0, 1], [1, 0, 0]), 2)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((2, 1), (1, 0))
    assert pre.alive == (True, False, False)


def test_preprocess_zero_root_survives():
    inst = CtInstance(SizedOutTree([None], [0]), 1)
    pre = preprocess(inst)
    assert pre.alive == (True,)
    assert pre.zero_leaves == ()


def test_preprocess_without_peeling_returns_the_input(star4):
    generated = generate(
        GenSpec("out_tree", n=200, k=1000, seed=3, shape={"size_range": (1, 60)})
    )
    for inst in (star4, generated):
        pre = preprocess(inst)
        assert reduced_instance(inst) == inst
        assert all(pre.alive)
        assert pre.forced == () and pre.zero_leaves == ()


def test_preprocess_postconditions_on_random_trees():
    rng = SplitMix64(2024)
    seen_forced = 0
    for _ in range(400):
        n = 1 + rng.randrange(9)
        k = 1 + rng.randrange(7)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        size = [rng.randint(0, k) for _ in range(n)]
        inst = CtInstance(SizedOutTree(parent, size), k)
        try:
            pre = preprocess(inst)
        except InfeasibleInstance:
            assert any(
                sum(size[u] for u in inst.tree.ancestors(v)) > k for v in range(n)
            )
            continue
        seen_forced += bool(pre.forced)
        reduced = reduced_instance(inst)
        if reduced is None:
            continue
        red = reduced.tree
        for v in range(red.vertex_count):
            path = sum(red.size[u] for u in red.ancestors(v))
            assert path < k
        for leaf in red.leaves():
            assert red.size[leaf] > 0 or red.parent[leaf] is None
    assert seen_forced > 0


# ---------------------------------------------------------------------------
# the sweep and its next-fit packing


def _fired_sets(fired):
    """The sweep's anchors with their bins as sets."""
    return [(rnd, a, [set(q) for q in bins], *rest) for rnd, a, bins, *rest in fired]


def test_anchor_step_star(star4):
    # The root anchors all four leaves in round 1 and leaves nothing active.
    fired, residual = anchor_step(star4, preprocess(star4))
    assert _fired_sets(fired) == [(1, 0, [{1, 2}, {3, 4}], 12, 0)]
    assert residual is None


def test_anchor_step_chain(chain4):
    # Vertex 1 (room 3) anchors its four size-2 leaves, one per set, and
    # leaves nothing active.
    fired, residual = anchor_step(chain4, preprocess(chain4))
    assert _fired_sets(fired) == [(1, 1, [{2}, {3}, {4}, {5}], 8, 0)]
    assert residual is None


def test_next_fit_even_split(star4):
    assert next_fit([3, 3, 3, 3], 6) == ([[0, 1], [2, 3]], [])
    (rec,) = cover(star4).trace.anchors
    assert (rec.anchored_vertices, rec.leftover_size) == ({1, 2, 3, 4}, 0)


def test_next_fit_odd_drop(star3):
    assert next_fit([4, 4, 4], 6) == ([[0], [1]], [2])
    (rec,) = cover(star3).trace.anchors
    assert (rec.anchored_vertices, rec.leftover_size) == ({1, 2}, 4)


def test_next_fit_path_carried(chain3):
    # Every set of anchor 1 carries its root path {0, 1}; the third leaf is
    # deferred and ends in the residual with that path.
    result = cover(chain3)
    (rec,) = result.trace.anchors
    assert rec.anchor == 1 and rec.emitted_sets == (0, 1)
    assert [sorted(result.cover[i]) for i in rec.emitted_sets] == [[0, 1, 2], [0, 1, 3]]
    assert rec.leftover_size == 2
    assert sorted(result.trace.final_residual) == [0, 1, 4]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda room: st.tuples(
            st.just(room), st.lists(st.integers(0, room), max_size=14)
        )
    )
)
def test_next_fit_keeps_child_subtrees_whole(case):
    """Each item (an anchor's active child subtree) lands whole in one kept
    bin or in the dropped bin, in order; the kept bins pair up above the
    room, and an anchor's children, which outweigh its room, always fill an
    even number of at least two bins."""
    room, masses = case
    bins, dropped = next_fit(masses, room)
    assert [i for b in bins for i in b] + dropped == list(range(len(masses)))
    loads = [sum(masses[i] for i in b) for b in bins + [dropped]]
    assert all(load <= room for load in loads)
    assert all(b for b in bins)
    # Next-fit: a bin closes only when the next item does not fit in it.
    for b, nxt in zip(bins, bins[1:] + [dropped]):
        if nxt:
            assert sum(masses[i] for i in b) + masses[nxt[0]] > room
    for j in range(0, len(bins), 2):
        assert loads[j] + loads[j + 1] > room
    if sum(masses) > room:
        assert len(bins) >= 2 and len(bins) % 2 == 0


# ---------------------------------------------------------------------------
# full covers


def test_cover_star4(star4):
    result = cover(star4)
    assert [sorted(s) for s in result.cover] == [[0, 1, 2], [0, 3, 4]]
    assert result.trace.final_residual is None
    assert result.trace.alpha == 0


def test_cover_star3(star3):
    result = cover(star3)
    assert [sorted(s) for s in result.cover] == [[0, 1], [0, 2], [0, 3]]
    assert result.trace.final_residual == {0, 3}
    assert result.trace.alpha == 1


def test_cover_single_vertex():
    result = cover(CtInstance(SizedOutTree([None], [1]), 1))
    assert result.cover == [frozenset({0})]


def test_cover_inserts_zero_leaf_into_forced_set():
    # Zero leaf under a vertex that ends up in a forced configuration.
    inst = CtInstance(SizedOutTree([None, 0, 1], [1, 2, 0]), 3)
    result = cover(inst)
    assert result.cover == [frozenset({0, 1, 2})]
    assert result.trace.zero_leaf_attachments == {2: 0}
    assert validate_cover(inst, result.cover) is None


def test_cover_alpha_from_leaf_without_top_anchor():
    # A light leaf beside a heavy subtree: the only anchor sits inside the
    # heavy subtree, so the light leaf has no top anchor above it.
    inst = CtInstance(
        SizedOutTree([None, 0, 1, 1, 1, 1, 0], [0, 1, 2, 2, 2, 2, 1]), 4
    )
    result = cover(inst)
    trace = result.trace
    assert {rec.anchor for rec in trace.anchors} == {1}
    assert trace.top_anchors == {1}
    assert trace.alpha == 1
    assert trace.final_residual == {0, 6}
    b = bounds(trace, inst)
    assert (b.lower, b.upper) == (3, 5)
    assert len(result.cover) == 5
    assert len(exact_ct(inst)) == 4


def test_multi_iteration_run():
    # Leftovers of an inner anchor are finished by an ancestor anchor later.
    inst = CtInstance(
        SizedOutTree(
            [None, 0, 1, 1, 1, 0, 0], [0, 1, 2, 2, 2, 3, 3]
        ),
        4,
    )
    result = cover(inst)
    assert validate_cover(inst, result.cover) is None
    iterations = [rec.iteration for rec in result.trace.anchors]
    assert iterations == sorted(iterations)
    assert len(set(rec.anchor for rec in result.trace.anchors)) == len(
        result.trace.anchors
    )


def test_anchor_below_forced_branch_keeps_original_ids():
    # r(1) carries a forced leaf f(3) (path weight = k) and a zero-size inner
    # vertex a whose four size-2 leaves drive the packing.  The trace must
    # report the anchor and its vertices in original ids after f's removal.
    inst = CtInstance(
        SizedOutTree([None, 0, 0, 1, 1, 1, 1], [1, 0, 3, 2, 2, 2, 2]), 4
    )
    result = cover(inst)
    trace = result.trace
    assert trace.forced_prefix == (frozenset({0, 2}),)
    (rec,) = trace.anchors
    assert rec.anchor == 1
    assert rec.h == 1
    assert rec.anchored_vertices == {3, 4, 5, 6}
    assert rec.anchored_size == 8
    assert trace.alpha == 0
    b = bounds(trace, inst)
    assert (b.lower, b.upper) == (2, 4)
    assert len(result.cover) == 5
    assert len(exact_ct(inst)) == 5
    assert validate_cover(inst, result.cover) is None


def test_bounds_examples(star4, star3, chain4):
    b4 = bounds(cover(star4).trace, star4)
    assert (b4.lower, b4.upper, b4.alpha) == (2, 2, 0)
    b3 = bounds(cover(star3).trace, star3)
    assert (b3.lower, b3.upper, b3.alpha) == (2, 3, 1)
    bc = bounds(cover(chain4).trace, chain4)
    assert (bc.lower, bc.upper, bc.alpha) == (2, 4, 0)


def test_trace_records_star3(star3):
    trace = cover(star3).trace
    (rec,) = trace.anchors
    assert rec.anchor == 0
    assert rec.iteration == 1
    assert rec.h == 0
    assert rec.anchored_size == 8
    assert rec.leftover_size == 4
    assert rec.anchored_vertices == {1, 2}
    assert rec.emitted_sets == (0, 1)


def random_instances(max_n=9, max_k=7):
    def build(n, k, parent_picks, sizes):
        parent = [None] + [parent_picks[i - 1] % i for i in range(1, n)]
        size = [s % (k + 1) for s in sizes[:n]]
        return CtInstance(SizedOutTree(parent, size), k)

    return st.tuples(st.integers(1, max_n), st.integers(1, max_k)).flatmap(
        lambda nk: st.builds(
            build,
            st.just(nk[0]),
            st.just(nk[1]),
            st.lists(st.integers(0, max_n), min_size=nk[0] - 1, max_size=nk[0] - 1),
            st.lists(st.integers(0, 100), min_size=nk[0], max_size=nk[0]),
        )
    )


@settings(max_examples=300, deadline=None)
@given(random_instances())
def test_cover_properties_hold_on_random_instances(inst):
    try:
        result = cover(inst)
    except InfeasibleInstance:
        with pytest.raises(InfeasibleInstance):
            exact_ct(inst)
        return
    trace = result.trace
    assert validate_cover(inst, result.cover) is None
    for s in result.cover:
        assert validate_configuration(inst, s) is None

    # Even set counts, anchored mass accounting, anchor disjointness.
    taken = set()
    for rec in trace.anchors:
        assert len(rec.emitted_sets) % 2 == 0 and len(rec.emitted_sets) >= 2
        assert not (rec.anchored_vertices & taken)
        taken |= rec.anchored_vertices
        assert rec.anchored_size == sum(
            inst.tree.size[v] for v in rec.anchored_vertices
        )

    b = bounds(trace, inst)
    assert trace.loop_and_residual_count() <= b.upper
    assert b.upper <= 2 * b.lower
    assert len(result.cover) <= b.upper + len(trace.forced_prefix)

    optimum = len(exact_ct(inst))
    assert optimum <= len(result.cover) <= 2 * optimum

    reduced = reduced_instance(inst)
    exact_reduced = 0 if reduced is None else len(exact_ct(reduced))
    assert b.lower <= exact_reduced <= trace.loop_and_residual_count()


# ---------------------------------------------------------------------------
# pinned outputs and oracle-free checks at scale


def _caterpillar(spine, labeling_seed=None):
    """A zero-size spine, each spine vertex with two size-3 leaves.  With a
    seed, the same tree under a seeded labeling where parents precede
    children."""
    parent = [None] + list(range(spine - 1)) + [s for s in range(spine) for _ in (0, 1)]
    size = [0] * spine + [3] * (2 * spine)
    if labeling_seed is None:
        return parent, size
    rng = SplitMix64(labeling_seed)
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    order, frontier = [], [0]
    while frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        order.append(frontier.pop())
        frontier.extend(kids[order[-1]])
    new = {old: i for i, old in enumerate(order)}
    return (
        [None if parent[old] is None else new[parent[old]] for old in order],
        [size[old] for old in order],
    )


def _digest_corpus():
    """(label, generator spec or None, instance or error text)."""
    for max_children in (None, 0, 1, 2, 3):
        for size_range in ((0, 0), (0, 3), (0, 12), (1, 5)):
            for seed in range(12):
                shape = {"size_range": size_range}
                if max_children is not None:
                    shape["max_children"] = max_children
                spec = GenSpec("out_tree", n=1 + 3 * seed, k=2 + seed % 9, seed=seed, shape=shape)
                try:
                    yield "gen", spec, generate(spec)
                except GenerationError as exc:
                    yield "gen", spec, str(exc)
    rng = SplitMix64(77)
    for _ in range(300):
        n = 1 + rng.randrange(60)
        k = 1 + rng.randrange(9)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        size = [0 if rng.randrange(3) else rng.randint(1, 1 + k // 3) for _ in range(n)]
        yield "zeros", None, CtInstance(SizedOutTree(parent, size), k)
    for spine in range(1, 13):
        for labeling in (None, spine):
            parent, size = _caterpillar(spine, labeling)
            yield "caterpillar", None, CtInstance(SizedOutTree(parent, size), 10)
    for n in range(1, 31):
        for k in (1, 3):
            chain = [None] + list(range(n - 1))
            yield "zero_chain", None, CtInstance(SizedOutTree(chain, [0] * n), k)
            yield "zero_chain_leaf", None, CtInstance(
                SizedOutTree(chain + [n - 1], [0] * n + [k]), k
            )


def test_output_digest_on_seeded_corpus():
    """Covers, traces and bounds on seeded out-trees (every max_children
    setting, size ranges that include 0), trees with many zero-size vertices,
    caterpillars under two labelings and zero chains, hashed with the
    generator's bytes.  The digest changes only with a deliberate change of
    output, which CHANGES.md records together with the new value."""
    digest = hashlib.sha256()
    for label, spec, inst in _digest_corpus():
        line = [label, None if spec is None else [spec.n, spec.k, spec.seed, spec.shape]]
        if isinstance(inst, str):
            line.append(inst)
        else:
            if spec is not None:
                line.append(dumps_instance(inst))
            try:
                result = cover(inst)
            except InfeasibleInstance as exc:
                line.append(str(exc))
            else:
                b = bounds(result.trace, inst)
                line += [
                    cover_to_doc(result.cover),
                    trace_to_doc(result.trace),
                    [b.lower, b.upper, b.alpha],
                ]
        digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "61b807949f96ca14247aa5c1c342fa13893e6183d5384756bcc48de14aca1e71"


def _random_tree_n100000():
    spec = GenSpec("out_tree", n=100_000, k=1000, seed=5, shape={"size_range": (1, 60)})
    return generate(spec)


def _caterpillar_n3333():
    return CtInstance(SizedOutTree(*_caterpillar(1111, 1)), 10)


def _zero_chain_n100000():
    return CtInstance(SizedOutTree([None] + list(range(99_999)), [0] * 100_000), 3)


def _zero_star_n100000():
    return CtInstance(SizedOutTree([None] + [0] * 99_999, [0] * 100_000), 3)


def _forced_legs_n100000():
    """A size-1 root with 49,999 legs of two vertices and one single-vertex
    leg, each filling k = 4: every leg is forced, and the root goes with them."""
    parent, size = [None], [1]
    for _ in range(49_999):
        parent += [0, len(parent)]
        size += [1, 2]
    return CtInstance(SizedOutTree(parent + [0], size + [3]), 4)


@pytest.mark.parametrize(
    "build",
    [
        _random_tree_n100000,
        _caterpillar_n3333,
        _zero_chain_n100000,
        _zero_star_n100000,
        _forced_legs_n100000,
    ],
)
def test_oracle_free_checks_at_scale(build):
    inst = build()
    result = cover(inst)
    checks = structural_checks(inst, result.cover, result.trace)
    assert [name for name, ok in checks if not ok] == []
    b = bounds(result.trace, inst)
    assert result.trace.loop_and_residual_count() <= b.upper <= 2 * b.lower
    assert len(result.cover) <= b.upper + len(result.trace.forced_prefix)
    leftover = {rec.anchor: rec.leftover_size for rec in result.trace.anchors}
    top, _ = _parity_term(inst.tree, preprocess(inst).alive, leftover)
    assert result.trace.top_anchors == top


def _broom(chain, anchors):
    """A zero-size chain whose last vertex holds ``anchors`` zero-size
    vertices with three size-4 leaves each; with k = 10 each of those is an
    anchor with the whole chain above it and no anchor there."""
    parent, size = [None] + list(range(chain - 1)), [0] * chain
    for _ in range(anchors):
        a = len(parent)
        parent += [chain - 1, a, a, a]
        size += [0, 4, 4, 4]
    return CtInstance(SizedOutTree(parent, size), 10)


def _root_path_corpus():
    """(label, builder) pairs, built when their test runs."""
    for seed in range(20):
        for size_range, k in (((1, 60), 300), ((0, 12), 40)):
            spec = GenSpec("out_tree", n=150, k=k, seed=seed, shape={"size_range": size_range})
            yield f"out_tree-{size_range[0]}-{seed}", lambda spec=spec: generate(spec)
    for spine in (1, 2, 7, 40):
        for labeling in (None, spine):
            tree = _caterpillar(spine, labeling)
            yield f"caterpillar-{spine}-{labeling}", lambda t=tree: CtInstance(SizedOutTree(*t), 10)
    yield "broom", lambda: _broom(300, 50)
    # a 5,000-vertex spine: 2,500 anchors nest all the way down it
    yield "caterpillar-5000", lambda: CtInstance(SizedOutTree(*_caterpillar(5000)), 10)


@pytest.mark.parametrize("build", [pytest.param(b, id=label) for label, b in _root_path_corpus()])
def test_each_anchor_set_holds_exactly_its_root_path(build):
    """Every set an anchor emits is its root path, ``tree.ancestors``, joined
    to the anchored vertices of one bin and any zero leaves placed there; the
    top anchors are those with no other anchor on that path."""
    inst = build()
    result = cover(inst)
    anchors = {rec.anchor for rec in result.trace.anchors}
    zero_leaves = set(result.trace.zero_leaf_attachments)
    for rec in result.trace.anchors:
        path = inst.tree.ancestors(rec.anchor)
        for i in rec.emitted_sets:
            assert result.cover[i] - rec.anchored_vertices - zero_leaves == path
        assert (rec.anchor in result.trace.top_anchors) == (len(path & anchors) == 1)


def test_factor_two_is_tight_at_scale():
    """A zero-size root with leaves [500, 1] x 10^4 and k = 1000.  Pairs of
    500s and sets of a thousand 1s cover it in 5010 sets, which is also
    ceil(total / k), so OPT = 5010.  Next-fit closes every set after one 500
    and one 1, so the cover has 10^4 sets: the factor 2 is tight."""
    m, k, opt = 10_000, 1000, 5010
    parent, size = [None] + [0] * (2 * m), [0] + [500, 1] * m
    inst = CtInstance(SizedOutTree(parent, size), k)
    heavy, light = range(1, 2 * m, 2), range(2, 2 * m + 1, 2)
    optimal = [frozenset({0, *heavy[i:i + 2]}) for i in range(0, m, 2)]
    optimal += [frozenset({0, *light[i:i + k]}) for i in range(0, m, k)]
    assert validate_cover(inst, optimal) is None
    assert len(optimal) == -(-sum(size) // k) == opt

    result = cover(inst)
    assert len(result.cover) == m
    assert len(result.cover) / opt > 1.99
    b = bounds(result.trace, inst)
    assert b.lower <= opt
    checks = structural_checks(inst, result.cover, result.trace)
    assert [name for name, ok in checks if not ok] == []


def _planted(t, k, r, max_part, max_size, seed):
    """A root of size r over subtrees whose weights split into t groups of
    exactly k - r each, hung under the root in shuffled order.  Every
    configuration holds the root, so OPT >= t, and each group with the root
    is a configuration, so OPT = t.  Each subtree's vertices weigh 1 to
    ``max_size`` and hang under a random earlier vertex of the subtree.
    Returns the instance and the planted optimal cover."""
    rng = random.Random(seed)
    rnd = rng.random
    parts = []  # (group, subtree weight)
    for g in range(t):
        left = k - r
        while left:
            w = 1 + int(rnd() * min(left, max_part))
            parts.append((g, w))
            left -= w
    rng.shuffle(parts)
    parent, size = [None], [r]
    groups = [[0] for _ in range(t)]
    for g, w in parts:
        top = len(parent)
        parent.append(0)
        while True:
            s = 1 + int(rnd() * min(w, max_size))
            size.append(s)
            w -= s
            if not w:
                break
            parent.append(top + int(rnd() * (len(parent) - top)))
        groups[g] += range(top, len(parent))
    return CtInstance(SizedOutTree(parent, size), k), [frozenset(g) for g in groups]


@pytest.mark.parametrize(
    "t, k, r, max_part, max_size, seed",
    [
        (20_000, 10, 2, 8, 8, 1),  # ~89K vertices, some leaves forced
        (1_500, 1000, 100, 300, 40, 2),  # ~101K vertices, subtrees of ~6
    ],
)
def test_factor_two_on_planted_trees_at_scale(t, k, r, max_part, max_size, seed):
    inst, planted = _planted(t, k, r, max_part, max_size, seed)
    assert validate_cover(inst, planted) is None and len(planted) == t
    result = cover(inst)
    b = bounds(result.trace, inst)
    assert b.lower <= t <= len(result.cover) <= 2 * t
    checks = structural_checks(inst, result.cover, result.trace)
    assert [name for name, ok in checks if not ok] == []


# ---------------------------------------------------------------------------
# differential oracle: the round loop that the sweep replaced


def _oracle_active_walk(tree, active):
    """Root-path weight, strict-descendant mass and child list of every vertex
    of the rooted active subtree, from one walk down and back up."""
    h, kids = {}, {}
    order = [tree.root]
    for v in order:
        p = tree.parent[v]
        h[v] = tree.size[v] + (0 if p is None else h[p])
        kids[v] = [c for c in tree.children[v] if c in active]
        order.extend(kids[v])
    des = dict.fromkeys(order, 0)
    for v in reversed(order):
        for c in kids[v]:
            des[v] += des[c] + tree.size[c]
    return h, des, kids


def _oracle_active_subtree(tree, active, u):
    """The active subtree below and including ``u``, and its mass."""
    out = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for c in tree.children[v]:
            if c in active:
                out.add(c)
                stack.append(c)
    return frozenset(out), sum(tree.size[v] for v in out)


def _oracle_anchor_step(instance, active):
    """One round's anchors: the vertices whose active descendant mass does not
    fit below their room while every active child's does."""
    tree, k = instance.tree, instance.capacity
    h, des, kids = _oracle_active_walk(tree, active)
    assert des[tree.root] + tree.size[tree.root] > k
    fitting, anchors = set(), set()
    for v in reversed(h):
        if des[v] <= k - h[v]:
            fitting.add(v)
        elif all(c in fitting for c in kids[v]):
            anchors.add(v)
    return anchors


def _oracle_next_fit(instance, active, a):
    """Anchor ``a``'s active child subtrees packed next-fit into sets that carry
    its root path: (kept sets, anchored vertices, leftover vertices)."""
    tree, k = instance.tree, instance.capacity
    kids = [u for u in tree.children[a] if u in active]
    subtrees = [_oracle_active_subtree(tree, active, u) for u in kids]
    path = tree.ancestors(a)
    h_a = sum(tree.size[v] for v in path)
    sets = []
    current, current_size = set(path), h_a
    for sub, sub_size in subtrees:
        assert h_a + sub_size <= k
        if current_size + sub_size <= k:
            current |= sub
            current_size += sub_size
        else:
            sets.append(frozenset(current))
            current, current_size = set(path) | sub, h_a + sub_size
    sets.append(frozenset(current))
    assert len(sets) >= 2
    leftover = sets.pop() - path if len(sets) % 2 else frozenset()
    return tuple(sets), frozenset().union(*sets) - path, leftover


def _parity_term(
    tree: SizedOutTree, alive: tuple[bool, ...], leftover: dict[int, int]
) -> tuple[frozenset[int], int]:
    """The top anchors (no anchor above them) among the keys of ``leftover``
    (anchor -> leftover size), and the 0/1 correction shared by both bounds:
    1 when a top anchor kept leftovers or some kept leaf has no top anchor
    above it.  A kept vertex whose children were all peeled is a leaf.  One
    walk from the root over the kept vertices that stops at top anchors."""
    top: list[int] = []
    bare_leaf = False
    stack = [tree.root] if alive[tree.root] else []
    while stack:
        v = stack.pop()
        if v in leftover:
            top.append(v)
            continue
        kids = [c for c in tree.children[v] if alive[c]]
        stack += kids
        bare_leaf = bare_leaf or not kids
    return frozenset(top), int(bare_leaf or any(leftover[a] for a in top))


def _oracle_cover(instance):
    """``cover`` as a loop of rounds: each round selects the anchors of the
    active set, packs them, and rebuilds the active set as the ancestor
    closure of what no set took.  Its ``alpha`` comes from ``_parity_term``
    (top anchors that kept leftovers, or a bare leaf), where ``cover`` reads
    it off the residual set."""
    pre = preprocess(instance)
    cover_sets = list(pre.forced)
    records = []
    final_residual = None
    alpha = 0
    top_anchors = frozenset()
    red = reduced_instance(instance)
    if red is not None:
        to_orig = [v for v, keep in enumerate(pre.alive) if keep]
        tree, k = red.tree, red.capacity
        h = _path_weights(tree)
        active = frozenset(range(tree.vertex_count))
        mass = sum(tree.size)
        iteration = 1
        leftover = {}
        while mass > k:
            covered = set()
            for a in sorted(_oracle_anchor_step(red, active)):
                sets, anchored, left = _oracle_next_fit(red, active, a)
                first = len(cover_sets)
                cover_sets.extend(frozenset(to_orig[v] for v in q) for q in sets)
                record = AnchorRecord(
                    anchor=to_orig[a],
                    iteration=iteration,
                    h=h[a],
                    anchored_size=sum(tree.size[v] for v in anchored),
                    leftover_size=sum(tree.size[v] for v in left),
                    anchored_vertices=frozenset(to_orig[v] for v in anchored),
                    emitted_sets=tuple(range(first, first + len(sets))),
                )
                records.append(record)
                leftover[a] = record.leftover_size
                covered.update(*sets)
            nxt = set()
            mass = 0
            for v in active - covered:
                while v is not None and v not in nxt:
                    nxt.add(v)
                    mass += tree.size[v]
                    v = tree.parent[v]
            active = frozenset(nxt)
            iteration += 1
            assert iteration <= tree.vertex_count + 1, "no progress"
        if active:
            final_residual = frozenset(to_orig[v] for v in active)
            cover_sets.append(final_residual)
        top_reduced, alpha = _parity_term(tree, (True,) * tree.vertex_count, leftover)
        top_anchors = frozenset(to_orig[a] for a in top_reduced)

    parents = {p for _, p in pre.zero_leaves}
    first_set = {}
    for i, s in enumerate(cover_sets):
        for v in parents & s:
            first_set.setdefault(v, i)
    attachments, joining = {}, {}
    for leaf, parent in reversed(pre.zero_leaves):
        target = attachments[leaf] = first_set[leaf] = first_set[parent]
        joining.setdefault(target, set()).add(leaf)
    for target, leaves in joining.items():
        cover_sets[target] |= leaves
    trace = RunTrace(
        anchors=tuple(records),
        top_anchors=top_anchors,
        alpha=alpha,
        forced_prefix=pre.forced,
        final_residual=final_residual,
        zero_leaf_attachments=attachments,
    )
    return CoverResult(cover_sets, trace)


def _differential_corpus():
    """2200 seeded random trees, most of them feasible and a third of their
    vertices zero-size; caterpillars with spines 1..40 under both labelings;
    zero chains with and without a size-k leaf."""
    rng = SplitMix64(1312)
    for _ in range(2200):
        n = 1 + rng.randrange(40)
        k = 3 + rng.randrange(12)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        size = [0 if rng.randrange(3) == 0 else rng.randint(1, 1 + k // 6) for _ in range(n)]
        yield CtInstance(SizedOutTree(parent, size), k)
    for spine in range(1, 41):
        for labeling in (None, spine):
            yield CtInstance(SizedOutTree(*_caterpillar(spine, labeling)), 10)
    for n in range(1, 31):
        for k in (1, 3):
            chain = [None] + list(range(n - 1))
            yield CtInstance(SizedOutTree(chain, [0] * n), k)
            yield CtInstance(SizedOutTree(chain + [n - 1], [0] * n + [k]), k)


def _outputs(solve, inst):
    try:
        result = solve(inst)
    except InfeasibleInstance as exc:
        return str(exc)
    b = bounds(result.trace, inst)
    return json.dumps(
        [cover_to_doc(result.cover), trace_to_doc(result.trace), [b.lower, b.upper, b.alpha]],
        sort_keys=True,
    )


def test_cover_matches_the_round_loop():
    """The sweep gives the round loop's covers, traces, bounds and
    infeasibility messages byte for byte, on a corpus where many runs take
    several rounds and anchors defer mass."""
    multi_round = deferring = infeasible = 0
    for i, inst in enumerate(_differential_corpus()):
        want = _outputs(_oracle_cover, inst)
        assert _outputs(cover, inst) == want, i
        if want.startswith("["):
            anchors = json.loads(want)[1]["anchors"]
            multi_round += len({rec["iteration"] for rec in anchors}) >= 2
            deferring += sum(rec["leftover_size"] > 0 for rec in anchors)
        else:
            infeasible += 1
    assert multi_round >= 200
    assert deferring > 0
    assert infeasible < 2200 // 2


# ---------------------------------------------------------------------------
# differential oracle: preprocessing by a zero-leaf heap and a forced-leaf scan


# What ``preprocess`` returned while ``cover`` ran on a relabelled copy.
_Relabelled = namedtuple("_Relabelled", "reduced reduced_to_original forced zero_leaves")


def _oracle_preprocess(instance):
    """``preprocess`` as three mechanisms: a heap that detaches zero leaves in
    passes of ascending id, a scan of the live set for forced leaves that
    walks each one's emptied ancestors up, and a sort of what is left."""
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    h = _path_weights(tree)
    for v in range(n):
        if h[v] > k:
            raise InfeasibleInstance(f"root path of vertex {v} weighs {h[v]} > capacity {k}")
    alive = set(range(n))
    child_count = [len(tree.children[v]) for v in range(n)]
    zero_leaves = []
    heap = [(0, v) for v in range(n) if v != tree.root and child_count[v] == tree.size[v] == 0]
    while heap:
        rnd, v = heapq.heappop(heap)
        p = tree.parent[v]
        alive.remove(v)
        child_count[p] -= 1
        zero_leaves.append((v, p))
        if p != tree.root and child_count[p] == tree.size[p] == 0:
            heapq.heappush(heap, (rnd + (p < v), p))
    forced = []
    for leaf in [v for v in sorted(alive) if child_count[v] == 0 and h[v] == k]:
        forced.append(tree.ancestors(leaf))
        v = leaf
        while v is not None:
            alive.remove(v)
            p = tree.parent[v]
            if p is None:
                break
            child_count[p] -= 1
            if child_count[p] > 0:
                break
            v = p
    kept = tuple(sorted(alive))
    if not kept:
        return _Relabelled(None, (), tuple(forced), tuple(zero_leaves))
    if len(kept) == n:
        return _Relabelled(instance, kept, (), ())
    new_id = {old: i for i, old in enumerate(kept)}
    parent = [None if tree.parent[old] is None else new_id[tree.parent[old]] for old in kept]
    reduced = CtInstance(SizedOutTree(parent, [tree.size[old] for old in kept]), k)
    return _Relabelled(reduced, kept, tuple(forced), tuple(zero_leaves))


def _peeling_corpus(count, seed):
    """Seeded random trees whose sizes are a third zero, a sixth exactly the
    room left below the parent's root path, and otherwise small, so that zero
    leaves, forced leaves and anchors are all common.  One tree in eight then
    has one size raised by 1 (up to k), which often makes it infeasible."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = 1 + rng.randrange(30)
        k = 1 + rng.randrange(12)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        h, size = [], []
        for v in range(n):
            room = k - (0 if parent[v] is None else h[parent[v]])
            pick = rng.randrange(6)
            if pick < 2 or room == 0:
                size.append(0)
            else:
                size.append(room if pick == 2 else rng.randint(1, 1 + (room - 1) // 3))
            h.append(k - room + size[v])
        if rng.randrange(8) == 0:
            v = rng.randrange(n)
            size[v] = min(size[v] + 1, k)
        yield CtInstance(SizedOutTree(parent, size), k)


def _preprocessed(prep, inst):
    try:
        return prep(inst)
    except InfeasibleInstance as exc:
        return str(exc)


def test_preprocess_matches_the_heap_and_scan():
    """The children-first walk peels what the heap and the forced-leaf scan
    peeled: the same forced sets, reduced tree, relabelling and infeasibility
    messages, and the same zero leaves, each now listed before its parent."""
    with_zero = with_forced = reordered = feasible = 0
    for i, inst in enumerate(_peeling_corpus(4000, 1515)):
        want, got = _preprocessed(_oracle_preprocess, inst), _preprocessed(preprocess, inst)
        if isinstance(want, str):
            assert got == want, i
            continue
        feasible += 1
        assert got.forced == want.forced, i
        assert reduced_instance(inst) == want.reduced, i
        assert tuple(v for v, keep in enumerate(got.alive) if keep) == want.reduced_to_original, i
        assert sorted(got.zero_leaves) == sorted(want.zero_leaves), i
        position = {leaf: j for j, (leaf, _) in enumerate(got.zero_leaves)}
        assert all(position.get(p, j + 1) > j for j, (_, p) in enumerate(got.zero_leaves)), i
        with_zero += bool(want.zero_leaves)
        with_forced += bool(want.forced)
        reordered += got.zero_leaves != want.zero_leaves
    assert feasible >= 3500
    assert with_zero >= 3000
    assert with_forced >= 3000
    assert reordered >= 2000


# ---------------------------------------------------------------------------
# metamorphic relations of cover


def _feasible_corpus(count, seed):
    """The first ``count`` feasible trees of the peeling corpus."""
    trees = [
        inst
        for inst in _peeling_corpus(2 * count, seed)
        if max(_path_weights(inst.tree)) <= inst.capacity
    ][:count]
    assert len(trees) == count
    return trees


def test_scaling_sizes_and_capacity_keeps_the_cover():
    """Multiplying every size and the capacity by the same c changes no
    comparison the algorithm makes, so the cover stays the same."""
    anchored = 0
    for i, inst in enumerate(_feasible_corpus(2000, 1616)):
        c = 2 + i % 5
        tree = inst.tree
        scaled = CtInstance(SizedOutTree(tree.parent, [c * s for s in tree.size]), c * inst.capacity)
        result = cover(inst)
        assert cover(scaled).cover == result.cover, i
        anchored += bool(result.trace.anchors)
    assert anchored >= 500


def test_appending_a_zero_leaf_joins_the_first_set_of_its_parent():
    """A zero-size leaf appended under v joins the first set that holds v, and
    every other set stays as it was."""
    rng = SplitMix64(1717)
    anchored = 0
    for i, inst in enumerate(_feasible_corpus(2000, 1717)):
        tree = inst.tree
        n, v = tree.vertex_count, rng.randrange(tree.vertex_count)
        grown = CtInstance(SizedOutTree(list(tree.parent) + [v], list(tree.size) + [0]), inst.capacity)
        result = cover(inst)
        want = result.cover
        first = next(j for j, s in enumerate(want) if v in s)
        want[first] = want[first] | {n}
        assert cover(grown).cover == want, i
        anchored += bool(result.trace.anchors)
    assert anchored >= 500
