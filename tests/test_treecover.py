import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from pocover.exact import exact_ct
from pocover.generate import GenerationError, GenSpec, SplitMix64, generate
from pocover.model import (
    CtInstance,
    InputError,
    SizedOutTree,
    validate_configuration,
    validate_cover,
)
from pocover.serialize import cover_to_doc, dumps_instance, trace_to_doc
from pocover.treecover import (
    InfeasibleInstance,
    anchor_step,
    bounds,
    cover,
    next_fit,
    preprocess,
    _rooted,
)
from pocover.verify import structural_checks


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
    assert pre.reduced_to_original == (0, 2)
    assert pre.zero_leaves == ()
    assert pre.reduced is not None and pre.reduced.tree.size == (2, 1)


def test_preprocess_zero_leaf():
    inst = CtInstance(SizedOutTree([None, 0, 0], [1, 0, 1]), 3)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((1, 0),)
    assert pre.forced == ()
    assert pre.reduced_to_original == (0, 2)


def test_preprocess_zero_leaf_with_full_path():
    # With capacity 2 the positive leaf's path is exactly full, so after the
    # zero leaf detaches the remaining leaf is forced and the tree empties.
    inst = CtInstance(SizedOutTree([None, 0, 0], [1, 0, 1]), 2)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((1, 0),)
    assert pre.forced == (frozenset({0, 2}),)
    assert pre.reduced is None
    result = cover(inst)
    assert validate_cover(inst, result.cover) is None
    assert len(result.cover) == len(exact_ct(inst)) == 1


def test_preprocess_zero_chain():
    # Detaching a zero leaf can expose another zero leaf.
    inst = CtInstance(SizedOutTree([None, 0, 1], [1, 0, 0]), 2)
    pre = preprocess(inst)
    assert pre.zero_leaves == ((2, 1), (1, 0))
    assert pre.reduced_to_original == (0,)


def test_preprocess_zero_root_survives():
    inst = CtInstance(SizedOutTree([None], [0]), 1)
    pre = preprocess(inst)
    assert pre.reduced is not None
    assert pre.zero_leaves == ()


def test_preprocess_without_peeling_returns_the_input(star4):
    generated = generate(
        GenSpec("out_tree", n=200, k=1000, seed=3, shape={"size_range": (1, 60)})
    )
    for inst in (star4, generated):
        pre = preprocess(inst)
        assert pre.reduced == inst
        assert pre.reduced_to_original == tuple(range(inst.tree.vertex_count))
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
        if pre.reduced is None:
            continue
        red = pre.reduced.tree
        for v in range(red.vertex_count):
            path = sum(red.size[u] for u in red.ancestors(v))
            assert path < k
        for leaf in red.leaves():
            assert red.size[leaf] > 0 or red.parent[leaf] is None
    assert seen_forced > 0


# ---------------------------------------------------------------------------
# anchor selection


def test_anchor_step_star(star4):
    fitting, anchors = anchor_step(star4, range(5))
    assert fitting == {1, 2, 3, 4}
    assert anchors == {0}


def test_anchor_step_chain(chain4):
    fitting, anchors = anchor_step(chain4, range(6))
    assert anchors == {1}
    assert fitting == {2, 3, 4, 5}


def test_anchor_step_requires_heavy_active_set():
    inst = CtInstance(SizedOutTree([None, 0], [0, 1]), 2)
    with pytest.raises(InputError):
        anchor_step(inst, {0, 1})


def _unrooted_active_sets(inst):
    """Vertex sets of ``inst`` without its root, in forms that must not skip
    the check that the active set is rooted."""
    rest = range(1, inst.tree.vertex_count)
    plain = frozenset(rest)
    yield set(rest)
    yield plain
    cover(inst)
    yield plain
    # Tagged as rooted, but for an equal tree that is not this one.
    twin = SizedOutTree(inst.tree.parent, inst.tree.size)
    yield _rooted(twin, rest)


def test_anchor_step_requires_ancestor_closed_active_set(star4):
    for active in _unrooted_active_sets(star4):
        with pytest.raises(InputError, match="closed under ancestors"):
            anchor_step(star4, active)


# ---------------------------------------------------------------------------
# next-fit packing


def test_next_fit_even_split(star4):
    result = next_fit(star4, range(5), 0)
    assert result.sets == (frozenset({0, 1, 2}), frozenset({0, 3, 4}))
    assert result.anchored == {1, 2, 3, 4}
    assert result.leftover == frozenset()


def test_next_fit_odd_drop(star3):
    result = next_fit(star3, range(4), 0)
    assert result.sets == (frozenset({0, 1}), frozenset({0, 2}))
    assert result.anchored == {1, 2}
    assert result.leftover == {3}


def test_next_fit_path_carried(chain3):
    result = next_fit(chain3, range(5), 1)
    assert result.sets == (frozenset({0, 1, 2}), frozenset({0, 1, 3}))
    assert result.leftover == {4}


def test_next_fit_requires_ancestor_closed_active_set(chain4):
    # Vertex 1 anchors chain4; without the root, packing would still succeed.
    for active in _unrooted_active_sets(chain4):
        with pytest.raises(InputError, match="closed under ancestors"):
            next_fit(chain4, active, 1)


def test_next_fit_rejects_non_anchor(star4):
    with pytest.raises(InputError):
        next_fit(star4, range(5), 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_next_fit_keeps_child_subtrees_whole(data):
    """Anchored/leftover status is constant on whole child subtrees, and the
    anchor set of a heavy active set is never empty."""
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, 6))
    parent = [None] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    size = [data.draw(st.integers(0, k)) for _ in range(n)]
    raw = CtInstance(SizedOutTree(parent, size), k)
    try:
        pre = preprocess(raw)
    except InfeasibleInstance:
        return
    if pre.reduced is None:
        return
    inst = pre.reduced
    active = frozenset(range(inst.tree.vertex_count))
    if sum(inst.tree.size) <= k:
        return
    fitting, anchors = anchor_step(inst, active)
    assert anchors
    for a in sorted(anchors):
        result = next_fit(inst, active, a)
        for child in inst.tree.children[a]:
            subtree = {child}
            stack = [child]
            while stack:
                v = stack.pop()
                for c in inst.tree.children[v]:
                    subtree.add(c)
                    stack.append(c)
            assert subtree <= result.anchored or subtree <= result.leftover
        assert result.anchored | result.leftover == {
            v for v in active if a in inst.tree.ancestors(v) and v != a
        }


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
    # report the anchor and its vertices in original ids even though the
    # reduced instance is relabelled after f's removal.
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

    pre = preprocess(inst)
    exact_reduced = 0 if pre.reduced is None else len(exact_ct(pre.reduced))
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
    assert digest.hexdigest() == "140faf72fe3bb1f609d94e36d3f18881646ff5a792d7c0a5dba28d4708c2c618"


def _random_tree_n30000():
    spec = GenSpec("out_tree", n=30_000, k=1000, seed=5, shape={"size_range": (1, 60)})
    return generate(spec)


def _caterpillar_n999():
    return CtInstance(SizedOutTree(*_caterpillar(333, 1)), 10)


@pytest.mark.parametrize("build", [_random_tree_n30000, _caterpillar_n999])
def test_oracle_free_checks_at_scale(build):
    inst = build()
    result = cover(inst)
    checks = structural_checks(inst, result.cover, result.trace)
    assert [name for name, ok in checks if not ok] == []
    b = bounds(result.trace, inst)
    assert result.trace.loop_and_residual_count() <= b.upper <= 2 * b.lower
    assert len(result.cover) <= b.upper + len(result.trace.forced_prefix)
