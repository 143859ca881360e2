"""Two-approximate covering of sized out-trees.

The solver works bottom-up.  Each round identifies *anchors*: vertices whose
descendant mass no longer fits in the residual capacity below their root path,
while every child's does.  The descendants of each anchor are packed next-fit
into configurations that all carry the anchor's root path; if the packing ends
on an odd set, the last set is dropped and its vertices are deferred to a later
round.  The recorded run trace supports instance-specific lower and upper
bounds on the optimal cover cardinality whose ratio never exceeds 2.

Preprocessing peels three degenerate layers before the main loop: root paths
heavier than the capacity (no cover exists), leaves whose root path exactly
fills a configuration (that configuration is forced), and zero-size leaves
(detached, then re-inserted into any set containing their parent).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    Configuration,
    Cover,
    CtInstance,
    InputError,
    SizedOutTree,
    path_weight,
)


class InfeasibleInstance(Exception):
    """No feasible cover exists (some root path outweighs the capacity)."""


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of instance preprocessing.

    ``reduced`` is None when preprocessing consumed the whole tree, and the
    input instance itself when it peeled nothing; otherwise its vertices are
    relabelled densely.  ``reduced_to_original[i]`` maps them back.
    ``forced`` and ``zero_leaves`` use original vertex ids.
    """

    reduced: Optional[CtInstance]
    reduced_to_original: tuple[int, ...]
    forced: tuple[Configuration, ...]
    zero_leaves: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AnchorRecord:
    """One anchor's slice of the run: which round it fired in, its root-path
    weight, how much descendant mass it anchored vs. left over, and which
    cover sets it emitted."""

    anchor: int
    iteration: int
    h: int
    anchored_size: int
    leftover_size: int
    anchored_vertices: frozenset[int]
    emitted_sets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.anchored_size <= 0:
            raise AssertionError("an anchor always anchors positive mass")
        if self.leftover_size < 0:
            raise AssertionError("leftover size cannot be negative")


@dataclass(frozen=True)
class RunTrace:
    """Complete audit record of one solver execution (original vertex ids)."""

    anchors: tuple[AnchorRecord, ...]
    top_anchors: frozenset[int]
    alpha: int
    forced_prefix: tuple[Configuration, ...]
    final_residual: Optional[Configuration]
    zero_leaf_attachments: dict[int, int]

    def loop_and_residual_count(self) -> int:
        """Number of cover sets emitted by the main loop plus the residual."""
        emitted = sum(len(rec.emitted_sets) for rec in self.anchors)
        return emitted + (1 if self.final_residual is not None else 0)


@dataclass(frozen=True)
class CoverResult:
    cover: Cover
    trace: RunTrace


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: int
    alpha: int


@dataclass(frozen=True)
class NextFitResult:
    sets: tuple[frozenset[int], ...]
    anchored: frozenset[int]
    leftover: frozenset[int]


def preprocess(instance: CtInstance) -> PreprocessResult:
    """Peel forced configurations and zero-size leaves off an instance.

    Raises InfeasibleInstance when some root path outweighs the capacity.
    Afterwards every remaining vertex has root-path weight strictly below the
    capacity and every remaining leaf has positive size.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    h = _path_weights(tree)
    for v in range(n):
        if h[v] > k:
            raise InfeasibleInstance(
                f"root path of vertex {v} weighs {h[v]} > capacity {k}"
            )

    alive = set(range(n))
    child_count = [len(tree.children[v]) for v in range(n)]

    # Zero-size leaves first: detaching one may expose another.  They go in
    # passes of ascending id; a parent exposed by a larger id than its own
    # waits for the next pass.  The heap holds (pass, id).
    zero_leaves: list[tuple[int, int]] = []
    heap = [(0, v) for v in range(n) if v != tree.root and child_count[v] == tree.size[v] == 0]
    while heap:
        rnd, v = heapq.heappop(heap)
        p = tree.parent[v]
        alive.remove(v)
        child_count[p] -= 1
        zero_leaves.append((v, p))
        if p != tree.root and child_count[p] == tree.size[p] == 0:
            heapq.heappush(heap, (rnd + (p < v), p))

    # Leaves whose root path exactly fills a configuration force that
    # configuration.  Removing one never creates a new leaf (a parent left
    # childless goes with it), so one scan finds them all.
    forced: list[Configuration] = []
    for leaf in [v for v in sorted(alive) if child_count[v] == 0 and h[v] == k]:
        forced.append(tree.ancestors(leaf))
        v: Optional[int] = leaf
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
        return PreprocessResult(None, (), tuple(forced), tuple(zero_leaves))
    if len(kept) == n:
        return PreprocessResult(instance, kept, (), ())
    new_id = {old: i for i, old in enumerate(kept)}
    parent = [
        None if tree.parent[old] is None else new_id[tree.parent[old]]
        for old in kept
    ]
    size = [tree.size[old] for old in kept]
    reduced = CtInstance(SizedOutTree(parent, size), k)
    return PreprocessResult(reduced, kept, tuple(forced), tuple(zero_leaves))


def anchor_step(
    instance: CtInstance, active: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """One round of anchor selection on the active vertex set.

    Returns ``(fitting, anchors)``: the vertices whose active descendant mass
    fits below their residual capacity, and the minimal violators (every child
    fits, the vertex itself does not).  Requires the active set to induce a
    rooted subtree of total size above the capacity, which guarantees at least
    one anchor exists.  The active sets ``cover`` builds are rooted by
    construction and skip the check that they are; every other input is
    checked.
    """
    tree, k = instance.tree, instance.capacity
    active = active if isinstance(active, frozenset) else frozenset(active)
    _require_rooted(tree, active)
    h, des, kids = _active_walk(tree, active)
    if des[tree.root] + tree.size[tree.root] <= k:
        raise InputError("anchor_step requires active mass above the capacity")
    # Children come after their parent in the walk, so bottom-up every
    # child's status is known before its parent's.
    fitting: set[int] = set()
    anchors: set[int] = set()
    for v in reversed(h):
        if des[v] <= k - h[v]:
            fitting.add(v)
        elif all(c in fitting for c in kids[v]):
            anchors.add(v)
    return frozenset(fitting), frozenset(anchors)


def next_fit(
    instance: CtInstance, active: Iterable[int], a: int
) -> NextFitResult:
    """Pack the active child subtrees of anchor ``a`` next-fit.

    Every emitted set carries the full root path of ``a``; each child subtree
    lands whole in exactly one set or in the leftover.  If packing ends on an
    odd number of sets the last one is dropped so the result is always an even
    count of at least two sets.  As in ``anchor_step``, only the active sets
    ``cover`` builds skip the check that the set is rooted.
    """
    tree, k = instance.tree, instance.capacity
    active = active if isinstance(active, frozenset) else frozenset(active)
    _require_rooted(tree, active)
    if a not in active:
        raise InputError(f"anchor {a} is not active")
    kids = [u for u in tree.children[a] if u in active]
    subtrees = [_active_subtree(tree, active, u) for u in kids]
    h_a = path_weight(tree, a)
    if sum(sub_size for _, sub_size in subtrees) <= k - h_a:
        raise InputError(f"vertex {a} is not an anchor: its descendants fit")
    path = tree.ancestors(a)

    sets: list[frozenset[int]] = []
    current = set(path)
    current_size = h_a
    for u, (sub, sub_size) in zip(kids, subtrees):
        if h_a + sub_size > k:
            raise InputError(f"child {u} of anchor {a} does not fit; not an anchor")
        if current_size + sub_size <= k:
            current |= sub
            current_size += sub_size
        else:
            sets.append(frozenset(current))
            current = set(path) | sub
            current_size = h_a + sub_size
    sets.append(frozenset(current))

    if len(sets) < 2:
        raise InputError(f"vertex {a} is not an anchor: one set suffices")
    leftover: frozenset[int] = frozenset()
    if len(sets) % 2 == 1:
        leftover = sets.pop() - path
    anchored = frozenset().union(*sets) - path
    return NextFitResult(tuple(sets), anchored, leftover)


def cover(instance: CtInstance) -> CoverResult:
    """Compute a feasible cover of at most twice the optimal cardinality.

    The returned trace records every anchor, the top anchors, the parity
    correction term, the forced prefix, and where detached zero-size leaves
    were re-inserted.
    """
    pre = preprocess(instance)
    cover_sets: list[frozenset[int]] = list(pre.forced)
    records: list[AnchorRecord] = []
    final_residual: Optional[Configuration] = None
    alpha = 0

    if pre.reduced is not None:
        red = pre.reduced
        to_orig = pre.reduced_to_original
        tree, k = red.tree, red.capacity
        h = _path_weights(tree)
        active = _rooted(tree, range(tree.vertex_count))
        mass = sum(tree.size)
        iteration = 1
        leftover: dict[int, int] = {}  # reduced anchor id -> leftover size
        while mass > k:
            _, anchors = anchor_step(red, active)
            covered: set[int] = set()
            for a in sorted(anchors):
                nf = next_fit(red, active, a)
                first = len(cover_sets)
                cover_sets.extend(frozenset(to_orig[v] for v in q) for q in nf.sets)
                record = AnchorRecord(
                    anchor=to_orig[a],
                    iteration=iteration,
                    h=h[a],
                    anchored_size=sum(tree.size[v] for v in nf.anchored),
                    leftover_size=sum(tree.size[v] for v in nf.leftover),
                    anchored_vertices=frozenset(to_orig[v] for v in nf.anchored),
                    emitted_sets=tuple(range(first, first + len(nf.sets))),
                )
                records.append(record)
                leftover[a] = record.leftover_size
                covered.update(*nf.sets)
            # Ancestor closure of what is left; each walk stops at a taken vertex.
            nxt: set[int] = set()
            mass = 0
            for v in active - covered:
                while v is not None and v not in nxt:
                    nxt.add(v)
                    mass += tree.size[v]
                    v = tree.parent[v]
            active = _rooted(tree, nxt)
            iteration += 1
            if iteration > tree.vertex_count + 1:
                raise AssertionError("cover loop failed to make progress")
        if active:
            final_residual = frozenset(to_orig[v] for v in active)
            cover_sets.append(final_residual)

        top_reduced, alpha = _parity_term(tree, leftover)
        top_anchors = frozenset(to_orig[a] for a in top_reduced)
    else:
        top_anchors = frozenset()

    # Each zero leaf joins the first set holding its parent; a parent that is
    # itself a zero leaf was placed just before it.
    parents = {p for _, p in pre.zero_leaves}
    first_set: dict[int, int] = {}
    for i, s in enumerate(cover_sets):
        for v in parents & s:
            first_set.setdefault(v, i)
    attachments: dict[int, int] = {}
    joining: dict[int, set[int]] = {}
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
    return CoverResult(list(cover_sets), trace)


def bounds(trace: RunTrace, instance: CtInstance) -> Bounds:
    """Instance-specific cardinality bounds computed from a run trace.

    The upper bound dominates the loop-emitted set count plus the residual;
    the lower bound is valid for every feasible cover of the preprocessed
    instance; and upper <= 2 * lower always holds.
    """
    k = instance.capacity
    upper = trace.alpha
    lower = trace.alpha
    for rec in trace.anchors:
        upper += 2 * (rec.anchored_size // (k - rec.h + 1))
        lower += rec.anchored_size // (k - rec.h)
    return Bounds(lower, upper, trace.alpha)


def _parity_term(
    tree: SizedOutTree, leftover: dict[int, int]
) -> tuple[frozenset[int], int]:
    """The top anchors (no anchor above them) among the keys of ``leftover``
    (anchor -> leftover size), and the 0/1 correction shared by both bounds:
    1 when a top anchor kept leftovers or some leaf has no top anchor above
    it.  One walk from the root that stops at top anchors."""
    top: list[int] = []
    bare_leaf = False
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if v in leftover:
            top.append(v)
        elif tree.children[v]:
            stack.extend(tree.children[v])
        else:
            bare_leaf = True
    return frozenset(top), int(bare_leaf or any(leftover[a] for a in top))


def _path_weights(tree: SizedOutTree) -> list[int]:
    h = [0] * tree.vertex_count
    for v in tree.order:
        p = tree.parent[v]
        h[v] = tree.size[v] + (0 if p is None else h[p])
    return h


class _Rooted(frozenset):
    """A vertex set closed under ancestors in ``tree``.  Only ``cover`` makes
    one, from sets that are rooted by construction."""

    __slots__ = ("tree",)


def _rooted(tree: SizedOutTree, vertices: Iterable[int]) -> _Rooted:
    out = _Rooted(vertices)
    out.tree = tree
    return out


def _require_rooted(tree: SizedOutTree, active: frozenset[int]) -> None:
    if not active:
        raise InputError("active set must be nonempty")
    if type(active) is _Rooted and active.tree is tree:
        return
    for v in active:
        p = tree.parent[v]
        if p is not None and p not in active:
            raise InputError("active set must be closed under ancestors")


def _active_walk(
    tree: SizedOutTree, active: frozenset[int]
) -> tuple[dict[int, int], dict[int, int], dict[int, list[int]]]:
    """Root-path weight, strict-descendant mass and child list of every vertex
    of the rooted active subtree, from one walk down and back up."""
    h: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
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


def _active_subtree(
    tree: SizedOutTree, active: frozenset[int], u: int
) -> tuple[frozenset[int], int]:
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
