"""Two-approximate covering of sized out-trees.

The solver works bottom-up, in rounds.  In each round the *anchors* are the
vertices whose active descendant mass no longer fits in the residual capacity
below their root path, while every child's does.  The active child subtrees
of each anchor are packed next-fit into configurations that all carry the
anchor's root path; if the packing ends on an odd set, the last set is dropped
and its vertices are deferred to a later round.  One post-order sweep
(``anchor_step``) finds every anchor with its round and packed bins, and
``cover`` joins each bin to the anchor's root path, taken once per anchor, and
emits the sets round by round.  The recorded run trace supports
instance-specific lower and upper bounds on the optimal cover cardinality
whose ratio never exceeds 2.

Preprocessing peels three degenerate layers, the last two in one
children-first walk: root paths heavier than the capacity (no cover exists),
leaves whose root path exactly fills a configuration (forced, by leaf id), and
zero-size leaves (each listed before its parent, detached, then re-inserted
into the first set containing their parent).  All of it runs in the input's
vertex ids: the sweep skips what preprocessing peeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Configuration, Cover, CtInstance, SizedOutTree


class InfeasibleInstance(Exception):
    """No feasible cover exists (some root path outweighs the capacity)."""


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of instance preprocessing, in the input's vertex ids.

    ``alive[v]`` tells whether v was kept.  A peeled vertex's subtree is
    peeled too, so the kept vertices form a rooted subtree (empty when the
    root was peeled); ``verify.reduced_instance`` relabels it densely.
    ``h[v]`` is v's root-path weight, ``forced`` each forced leaf's root path
    by leaf id, and ``zero_leaves`` the ``(leaf, parent)`` pairs, each before
    its parent.
    """

    alive: tuple[bool, ...]
    h: tuple[int, ...]
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
        """Number of cover sets emitted by the anchors plus the residual."""
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


def preprocess(instance: CtInstance) -> PreprocessResult:
    """Peel forced configurations and zero-size leaves off an instance.

    Raises InfeasibleInstance when some root path outweighs the capacity.
    Afterwards every kept vertex has root-path weight strictly below the
    capacity, and every kept vertex that is not the root has a kept child or
    positive size.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    h = _path_weights(tree)
    for v in range(n):
        if h[v] > k:
            raise InfeasibleInstance(
                f"root path of vertex {v} weighs {h[v]} > capacity {k}"
            )

    # A vertex whose children have all left, leaves too: with a forced set a
    # child left into, else as a zero leaf (not the root), else as a leaf
    # whose root path fills a configuration, which it forces.
    present = [len(c) for c in tree.children]  # children still present
    forcing = [False] * n  # it or a child of it left into a forced configuration
    alive = [True] * n
    zero_leaves: list[tuple[int, int]] = []
    forced_leaves: list[int] = []
    for v in reversed(tree.order):
        if present[v]:
            continue
        p = tree.parent[v]
        if not forcing[v]:
            if tree.size[v] == 0 and p is not None:
                zero_leaves.append((v, p))
            elif h[v] == k:
                forced_leaves.append(v)
                forcing[v] = True
            else:
                continue
        alive[v] = False
        if p is not None:
            present[p] -= 1
            forcing[p] |= forcing[v]
    forced = tuple(tree.ancestors(leaf) for leaf in sorted(forced_leaves))
    return PreprocessResult(tuple(alive), tuple(h), forced, tuple(zero_leaves))


def anchor_step(
    instance: CtInstance, pre: PreprocessResult
) -> tuple[list[tuple], Optional[list[int]]]:
    """Find every anchor of the run, its round and its packing, in one
    post-order sweep over the vertices that preprocessing ``pre`` kept.

    Returns ``(fired, residual)``.  ``fired`` holds one tuple per anchor,
    ``(round, anchor, bins, anchored_size, leftover_size)``: the vertices of
    the child subtrees packed into each of its sets, without its root path,
    and the anchored and the deferred mass.  ``residual`` lists the vertices
    still active at the end, or is None when none is.

    The sweep visits each vertex after its children and keeps, for the state
    after every anchor below it has fired, whether it is still active, the
    active mass strictly below it and the latest round of an anchor at or
    below it.  That is the state the round loop of the algorithm shows the
    vertex when it could fire, because:

    - fitting is monotone up the tree: the descendants of a vertex whose
      active mass fits below its room fit too, and active mass only shrinks,
      so a fitting vertex never fires later;
    - the anchors of one round are never ancestors of each other, since every
      child of an anchor fits, so they pack disjoint subtrees in any order;
    - each vertex fires at most once: it defers at most one dropped bin,
      whose mass fits its room;
    - a vertex's round is 1 + the latest anchor round below it (1 if there is
      none): nothing below it changes after that round, and then its children
      all fit, so it fires exactly when its active children outweigh its room.

    A fired vertex stays active only if it deferred children; any other
    vertex stays active if it has active children or no anchor below it
    fired.  Active children always carry positive mass, as preprocessing
    removed the zero-size leaves.  A peeled vertex is skipped: its subtree is
    peeled too, so it carries no mass and no anchor.
    """
    tree, k = instance.tree, instance.capacity
    parent, size, children = tree.parent, tree.size, tree.children
    alive, h = pre.alive, pre.h
    n = tree.vertex_count
    active = list(alive)  # a peeled vertex is never active
    below = [0] * n  # active mass strictly below the vertex
    latest = [0] * n  # latest anchor round at or below the vertex
    fired: list[tuple] = []
    for v in reversed(tree.order):
        if not alive[v]:
            continue
        room = k - h[v]
        if below[v] > room:
            live = [c for c in children[v] if active[c]]
            masses = [size[c] + below[c] for c in live]
            packed, dropped = next_fit(masses, room)
            bins: list[list[int]] = []
            for items in packed:
                q = [live[i] for i in items]
                for c in q:
                    active[c] = False
                for u in q:
                    q.extend([c for c in children[u] if active[c]])
                bins.append(q)
            leftover = sum(masses[i] for i in dropped)
            latest[v] += 1  # one round after the latest anchor below it
            fired.append((latest[v], v, bins, below[v] - leftover, leftover))
            below[v] = leftover
            active[v] = bool(dropped)
        else:
            active[v] = below[v] > 0 or latest[v] == 0
        p = parent[v]
        if p is not None:
            if active[v]:
                below[p] += size[v] + below[v]
            if latest[v] > latest[p]:
                latest[p] = latest[v]
    residual = None
    if active[tree.root]:
        residual = [tree.root]
        for u in residual:
            residual.extend([c for c in children[u] if active[c]])
    return fired, residual


def next_fit(masses: list[int], room: int) -> tuple[list[list[int]], list[int]]:
    """Pack items of the given masses, each at most ``room``, next-fit and in
    order into bins of capacity ``room``.

    Returns the kept bins as lists of item indices, and the items of the last
    bin when the bins are odd in number: that bin is dropped, so the kept
    bins always come in pairs, and any two bins 2j and 2j+1 together hold
    more than ``room``.
    """
    bins: list[list[int]] = []
    current: list[int] = []
    load = 0
    for i, m in enumerate(masses):
        if load + m > room:
            bins.append(current)
            current = []
            load = 0
        current.append(i)
        load += m
    if current:
        bins.append(current)
    dropped = bins.pop() if len(bins) % 2 else []
    return bins, dropped


def cover(instance: CtInstance) -> CoverResult:
    """Compute a feasible cover of at most twice the optimal cardinality.

    Each anchor's sets join its root path to each of its bins; it is a top
    anchor iff that path holds no other anchor.  The trace records every
    anchor, the top anchors, the correction term ``alpha`` of both bounds,
    the forced prefix, and where detached zero-size leaves were re-inserted.

    ``alpha`` is 1 iff a top anchor kept leftovers or a kept leaf has no
    anchor on its root path, which holds iff a residual set is emitted, so it
    is read off the residual.  Proof: in ``anchor_step`` a vertex with no
    anchor at or below it stays active, a top anchor stays active iff it
    deferred mass, and a kept vertex with an anchor below it but none on its
    root path is active iff it has an active child, as active children carry
    positive mass.  So the root ends active exactly under that condition.
    """
    pre = preprocess(instance)
    cover_sets: list[frozenset[int]] = list(pre.forced)
    records: list[AnchorRecord] = []
    top_anchors: list[int] = []
    fired, residual = anchor_step(instance, pre)
    fired.sort(key=lambda f: f[:2])
    anchors = {f[1] for f in fired}
    for iteration, a, bins, anchored_size, leftover_size in fired:
        path = instance.tree.ancestors(a)
        if len(path & anchors) == 1:
            top_anchors.append(a)
        first = len(cover_sets)
        cover_sets.extend([path.union(q) for q in bins])
        records.append(
            AnchorRecord(
                anchor=a,
                iteration=iteration,
                h=pre.h[a],
                anchored_size=anchored_size,
                leftover_size=leftover_size,
                anchored_vertices=frozenset().union(*bins),
                emitted_sets=tuple(range(first, len(cover_sets))),
            )
        )
    final_residual: Optional[Configuration] = None
    if residual is not None:
        final_residual = frozenset(residual)
        cover_sets.append(final_residual)

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
        top_anchors=frozenset(top_anchors),
        alpha=int(final_residual is not None),
        forced_prefix=pre.forced,
        final_residual=final_residual,
        zero_leaf_attachments=attachments,
    )
    return CoverResult(cover_sets, trace)


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


def _path_weights(tree: SizedOutTree) -> list[int]:
    h = [0] * tree.vertex_count
    for v in tree.order:
        p = tree.parent[v]
        h[v] = tree.size[v] + (0 if p is None else h[p])
    return h
