"""Brute-force optimal solvers at desk scale.

These are the ground truth against which the approximation algorithm and the
reduction gadgets are checked, so they favor transparent exhaustive search
over cleverness.  Every solver carries an explicit size guard and raises
rather than silently degrading.  ``optimum`` runs the oracle of any instance's
kind and returns an optimal solution with its value.

The profit-maximization solver works on the strongly-connected-component
condensation, which ``_scc`` computes once per graph, in topological order,
for it and the round-trip checks.  It has two exhaustive walks.  The component
walk visits each closed subset of the components within the budget once
(at most 2^c for c components), or, when the condensation is two-layered
(source components feeding singleton sinks, the shape of the reduction
gadgets in this package), only the source subsets (2^|sources|), each
completed with the best sinks it enables.  The sink walk visits the closure
of each sink subset within the budget once (at most 2^|sinks|); it runs
instead on a two-layered condensation whose sources carry no profit and
number at least as many as the sinks.  So the walk with the fewest masks
runs, up to a ceiling of 2^20.  Both walks go depth first, keep no per-mask
table and hold a few ints per frame.  The answer does not depend on which
one: every walk returns the maximum profit and, among the closed sets within
the budget that reach it, the one with the lexicographically smallest sorted
vertex tuple, which ``_precedes`` decides on one int key per set.  The
component walk cuts a branch by a budget bound on its profit and, at a tie,
once the best set found provably precedes every set in it.

The tree-covering solver branches only on maximal configurations, and its
enumeration walks only toward those, cutting each partial set that can no
longer end maximal.
"""

from __future__ import annotations

import itertools
from math import comb

from .model import (
    BpccInstance,
    Configuration,
    Cover,
    CtInstance,
    Digraph,
    DkshInstance,
    KIND,
    RcpInstance,
)
from .treecover import InfeasibleInstance

CONFIG_ENUM_MAX_VERTICES = 20
EXACT_CT_MAX_VERTICES = 18
RCP_MAX_MASK_BITS = 20
DKSH_MAX_COMBINATIONS = 10**7
BPCC_MAX_CLUSTER = 18


class SizeGuardError(ValueError):
    """The instance exceeds the documented limit of an exact solver."""


def optimum(instance) -> tuple:
    """An optimal solution of a ct, rcp, dksh or bpcc instance and its value:
    ``exact_ct``'s cover and its length, or what ``exact_<kind>`` returns.
    The oracle is looked up when called, so a replaced module binding is
    seen."""
    kind = KIND[type(instance)]
    if kind == "ct":
        cover = exact_ct(instance)
        return cover, len(cover)
    return globals()[f"exact_{kind}"](instance)


def enumerate_configurations(instance: CtInstance) -> list[Configuration]:
    """All maximal configurations: nonempty ancestor-closed vertex sets within
    the capacity that no further vertex (the root, or a member's child) fits.

    Output is sorted by (cardinality, vertex tuple).  One depth-first walk
    over the parents-first order leaves each vertex out, or takes it when its
    parent is in and it fits.  It carries the set's size ``total`` and
    ``skipped``, the least size of a vertex left out that could have joined:
    a finished set is maximal iff ``total + skipped > k``.  ``skipped`` only
    falls and the set gains at most the size still undecided, so a branch is
    cut once ``total + remaining + skipped <= k``.  A zero-size star, with
    2^(n-1) configurations and one maximal, takes O(n) steps.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    if n > CONFIG_ENUM_MAX_VERTICES:
        raise SizeGuardError(
            f"configuration enumeration is limited to {CONFIG_ENUM_MAX_VERTICES} vertices"
        )
    order, parent, size = tree.order, tree.parent, tree.size
    # remaining[i]: the total size of order[i:].
    remaining = list(itertools.accumulate(size[v] for v in reversed(order)))[::-1] + [0]
    results: list[Configuration] = []
    chosen: set[int] = set()

    def extend(i: int, total: int, skipped: int) -> None:
        if total + remaining[i] + skipped <= k:
            return
        if i == n:
            if chosen:
                results.append(frozenset(chosen))
            return
        v = order[i]
        eligible = parent[v] is None or parent[v] in chosen
        extend(i + 1, total, min(skipped, size[v]) if eligible else skipped)
        if eligible and total + size[v] <= k:
            chosen.add(v)
            extend(i + 1, total + size[v], skipped)
            chosen.remove(v)

    extend(0, 0, k + 1)
    results.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return results


def exact_ct(instance: CtInstance) -> Cover:
    """A minimum-cardinality cover, by branch-and-bound over coverage masks.

    Only maximal configurations are branched on (any cover can be extended to
    one using maximal sets of the same cardinality).  The tie-breaks read
    their sorted order, so the cover does not depend on how they were found.
    The search always splits on the lowest uncovered vertex, and subtrees are
    cut with the capacity floor ceil(uncovered size / k) plus a seen-depth
    table.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    if n > EXACT_CT_MAX_VERTICES:
        raise SizeGuardError(
            f"exact tree covering is limited to {EXACT_CT_MAX_VERTICES} vertices"
        )
    maximal = enumerate_configurations(instance)
    masks = [_mask(c) for c in maximal]
    full = (1 << n) - 1
    reach = 0
    for m in masks:
        reach |= m
    if reach != full:
        missing = next(v for v in range(n) if not reach >> v & 1)
        raise InfeasibleInstance(
            f"vertex {missing} fits in no configuration (root path exceeds capacity)"
        )

    sizes = tree.size
    total = sum(sizes)
    covering: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(maximal):
        for v in c:
            covering[v].append(i)

    incumbent = _greedy_cover(masks, full)
    best = len(incumbent)
    best_cover = incumbent
    floor = max(1, -(-total // k))
    seen: dict[int, int] = {}
    chosen: list[int] = []

    def descend(mask: int, depth: int) -> None:
        nonlocal best, best_cover
        if mask == full:
            if depth < best:
                best = depth
                best_cover = chosen.copy()
            return
        if depth + max(1, -(-_mask_weight(full & ~mask, sizes) // k)) >= best:
            return
        if seen.get(mask, n + 1) <= depth:
            return
        seen[mask] = depth
        v = (full & ~mask & -(full & ~mask)).bit_length() - 1
        options = sorted(
            covering[v], key=lambda i: (-(masks[i] & ~mask).bit_count(), i)
        )
        for i in options:
            chosen.append(i)
            descend(mask | masks[i], depth + 1)
            chosen.pop()
            if best == floor:
                return

    descend(0, 0)
    return [maximal[i] for i in best_cover]


def exact_rcp(instance: RcpInstance) -> tuple[frozenset[int], int]:
    """A profit-maximal predecessor-closed set of bounded cardinality.

    Exhaustive over closed sets.  The component walk takes every closed
    component subset within the budget, or, on a two-layered condensation,
    every source subset completed with the best sinks it enables; the sink
    walk takes sink subsets, and runs instead when no source carries profit
    and there are no more sinks than sources.  Both walks go depth first and
    keep no per-mask table.  ``SizeGuardError`` is raised when the walk
    needs more than 2^20 masks.  The result does not depend on the walk:
    ties go to the lexicographically smallest sorted vertex tuple among all
    closed sets within the budget.
    """
    comps, _, pred_comps = _scc(instance.graph)
    c, profit = len(comps), instance.profit
    has_succ = set().union(*pred_comps)
    # by smallest member: the sink walk pads in this order
    by_member = sorted(range(c), key=lambda i: comps[i][0])
    sources = [i for i in by_member if not pred_comps[i]]
    sinks = [i for i in by_member if pred_comps[i] and i not in has_succ]
    walk, bits = _rcp_component_subsets, len(sources)
    if len(sources) + len(sinks) < c or any(len(comps[i]) > 1 for i in sinks):
        bits, sources, sinks = c, range(c), []  # not two-layered: walk them all
    elif len(sinks) <= len(sources) and not any(profit[v] for i in sources for v in comps[i]):
        walk, bits = _rcp_sink_subsets, len(sinks)
    if bits > RCP_MAX_MASK_BITS:
        raise SizeGuardError(
            f"graph with {c} strongly connected components is beyond the exact solver"
        )
    return walk(instance, comps, pred_comps, sources, sinks)


def exact_dksh(instance: DkshInstance) -> tuple[frozenset[int], int]:
    """A max-weight selection of min(budget, n) vertices by full enumeration."""
    n = instance.vertex_count
    pick = min(instance.budget, n)
    if comb(n, pick) > DKSH_MAX_COMBINATIONS:
        raise SizeGuardError("too many vertex subsets to enumerate")
    edge_masks = [_mask(e) for e in instance.hyperedges]
    weights = instance.weight
    best_set: tuple[int, ...] = tuple(range(pick))
    best_weight = -1
    for combo in itertools.combinations(range(n), pick):
        m = _mask(combo)
        w = sum(
            weights[i] for i, em in enumerate(edge_masks) if em & ~m == 0
        )
        if w > best_weight:
            best_weight = w
            best_set = combo
    return frozenset(best_set), best_weight


def exact_bpcc(instance: BpccInstance) -> tuple[list[frozenset[int]], int]:
    """Optimal clustered bin packing: clusters pack independently, so the
    optimum is the sum of per-cluster exact bin packing solutions."""
    if max(map(len, instance.clusters), default=0) > BPCC_MAX_CLUSTER:
        raise SizeGuardError(
            f"exact clustered bin packing is limited to {BPCC_MAX_CLUSTER} items per cluster"
        )
    cover: list[frozenset[int]] = []
    for group in instance.clusters:
        cover.extend(_pack_cluster(group, instance.weight, instance.capacity))
    return cover, len(cover)


def _pack_cluster(
    group: tuple[int, ...], weight: tuple[int, ...], k: int
) -> list[frozenset[int]]:
    """Minimum bins for one cluster via subset dynamic programming."""
    items = list(group)
    n = len(items)
    full = (1 << n) - 1
    load = [0]  # load[mask]: the weight of the items in mask
    for v in items:
        load += [t + weight[v] for t in load]
    best = {0: (0, 0)}  # mask -> (previous mask, last bin)
    frontier = [0]
    while full not in best:
        nxt = []
        for mask in frontier:
            rest = full & ~mask
            v = (rest & -rest).bit_length() - 1
            sub = rest
            while sub:
                if sub >> v & 1 and load[sub] <= k:
                    new = mask | sub
                    if new not in best:
                        best[new] = (mask, sub)
                        nxt.append(new)
                sub = (sub - 1) & rest
        frontier = nxt
    bins: list[frozenset[int]] = []
    state = full
    while state:
        state, sub = best[state]
        bins.append(frozenset(items[i] for i in range(n) if sub >> i & 1))
    bins.reverse()
    return bins


def _mask_weight(mask: int, w: list[int]) -> int:
    s = 0
    while mask:
        low = mask & -mask
        s += w[low.bit_length() - 1]
        mask &= mask - 1
    return s


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    chosen: list[int] = []
    mask = 0
    while mask != full:
        i = max(
            range(len(masks)),
            key=lambda j: ((masks[j] & ~mask).bit_count(), -j),
        )
        if masks[i] & ~mask == 0:
            break
        chosen.append(i)
        mask |= masks[i]
    return chosen


def _scc(
    graph: Digraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[frozenset[int], ...]]:
    """The condensation: strongly connected components, each vertex's
    component index, and each component's set of predecessor components.

    Kosaraju style with explicit stacks, O(V + E).  Components are numbered
    in the order the second pass finds them, which is topological: every arc
    between two components runs from the lower index to the higher.  Each
    component lists its members in ascending order.  Computed once per graph
    and kept on it, immutable since every caller shares it.
    """
    if graph._condensation is not None:
        return graph._condensation
    n = graph.vertex_count
    successors = graph.successors
    finish: list[int] = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(successors[s]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(successors[w])))
                    break
            else:
                finish.append(v)
                stack.pop()

    # In falling finish order, a search over predecessors claims exactly one
    # component, and every predecessor it meets outside that component
    # belongs to one found earlier.
    predecessors = graph.predecessors
    comp_of = [-1] * n
    comps: list[tuple[int, ...]] = []
    preds: list[frozenset[int]] = []
    for s in reversed(finish):
        if comp_of[s] != -1:
            continue
        c = comp_of[s] = len(comps)
        members = [s]
        above: set[int] = set()
        for v in members:
            for w in predecessors[v]:
                if comp_of[w] == -1:
                    comp_of[w] = c
                    members.append(w)
                elif comp_of[w] != c:
                    above.add(comp_of[w])
        comps.append(tuple(sorted(members)))
        preds.append(frozenset(above))
    object.__setattr__(graph, "_condensation", (tuple(comps), tuple(comp_of), tuple(preds)))
    return graph._condensation


def _precedes(key: int, other: int) -> bool:
    """Whether the set keyed ``key`` has a smaller sorted vertex tuple than
    the set keyed ``other``.  Each set is a union of components, and its key
    holds the bits of each one's smallest and largest member.  So the lowest
    bit where two keys differ is the first vertex in only one set, and a
    key's top bit is its set's maximum: the set holding that vertex comes
    first iff the other goes on past it.  Equal keys do not precede."""
    low = key ^ other
    low &= -low
    return other > low if key & low else key < low


def _rcp_component_subsets(
    instance: RcpInstance,
    comps: tuple[tuple[int, ...], ...],
    pred_comps: tuple[frozenset[int], ...],
    walked: range | list[int],
    greedy: list[int],
) -> tuple[frozenset[int], int]:
    """Every closed subset of the ``walked`` components within the budget,
    completed with the best of the ``greedy`` singleton sinks that it
    enables, if any.

    ``walked`` is every component in topological order, or the sources,
    which have no predecessors.  So a depth-first walk that adds components
    in that order, each once its predecessors are in, meets every closed set
    exactly once and holds O(c) state.  A branch stops where it would pass
    the budget, or where its profit plus that of every later component and
    every paying sink is below the best found.

    Two exact cuts at the top of a frame, which covers its own set and
    every set below, return early.  The budget bound: no set below gains
    more than the room left times the largest vertex profit, nor, once no
    later component fits, more than ``worth``.  At a bound equal to the
    best, the tie cut: every set below holds exactly this frame's vertices
    under the least vertex v a later component or any sink can add, so if
    the best set holds the first vertex under v in only one of the two, and
    this set goes on past it, the best set precedes them all.  A later best
    has a higher profit or precedes this one, so the cut stays sound.

    Walking every component with no sinks meets every closed set.  Walking
    the sources of a two-layered condensation, the best sinks for a source
    choice are the top-profit enabled ones, equal-profit sinks smallest first;
    the room left is padded with enabled zero-profit sinks below the set's
    maximum, smallest first.  One loop over the enabled sinks by rank takes
    both, and stops at the first zero-profit sink above the maximum.  That is
    the smallest sorted tuple among the source choice's optima.

    A set's key holds the bits of each component's smallest and largest
    member and of each sink, and tied sets are compared by ``_precedes``.
    """
    profit, budget = instance.profit, instance.budget
    index = {s: i for i, s in enumerate(walked)}
    needs = {s: _mask(map(index.__getitem__, pred_comps[s])) for s in (*walked, *greedy)}
    groups = [comps[s] for s in walked]
    need = [needs[s] for s in walked]
    size = list(map(len, groups))
    gain = [sum(map(profit.__getitem__, g)) for g in groups]
    ends = [1 << g[0] | 1 << g[-1] for g in groups]
    # sinks by rank: falling profit, then ascending vertex, so the paying ones
    # come first; each is enabled by the component that completes its need
    ranked = sorted((-profit[comps[s][0]], comps[s][0], needs[s]) for s in greedy)
    sink_profit = [-p for p, _, _ in ranked]
    sink_bit = [1 << v for _, v, _ in ranked]
    reach = sum(sink_profit)
    # ahead[i]: the most that components i.. and the sinks can still add
    ahead = [t + reach for t in itertools.accumulate(reversed(gain))][::-1]
    # smallest[i]: the least size among components i..; spans[i]: the end
    # bits of components i.., every sink's bit and bit n, so its lowest bit
    # is the least vertex they can add (n if none)
    top = max(profit, default=0)
    smallest = [*itertools.accumulate(reversed(size), min, initial=budget + 1)][::-1]
    spans = [*itertools.accumulate(reversed(ends), int.__or__,
                                   initial=sum(sink_bit, 1 << len(profit)))][::-1]
    # opens[i]: (rank bit, need, profit) of the sinks whose need has top bit
    # i; every sink has a predecessor, so its need is nonzero
    opens: list[list[tuple[int, int, int]]] = [[] for _ in groups]
    for rank, (p, _, sink_need) in enumerate(ranked):
        opens[sink_need.bit_length() - 1].append((1 << rank, sink_need, -p))
    c = len(groups)
    best_profit, best_key = -1, 0

    def visit(
        start: int, mask: int, key: int, used: int, total: int, enabled: int, worth: int
    ) -> None:
        # mask, key, used, total: the chosen components' bits, key bits, size
        # and profit; enabled: the rank bits of the sinks they enable; worth:
        # total plus every enabled paying sink, a bound on the set's value
        nonlocal best_profit, best_key
        room = budget - used
        bound = total + room * top  # on every set at or below this frame
        if smallest[start] > room:  # no component fits: only sinks can join
            bound = min(bound, worth)
        if bound < best_profit:
            return
        if bound == best_profit:
            # the tie cut, on the first vertex in only one of this set and
            # the best, if it lies below all that this branch can add
            low = key ^ best_key
            low &= -low
            if best_key & low and key > low and low < spans[start] & -spans[start]:
                return
        if worth >= best_profit:
            value, full, rest = total, key, enabled
            while rest and room:  # lowest ranks first: paying sinks, then free ones
                low = rest & -rest
                rank = low.bit_length() - 1
                if not sink_profit[rank] and sink_bit[rank] > full:
                    break  # a zero-profit sink above the set's maximum
                value += sink_profit[rank]
                full |= sink_bit[rank]
                room -= 1
                rest ^= low
            if value > best_profit or value == best_profit and _precedes(full, best_key):
                best_profit, best_key = value, full
        for i in range(start, c):
            if total + ahead[i] < best_profit:
                return
            if used + size[i] > budget or need[i] & ~mask:
                continue
            grown = mask | 1 << i
            opened, more = enabled, worth + gain[i]
            for bit, sink_need, p in opens[i]:
                if sink_need & ~grown == 0:
                    opened |= bit
                    more += p
            visit(i + 1, grown, key | ends[i], used + size[i], total + gain[i], opened, more)

    visit(0, 0, 0, 0, 0, 0, 0)
    chosen = [v for g in groups if best_key >> g[0] & 1 for v in g]
    chosen += [v for _, v, _ in ranked if best_key >> v & 1]
    return frozenset(chosen), best_profit


def _rcp_sink_subsets(
    instance: RcpInstance,
    comps: tuple[tuple[int, ...], ...],
    pred_comps: tuple[frozenset[int], ...],
    sources: list[int],
    sinks: list[int],
) -> tuple[frozenset[int], int]:
    """Sources carry no profit, so an optimum is the closure of its sinks.

    Every closed set is the closure of its sinks plus some unused sources.  A
    depth-first walk adds sinks in order, each with the sources it newly
    needs, so it meets the closure of every sink subset within the budget
    once, keeping one frame per sink taken.  A branch skips a sink whose
    closure would pass the budget, and stops where its profit plus that of
    every later sink is below the best found; ties are still visited.

    Each frame holds ints: the profit, the needed sources' bits, the
    closure's size and its key (the bits of each sink and of each needed
    source's smallest and largest member), compared by ``_precedes``.  The
    smallest padding of a closure takes unused sources in ascending order of
    smallest member, skipping those that do not fit, until one starts above
    the key's top bit: only one below the maximum makes the tuple smaller.
    """
    budget = instance.budget
    index = {s: i for i, s in enumerate(sources)}
    groups = [comps[s] for s in sources]
    size = list(map(len, groups))
    ends = [1 << g[0] | 1 << g[-1] for g in groups]
    feeders = [_mask(index[p] for p in pred_comps[s]) for s in sinks]
    vertex = [comps[s][0] for s in sinks]
    gain = [instance.profit[v] for v in vertex]
    # ahead[j]: the profit of sinks j..
    ahead = list(itertools.accumulate(reversed(gain)))[::-1]
    best_profit, best_key = -1, 0

    def visit(start: int, profit: int, needed: int, used: int, key: int) -> None:
        # needed: the bits of the sources in the closure; used: its size
        nonlocal best_profit, best_key
        if profit >= best_profit:
            room, full = budget - used, key
            for i, group in enumerate(groups):
                if not room or 1 << group[0] > full:
                    break  # no room, or a source above the set's maximum
                if not needed >> i & 1 and size[i] <= room:
                    full |= ends[i]
                    room -= size[i]
            if profit > best_profit or _precedes(full, best_key):
                best_profit, best_key = profit, full
        for j in range(start, len(sinks)):
            if profit + ahead[j] < best_profit:
                return
            new = feeders[j] & ~needed
            grown = used + 1 + _mask_weight(new, size)
            if grown <= budget:
                visit(j + 1, profit + gain[j], needed | new, grown,
                      key | 1 << vertex[j] | _mask_weight(new, ends))

    visit(0, 0, 0, 0, 0)
    chosen = [v for g in groups if best_key >> g[0] & 1 for v in g]
    chosen += [v for v in vertex if best_key >> v & 1]
    return frozenset(chosen), best_profit
