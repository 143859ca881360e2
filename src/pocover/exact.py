"""Brute-force optimal solvers at desk scale.

These are the ground truth against which the approximation algorithm and the
reduction gadgets are checked, so they favor transparent exhaustive search
over cleverness.  Every solver carries an explicit size guard and raises
rather than silently degrading.

The profit-maximization solver works on the strongly-connected-component
condensation and has three exhaustive walks: closed component subsets (2^c
masks for c components), and, when the condensation is two-layered (source
components feeding singleton sinks, the shape of the reduction gadgets in this
package), sink subsets (2^|sinks|, only when no source carries profit) or
source subsets (2^|sources|).  The walk with the fewest masks runs, up to a
ceiling of 2^20 masks.  The answer does not depend on which one: every walk
returns the maximum profit and, among the closed sets within the budget that
reach it, the one with the lexicographically smallest sorted vertex tuple.
Each walk reads a mask's size, profit and predecessors from tables with one
entry per mask (``_subset_table``), so the ceiling bounds memory too: a
2^20-mask walk peaks at about 45-120 MB.
"""

from __future__ import annotations

import itertools
import operator
from math import comb
from typing import Optional

from .model import (
    BpccInstance,
    Configuration,
    Cover,
    CtInstance,
    Digraph,
    DkshInstance,
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


def enumerate_configurations(instance: CtInstance) -> list[Configuration]:
    """All nonempty ancestor-closed vertex sets of size at most the capacity.

    Output is sorted by (cardinality, vertex tuple).  The search walks the
    tree in an order where parents precede children, so the work is
    proportional to the number of configurations rather than the power set.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    if n > CONFIG_ENUM_MAX_VERTICES:
        raise SizeGuardError(
            f"configuration enumeration is limited to {CONFIG_ENUM_MAX_VERTICES} vertices"
        )
    results: list[Configuration] = []
    chosen: set[int] = set()

    def extend(i: int, total: int) -> None:
        if i == n:
            if chosen:
                results.append(frozenset(chosen))
            return
        v = tree.order[i]
        extend(i + 1, total)
        p = tree.parent[v]
        if (p is None or p in chosen) and total + tree.size[v] <= k:
            chosen.add(v)
            extend(i + 1, total + tree.size[v])
            chosen.remove(v)

    extend(0, 0)
    results.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return results


def exact_ct(instance: CtInstance) -> Cover:
    """A minimum-cardinality cover, by branch-and-bound over coverage masks.

    Only maximal configurations are branched on (any cover can be extended to
    one using maximal sets of the same cardinality), the search always splits
    on the lowest uncovered vertex, and subtrees are cut with the capacity
    floor ceil(uncovered size / k) plus a seen-depth table.
    """
    tree, k = instance.tree, instance.capacity
    n = tree.vertex_count
    if n > EXACT_CT_MAX_VERTICES:
        raise SizeGuardError(
            f"exact tree covering is limited to {EXACT_CT_MAX_VERTICES} vertices"
        )
    configs = enumerate_configurations(instance)
    maximal = _maximal_only(instance, configs)
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
    for i, m in enumerate(masks):
        for v in range(n):
            if m >> v & 1:
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

    Exhaustive over closed sets.  The walks are component subsets, and, on a
    two-layered condensation, sink subsets (only when no source carries
    profit) and source subsets.  The one with the fewest masks runs, and
    ``SizeGuardError`` is raised when even that one needs more than 2^20.
    The result does not depend on that choice: ties go to the
    lexicographically smallest sorted vertex tuple among all closed sets
    within the budget.
    """
    comps, comp_of = _scc(instance.graph)
    c = len(comps)
    pred_comps: list[set[int]] = [set() for _ in range(c)]
    succ_comps: list[set[int]] = [set() for _ in range(c)]
    for u, v in instance.graph.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            pred_comps[cv].add(cu)
            succ_comps[cu].add(cv)
    comp_size = [len(g) for g in comps]
    comp_profit = [sum(instance.profit[v] for v in g) for g in comps]
    sources = [i for i in range(c) if not pred_comps[i]]
    sinks = [i for i in range(c) if pred_comps[i] and not succ_comps[i]]
    layered = len(sources) + len(sinks) == c and all(
        comp_size[i] == 1 for i in sinks
    )

    # (bits enumerated, walk); min() keeps the first of equal-cost walks.
    walks = [(c, _rcp_component_subsets)]
    if layered:
        if all(comp_profit[i] == 0 for i in sources):
            walks.append((len(sinks), _rcp_sink_subsets))
        walks.append((len(sources), _rcp_source_subsets))
    bits, walk = min(walks, key=lambda w: w[0])
    if bits > RCP_MAX_MASK_BITS:
        raise SizeGuardError(
            f"graph with {c} strongly connected components is beyond the exact solver"
        )
    return walk(instance, comps, pred_comps, comp_size, comp_profit, sources, sinks)


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
    load = _subset_table([weight[v] for v in items])
    best: dict[int, tuple[int, Optional[tuple[int, int]]]] = {0: (0, None)}
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
                        best[new] = (best[mask][0] + 1, (mask, sub))
                        nxt.append(new)
                sub = (sub - 1) & rest
        frontier = nxt
    bins: list[frozenset[int]] = []
    state = full
    while state:
        _, step = best[state]
        assert step is not None
        prev, sub = step
        bins.append(
            frozenset(items[i] for i in range(n) if sub >> i & 1)
        )
        state = prev
    bins.reverse()
    return bins


def _subset_table(values, combine=operator.add) -> list:
    """The list whose entry ``[mask]`` combines ``values[i]`` over the set
    bits of ``mask`` (0 for the empty mask), built by doubling."""
    table = [0]
    for x in values:
        table += [combine(t, x) for t in table]
    return table


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


def _maximal_only(
    instance: CtInstance, configs: list[Configuration]
) -> list[Configuration]:
    tree, k = instance.tree, instance.capacity
    out = []
    for c in configs:
        total = sum(tree.size[v] for v in c)
        extendable = any(
            v not in c
            and (tree.parent[v] is None or tree.parent[v] in c)
            and total + tree.size[v] <= k
            for v in range(tree.vertex_count)
        )
        if not extendable:
            out.append(c)
    return out


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


def _scc(graph: Digraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """Strongly connected components, Kosaraju style, deterministically
    ordered by smallest member."""
    n = graph.vertex_count
    finish: list[int] = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack: list[tuple[int, int]] = [(s, 0)]
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
    comps: list[tuple[int, ...]] = []
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


def _rcp_component_subsets(
    instance: RcpInstance,
    comps: list[tuple[int, ...]],
    pred_comps: list[set[int]],
    comp_size: list[int],
    comp_profit: list[int],
    sources: list[int],
    sinks: list[int],
) -> tuple[frozenset[int], int]:
    """Every closed component subset, so the canonical optimum is among them."""
    c = len(comps)
    preds_of = _subset_table(map(_mask, pred_comps), operator.or_)
    size_of = _subset_table(comp_size)
    profit_of = _subset_table(comp_profit)
    best_profit = -1
    best_vertices: tuple[int, ...] = ()
    for mask in range(1 << c):
        profit = profit_of[mask]
        if (
            preds_of[mask] & ~mask
            or size_of[mask] > instance.budget
            or profit < best_profit
        ):
            continue
        vertices = tuple(
            sorted(v for i in range(c) if mask >> i & 1 for v in comps[i])
        )
        if profit > best_profit or vertices < best_vertices:
            best_profit, best_vertices = profit, vertices
    return frozenset(best_vertices), best_profit


def _rcp_sink_subsets(
    instance: RcpInstance,
    comps: list[tuple[int, ...]],
    pred_comps: list[set[int]],
    comp_size: list[int],
    comp_profit: list[int],
    sources: list[int],
    sinks: list[int],
) -> tuple[frozenset[int], int]:
    """Sources carry no profit, so an optimum is the closure of its sinks.

    Every closed set is the closure of its sinks plus some unused sources.
    Adding a component whose smallest member is below the set's maximum makes
    the sorted tuple smaller, and adding one above it makes it larger, so the
    smallest padding of a closure takes unused sources in ascending order of
    smallest member, skipping those that do not fit, until one starts above
    the maximum.
    """
    source_index = {s: i for i, s in enumerate(sources)}
    need_of = _subset_table(
        (_mask(source_index[p] for p in pred_comps[s]) for s in sinks), operator.or_
    )
    profit_of = _subset_table(comp_profit[s] for s in sinks)
    source_size = [comp_size[s] for s in sources]
    best_profit = -1
    best_vertices: tuple[int, ...] = ()
    for mask in range(1 << len(sinks)):
        profit = profit_of[mask]
        if profit < best_profit:
            continue
        need = need_of[mask]
        card = mask.bit_count() + _mask_weight(need, source_size)
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


def _rcp_source_subsets(
    instance: RcpInstance,
    comps: list[tuple[int, ...]],
    pred_comps: list[set[int]],
    comp_size: list[int],
    comp_profit: list[int],
    sources: list[int],
    sinks: list[int],
) -> tuple[frozenset[int], int]:
    """With singleton sinks, the best sinks for a fixed source choice are the
    top-profit enabled ones, so only source subsets need enumerating.

    Equal-profit sinks are taken smallest first, and the room left is padded
    with enabled zero-profit sinks below the set's maximum, smallest first:
    the smallest sorted tuple among that source choice's optima.
    """
    source_index = {s: i for i, s in enumerate(sources)}
    # (profit, enabling source mask, vertex) per sink, sorted so that paying
    # sinks come by falling profit, then ascending vertex.
    ranked = sorted(
        (
            (comp_profit[s], _mask(source_index[p] for p in pred_comps[s]), comps[s][0])
            for s in sinks
        ),
        key=lambda t: (-t[0], t[2]),
    )
    paying = [t for t in ranked if t[0] > 0]
    free = sorted((v, need) for p, need, v in ranked if p == 0)
    size_of = _subset_table(comp_size[s] for s in sources)
    profit_of = _subset_table(comp_profit[s] for s in sources)
    best_profit = -1
    best_vertices: tuple[int, ...] = ()
    for mask in range(1 << len(sources)):
        if size_of[mask] > instance.budget:
            continue
        profit = profit_of[mask]
        room = instance.budget - size_of[mask]
        taken: list[int] = []
        for p, need, v in paying:
            if room < 1:
                break
            if need & ~mask == 0:
                taken.append(v)
                profit += p
                room -= 1
        if profit < best_profit:
            continue
        members = [
            v for i in range(len(sources)) if mask >> i & 1 for v in comps[sources[i]]
        ] + taken
        top = max(members, default=-1)
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
