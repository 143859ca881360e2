"""Deterministic, seeded instance generators.

Randomness comes from SplitMix64 (Steele, Lea & Flood's 64-bit mixing
generator), implemented here in plain integer arithmetic so identical seeds
produce identical instances on every platform and Python version.  Generation
never consults ambient entropy.

Value i of a stream is the mix of seed + i * gamma alone, so
``SplitMix64.block`` mixes many values at once, each in its own 128-bit lane
of one int, where no step of the mix spills into the next lane.  Generators
that know how many values they draw take them from such blocks through
``_Draws``, under ``SplitMix64.randrange``'s own rejection rule, so every
value is the one a draw per ``next_u64`` call gives.

The out_tree generator reads the blocks without a method call per value.
With free fan-out vertex v's parent is ``x mod v``, a chunk of them one
``map``; a size compares its value with one constant per attempt, 2^64 less
the widest bound, and only a value at or above it takes the exact rejection
limit.  The values are still those of one-at-a-time draws.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import mod
from typing import Any

from .model import (
    BpccInstance,
    CtInstance,
    Digraph,
    DkshInstance,
    InputError,
    RcpInstance,
    SizedOutTree,
    _check_ints,
    _check_positive,
)

_MASK64 = (1 << 64) - 1
_SPAN = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15  # what next_u64 adds to the state per value
_RETRIES = 100

# Measured with Python 3.11 on a 2-core x86-64 host.
# A block is mixed in chunks of at most _CHUNK lanes, a 16 KiB int per step:
# the draws of a 10^5-vertex out_tree peak at 0.16 MB of traced memory this
# way, and at 31 MB when mixed as one block.
_CHUNK = 1024
# Fewer than _FLOOR known draws read the generator one value at a time.
# Lanes cost less per value from a few values on (0.30 against 0.48 us at 8
# values, 0.11 against 0.42 us at 1024), but a _Draws costs its set-up and an
# indirection per draw: with a floor of 16, the small bpcc specs of
# perfbench's oracle_plain set-up lost more than its digraphs gained.
# out_tree reads its streams without a _Draws, so it takes lanes at any count.
_FLOOR = 64


def _lanes(values) -> int:
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


_ONES = _lanes([1] * _CHUNK)  # 1 in every lane
_STEPS = _lanes(range(_GAMMA, (_CHUNK + 1) * _GAMMA, _GAMMA))  # lane i: (i + 1) * gamma
_LOW = _lanes([_MASK64] * _CHUNK)  # the low 64 bits of every lane
# A block's bytes in the host's order, cast to 64-bit words: the lanes' low
# words are every other word, from the first on little-endian hosts and from
# the last one back on big-endian ones.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


class GenerationError(ValueError):
    """The requested shape could not be satisfied within the retry budget."""


class SplitMix64:
    """SplitMix64: x += 0x9E3779B97F4A7C15; two xor-shift multiplies.

    ``block`` mixes many values at once: state i sits in lane i, bits 128i to
    128i + 127, of one int, and each step of the mix is one big-int operation
    over every lane.  A lane's value is below 2^64 and each multiplier is a
    64-bit constant, so a product stays below 2^128 and never spills into
    the next lane; each right shift is masked back to its lane's low 64 bits
    before the step that multiplies."""

    rejected = 0  # values the rejection rule of randrange has turned down

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def block(self, count: int) -> list[int]:
        """The next ``count`` values, exactly as ``count`` calls of
        ``next_u64`` return them, leaving the same state."""
        out: list[int] = []
        for done in range(0, count, _CHUNK):
            lanes = min(_CHUNK, count - done)
            keep = (1 << 128 * lanes) - 1
            low = _LOW & keep
            z = (self._state * (_ONES & keep) + (_STEPS & keep)) & low
            z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
            z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
            # Bits a shift carries in above a lane's low 64 are never read.
            z ^= z >> 31
            out += memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()
            self._state = (self._state + lanes * _GAMMA) & _MASK64
        return out

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling: a value is
        kept if it lies below the largest multiple of ``bound`` up to 2^64."""
        if bound <= 0:
            raise InputError("randrange bound must be positive")
        limit = _SPAN - _SPAN % bound
        x = self.next_u64()
        while x >= limit:
            self.rejected += 1
            x = self.next_u64()
        return x % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if lo > hi:
            raise InputError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def sample(self, population: int, count: int) -> list[int]:
        """Distinct values from range(population), in draw order."""
        if count > population:
            raise InputError("sample larger than population")
        pool = list(range(population))
        out = []
        for _ in range(count):
            i = self.randrange(len(pool))
            out.append(pool.pop(i))
        return out


class _Draws:
    """Draws from the next ``count`` values of ``rng``, mixed by ``block`` a
    chunk at a time as the draws reach them; a draw that a rejection pushes
    past them reads ``rng.next_u64``.  ``randrange`` and ``randint`` are
    SplitMix64's own, so the values are those of one-at-a-time draws."""

    rejected = 0
    randrange = SplitMix64.randrange
    randint = SplitMix64.randint

    def __init__(self, rng: SplitMix64, count: int):
        self.next_u64 = _stream(rng, count).__next__


def _stream(rng: SplitMix64, count: int):
    """The values of ``rng`` from its state on: the next ``count`` mixed by
    ``block`` a chunk at a time as they are reached (one chunk at once),
    then one ``next_u64`` call per value."""
    if count <= _CHUNK:
        # Short streams are most of oracle_plain's set-up: one block, without
        # the chunk list and the map, made its 348 out_trees 5-10 % faster.
        return chain(rng.block(count), iter(rng.next_u64, None))
    chunks = [_CHUNK] * (count // _CHUNK) + [count % _CHUNK]
    return chain(chain.from_iterable(map(rng.block, chunks)), iter(rng.next_u64, None))


def _draws(rng: SplitMix64, count: int) -> SplitMix64 | _Draws:
    """The source of ``count`` draws known in advance: lanes from _FLOOR
    values on, else ``rng`` itself, one value at a time."""
    return rng if count < _FLOOR else _Draws(rng, count)


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


# Each known shape field: the type its value must have, and the test for it.
_SHAPE_FIELDS = {
    **dict.fromkeys(
        ("size_range", "profit_range", "arity_range", "weight_range"),
        ("a pair of ints, the first at most the second",
         lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and _ints(*v) and v[0] <= v[1]),
    ),
    "max_children": ("an int or null", lambda v: v is None or _ints(v)),
    "num_edges": ("an int", _ints),
    "cluster_count": ("an int", _ints),
    "edge_density": ("a finite number", lambda v: _ints(v) or type(v) is float and math.isfinite(v)),
    "items": ("a list of ints", lambda v: isinstance(v, list) and _ints(*v)),
}


@dataclass(frozen=True)
class GenSpec:
    """A fully reproducible description of one random instance."""

    kind: str
    n: int
    k: int
    seed: int
    shape: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GEN_KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}")
        _check_positive(self.n, "n")
        _check_positive(self.k, "k")
        _check_ints((self.seed,), "seed")
        if not isinstance(self.shape, dict):
            raise InputError(f"shape must be an object, not {type(self.shape).__name__}")
        for name, value in self.shape.items():
            if name not in _SHAPE_FIELDS:
                raise InputError(f"unknown shape field {name!r}")
            what, ok = _SHAPE_FIELDS[name]
            if not ok(value):
                raise InputError(f"shape field {name!r} must be {what}")


def _kept(x: int, bound: int, values, log: list, at: int) -> int:
    """``x``, or the first later value of ``values`` that the rejection rule
    of ``SplitMix64.randrange`` keeps for ``bound``; each value turned down
    appends ``at`` to ``log``."""
    limit = _SPAN - _SPAN % bound
    while x >= limit:
        log.append(at)
        x = next(values)
    return x


def _free_parents(n: int, values, log: list, out: list):
    """The parents of vertices 1..n - 1 under free fan-out, a chunk at a
    time: each chunk is added to ``out``, then yielded.  Vertex v's parent is
    the draw for bound v, ``x mod v``, so a chunk is one C-level ``map``.  A
    chunk for vertices v0..v1 - 1 whose largest value is below 2^64 - v1
    holds no value that a bound below v1 turns down; any other chunk takes
    the exact test value by value."""
    for v0 in range(1, n, _CHUNK):
        v1 = min(v0 + _CHUNK, n)
        chunk = list(islice(values, v1 - v0))
        if max(chunk) < _SPAN - v1:
            chunk = list(map(mod, chunk, range(v0, v1)))
        else:
            # Values a rejection moves past the chunk come from ``values``.
            source = chain(chunk, values)
            chunk = [_kept(next(source), v, source, log, v) % v for v in range(v0, v1)]
        out += chunk
        yield chunk


def _capped_parents(n: int, max_children: int, values, log: list, out: list):
    """As ``_free_parents`` when each vertex takes at most ``max_children``
    children: vertex v's parent is the draw for bound ``len(eligible)``, an
    index into the earlier vertices with room left, in ascending order.  A
    bound is below n, so a value below 2^64 - n is kept at once."""
    safe = _SPAN - n
    child_count = [0] * n
    eligible = [0]
    for v0 in range(1, n, _CHUNK):
        chunk = []
        for v, x in zip(range(v0, min(v0 + _CHUNK, n)), values):
            if x >= safe:
                x = _kept(x, len(eligible), values, log, v)
            i = x % len(eligible)
            p = eligible[i]
            chunk.append(p)
            child_count[p] += 1
            if child_count[p] == max_children:
                del eligible[i]
            eligible.append(v)
        out += chunk
        yield chunk


def _depth_stop(parents, lo: int, k: int) -> int | None:
    """The first vertex whose depth d has lo * (d + 1) >= k, where the
    contract's parent pass stops, or None."""
    if lo:
        deepest = (k - 1) // lo
        depth = [0]
        for v, p in enumerate(parents, 1):
            d = depth[p] + 1
            if d >= deepest:
                return v
            depth.append(d)
    return None


def _out_tree_attempt(rng: SplitMix64, spec: GenSpec, eager: bool):
    """One attempt from ``rng``'s state: (the tree or None, the values its
    draws turned down, counted as the contract makes its draws).

    The parents are drawn a chunk at a time, and the sizes of a chunk's
    vertices right after it, so an attempt that stops early draws few
    parents.  The sizes start past the n - 1 parent values and those that
    parent draws turned down, which only the last chunk settles: the lazy
    pass (``eager`` False) assumes none, and returns None when one was, for
    a rerun with every parent drawn first.  An attempt with one chunk of
    parents has nothing to draw lazily, so it is eager: the sizes read on
    from the parents' own values.

    One loop finds every stop: a vertex that fails the parent pass's depth
    rule has every ancestor at ``lo`` or more, so it also finds no room for
    a size.  Only a stopped attempt walks the depths, to learn whether the
    contract stopped in its parent pass, and where.  A size's bound is at
    most ``span``, so a value below 2^64 - span is kept without the exact
    rejection limit."""
    n, k = spec.n, spec.k
    lo, hi = spec.shape.get("size_range", (0, k))
    max_children = spec.shape.get("max_children")
    start = rng._state
    parents: list[int] = []
    parent_log: list[int] = []
    size_log: list[int] = []
    eager = eager or n <= _CHUNK
    values = _stream(rng, 2 * n - 1 if eager else n - 1)
    if max_children is None:
        chunks = _free_parents(n, values, parent_log, parents)
    else:
        chunks = _capped_parents(n, max_children, values, parent_log, parents)
    if eager:
        chunks = iter([list(chain.from_iterable(chunks))])
    else:
        values = _stream(SplitMix64(start + (n - 1) * _GAMMA), n)
    span = hi - lo + 1
    safe = _SPAN - span
    free = k - 1 - hi  # a vertex with at most this above it draws from all of span
    bound = min(hi, k - 1) - lo + 1
    x = next(values)
    if x >= safe:
        x = _kept(x, bound, values, size_log, 0)
    size = [lo + x % bound]
    path = size[:]
    for p, x in zip(chain.from_iterable(chunks), values):
        above = path[p]
        if above <= free:
            bound = span
        else:
            bound = k - lo - above
            if bound < 1:
                break
        if x >= safe:
            x = _kept(x, bound, values, size_log, len(size))
        x = lo + x % bound
        size.append(x)
        path.append(above + x)
    else:
        if parent_log and not eager:
            return None
        return SizedOutTree([None, *parents], size), len(parent_log) + len(size_log)
    stop = _depth_stop(chain(parents[:], chain.from_iterable(chunks)), lo, k)
    if stop is not None:
        return None, bisect_right(parent_log, stop)
    if parent_log and not eager:
        return None
    return None, len(parent_log) + len(size_log)


def _gen_out_tree(spec: GenSpec, rng: SplitMix64) -> CtInstance:
    """Random out-tree whose root paths all weigh strictly less than k.

    Vertex i attaches to a uniform earlier vertex; sizes are drawn from
    size_range but clamped to the remaining path budget so preprocessing
    never finds a forced or infeasible path.

    An attempt draws its n - 1 parents, then its n sizes, from one stream of
    2n - 1 values.  It stops at the first vertex whose root path cannot fit,
    even with every size at ``lo``: in the parent pass at once, in the size
    pass as soon as the drawn sizes above it leave no room.  The next attempt
    starts past all 2n - 1 values and the values rejected draws took, so an
    early stop does not move the stream.  ``_out_tree_attempt`` makes the
    same draws in another order."""
    n, k = spec.n, spec.k
    lo, hi = spec.shape.get("size_range", (0, k))
    max_children = spec.shape.get("max_children")
    if n > 1 and max_children is not None and max_children < 1:
        raise GenerationError(
            f"shape field 'max_children' must be at least 1 when n > 1, not {max_children}"
        )
    if lo > min(hi, k - 1):
        raise GenerationError(
            f"shape field 'size_range' ({lo}, {hi}) leaves no root size below capacity {k}"
        )
    for _ in range(_RETRIES):
        start = rng._state
        made = _out_tree_attempt(rng, spec, eager=False)
        if made is None:
            rng._state = start
            made = _out_tree_attempt(rng, spec, eager=True)
        tree, rejected = made
        # Past the 2n - 1 values and those rejected draws took, stopped or not:
        # the state after j values is the start state plus j * gamma.
        rng._state = (start + (2 * n - 1 + rejected) * _GAMMA) & _MASK64
        if tree is not None:
            return CtInstance(tree, k)
    raise GenerationError(
        f"could not satisfy size_range ({lo}, {hi}) under capacity {k}"
    )


def _gen_bp_star(spec: GenSpec, rng: SplitMix64) -> CtInstance:
    """Star embedding of a bin packing instance: zero-size root, one leaf per
    item."""
    items = spec.shape.get("items")
    if items is None:
        lo, hi = spec.shape.get("size_range", (0, spec.k))
        top = min(hi, spec.k)
        if lo > top:
            raise GenerationError("size_range exceeds the capacity")
        draws = _draws(rng, spec.n)
        items = [draws.randint(lo, top) for _ in range(spec.n)]
    if any(w > spec.k for w in items):
        raise GenerationError("item larger than the capacity")
    parent = [None] + [0] * len(items)
    size = [0] + items
    return CtInstance(SizedOutTree(parent, size), spec.k)


def _gen_rcp(spec: GenSpec, rng: SplitMix64, acyclic: bool) -> RcpInstance:
    density = float(spec.shape.get("edge_density", 0.3))
    if not 0 <= density <= 1:
        raise GenerationError(f"shape field 'edge_density' must be in [0, 1], not {density}")
    plo, phi = spec.shape.get("profit_range", (0, 10))
    threshold = int(density * (_MASK64 + 1))
    pairs = spec.n * (spec.n - 1) // (2 if acyclic else 1)
    draws = _draws(rng, pairs + spec.n)
    edges = []
    for u in range(spec.n):
        for v in range(u + 1 if acyclic else 0, spec.n):
            if u == v:
                continue
            if draws.next_u64() < threshold:
                edges.append((u, v))
    profit = [draws.randint(plo, phi) for _ in range(spec.n)]
    return RcpInstance(Digraph(spec.n, edges), profit, spec.k)


def _gen_hypergraph(spec: GenSpec, rng: SplitMix64) -> DkshInstance:
    num_edges = spec.shape.get("num_edges", max(1, spec.n // 2))
    if num_edges < 0:
        raise GenerationError(f"shape field 'num_edges' must be at least 0, not {num_edges}")
    alo, ahi = spec.shape.get("arity_range", (1, min(3, spec.n)))
    wlo, whi = spec.shape.get("weight_range", (0, 5))
    if alo < 1 or ahi > spec.n:
        raise GenerationError(f"arity_range ({alo}, {ahi}) is unsatisfiable")
    hyperedges = []
    weight = []
    for _ in range(num_edges):
        arity = rng.randint(alo, ahi)
        hyperedges.append(sorted(rng.sample(spec.n, arity)))
        weight.append(rng.randint(wlo, whi))
    return DkshInstance(spec.n, hyperedges, weight, spec.k)


def _gen_bpcc(spec: GenSpec, rng: SplitMix64) -> BpccInstance:
    cluster_count = spec.shape.get("cluster_count", min(spec.n, 3))
    if not 1 <= cluster_count <= spec.n:
        raise GenerationError("cluster_count must be in [1, n]")
    wlo, whi = spec.shape.get("weight_range", (0, spec.k))
    if wlo > min(whi, spec.k):
        raise GenerationError("weight_range exceeds the capacity")
    draws = _draws(rng, 2 * spec.n - cluster_count)
    groups: list[list[int]] = [[] for _ in range(cluster_count)]
    for v in range(spec.n):
        # Seed every cluster once, then assign uniformly.
        target = v if v < cluster_count else draws.randrange(cluster_count)
        groups[target].append(v)
    weight = [draws.randint(wlo, min(whi, spec.k)) for _ in range(spec.n)]
    return BpccInstance(groups, weight, spec.k)


# kind -> generator ``(spec, rng) -> instance``.
GENERATORS = {
    "out_tree": _gen_out_tree,
    "bp_star": _gen_bp_star,
    "dag": lambda spec, rng: _gen_rcp(spec, rng, acyclic=True),
    "digraph": lambda spec, rng: _gen_rcp(spec, rng, acyclic=False),
    "hypergraph": _gen_hypergraph,
    "bpcc": _gen_bpcc,
}
GEN_KINDS = tuple(GENERATORS)


def generate(spec: GenSpec):
    """Build the instance described by ``spec`` (same spec, same bytes)."""
    return GENERATORS[spec.kind](spec, SplitMix64(spec.seed))
