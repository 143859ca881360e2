"""The four benchmark workloads: inputs made from a seed, and the ops run on them.

Set-up turns a seed into a list of ``Op``s: it generates each instance and
serializes it to canonical JSON, which is what ``pocover gen`` costs a user.
An op then takes one instance document through a user-facing pipeline and
checks the result without computing it a second time:

* ``solve`` is what ``pocover solve`` does on a tree file: parse, ``cover``,
  ``bounds``, ``cover_to_doc``/``trace_to_doc``, one JSON line; then the
  oracle-free checks ``structural_checks`` (which runs ``validate_cover``) and
  loop <= upper <= 2 * lower.
* ``verify_ct`` and ``roundtrip_<kind>`` parse the document and run one
  ``verify`` report (exact oracles included); every check must pass.

Every call into pocover goes through a module attribute (``treecover.cover``,
not a name bound here), so the tracer's patches and the tests' corruptions
reach it.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "pocover" / "__init__.py").is_file():
    raise ImportError(f"pocover sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from pocover import model, serialize, treecover, verify  # noqa: E402

# The package re-exports the function ``generate`` under the module's name.
generate = importlib.import_module("pocover.generate")
GenSpec, SplitMix64 = generate.GenSpec, generate.SplitMix64

# Sizes keep every op under about 0.2 s on a 2-core VM, so that a run times
# each op many times (see README.md, "Steadiness").
# tree_random: ROADMAP's family (size_range 1..60, k = 1000), one tree per rung.
TREE_RANDOM_LADDER = (1000, 1500, 2000, 2500)
# tree_deep: caterpillar spine lengths (n = 3 * spine), each drawn under two
# seeded labelings, and zero-chain lengths.  The chain is kept short so that
# its preprocess peel does not outweigh the caterpillars' active-set rebuild.
CATERPILLAR_SPINES = (100, 100, 133, 133)
ZERO_CHAINS = (1000,)
# oracle_gadget: criterion 5's hypergraph grid, and pipeline rungs (n, e, k).
# exact_rcp walks all 2^c component subsets up to c = 20 (the mask ceiling)
# and takes the layered path past it.  Gadgets with 16 <= c <= 20 components
# are left out of the grid: each would take 0.4-4 s.  The rungs climb to
# n + e = 15 components and then go past the ceiling.  Both are drawn twice.
GADGET_ROUNDS = 2
GADGET_VERTICES = range(2, 7)
GADGET_EDGES = range(1, 5)
GADGET_SKIPPED_COMPONENTS = range(16, 21)
PIPELINE_RUNGS = ((5, 5, 3), (6, 8, 3), (7, 8, 3), (8, 16, 3), (10, 20, 4))
# oracle_plain: verify_ct near the exact_ct guard and on tiny trees, where
# cover is a fifth of the op; a zero-size star; criterion 5 round trips.
VERIFY_SIZES = (16, 17, 18)
VERIFY_CAPACITIES = range(1, 13, 3)
TINY_SIZES = range(6, 13)
TINY_CAPACITIES = range(1, 13)
TINY_ROUNDS = 4
STAR_N = 16
PLAIN_ROUNDTRIPS = 300


@dataclass(frozen=True)
class Op:
    group: str  # shape label used in the per-group report
    kind: str  # "solve", "verify_ct" or "roundtrip_<kind>"
    text: str  # canonical instance document


def _op(group: str, kind: str, instance) -> Op:
    return Op(group, kind, serialize.dumps_instance(instance))


def _sub_seed(rng: SplitMix64) -> int:
    return rng.next_u64() >> 1


def _relabel(parent: list, size: list, rng: SplitMix64):
    """The same tree under a seeded labeling in which parents precede children
    (the order ``gen out_tree`` produces): a uniform pick from the frontier."""
    n = len(parent)
    kids = [[] for _ in range(n)]
    root = parent.index(None)
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    order = []
    frontier = [root]
    while frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        v = frontier.pop()
        order.append(v)
        frontier.extend(kids[v])
    new = {old: i for i, old in enumerate(order)}
    new_parent = [None if parent[old] is None else new[parent[old]] for old in order]
    new_size = [size[old] for old in order]
    return new_parent, new_size


def _tree(parent, size, k):
    return model.CtInstance(model.SizedOutTree(parent, size), k)


def tree_random(seed: int):
    rng = SplitMix64(seed)
    for n in TREE_RANDOM_LADDER:
        spec = GenSpec(
            kind="out_tree", n=n, k=1000, seed=_sub_seed(rng), shape={"size_range": (1, 60)}
        )
        yield _op(f"random_n{n}", "solve", generate.generate(spec))


def tree_deep(seed: int):
    rng = SplitMix64(seed)
    for spine in CATERPILLAR_SPINES:
        parent = [None]
        for s in range(1, spine):
            parent.append(s - 1)
        size = [0] * spine
        for s in range(spine):
            parent += [s, s]
            size += [3, 3]
        parent, size = _relabel(parent, size, rng)
        yield _op(f"caterpillar_n{len(parent)}", "solve", _tree(parent, size, 10))
    for n in ZERO_CHAINS:
        # A chain has one parents-first labeling, so it is the same for every seed.
        yield _op(f"zero_chain_n{n}", "solve", _tree([None] + list(range(n - 1)), [0] * n, 10))


def oracle_gadget(seed: int):
    rng = SplitMix64(seed)
    for _ in range(GADGET_ROUNDS):
        for n in GADGET_VERTICES:
            for m in GADGET_EDGES:
                if n * (m + 1) + m in GADGET_SKIPPED_COMPONENTS:
                    continue
                spec = GenSpec(
                    kind="hypergraph",
                    n=n,
                    k=(n + 1) // 2,
                    seed=_sub_seed(rng),
                    shape={"num_edges": m},
                )
                yield _op(f"dksh_n{n}_m{m}", "roundtrip_dksh_to_rcp", generate.generate(spec))
        for n, e, k in PIPELINE_RUNGS:
            # Exactly e undirected edges, each as one arc or both.
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            arcs = []
            for index in rng.sample(len(pairs), e):
                u, v = pairs[index]
                way = rng.randrange(3)
                if way != 1:
                    arcs.append((u, v))
                if way != 0:
                    arcs.append((v, u))
            instance = model.RcpInstance(model.Digraph(n, arcs), [0] * n, k)
            yield _op(f"pipeline_n{n}_e{e}_k{k}", "roundtrip_dks_pipeline", instance)


def oracle_plain(seed: int):
    rng = SplitMix64(seed)
    for k in VERIFY_CAPACITIES:
        for n in VERIFY_SIZES:
            spec = GenSpec(kind="out_tree", n=n, k=k, seed=_sub_seed(rng))
            yield _op(f"verify_n{n}", "verify_ct", generate.generate(spec))
    for _ in range(TINY_ROUNDS):
        for k in TINY_CAPACITIES:
            for n in TINY_SIZES:
                spec = GenSpec(kind="out_tree", n=n, k=k, seed=_sub_seed(rng))
                yield _op("verify_tiny", "verify_ct", generate.generate(spec))
    # ROADMAP's wide star: every subset of its leaves, with the root, is a
    # configuration, the most any STAR_N-vertex tree has.  It is the slowest
    # op by design, so that max_op_s follows a known input.
    star = _tree([None] + [0] * (STAR_N - 1), [0] * STAR_N, 1)
    yield _op(f"zero_star_n{STAR_N}", "verify_ct", star)
    for _ in range(PLAIN_ROUNDTRIPS):
        spec = GenSpec(
            kind="digraph",
            n=2 + rng.randrange(7),
            k=1 + rng.randrange(5),
            seed=_sub_seed(rng),
            shape={"edge_density": 0.35},
        )
        text = serialize.dumps_instance(generate.generate(spec))
        yield Op("rcp_to_dksh", "roundtrip_rcp_to_dksh", text)
        yield Op("degree_augment", "roundtrip_degree_augment", text)
        items = 1 + rng.randrange(8)
        spec = GenSpec(
            kind="bpcc",
            n=items,
            k=1 + rng.randrange(6),
            seed=_sub_seed(rng),
            shape={"cluster_count": 1 + rng.randrange(min(items, 4))},
        )
        yield _op("bpcc_to_ct", "roundtrip_bpcc_to_ct", generate.generate(spec))


WORKLOADS = {
    "tree_random": tree_random,
    "tree_deep": tree_deep,
    "oracle_gadget": oracle_gadget,
    "oracle_plain": oracle_plain,
}


def _solve(text: str) -> tuple[str, list[str]]:
    instance = serialize.loads_instance(text)
    result = treecover.cover(instance)
    b = treecover.bounds(result.trace, instance)
    line = json.dumps(
        {
            "fingerprint": serialize.fingerprint(instance),
            "cover": serialize.cover_to_doc(result.cover),
            "cardinality": len(result.cover),
            "trace": serialize.trace_to_doc(result.trace),
            "bounds": {"lower": b.lower, "upper": b.upper, "alpha": b.alpha},
        },
        sort_keys=True,
    )
    checks = verify.structural_checks(instance, result.cover, result.trace)
    loop = result.trace.loop_and_residual_count()
    checks.append(("loop_le_upper", loop <= b.upper))
    checks.append(("upper_le_twice_lower", b.upper <= 2 * b.lower))
    return line, [name for name, ok in checks if not ok]


def _report_line(report, **fields) -> str:
    return json.dumps(
        {
            "fingerprint": report.fingerprint,
            "checks": [list(c) for c in report.checks],
            "error": report.error,
            **fields,
        },
        sort_keys=True,
    )


def _failed(report) -> list[str]:
    failed = report.failed_checks()
    if report.error is not None:
        failed.append(f"error: {report.error}")
    elif not report.checks:
        failed.append("no checks ran")
    return failed


def _verify_ct(text: str) -> tuple[str, list[str]]:
    report = verify.verify_ct(serialize.loads_instance(text), with_exact=True)
    line = _report_line(
        report,
        cardinality=report.alg_cardinality,
        exact=report.exact_cardinality,
        exact_reduced=report.exact_reduced_cardinality,
        lower=report.lower,
        upper=report.upper,
        alpha=report.alpha,
    )
    return line, _failed(report)


def _roundtrip(kind: str, text: str) -> tuple[str, list[str]]:
    instance = serialize.loads_instance(text)
    if kind == "dks_pipeline":
        report = verify.roundtrip_dks_pipeline(instance.graph, instance.budget)
    else:
        report = getattr(verify, f"roundtrip_{kind}")(instance)
    return _report_line(report, kind=report.kind), _failed(report)


def run_op(op: Op) -> tuple[str, list[str]]:
    """Run one op; return its canonical output line and its failed checks."""
    if op.kind == "solve":
        return _solve(op.text)
    if op.kind == "verify_ct":
        return _verify_ct(op.text)
    return _roundtrip(op.kind.removeprefix("roundtrip_"), op.text)


# Spans each workload must fire in its traced run; a missing one means the
# tracer no longer reaches that layer.
EXPECTED_SPANS = {
    "tree_random": (
        "generate.generate",
        "serialize.dumps_instance",
        "serialize.loads_instance",
        "serialize.fingerprint",
        "serialize.cover_to_doc",
        "serialize.trace_to_doc",
        "treecover.cover",
        "treecover.preprocess",
        "treecover.anchor_step",
        "treecover.next_fit",
        "treecover.bounds",
        "verify.structural_checks",
        "model.validate_cover",
    ),
    "tree_deep": (
        "serialize.dumps_instance",
        "serialize.loads_instance",
        "treecover.cover",
        "treecover.preprocess",
        "treecover.anchor_step",
        "treecover.next_fit",
        "verify.structural_checks",
        "model.validate_cover",
    ),
    "oracle_gadget": (
        "generate.generate",
        "verify.roundtrip_dksh_to_rcp",
        "verify.roundtrip_dks_pipeline",
        "reductions.dksh_to_rcp",
        "reductions.dks_to_urcp",
        "reductions.dks_via_urcp",
        "exact.exact_rcp",
        "exact.exact_dksh",
        "model.is_closed",
        "model.closure",
        "model.contained_hyperedges",
        "serialize.fingerprint",
    ),
    "oracle_plain": (
        "generate.generate",
        "verify.verify_ct",
        "verify.structural_checks",
        "verify.roundtrip_rcp_to_dksh",
        "verify.roundtrip_degree_augment",
        "verify.roundtrip_bpcc_to_ct",
        "reductions.rcp_to_dksh",
        "reductions.degree_augment",
        "reductions.bpcc_to_ct",
        "exact.exact_ct",
        "exact.enumerate_configurations",
        "exact.exact_rcp",
        "exact.exact_dksh",
        "exact.exact_bpcc",
        "treecover.cover",
        "treecover.preprocess",
        "treecover.bounds",
        "model.validate_cover",
        "model.is_closed",
        "model.contained_hyperedges",
        "serialize.fingerprint",
    ),
}
