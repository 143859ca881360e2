"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-3 share a fixed seeded corpus of 1000 tree instances (n <= 14,
k <= 12, sizes in [0, k]) solved both approximately and exactly.  Criteria
5-7 run the reduction round trips on fixed seeded corpora.
"""

import json
import time

import pytest

from pocover.exact import exact_ct
from pocover.generate import GenSpec, SplitMix64, generate
from pocover.model import (
    CtInstance,
    SizedOutTree,
    validate_configuration,
    validate_cover,
)
from pocover.reductions import degree_augment
from pocover.serialize import cover_to_doc
from pocover.treecover import bounds, cover
from pocover.verify import (
    reduced_instance,
    roundtrip_bpcc_to_ct,
    roundtrip_degree_augment,
    roundtrip_dks_pipeline,
    roundtrip_dksh_to_rcp,
    roundtrip_rcp_to_dksh,
)

CORPUS_SIZE = 1000
CORPUS_SEED = 2001
ROUNDTRIP_COUNT = 200
ROUNDTRIP_SEED = 404
PIPELINE_COUNT = 100
PIPELINE_SEED = 505


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ct_runs():
    rng = SplitMix64(CORPUS_SEED)
    runs = []
    start = time.perf_counter()
    for i in range(CORPUS_SIZE):
        n = 1 + rng.randrange(14)
        k = 1 + rng.randrange(12)
        instance = generate(
            GenSpec(kind="out_tree", n=n, k=k, seed=CORPUS_SEED + 7919 * i)
        )
        result = cover(instance)
        b = bounds(result.trace, instance)
        exact_total = len(exact_ct(instance))
        reduced = reduced_instance(instance)
        exact_reduced = 0 if reduced is None else len(exact_ct(reduced))
        runs.append((instance, result, b, exact_total, exact_reduced))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_ratio_two_certification(ct_runs):
    runs, elapsed = ct_runs
    violations = [
        (inst, len(res.cover), opt)
        for inst, res, _, opt, _ in runs
        if len(res.cover) > 2 * opt
    ]
    invalid = [
        inst for inst, res, _, _, _ in runs if validate_cover(inst, res.cover)
    ]
    ok = not violations and not invalid and elapsed < 300.0
    _announce(
        "criterion 1",
        ok,
        f"{len(runs)} instances, ratio<=2 violations: {len(violations)}, "
        f"invalid covers: {len(invalid)}, elapsed {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_bound_sandwich(ct_runs):
    runs, _ = ct_runs
    bad = 0
    for _, res, b, _, exact_reduced in runs:
        loop = res.trace.loop_and_residual_count()
        if not (b.lower <= exact_reduced <= loop <= b.upper):
            bad += 1
        if b.upper > 2 * b.lower:
            bad += 1
    _announce(
        "criterion 2",
        bad == 0,
        f"{len(runs)} instances, sandwich lb <= exact <= emitted <= ub <= 2*lb, "
        f"violations: {bad}",
    )


def test_criterion_3_next_fit_structure(ct_runs):
    runs, _ = ct_runs
    bad = 0
    calls = 0
    for inst, res, _, _, _ in runs:
        k = inst.capacity
        for rec in res.trace.anchors:
            calls += 1
            if len(rec.emitted_sets) < 2 or len(rec.emitted_sets) % 2 == 1:
                bad += 1
                continue
            if any(
                validate_configuration(inst, res.cover[i]) is not None
                for i in rec.emitted_sets
            ):
                bad += 1
                continue
            anchored = [
                sum(inst.tree.size[v] for v in res.cover[i] & rec.anchored_vertices)
                for i in rec.emitted_sets
            ]
            for j in range(0, len(anchored) - 1, 2):
                if anchored[j] + anchored[j + 1] < k - rec.h + 1:
                    bad += 1
    _announce(
        "criterion 3",
        bad == 0,
        f"{calls} packing calls across the corpus, even-count and "
        f"consecutive-pair violations: {bad}",
    )


GOLDEN = [
    (
        "star r(0) + four size-3 leaves, k=6",
        CtInstance(SizedOutTree([None, 0, 0, 0, 0], [0, 3, 3, 3, 3]), 6),
        "[[0, 1, 2], [0, 3, 4]]",
        2,
    ),
    (
        "star r(0) + three size-4 leaves, k=6",
        CtInstance(SizedOutTree([None, 0, 0, 0], [0, 4, 4, 4]), 6),
        "[[0, 1], [0, 2], [0, 3]]",
        3,
    ),
    (
        "chain r(0) -> x(1) -> three size-2 leaves, k=4",
        CtInstance(SizedOutTree([None, 0, 1, 1, 1], [0, 1, 2, 2, 2]), 4),
        "[[0, 1, 2], [0, 1, 3], [0, 1, 4]]",
        3,
    ),
]


def test_criterion_4_golden_instances():
    mismatches = []
    for label, instance, expected, cardinality in GOLDEN:
        produced = json.dumps(cover_to_doc(cover(instance).cover))
        if produced != expected or len(cover(instance).cover) != cardinality:
            mismatches.append((label, produced))
    _announce(
        "criterion 4",
        not mismatches,
        f"3 golden covers byte-identical (cardinalities 2, 3, 3); "
        f"mismatches: {mismatches or 'none'}",
    )


def _roundtrip_corpora():
    rng = SplitMix64(ROUNDTRIP_SEED)
    hypergraphs = []
    digraphs = []
    bpccs = []
    for i in range(ROUNDTRIP_COUNT):
        seed = ROUNDTRIP_SEED + 104729 * i
        n_h = 2 + rng.randrange(5)  # <= 6 vertices
        hypergraphs.append(
            generate(
                GenSpec(
                    kind="hypergraph",
                    n=n_h,
                    k=1 + rng.randrange(n_h),
                    seed=seed,
                    shape={"num_edges": 1 + rng.randrange(4)},  # <= 4 hyperedges
                )
            )
        )
        digraphs.append(
            generate(
                GenSpec(
                    kind="digraph",
                    n=2 + rng.randrange(7),  # <= 8 vertices
                    k=1 + rng.randrange(5),
                    seed=seed + 1,
                    shape={"edge_density": 0.35},
                )
            )
        )
        n_b = 1 + rng.randrange(8)  # <= 8 items
        bpccs.append(
            generate(
                GenSpec(
                    kind="bpcc",
                    n=n_b,
                    k=1 + rng.randrange(6),
                    seed=seed + 2,
                    shape={"cluster_count": 1 + rng.randrange(min(n_b, 4))},
                )
            )
        )
    return hypergraphs, digraphs, bpccs


@pytest.fixture(scope="module")
def roundtrip_corpora():
    return _roundtrip_corpora()


def test_criterion_5_reduction_optimum_preservation(roundtrip_corpora):
    hypergraphs, digraphs, bpccs = roundtrip_corpora
    start = time.perf_counter()
    failures = []
    for h in hypergraphs:
        report = roundtrip_dksh_to_rcp(h)
        if report.error is not None or not report.passed:
            failures.append(("dksh_to_rcp", report.fingerprint, report.error or report.failed_checks()))
    for g in digraphs:
        report = roundtrip_rcp_to_dksh(g)
        if report.error is not None or not report.passed:
            failures.append(("rcp_to_dksh", report.fingerprint, report.error or report.failed_checks()))
        report = roundtrip_degree_augment(g)
        if report.error is not None or not report.passed:
            failures.append(("degree_augment", report.fingerprint, report.error or report.failed_checks()))
    for b in bpccs:
        report = roundtrip_bpcc_to_ct(b)
        if report.error is not None or not report.passed:
            failures.append(("bpcc_to_ct", report.fingerprint, report.error or report.failed_checks()))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    _announce(
        "criterion 5",
        ok,
        f"{ROUNDTRIP_COUNT} instances per reduction, optimum equality and "
        f"feasible lifted/projected solutions; failures: {failures or 'none'}, "
        f"elapsed {elapsed:.1f}s (< 600s)",
    )


def test_criterion_6_degree_bound(roundtrip_corpora):
    _, digraphs, _ = roundtrip_corpora
    bad = 0
    for g in digraphs:
        artifact = degree_augment(g)
        big = artifact.target
        n = g.graph.vertex_count
        m = artifact.parameters["m"]
        t_formula = 1 + 2 * sum(
            2**level for level in range(1, m.bit_length())
        )
        indeg = [0] * big.graph.vertex_count
        outdeg = [0] * big.graph.vertex_count
        for u, v in big.graph.edges:
            outdeg[u] += 1
            indeg[v] += 1
        if max(indeg) > 2 or max(outdeg) > 2:
            bad += 1
        if artifact.parameters["t"] != t_formula:
            bad += 1
        if big.graph.vertex_count != n * t_formula:
            bad += 1
    _announce(
        "criterion 6",
        bad == 0,
        f"{len(digraphs)} gadget graphs, degree <= 2 and |V| = n*t; "
        f"violations: {bad}",
    )


def test_criterion_7_pipeline_matches_exact():
    rng = SplitMix64(PIPELINE_SEED)
    failures = []
    for i in range(PIPELINE_COUNT):
        n = 2 + rng.randrange(9)  # <= 10 vertices
        k = 2 + rng.randrange(4)  # <= 5
        instance = generate(
            GenSpec(
                kind="digraph",
                n=n,
                k=1,
                seed=PIPELINE_SEED + 31 * i,
                shape={"edge_density": 0.35},
            )
        )
        report = roundtrip_dks_pipeline(instance.graph, k)
        if report.error is not None or not report.passed:
            failures.append((report.fingerprint, report.error or report.failed_checks()))
    _announce(
        "criterion 7",
        not failures,
        f"{PIPELINE_COUNT} graphs, pipeline optimum equals direct enumeration "
        f"and the edge-hit floor holds; failures: {failures or 'none'}",
    )


def test_criterion_8_scope_statement():
    # The asymptotic 1.5-hardness of tree covering, the |V|^(1-eps)
    # inapproximability of profit selection, and the no-EPTAS result for its
    # uniform variant are impossibility claims; no test can reproduce them at
    # desk scale.  The suite substitutes the instance-level equivalence checks
    # of criteria 5-7, which exercise exactly the constructions those proofs
    # rely on.
    _announce(
        "criterion 8",
        True,
        "impossibility results are out of scope by design; structural "
        "equivalence checks (criteria 5-7) stand in for them",
    )
