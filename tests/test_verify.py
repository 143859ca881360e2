from dataclasses import replace

import pytest

from pocover.generate import GenSpec, SplitMix64, generate
from pocover.model import CtInstance, Digraph, SizedOutTree
from pocover.treecover import cover
from pocover.verify import (
    roundtrip_bpcc_to_ct,
    roundtrip_degree_augment,
    roundtrip_dks_pipeline,
    roundtrip_dksh_to_rcp,
    roundtrip_rcp_to_dksh,
    run_roundtrip,
    run_verify,
    structural_checks,
    verify_ct,
)


def test_verify_report_star3(star3):
    report = verify_ct(star3, with_exact=True)
    assert report.error is None
    assert report.passed
    assert report.alg_cardinality == 3
    assert report.exact_cardinality == 3
    assert report.lower == 2
    assert report.upper == 3
    assert report.alpha == 1
    assert report.ratio == 1.0


def test_verify_infeasible_is_error_not_failure():
    inst = CtInstance(SizedOutTree([None, 0], [2, 1]), 2)
    report = verify_ct(inst, with_exact=True)
    assert report.error is not None
    assert report.passed  # no failed checks, just an error entry
    assert report.alg_cardinality is None


def test_verify_without_exact(star4):
    report = verify_ct(star4, with_exact=False)
    assert report.exact_cardinality is None
    assert report.ratio is None
    assert report.passed


def test_run_verify_batch():
    rng = SplitMix64(5)
    instances = [
        generate(GenSpec(kind="out_tree", n=1 + rng.randrange(10), k=1 + rng.randrange(8), seed=i))
        for i in range(50)
    ]
    reports = run_verify(instances, with_exact=True)
    assert len(reports) == 50
    assert all(r.passed for r in reports)
    assert all(r.error is None for r in reports)


def test_roundtrip_bpcc():
    bpcc = generate(GenSpec(kind="bpcc", n=6, k=4, seed=77, shape={"cluster_count": 2}))
    report = roundtrip_bpcc_to_ct(bpcc)
    assert report.passed, report.failed_checks()


def test_roundtrip_dksh():
    h = generate(GenSpec(kind="hypergraph", n=5, k=3, seed=41, shape={"num_edges": 3}))
    report = roundtrip_dksh_to_rcp(h)
    assert report.passed, report.failed_checks()


def test_roundtrip_rcp():
    rcp = generate(GenSpec(kind="digraph", n=6, k=3, seed=13))
    report = roundtrip_rcp_to_dksh(rcp)
    assert report.passed, report.failed_checks()


def test_roundtrip_degree():
    rcp = generate(GenSpec(kind="digraph", n=5, k=2, seed=29))
    report = roundtrip_degree_augment(rcp)
    assert report.passed, report.failed_checks()
    names = dict(report.checks)
    assert names["degree_at_most_2"]
    assert names["reachability_preserved"]
    assert names["gadgets_strongly_connected"]


def test_roundtrip_pipeline_triangle():
    report = roundtrip_dks_pipeline(Digraph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    assert report.passed, report.failed_checks()


def test_run_roundtrip_dispatch_and_guard():
    h = generate(GenSpec(kind="hypergraph", n=4, k=2, seed=3, shape={"num_edges": 2}))
    reports = run_roundtrip("dksh_to_rcp", [h])
    assert len(reports) == 1 and reports[0].passed

    # beyond the pipeline's oracle guard: error entry, not a crash
    big = Digraph(30, [(i, i + 1) for i in range(29)])
    reports = run_roundtrip("dks_to_urcp", [(big, 6)])
    assert reports[0].error is not None

    with pytest.raises(ValueError):
        run_roundtrip("upside_down", [h])


def _multi_round_run():
    # Leftovers of anchor 2 are finished later by anchor 0, its grandparent.
    inst = CtInstance(
        SizedOutTree([None, 0, 1, 2, 2, 2, 0, 0], [0, 0, 1, 2, 2, 2, 3, 3]), 4
    )
    result = cover(inst)
    assert [(rec.anchor, rec.iteration) for rec in result.trace.anchors] == [(2, 1), (0, 2)]
    return inst, result


def _corrupt_anchor(trace, i, **fields):
    anchors = list(trace.anchors)
    anchors[i] = replace(anchors[i], **fields)
    return replace(trace, anchors=tuple(anchors))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("anchor_ancestors_fire_later", lambda t: _corrupt_anchor(t, 1, iteration=1)),
        ("anchor_ancestors_fire_later", lambda t: _corrupt_anchor(t, 0, iteration=3)),
        # vertex 3 (size 2) is anchored by anchor 2 already
        (
            "anchored_disjoint",
            lambda t: _corrupt_anchor(
                t,
                1,
                anchored_vertices=t.anchors[1].anchored_vertices | {3},
                anchored_size=t.anchors[1].anchored_size + 2,
            ),
        ),
        ("next_fit_even", lambda t: _corrupt_anchor(t, 0, emitted_sets=(0, 1, 2))),
    ],
)
def test_structural_checks_catch_a_corrupted_trace(name, corrupt):
    inst, result = _multi_round_run()
    assert all(ok for _, ok in structural_checks(inst, result.cover, result.trace))
    checks = structural_checks(inst, result.cover, corrupt(result.trace))
    assert [n for n, ok in checks if not ok] == [name]


def test_order_check_takes_the_earliest_record_of_an_anchor():
    inst, result = _multi_round_run()
    inner, outer = result.trace.anchors
    trace = replace(result.trace, anchors=(inner, replace(outer, iteration=1), outer))
    checks = dict(structural_checks(inst, result.cover, trace))
    assert not checks["anchor_ancestors_fire_later"]
