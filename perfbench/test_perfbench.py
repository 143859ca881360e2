"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import dataclasses
import json
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from pocover import treecover, verify

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "TREE_RANDOM_LADDER": (60, 120),
    "CATERPILLAR_SPINES": (12,),
    "ZERO_CHAINS": (40,),
    "GADGET_ROUNDS": 1,
    "GADGET_VERTICES": range(2, 4),
    "GADGET_EDGES": range(1, 3),
    "PIPELINE_RUNGS": ((4, 3, 2), (5, 5, 3)),
    "VERIFY_SIZES": (7, 8),
    "VERIFY_CAPACITIES": range(1, 4),
    "TINY_SIZES": range(4, 6),
    "TINY_CAPACITIES": range(1, 3),
    "TINY_ROUNDS": 1,
    "STAR_N": 6,
    "PLAIN_ROUNDTRIPS": 4,
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines[:-1])
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    assert "ops_failed" in text and "output_sha256" in text


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.LAYER_METRICS


def test_every_traced_function_is_expected_on_some_workload():
    traced = {f"{module}.{fn}" for module, fns in tracer.SPANNED.items() for fn in fns}
    expected = set().union(*workloads.EXPECTED_SPANS.values())
    assert traced == expected


def _drop_last_vertex(original):
    def corrupted(instance):
        result = original(instance)
        last = instance.tree.vertex_count - 1
        return dataclasses.replace(result, cover=[s - {last} for s in result.cover])

    return corrupted


def test_cover_missing_a_vertex_counts_as_failed(tiny, capsys, monkeypatch):
    monkeypatch.setattr(treecover, "cover", _drop_last_vertex(treecover.cover))
    lines, result = _run(capsys, "tree_random", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("cover_valid" in line for line in lines)


def test_flipped_roundtrip_check_counts_as_failed(tiny, capsys, monkeypatch):
    original = verify.roundtrip_bpcc_to_ct

    def flipped(instance):
        report = original(instance)
        (name, ok), *rest = report.checks
        return dataclasses.replace(report, checks=((name, not ok), *rest))

    monkeypatch.setattr(verify, "roundtrip_bpcc_to_ct", flipped)
    _, result = _run(capsys, "oracle_plain", 0)
    bpcc_ops = TINY["PLAIN_ROUNDTRIPS"]
    assert result["correct"] is False
    ops_per_pass = len(list(workloads.oracle_plain(7)))
    assert result["failed"] == bpcc_ops * result["attempted"] // ops_per_pass


def test_patching_reaches_import_time_bindings_and_is_undone():
    from pocover import exact, model, reductions

    t = tracer.Tracer()
    before = (verify.cover, verify.is_closed, reductions.fingerprint, exact.exact_rcp)
    with tracer.patched(t):
        for fn in (verify.cover, verify.is_closed, reductions.fingerprint, exact.exact_rcp,
                   treecover.anchor_step, model.closure):
            assert hasattr(fn, "__wrapped__")
    assert (verify.cover, verify.is_closed, reductions.fingerprint, exact.exact_rcp) == before


def test_span_ids_stay_unique_across_passes():
    t = tracer.Tracer()
    traced = t.wrap("model.closure", lambda: None, None)
    traced()
    first = t.spans
    t.reset()
    traced()
    assert [s.id for s in first + t.spans] == [0, 1]


def test_self_time_subtracts_traced_callees():
    spans = [
        tracer.Span(0, -1, "treecover.cover", 0, 0, 100, None),
        tracer.Span(1, 0, "treecover.preprocess", 0, 10, 30, None),
        tracer.Span(2, 0, "treecover.anchor_step", 0, 40, 70, None),
    ]
    metrics = tracer.layer_metrics(spans, Counter(), {
        "verify.checks_failed": 0, "serialize.bytes_out": 0, "trace.overhead_s": 0.0})
    assert metrics["treecover.cover.busy_s"] == pytest.approx(100e-9)
    assert metrics["treecover.cover.self_s"] == pytest.approx(50e-9)
    assert metrics["treecover.anchor_step.calls"] == 1


def test_inputs_come_from_the_seed(tiny):
    for make in workloads.WORKLOADS.values():
        assert list(make(5)) == list(make(5))
        assert list(make(5)) != list(make(6))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree_random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_set_up_that_changes_between_rounds_is_not_correct(tiny, capsys, monkeypatch):
    made = []
    original = workloads.tree_random

    def drifting(seed):
        made.append(seed)
        return original(seed + len(made))

    monkeypatch.setitem(workloads.WORKLOADS, "tree_random", drifting)
    lines, result = _run(capsys, "tree_random", 0)
    assert result["correct"] is False
    assert "FAILED set-up made other inputs from the same seed" in lines
