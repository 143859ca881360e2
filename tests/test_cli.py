import json
import time

import pytest

from pocover import reductions, verify
from pocover.cli import main
from pocover.model import InputError
from pocover.serialize import doc_to_instance, loads_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "out_tree", "--n", "6", "--k", "4", "--seed", "3")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["kind"] == "ct"
    assert doc["n"] == 6


def test_gen_writes_files_and_dot(tmp_path, capsys):
    out = tmp_path / "inst.json"
    dot = tmp_path / "inst.dot"
    code, _, _ = run(
        capsys,
        "gen", "--kind", "digraph", "--n", "5", "--k", "2", "--seed", "1",
        "--out", str(out), "--emit-dot", str(dot),
    )
    assert code == 0
    instance = loads_instance(out.read_text())
    assert instance.graph.vertex_count == 5
    assert dot.read_text().startswith("digraph")


def test_gen_count_makes_directory(tmp_path, capsys):
    out = tmp_path / "batch"
    code, _, _ = run(
        capsys,
        "gen", "--kind", "out_tree", "--n", "4", "--k", "3",
        "--seed", "10", "--count", "3", "--out", str(out),
    )
    assert code == 0
    assert len(list(out.glob("*.json"))) == 3


def test_solve_approx_and_exact(tmp_path, capsys):
    inst_path = tmp_path / "t.json"
    run(capsys, "gen", "--kind", "bp_star", "--n", "4", "--k", "6",
        "--seed", "0", "--shape", '{"items": [3, 3, 3, 3]}', "--out", str(inst_path))
    code, out, _ = run(capsys, "solve", str(inst_path))
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["cardinality"] == 2
    assert doc["bounds"] == {"lower": 2, "upper": 2, "alpha": 0}
    code, out, _ = run(capsys, "solve", "--mode", "exact", str(inst_path))
    assert json.loads(out.strip())["cardinality"] == 2


def test_solve_rcp_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "rcp",
                "n": 4,
                "edges": [[3, 0], [0, 1], [2, 1]],
                "profit": [1, 1, 1, 1],
                "k": 2,
            }
        )
    )
    code, out, _ = run(capsys, "solve", str(path))
    doc = json.loads(out.strip())
    assert code == 0
    assert doc["profit"] == 2
    assert doc["solution"] == [0, 3]


def test_solve_non_object_document_exits_two(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "JSON object" in err


def test_solve_invalid_budget_exits_two(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "rcp",
                "n": 1,
                "edges": [],
                "profit": [1],
                "k": 0,
            }
        )
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err.count("\n") == 1 and "budget must be at least 1" in err


def test_gen_invalid_size_exits_two(capsys):
    code, out, err = run(capsys, "gen", "--n", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "n must be at least 1" in err


@pytest.mark.parametrize(
    "argv, least",
    [
        (["gen", "--count", "0"], 1),
        (["gen", "--count", "-1"], 1),
        (["verify", "--count", "-1"], 0),
        (["roundtrip", "--count", "-1"], 0),
        (["roundtrip", "--kind", "degree_augment", "--count", "-5"], 0),
    ],
)
def test_count_below_its_least_exits_two(capsys, argv, least):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"pocover: error: --count must be at least {least}, got ")


def test_gen_count_zero_creates_nothing(tmp_path, capsys):
    target = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", "--count", "0", "--out", str(target))
    assert code == 2
    assert not target.exists()


@pytest.mark.parametrize("command", ["verify", "roundtrip"])
def test_count_zero_is_an_empty_run(capsys, command):
    code, out, err = run(capsys, command, "--count", "0")
    assert code == 0
    assert out == ""
    assert "0 instances, 0 failures, 0 errors" in err


def test_bounds_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "gen", "--kind", "bp_star", "--n", "3", "--k", "6",
        "--seed", "0", "--shape", '{"items": [4, 4, 4]}', "--out", str(path))
    code, out, _ = run(capsys, "bounds", str(path))
    doc = json.loads(out.strip())
    assert code == 0
    assert (doc["lower"], doc["upper"], doc["alpha"]) == (2, 3, 1)


def test_reduce_command(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "dksh",
                "n": 4,
                "hyperedges": [[0, 1, 2], [2, 3]],
                "weight": [1, 1],
                "k": 3,
            }
        )
    )
    code, out, _ = run(capsys, "reduce", "--kind", "dksh_to_rcp", str(path))
    doc = json.loads(out.strip())
    assert code == 0
    assert doc["kind"] == "rcp"
    assert doc["n"] == 14
    assert doc["parameters"] == {"m": 2, "c": 11}
    assert doc["reduction"] == "dksh_to_rcp"
    # artifact documents parse back as plain instances of the target kind
    parsed = doc_to_instance(doc)
    assert parsed.graph.vertex_count == 14
    assert parsed.budget == 11


def test_verify_command_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--count", "25", "--seed", "8", "--with-exact"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 25
    assert all(line["status"] == "pass" for line in lines)
    assert "0 failures" in err


def test_verify_command_handles_infeasible_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "ct",
                "n": 2,
                "parent": [None, 0],
                "size": [2, 1],
                "k": 2,
            }
        )
    )
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0  # error entry, not a failure
    line = json.loads(out.strip())
    assert line["status"] == "error"


def test_roundtrip_command(capsys):
    code, out, err = run(
        capsys, "roundtrip", "--kind", "rcp_to_dksh", "--count", "8", "--seed", "4"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 8
    assert all(line["status"] == "pass" for line in lines)


def test_solve_reports_a_guard_as_an_error_entry(tmp_path, capsys):
    path = tmp_path / "big.json"
    doc = _doc("bpcc", clusters=[list(range(30))], weight=[1] * 30, k=4)
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    line = json.loads(out.strip())
    assert "cover" not in line
    assert "limited to 18 items per cluster" in line["error"]


def _doc(kind, **fields):
    return {"format_version": 1, "kind": kind, **fields}


CT = _doc("ct", n=3, parent=[None, 0, 0], size=[0, 1, 2], k=3)
RCP = _doc("rcp", n=3, edges=[[0, 1], [1, 2]], profit=[1, 0, 2], k=2)
DKSH = _doc("dksh", n=4, hyperedges=[[0, 1, 2], [2, 3]], weight=[1, 1], k=3)
BPCC = _doc("bpcc", clusters=[[0, 2], [1]], weight=[2, 1, 3], k=4)


def _write(tmp_path, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return path


# The fingerprint of each reduction's source: rcp_to_dksh and degree_augment
# read the same file; dks_to_urcp names the digraph alone, so it differs.
SOURCE_FINGERPRINTS = {
    "bpcc_to_ct": "ee204f69a1b7",
    "dksh_to_rcp": "b12dc6e7b273",
    "rcp_to_dksh": "d953f21fafe8",
    "dks_to_urcp": "ab7527f6cca4",
    "degree_augment": "d953f21fafe8",
}


@pytest.mark.parametrize(
    "kind, source, extra, target_kind, parameters",
    [
        ("bpcc_to_ct", BPCC, [], "ct", {"m": 2, "K": 12}),
        ("dksh_to_rcp", DKSH, [], "rcp", {"m": 2, "c": 11}),
        ("rcp_to_dksh", RCP, [], "dksh", {"n": 3}),
        ("dks_to_urcp", RCP, ["--m", "2", "--k", "2"], "rcp", {"m": 2, "h_m": 10, "k": 2}),
        ("dks_to_urcp", RCP, [], "rcp", {"m": 1, "h_m": 5, "k": 2}),
        ("degree_augment", RCP, [], "rcp", {"m": 4, "l0": 2, "t": 13, "k_I": 26}),
    ],
)
def test_reduce_every_kind(tmp_path, capsys, kind, source, extra, target_kind, parameters):
    path = _write(tmp_path, source)
    code, out, err = run(capsys, "reduce", "--kind", kind, *extra, str(path))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["reduction"] == kind
    assert doc["kind"] == target_kind
    assert doc["parameters"] == parameters
    assert doc["source_fingerprint"] == SOURCE_FINGERPRINTS[kind]
    doc_to_instance(doc)  # the artifact parses back as a plain instance


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["reduce", "--kind", "bpcc_to_ct"], CT),
        (["reduce", "--kind", "dksh_to_rcp"], RCP),
        (["reduce", "--kind", "rcp_to_dksh"], DKSH),
        (["reduce", "--kind", "dks_to_urcp"], BPCC),
        (["reduce", "--kind", "degree_augment"], CT),
        (["verify"], RCP),
        (["bounds"], DKSH),
    ],
)
def test_wrong_kind_file_exits_two(tmp_path, capsys, argv, doc):
    path = _write(tmp_path, doc)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"pocover: error: {path}: expected ")


def test_roundtrip_all_follows_the_kind_order(capsys):
    code, out, err = run(capsys, "roundtrip", "--kind", "all", "--count", "2")
    assert code == 0
    kinds = [json.loads(line)["kind"] for line in out.splitlines()]
    assert kinds == [kind for kind in reductions.REDUCTION_KINDS for _ in range(2)]
    assert err == f"roundtrip: {len(kinds)} instances, 0 failures, 0 errors\n"


def test_build_and_roundtrip_tables_name_the_same_kinds():
    assert tuple(reductions.REDUCTIONS) == reductions.REDUCTION_KINDS
    assert tuple(verify.ROUNDTRIPS) == reductions.REDUCTION_KINDS


def test_out_file_is_rewritten_not_appended(tmp_path, capsys):
    path = _write(tmp_path, CT)
    out = tmp_path / "r.jsonl"
    out.write_text("stale line\n")
    for _ in range(2):
        code, stdout, _ = run(capsys, "bounds", str(path), str(path), "--out", str(out))
        assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["file"] == str(path) for line in lines)


def test_out_file_survives_runs_that_exit_two(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out.write_text('{"kept": true}\n')
    for argv in (["verify", "--count", "-1"], ["solve", str(tmp_path / "missing.json")]):
        code, stdout, _ = run(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert out.read_text() == '{"kept": true}\n'


def test_out_file_of_an_empty_run_is_emptied(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out.write_text("stale line\n")
    code, _, _ = run(capsys, "verify", "--count", "0", "--out", str(out))
    assert code == 0
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "doc",
    [
        _doc("ct", n=3, parent=[None, 0, 0], size=[0, 1, 1], k=1.5),
        _doc("ct", n=2, parent=[None, 0], size=[0, 1.5], k=3),
        _doc("ct", n=2, parent=[None, "0"], size=[0, 1], k=3),
        _doc("ct", n=3, parent=[None, 0, True], size=[0, 1, 1], k=3),
        _doc("ct", n=2.0, parent=[None, 0], size=[0, 1], k=3),
        _doc("ct", n=2, parent=5, size=[0, 1], k=3),
        _doc("rcp", n=3, edges=[[0, 1]], profit=[1, 0, 2], k=True),
        _doc("rcp", n=3, edges=[[0, 1]], profit=[1, 0, 2], k=2.5),
        _doc("rcp", n=3, edges=[[0, 1.0]], profit=[1, 0, 2], k=2),
        _doc("rcp", n=3, edges=[[0, 1, 2]], profit=[1, 0, 2], k=2),
        _doc("rcp", n=3, edges=[0, 1], profit=[1, 0, 2], k=2),
        _doc("rcp", n=3, edges=[], profit=[1, 0.5, 2], k=2),
        _doc("dksh", n=2, hyperedges=["01"], weight=[1], k=2),
        _doc("dksh", n=2, hyperedges=[5], weight=[1], k=2),
        _doc("dksh", n=2, hyperedges=[[0, 1]], weight=[1], k=None),
        _doc("bpcc", clusters=[[0], [1]], weight=[1, 0.5], k=2),
        _doc("bpcc", clusters=[[0], ["1"]], weight=[1, 1], k=2),
        {**CT, "format_version": 1.0},
    ],
)
def test_non_integer_or_misshapen_document_exits_two(tmp_path, capsys, doc):
    path = _write(tmp_path, doc)
    with pytest.raises(InputError):
        loads_instance(path.read_text())
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("pocover: error: ")


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["bounds"], ["verify"], ["reduce", "--kind", "bpcc_to_ct"]],
)
@pytest.mark.parametrize("target", ["missing", "directory", "binary"])
def test_unreadable_input_file_exits_two(tmp_path, capsys, argv, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    elif target == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"pocover: error: {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", "[1]"],
        ["--shape", '{"size_range": 5}'],
        ["--shape", '{"size_range": [0, 1, 2]}'],
        ["--shape", '{"size_range": [0, 1.5]}'],
        ["--shape", '{"max_children": "a"}'],
        ["--kind", "dag", "--shape", '{"edge_density": "x"}'],
        ["--kind", "dag", "--shape", '{"edge_density": NaN}'],
        ["--kind", "hypergraph", "--shape", '{"num_edges": 2.5}'],
        ["--kind", "bpcc", "--shape", '{"cluster_count": true}'],
        ["--kind", "bp_star", "--shape", '{"items": 3}'],
        ["--kind", "bp_star", "--shape", '{"items": ["a"]}'],
        ["--n", "5", "--shape", '{"max_children": 0}'],
        ["--kind", "hypergraph", "--shape", '{"num_edges": -1}'],
        ["--kind", "dag", "--shape", '{"edge_density": 2}'],
    ],
)
def test_malformed_shape_exits_two(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("pocover: error: shape ")


def test_impossible_size_range_exits_two_before_drawing(capsys):
    """No root size can be drawn, so the generator gives up at once rather
    than after its retries over 10^5-vertex trees."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, "gen", "--kind", "out_tree", "--n", "100000", "--shape", '{"size_range": [5, 1]}'
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("pocover: error: shape field 'size_range'")
