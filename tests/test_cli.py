import json

from pocover.cli import main
from pocover.serialize import loads_instance


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
    from pocover.serialize import doc_to_instance

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


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--count", "10", "--n-max", "8", "--k-max", "6")
    assert code == 0
    assert "approx total" in out
    assert "exact  total" in out
