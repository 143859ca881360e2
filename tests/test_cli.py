import hashlib
import json
import time

import pytest

from pocover import reductions, verify
from pocover.cli import main
from pocover.model import InputError
from pocover.serialize import doc_to_instance, fingerprint, loads_instance


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


# SHA-256 of the file `gen --out` writes, one spec per generator kind.  The
# digests pin the exact bytes of an instance file; they change only with a
# deliberate change of the file format or of a generator.
GEN_OUT_DIGESTS = [
    (
        ["--kind", "out_tree", "--n", "300", "--k", "40", "--seed", "7"],
        "b00db50a7ce1b331a2bec503d42552fda4642891d796d8cc91bedab286d6f539",
    ),
    (
        ["--kind", "bp_star", "--k", str(2**70), "--shape",
         json.dumps({"items": [0, 5, 2**70, 2**64]})],
        "ac16c838edbca3c5d460c8d703b08b9ccc9c3d1f796ccb01557c46ee76ecf052",
    ),
    (
        ["--kind", "dag", "--n", "14", "--k", "5", "--seed", "5"],
        "2639698115ff107170dc1238c4f045ecb9c8457fdf93f3bd4aa1af598970981d",
    ),
    (
        ["--kind", "digraph", "--n", "12", "--k", "4", "--seed", "6",
         "--shape", '{"profit_range": [0, 100000]}'],
        "7cce9235ffed8f792a2075151a31ff1634050f532c58d92e136eb9b4802bc1a0",
    ),
    (
        ["--kind", "hypergraph", "--n", "16", "--k", "5", "--seed", "8"],
        "5276893e601df83888df34164ad9ea73c959837d8d9a343efa72f19a0c91d389",
    ),
    (
        ["--kind", "bpcc", "--n", "25", "--k", "30", "--seed", "9"],
        "7837ff23c3a75d2c76cbf2df31f34cad2991fcd9c642192ae5037dedcaafc455",
    ),
]


@pytest.mark.parametrize("argv, digest", GEN_OUT_DIGESTS)
def test_gen_out_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_count_directory_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "batch"
    code, _, _ = run(
        capsys,
        "gen", "--kind", "hypergraph", "--n", "9", "--k", "3",
        "--seed", "20", "--count", "2", "--out", str(out),
    )
    assert code == 0
    paths = sorted(out.iterdir())
    assert [p.name for p in paths] == ["hypergraph_20.json", "hypergraph_21.json"]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == "426c38a214236f8744ba1e2c1da7278a84f2c96febd6e64269172c6a63824717"


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


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000], ids=["array", "object"])
def test_solve_deeply_nested_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("pocover: error: invalid JSON: ")


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
        (["verify", "--n-max", "0"], 1),
        (["verify", "--k-max", "-3"], 1),
    ],
)
def test_count_below_its_least_exits_two(capsys, argv, least):
    """The option named last in ``argv`` is below its least value."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"pocover: error: {argv[-2]} must be at least {least}, got ")


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


def test_solve_prints_the_exact_optimum_of_dksh_and_bpcc_files(tmp_path, capsys):
    dksh = tmp_path / "h.json"
    dksh.write_text(json.dumps(DKSH))
    bpcc = tmp_path / "b.json"
    bpcc.write_text(json.dumps(BPCC))
    code, out, err = run(capsys, "solve", str(dksh), str(bpcc))
    assert code == 0 and err == ""
    assert list(map(json.loads, out.splitlines())) == [
        {"file": str(dksh), "fingerprint": "b12dc6e7b273", "solution": [0, 1, 2], "weight": 1},
        {"file": str(bpcc), "fingerprint": "ee204f69a1b7", "cover": [[0], [2], [1]], "cardinality": 3},
    ]


# What `solve` prints for one file of each kind and a bpcc cluster past the
# exact guard: only a ct file's line depends on --mode.
SOLVE_BOTH = (
    '{"file": "rcp.json", "fingerprint": "d953f21fafe8", "profit": 1, "solution": [0]}\n'
    '{"file": "dksh.json", "fingerprint": "b12dc6e7b273", "solution": [0, 1, 2], "weight": 1}\n'
    '{"cardinality": 3, "cover": [[0], [2], [1]], "file": "bpcc.json", "fingerprint": "ee204f69a1b7"}\n'
    '{"error": "exact clustered bin packing is limited to 18 items per cluster", '
    '"file": "big.json", "fingerprint": "03f7a98f8f0e"}\n'
)
SOLVE_OUT = {
    "approx": (
        '{"bounds": {"alpha": 0, "lower": 2, "upper": 4}, "cardinality": 4, '
        '"cover": [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 5]], "file": "ct.json", '
        '"fingerprint": "fafd47e81ff4", "trace": {"alpha": 0, "anchors": ['
        '{"anchor": 1, "anchored_size": 4, "anchored_vertices": [2, 3], "emitted_sets": [0, 1], '
        '"h": 1, "iteration": 1, "leftover_size": 2}, '
        '{"anchor": 0, "anchored_size": 6, "anchored_vertices": [1, 4, 5], "emitted_sets": [2, 3], '
        '"h": 0, "iteration": 2, "leftover_size": 0}], "final_residual": null, '
        '"forced_prefix": [], "top_anchors": [0], "zero_leaf_attachments": {}}}\n'
    ) + SOLVE_BOTH,
    "exact": (
        '{"cardinality": 4, "cover": [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5]], '
        '"file": "ct.json", "fingerprint": "fafd47e81ff4"}\n'
    ) + SOLVE_BOTH,
}


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_solve_output_bytes_for_every_kind_are_pinned(tmp_path, capsys, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)  # the lines name the files by relative path
    docs = {
        "ct": _doc("ct", n=6, parent=[None, 0, 1, 1, 1, 0], size=[0, 1, 2, 2, 2, 3], k=4),
        "rcp": RCP,
        "dksh": DKSH,
        "bpcc": BPCC,
        "big": _doc("bpcc", clusters=[list(range(30))], weight=[1] * 30, k=4),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = ["solve", *[f"{name}.json" for name in docs]]
    if mode == "exact":
        argv[1:1] = ["--mode", "exact"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == SOLVE_OUT[mode]


def test_bounds_reports_an_infeasible_tree_as_an_error_line(tmp_path, capsys):
    path = _write(tmp_path, _doc("ct", n=2, parent=[None, 0], size=[2, 1], k=2))
    code, out, err = run(capsys, "bounds", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "error": "root path of vertex 1 weighs 3 > capacity 2",
        "file": str(path),
    }


def test_reduce_emit_dot_writes_the_target(tmp_path, capsys):
    path = _write(tmp_path, RCP)
    dot = tmp_path / "target.dot"
    code, _, err = run(capsys, "reduce", "--kind", "rcp_to_dksh", str(path), "--emit-dot", str(dot))
    assert code == 0 and err == ""
    assert dot.read_text() == (
        "digraph instance {\n"
        '  v0 [label="0"];\n  v1 [label="1"];\n  v2 [label="2"];\n'
        '  e0 [shape=box, label="e0 (w=1)"];\n  v0 -> e0;\n'
        '  e1 [shape=box, label="e1 (w=0)"];\n  v0 -> e1;\n  v1 -> e1;\n'
        '  e2 [shape=box, label="e2 (w=2)"];\n  v0 -> e2;\n  v1 -> e2;\n  v2 -> e2;\n'
        "}\n"
    )


def test_failed_checks_exit_one_with_fail_lines(capsys, monkeypatch):
    # a cover validator that rejects everything fails verify's cover_valid
    # and bpcc_to_ct's lift_covers_target
    monkeypatch.setattr(verify, "validate_cover", lambda instance, cover: "rejected")
    code, out, err = run(capsys, "verify", "--count", "3", "--seed", "5")
    assert code == 1
    assert err == "verify: 3 instances, 3 failures, 0 errors\n"
    for line in map(json.loads, out.splitlines()):
        assert line["status"] == "FAIL"
        assert line["failed"] == ["cover_valid"]
        assert line["seed"] == 5
        assert fingerprint(doc_to_instance(line["repro"])) == line["instance"]

    code, out, err = run(capsys, "roundtrip", "--kind", "bpcc_to_ct", "--count", "2")
    assert code == 1
    assert err == "roundtrip: 2 instances, 2 failures, 0 errors\n"
    for line in map(json.loads, out.splitlines()):
        assert line["status"] == "FAIL"
        assert line["failed"] == ["lift_covers_target"]


def test_verify_with_exact_past_the_oracle_guard_is_an_error_line(tmp_path, capsys):
    path = _write(tmp_path, _doc("ct", n=19, parent=[None] + [0] * 18, size=[1] * 19, k=4))
    code, out, err = run(capsys, "verify", "--with-exact", str(path))
    assert code == 0
    assert err == "verify: 1 instances, 0 failures, 1 errors\n"
    line = json.loads(out)
    assert line["status"] == "error"
    assert line["error"] == "oracle guard: exact tree covering is limited to 18 vertices"
    assert line["exact"] is None and "failed" not in line


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


# SHA-256 of `reduce` stdout for one seeded source file per reduction kind.
# Every target edge list is written in full, so a builder that drops, adds or
# reorders an arc changes its digest.
REDUCE_DIGESTS = [
    (
        "bpcc_to_ct", ["--kind", "bpcc", "--n", "25", "--k", "30", "--seed", "9"], [],
        "9b742b771b06ad4537bd4ccfb648d568aeb7fafdc1db8c63f7229557e071bae3",
    ),
    (
        "dksh_to_rcp", ["--kind", "hypergraph", "--n", "8", "--k", "3", "--seed", "8"], [],
        "8b7e8b7737e5445303d5605d174e852d148581caaa49c1de67969f50e6c2289e",
    ),
    (
        "rcp_to_dksh", ["--kind", "dag", "--n", "14", "--k", "5", "--seed", "5"], [],
        "40e82891e3d5b5163925f3f26ff140176a1c25e0546fda6651efd720bb36e4c8",
    ),
    (
        "dks_to_urcp", ["--kind", "digraph", "--n", "10", "--k", "4", "--seed", "6"], ["--m", "2"],
        "1fac5d8fffcdcba1f839cef605c699eef1eb097729953b5dd7d1033418bae8cb",
    ),
    (
        "degree_augment", ["--kind", "digraph", "--n", "12", "--k", "4", "--seed", "6"], [],
        "7b5e74369b7f61547727c3deb5e92bbbc29200704a90b239fdc47324138f0d82",
    ),
]


@pytest.mark.parametrize("kind, gen_argv, extra, digest", REDUCE_DIGESTS)
def test_reduce_output_bytes_are_pinned(tmp_path, capsys, kind, gen_argv, extra, digest):
    source = tmp_path / "source.json"
    code, _, _ = run(capsys, "gen", *gen_argv, "--out", str(source))
    assert code == 0
    code, out, err = run(capsys, "reduce", "--kind", kind, *extra, str(source))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("0", "38f073af095824db081a53fde280addf04ea5fcffe6addc308cf6ceefb5e5306"),
        ("1", "d97ce18d2efcd10ac577db06bca5534da64bf0bb08000346c6c34fb82e4b8900"),
    ],
)
def test_roundtrip_output_bytes_are_pinned(capsys, seed, digest):
    code, out, err = run(capsys, "roundtrip", "--kind", "all", "--count", "25", "--seed", seed)
    assert code == 0
    assert err == "roundtrip: 125 instances, 0 failures, 0 errors\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_roundtrip_reports_a_guard_as_error_lines(capsys, monkeypatch):
    from pocover import exact

    monkeypatch.setattr(exact, "BPCC_MAX_CLUSTER", 0)
    code, out, err = run(capsys, "roundtrip", "--kind", "bpcc_to_ct", "--count", "3")
    assert code == 0  # error entries, not failures
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    for line in lines:
        assert line["status"] == "error"
        assert line["error"] == (
            "oracle guard: exact clustered bin packing is limited to 0 items per cluster"
        )
    assert err == "roundtrip: 3 instances, 0 failures, 3 errors\n"


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
    "argv, bad, reason",
    [
        (["solve", "{ct}", "--out", "{dir}"], "{dir}", "Is a directory"),
        (["solve", "{ct}", "--out", "{missing}"], "{missing}", "No such file or directory"),
        (["gen", "--out", "{dir}"], "{dir}", "Is a directory"),
        (["gen", "--count", "2", "--out", "{ct}"], "{ct}", "File exists"),
        (["solve", "{ct}", "--emit-dot", "{dir}"], "{dir}", "Is a directory"),
    ],
)
def test_unwritable_output_path_exits_two(tmp_path, capsys, argv, bad, reason):
    paths = {
        "ct": _write(tmp_path, CT),
        "dir": tmp_path / "some_dir",
        "missing": tmp_path / "missing" / "r.jsonl",
    }
    paths["dir"].mkdir()
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == f"pocover: error: {bad.format(**paths)}: {reason}\n"


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
    "edges, message",
    [
        ([[0, 1], 5], "edge 5 is not a pair"),
        ([None], "edge None is not a pair"),
        (5, "edge list 5 is not a sequence"),
    ],
)
def test_an_edge_that_is_not_a_sequence_is_named(tmp_path, capsys, edges, message):
    path = _write(tmp_path, {**RCP, "edges": edges})
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert err == f"pocover: error: {message}\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**RCP, "profit": 5}, "profit list 5 is not a sequence"),
        ({**DKSH, "weight": 5}, "weight list 5 is not a sequence"),
        ({**BPCC, "weight": 5}, "weight list 5 is not a sequence"),
    ],
    ids=["rcp", "dksh", "bpcc"],
)
def test_a_scalar_profit_or_weight_is_named(tmp_path, capsys, doc, message):
    code, out, err = run(capsys, "solve", str(_write(tmp_path, doc)))
    assert code == 2 and out == ""
    assert err == f"pocover: error: {message}\n"


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
        ["--shape", "{bad"],
        ["--shape", "[" * 100_000],
    ],
)
def test_malformed_shape_exits_two(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("pocover: error: shape ")


@pytest.mark.parametrize(
    "kind, field",
    [
        ("digraph", "profit_range"),
        ("hypergraph", "weight_range"),
        ("hypergraph", "arity_range"),
        ("bp_star", "size_range"),
        ("bpcc", "weight_range"),
    ],
)
def test_inverted_range_names_its_field(capsys, kind, field):
    code, out, err = run(capsys, "gen", "--kind", kind, "--shape", f'{{"{field}": [5, 3]}}')
    assert (code, out) == (2, "")
    assert err == (
        f"pocover: error: shape field '{field}' must be a pair of ints, the first at most the second\n"
    )


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


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["gen", "--kind", "bp_star", "--k", "3", "--shape", '{"size_range": [5, 6]}'], None,
         "size_range exceeds the capacity"),
        (["gen", "--kind", "bp_star", "--k", "3", "--shape", '{"items": [9]}'], None,
         "item larger than the capacity"),
        (["gen", "--kind", "hypergraph", "--n", "3", "--shape", '{"arity_range": [1, 5]}'], None,
         "arity_range (1, 5) is unsatisfiable"),
        (["gen", "--kind", "bpcc", "--n", "3", "--shape", '{"cluster_count": 5}'], None,
         "cluster_count must be in [1, n]"),
        (["gen", "--kind", "bpcc", "--k", "3", "--shape", '{"weight_range": [5, 6]}'], None,
         "weight_range exceeds the capacity"),
        (["solve"], {**CT, "n": 0, "parent": [], "size": []}, "tree must have at least one vertex"),
        (["solve"], {**CT, "size": [0, 1]}, "parent and size arrays must have equal length"),
        (["solve"], {**DKSH, "n": 0, "hyperedges": [], "weight": []},
         "hypergraph must have at least one vertex"),
        (["solve"], {**DKSH, "weight": [1]}, "weight array length must match hyperedge count"),
        (["solve"], {**DKSH, "k": 0}, "budget must be at least 1"),
        (["solve"], {**BPCC, "k": 0}, "capacity must be at least 1"),
        (["solve"], {**BPCC, "weight": [2, -1, 3]}, "item weights must be nonnegative"),
        (["reduce", "--kind", "dks_to_urcp", "--k", "0"], RCP, "subgraph budget k must be at least 1"),
        (["gen", "--kind", "out_tree", "--n", "3", "--k", "5", "--shape", '{"size_rnage": [9, 9]}'],
         None, "unknown shape field 'size_rnage'"),
    ],
)
def test_rejected_input_exits_two_with_its_message(tmp_path, capsys, argv, doc, message):
    files = [] if doc is None else [str(_write(tmp_path, doc))]
    code, out, err = run(capsys, *argv, *files)
    assert (code, out) == (2, "")
    assert err == f"pocover: error: {message}\n"
