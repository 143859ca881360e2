"""The README's "Library" block runs as written against the package root,
its "Round-trip checks" table names each kind's checks in the order they run,
its "Exact-solver guards" section states the limits ``exact`` defines, and it
names each generator shape field."""

import re
from pathlib import Path

import pocover
from pocover import exact, verify
from pocover.generate import _SHAPE_FIELDS, SplitMix64

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    block = _library_block()
    assert block.startswith("from pocover import")
    exec(compile(block, str(README), "exec"), {})


def test_package_root_names_resolve():
    for name in pocover.__all__:
        getattr(pocover, name)  # raises AttributeError if the name is missing
    assert set(pocover.__all__) == {
        "CtInstance", "InputError", "SizedOutTree", "bounds", "cover", "exact_ct", "verify_ct",
    }


def test_readme_states_each_exact_guard():
    text = README.read_text()
    section = text[text.index("## Exact-solver guards") :]
    section = " ".join(section[: section.index("\n## ", 1)].split())
    exponent = len(str(exact.DKSH_MAX_COMBINATIONS)) - 1
    assert exact.DKSH_MAX_COMBINATIONS == 10**exponent
    for stated in (
        f"maximal-configuration enumeration at {exact.CONFIG_ENUM_MAX_VERTICES} vertices",
        f"exact tree covering at {exact.EXACT_CT_MAX_VERTICES} vertices",
        f"hypergraph selection at 10^{exponent} candidate subsets",
        f"clustered bin packing at {exact.BPCC_MAX_CLUSTER} items per cluster",
        f"only when it needs more than 2^{exact.RCP_MAX_MASK_BITS}.",
    ):
        assert stated in section, stated


def test_readme_round_trip_table_names_the_checks_in_order():
    text = README.read_text()
    section = text[text.index("### Round-trip checks") :]
    section = section[: section.index("\n#", 1)]
    table = {}
    for row in re.findall(r"^\| `(\w+)` \|(.*)\|$", section, re.M):
        kind, checks = row
        table[kind] = re.findall(r"`(\w+)`", checks)
    assert list(table) == list(verify.ROUNDTRIPS)
    for kind, (draw, check) in verify.ROUNDTRIPS.items():
        report = check(draw(SplitMix64(0), 0))
        assert report.error is None and report.passed
        assert [name for name, _ in report.checks] == table[kind], kind


def test_readme_names_exactly_the_shape_fields():
    text = " ".join(README.read_text().split())
    start = text.index("gives a known field the wrong type (")
    listed = re.findall(r"`(\w+)`", text[start : text.index(")", start)])
    assert sorted(listed) == sorted(_SHAPE_FIELDS)
