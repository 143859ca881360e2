"""The README's "Library" block runs as written against the package root."""

import re
from pathlib import Path

import pocover

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
