"""List the statements of ``src/pocover`` that no test runs.

Runs pytest in this process under ``sys.settrace``, tracing only frames of
``src/pocover/*.py``, then prints, module by module, every statement that
never ran.  Docstrings, ``def``, ``class``, ``import``, ``nonlocal`` and
``global`` statements are not counted.  Uses only the standard library and
pytest; tracing slows the suite about fourfold.

Run it from the repository root:

    python tools/uncovered.py            # the whole suite, quietly
    python tools/uncovered.py tests/test_model.py -x

Arguments are passed to pytest (default ``-q``); the exit status is
pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pocover"

_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
    ast.Import, ast.ImportFrom, ast.Nonlocal, ast.Global,
)
_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source: str) -> dict[int, range]:
    """The counted statements of a module: first line -> the lines that are
    its own (a compound statement's header, a simple statement's span)."""
    out: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        docstring = None
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            docstring = node.body[0]
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt) or isinstance(child, _SKIPPED):
                continue
            if child is docstring:
                continue
            inner = [s.lineno for s in ast.walk(child) if isinstance(s, ast.stmt)]
            if len(inner) > 1:  # a compound statement owns its header
                end = max(child.lineno + 1, min(inner[1:]))
            else:
                end = child.end_lineno + 1
            out[child.lineno] = range(child.lineno, end)
    return out


def missed(source: str, ran: set[int]) -> list[int]:
    """The first lines of the counted statements none of whose own lines is
    in ``ran``, in order."""
    return sorted(first for first, own in statements(source).items() if ran.isdisjoint(own))


def run_traced(args: list[str], prefix: str) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` and return its exit status and the lines run
    in each file whose path starts with ``prefix``."""
    import pytest

    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    threading.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return int(status), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(argv or ["-q"], str(PACKAGE) + "/")
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for first in missed(source, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
            total += 1
    print(f"{total} statements not run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
