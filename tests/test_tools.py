"""``tools/uncovered.py`` counts the statements it should, each with the
lines that are its own."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("uncovered", ROOT / "tools" / "uncovered.py")
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

SOURCE = '''"""Module docstring."""
import os
from sys import path


class C:
    """Class docstring."""

    field: int


def f(x):
    """Function docstring."""
    global G
    if x:
        return (
            x
        )
    try:
        y = 1 / x
    except ZeroDivisionError:
        pass

    def g():
        nonlocal y
        y += 1

    for v in (
        x,
    ):
        y += v
    return y
'''


def test_statements_skip_docstrings_definitions_and_imports():
    table = uncovered.statements(SOURCE)
    assert sorted(table) == [9, 15, 16, 19, 20, 22, 26, 28, 31, 32]
    assert table[16] == range(16, 19)  # a simple statement owns its span
    assert table[15] == range(15, 16)  # a compound statement owns its header
    assert table[19] == range(19, 20)
    assert table[28] == range(28, 31)


def test_a_statement_is_missed_only_when_none_of_its_lines_ran():
    ran = {15, 17, 19, 20, 29, 31, 32}
    assert uncovered.missed(SOURCE, ran) == [9, 22, 26]
