import pytest
from hypothesis import settings

from pocover.model import CtInstance, SizedOutTree

# Each run draws the same examples, so a failure found once comes back on any
# checkout and the statements a run reaches do not vary between runs.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def tree(parent, size):
    return SizedOutTree(parent, size)


@pytest.fixture
def star4():
    """Zero-size root with four size-3 leaves, capacity 6."""
    return CtInstance(tree([None, 0, 0, 0, 0], [0, 3, 3, 3, 3]), 6)


@pytest.fixture
def star3():
    """Zero-size root with three size-4 leaves, capacity 6."""
    return CtInstance(tree([None, 0, 0, 0], [0, 4, 4, 4]), 6)


@pytest.fixture
def chain3():
    """root(0) -> x(1) -> three size-2 leaves, capacity 4."""
    return CtInstance(tree([None, 0, 1, 1, 1], [0, 1, 2, 2, 2]), 4)


@pytest.fixture
def chain4():
    """root(0) -> x(1) -> four size-2 leaves, capacity 4."""
    return CtInstance(tree([None, 0, 1, 1, 1, 1], [0, 1, 2, 2, 2, 2]), 4)
