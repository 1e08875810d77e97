"""``tools/mutants.py``'s catalogue still points at the code it mutates.

Running the mutants takes minutes, so tier-1 never does; it checks only that
every snippet occurs exactly once in its module, so a refactor that moves a
check must move its mutant too, and that every test an entry names exists,
so a renamed test must be renamed in the catalogue too.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once(mutant):
    assert mutant.snippet != mutant.replacement
    assert mutants.occurrences(mutant) == 1


def defined_functions(path):
    """The names of the test functions defined at the top level of a test file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    for node_id in mutant.tests:
        path, _, name = node_id.partition("::")
        assert (mutants.ROOT / path).is_file(), node_id
        if name:
            assert name in defined_functions(mutants.ROOT / path), node_id
