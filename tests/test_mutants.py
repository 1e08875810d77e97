"""``tools/mutants.py``'s catalogue still points at the code it mutates.

Running the mutants takes minutes, so tier-1 never does; it checks only that
every snippet occurs exactly once in its module, so a refactor that moves a
check must move its mutant too.
"""

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
