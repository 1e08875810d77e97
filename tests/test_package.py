"""The package surface: ``zflab`` republishes each module's public names."""

import pytest

import zflab
from zflab import construction, errors, formula, hfs, intervals, orders


@pytest.mark.parametrize("module", [construction, hfs, intervals, orders],
                         ids=lambda m: m.__name__)
def test_zflab_republishes_each_modules_all(module):
    missing = [name for name in module.__all__
               if getattr(zflab, name, None) is not getattr(module, name)]
    assert missing == []


def test_zflab_republishes_every_error():
    classes = [value for name, value in vars(errors).items()
               if not name.startswith("_") and isinstance(value, type)
               and issubclass(value, errors.ZfLabError)]
    assert errors.CrossCheckFailed in classes
    assert [c for c in classes if getattr(zflab, c.__name__, None) is not c] == []


def test_formula_names_resolve_lazily():
    assert zflab._FORMULA_NAMES <= set(formula.__all__)
    assert not zflab._FORMULA_NAMES & vars(zflab).keys()
    for name in zflab._FORMULA_NAMES:
        assert getattr(zflab, name) is getattr(formula, name)
    with pytest.raises(AttributeError):
        zflab.no_such_name
