"""Finite set-theory workbench.

Hereditarily finite sets with a canonical form, a small first-order language
evaluated over them, order relations and their enumeration, a choice-function
construction pipeline with an independent brute-force oracle, and a rational
interval arm.  The ``zflab`` CLI drives all of it in batch.

The package republishes each module's ``__all__`` and every error class, so
each public name is listed once, in the module that defines it.
"""

from .construction import *
from .errors import *
from .hfs import *
from .intervals import *
from .orders import *

__version__ = "0.1.0"

# The formula language is loaded on first use: no CLI command needs it, and
# its import is a noticeable share of a cold process's start-up.
_FORMULA_NAMES = frozenset((
    "eval_formula",
    "eval_term",
    "format_formula",
    "format_term",
    "free_vars",
    "parse_formula",
    "separation",
))


def __getattr__(name: str):
    if name in _FORMULA_NAMES:
        from . import formula

        return getattr(formula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
