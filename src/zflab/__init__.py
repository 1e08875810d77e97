"""Finite set-theory workbench.

Hereditarily finite sets with a canonical form, a small first-order language
evaluated over them, order relations and their enumeration, a choice-function
construction pipeline with an independent brute-force oracle, and a rational
interval arm.  The ``zflab`` CLI drives all of it in batch.
"""

from .construction import (
    ChoiceFunction,
    Family,
    PipelineReport,
    U2Variant,
    build_Fc,
    build_Fc_literal,
    build_PA,
    build_QS,
    build_U2_base,
    build_universes,
    choice_from_Q,
    phi1_holds,
    phi3_holds,
    restrict_Q,
    run_pipeline,
    theorem4_order_from_choice,
)
from .errors import (
    CapExceeded,
    EmptyFamily,
    EmptyInterval,
    NoLeast,
    NotAPair,
    NotLiftShaped,
    NotUniquelySatisfied,
    PairOutOfCarrier,
    ParseError,
    SampleOutsideInterval,
    UnboundVariable,
    ZfLabError,
)
from .hfs import (
    EMPTY,
    HfSet,
    canonical_compare,
    canonical_key,
    cartesian,
    hfs_literal,
    is_member,
    iter_hfs_by_rank,
    make_set,
    ordered_pair,
    parse_hfs,
    powerset,
    union_family,
    unpair,
    von_neumann,
)
from .intervals import (
    Interval,
    Rational,
    choice_value,
    hyper_choice,
    parse_interval,
    parse_rational,
    phi2_holds,
    pol_compare,
    sample_check_pol,
)
from .orders import (
    OrderKind,
    PropertyReport,
    Relation,
    enumerate_orders,
    least_element,
    lift_order,
    order_from_formula,
    project_order,
    relation_over,
    relation_properties,
    satisfies,
    well_order_literal,
)

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
