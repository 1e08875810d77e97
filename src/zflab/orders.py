"""Finite relations over a carrier set and the three order disciplines.

A Relation pairs a carrier with a set of encoded ordered pairs; the set of
pairs is the source of truth and a dense boolean matrix indexed by canonical
carrier order is kept alongside for fast property checks.  The three order
kinds deliberately follow three different defining conditions and are not
harmonized:

* WellOrder: total (diagonal included), antisymmetric, transitive; on finite
  carriers this coincides with the subset-least formulation that
  :func:`well_order_literal` checks by enumerating every nonempty subset.
* PartialOrderWithLeast: reflexive, antisymmetric, transitive, and a least
  element whenever the carrier is nonempty.
* UniqueUniversal: exactly one element related to everything, with no other
  requirement.

The checkers answer exactly these conditions; on the empty carrier the first
two hold vacuously while the third fails, and that asymmetry is preserved.

Whether a relation is an order of a kind depends only on its shape, which
index relates to which, so :func:`order_rows` enumerates the orders of each
kind once per carrier size, as row tuples, and every carrier of that size
reads them.  All three kinds come from one generator, built on the fact the
paper's equivalence rests on: every order of every kind has a least element,
related to everything.  Per least element m it filters the row tuples whose
row m is full and whose other rows are not (nor, in the two antisymmetric
kinds, hold m).  Up to 3 elements, every kind is always cross-checked
against the brute-force filter over all row tuples.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping, Optional

from .errors import (
    CapExceeded,
    CrossCheckFailed,
    NoLeast,
    NotAPair,
    NotLiftShaped,
    NotUniquelySatisfied,
    PairOutOfCarrier,
    UnboundVariable,
)
from .hfs import (
    DEFAULT_POWERSET_CAP,
    HfSet,
    canonical_key,
    cartesian,
    make_set,
    ordered_pair,
    unpair,
)

if TYPE_CHECKING:
    from .formula import Formula

__all__ = [
    "OrderKind", "PropertyReport", "Relation", "enumerate_orders",
    "least_element", "least_index", "lift_order", "order_from_formula",
    "order_rows", "pointed_order", "project_order", "properties_from_rows",
    "relation_over", "relation_properties", "satisfies", "well_order_literal",
]


class OrderKind(Enum):
    WELL_ORDER = "wellorder"
    PARTIAL_ORDER_WITH_LEAST = "pol"
    UNIQUE_UNIVERSAL = "unique-universal"


@dataclass(frozen=True)
class PropertyReport:
    """Structural facts about a finite relation.

    ``least`` is the unique element related to every element when exactly one
    such element exists, else None.  ``total`` includes the diagonal: every
    pair of elements, equal or not, must be related one way or the other.
    """

    reflexive: bool
    antisymmetric: bool
    transitive: bool
    total: bool
    least: Optional[Any]


class Relation:
    """A set of encoded pairs over a fixed carrier, with its matrix as bit rows."""

    __slots__ = ("carrier", "pairs", "rows")

    def __init__(self, carrier: HfSet, pairs: HfSet, rows: tuple):
        self.carrier = carrier
        self.pairs = pairs
        self.rows = rows  # rows[i] bit j set iff (e_i, e_j) in pairs

    @property
    def elements(self) -> tuple:
        """The carrier's elements in canonical order; they index the rows."""
        return self.carrier.children

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.carrier == other.carrier and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.carrier, self.pairs))

    def __repr__(self):
        return f"Relation(carrier={self.carrier!r}, pairs={self.pairs!r})"


def relation_over(carrier: HfSet, pairs: HfSet) -> Relation:
    """Build a Relation, validating every pair decodes into the carrier."""
    elements = carrier.children
    index = {e: i for i, e in enumerate(elements)}
    rows = [0] * len(elements)
    for p in pairs.children:
        try:
            x, y = unpair(p)
        except NotAPair:
            raise PairOutOfCarrier(f"{p!r} is not an encoded pair") from None
        i = index.get(x)
        j = index.get(y)
        if i is None or j is None:
            raise PairOutOfCarrier(f"pair {p!r} has a component outside the carrier")
        rows[i] |= 1 << j
    return Relation(carrier, pairs, tuple(rows))


def _rows_reflexive(rows) -> bool:
    return all(r >> i & 1 for i, r in enumerate(rows))


def _rows_total(rows) -> bool:
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            if not (rows[i] >> j & 1 or rows[j] >> i & 1):
                return False
    return True


def _rows_antisymmetric(rows) -> bool:
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                return False
    return True


def _rows_transitive(rows) -> bool:
    n = len(rows)
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if ri >> j & 1 and rows[j] & ~ri:
                return False
    return True


def _universal_indices(rows) -> list:
    full = (1 << len(rows)) - 1
    return [i for i, r in enumerate(rows) if r == full]


def properties_from_rows(rows, elements) -> PropertyReport:
    """Property report for a dense relation over an indexed element tuple."""
    universal = _universal_indices(rows)
    return PropertyReport(
        reflexive=_rows_reflexive(rows),
        antisymmetric=_rows_antisymmetric(rows),
        transitive=_rows_transitive(rows),
        total=_rows_total(rows),
        least=elements[universal[0]] if len(universal) == 1 else None,
    )


def relation_properties(r: Relation) -> PropertyReport:
    return properties_from_rows(r.rows, r.elements)


def least_index(rows, kind: OrderKind) -> Optional[int]:
    """The index of the least element when ``rows`` is an order of ``kind``
    over a nonempty carrier, else None.

    A nonempty order of any kind has exactly one element related to every
    element: a well-order's first, a partial order's least (unique by
    antisymmetry), or the unique universal one.
    """
    if kind is OrderKind.WELL_ORDER:
        ok = _rows_total(rows) and _rows_antisymmetric(rows) and _rows_transitive(rows)
    elif kind is OrderKind.PARTIAL_ORDER_WITH_LEAST:
        ok = _rows_reflexive(rows) and _rows_antisymmetric(rows) and _rows_transitive(rows)
    elif kind is OrderKind.UNIQUE_UNIVERSAL:
        ok = True
    else:
        raise TypeError(f"unknown order kind: {kind!r}")
    universal = _universal_indices(rows) if ok else []
    return universal[0] if len(universal) == 1 else None


def _rows_satisfy(rows, kind: OrderKind) -> bool:
    least = least_index(rows, kind)
    # The empty carrier is vacuously a well-order and a partial order with
    # least, and has no unique universal element.
    return least is not None or (not rows and kind is not OrderKind.UNIQUE_UNIVERSAL)


def satisfies(r: Relation, kind: OrderKind) -> bool:
    """Does the relation meet the defining condition of ``kind``?"""
    return _rows_satisfy(r.rows, kind)


def _rows_well_order_literal(rows) -> bool:
    # The subset clause spelled out: every nonempty subset of the carrier has
    # a member related to all members of the subset.
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if not (rows[i] >> j & 1 or rows[j] >> i & 1):
                return False
            if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                return False
            for k in range(n):
                if rows[i] >> j & 1 and rows[j] >> k & 1 and not rows[i] >> k & 1:
                    return False
    for subset in range(1, 1 << n):
        if not any(
            subset >> m & 1 and rows[m] & subset == subset for m in range(n)
        ):
            return False
    return True


def well_order_literal(r: Relation, cap: int = DEFAULT_POWERSET_CAP) -> bool:
    """Well-order check with the least-element clause enumerated verbatim."""
    if len(r.elements) > cap:
        raise CapExceeded(f"subset enumeration over {len(r.elements)} elements exceeds cap {cap}")
    return _rows_well_order_literal(r.rows)


def least_element(r: Relation) -> HfSet:
    """The unique element related to every element; NoLeast otherwise."""
    universal = _universal_indices(r.rows)
    if len(universal) != 1:
        raise NoLeast(f"{len(universal)} universal elements over {r.carrier!r}")
    return r.elements[universal[0]]


def order_from_formula(a: HfSet, phi: Formula, env: Mapping = (), var: str | None = None) -> Relation:
    """Order ``a`` by a formula that picks out exactly one element.

    The relation holds between x1 and x2 when x1 = x2 or the formula holds at
    x1; when the formula holds at exactly one element the result is a partial
    order whose least element is that witness.  The element variable is
    ``var`` or, by default, the unique free variable not bound by ``env``.
    """
    # Imported here so that a process that never evaluates a formula (every
    # CLI command) never loads the formula module.
    from .formula import eval_formula, free_vars

    scope = dict(env)
    if var is None:
        unbound = sorted(free_vars(phi) - scope.keys())
        if len(unbound) != 1:
            raise UnboundVariable(
                f"cannot infer the element variable from free variables {unbound}"
            )
        var = unbound[0]
    holds = []
    for x in a.children:
        scope[var] = x
        holds.append(eval_formula(phi, scope))
    if sum(holds) != 1:
        raise NotUniquelySatisfied(
            f"formula holds at {sum(holds)} elements of {a!r}, need exactly 1"
        )
    return pointed_order(a, a.children[holds.index(True)])


def pointed_order(a: HfSet, m: HfSet) -> Relation:
    """The order of Theorem 4: ``m`` below every element of ``a``, all else
    incomparable.  It is a partial order with least element ``m``."""
    pairs = [ordered_pair(x, x) for x in a.children]
    pairs.extend(ordered_pair(m, b) for b in a.children)
    return relation_over(a, make_set(pairs))


def _brute_force_rows(n: int, kind: OrderKind) -> list:
    # Every row tuple over n indices that meets the condition of ``kind``.
    return [rows for rows in itertools.product(range(1 << n), repeat=n)
            if _rows_satisfy(rows, kind)]


def _rows_with_least(n: int, kind: OrderKind) -> list:
    # Per least element m, row m full and every other row non-full; in the
    # antisymmetric kinds no other row holds m either, since m is below it.
    # The filter keeps the candidates that are orders of ``kind``.  Each
    # order has exactly one full row, so it is found once, under its least.
    # The empty carrier has no least; it is an order iff ``kind`` holds there.
    full = (1 << n) - 1
    found = [()] if n == 0 and _rows_satisfy((), kind) else []
    for m in range(n):
        others = [row for row in range(full)
                  if kind is OrderKind.UNIQUE_UNIVERSAL or not row >> m & 1]
        candidates = ((*rest[:m], full, *rest[m:])
                      for rest in itertools.product(others, repeat=n - 1))
        found.extend(rows for rows in candidates if _rows_satisfy(rows, kind))
    return found


@functools.cache
def order_rows(n: int, kind: OrderKind) -> tuple:
    """Every order of ``kind`` over n indexed elements, as row tuples.

    Every kind is generated by one route, from the fact they share: each
    order has a least element, whose row is full.  Per least element the
    candidates with that row full and every other row non-full (and, in the
    antisymmetric kinds, clear of the least) are filtered by the kind's
    condition (:func:`_rows_with_least`).  n is capped at 4, and for n at
    most 3 every kind is re-derived from the brute-force filter over all
    2**(n*n) row tuples; CrossCheckFailed if the two disagree.  The result
    is computed once per (n, kind): the memo is this function itself, and
    an exception is never cached.
    """
    if n > 4:
        raise CapExceeded(f"order enumeration over {n} elements exceeds cap 4")
    found = tuple(_rows_with_least(n, kind))
    if n <= 3 and set(_brute_force_rows(n, kind)) != set(found):
        raise CrossCheckFailed("direct route disagrees with the subset filter")
    return found


def enumerate_orders(a: HfSet, kind: OrderKind) -> tuple:
    """All relations over ``a`` of the given kind, canonically ordered.

    Each is one row tuple of :func:`order_rows` over ``a``'s elements, its
    pairs taken from a table of the n*n encoded pairs built once per call.
    """
    elements = a.children
    n = len(elements)
    shapes = order_rows(n, kind)
    enc = [[ordered_pair(x, y) for y in elements] for x in elements]
    found = [
        Relation(a, make_set(enc[i][j] for i in range(n) for j in range(n) if rows[i] >> j & 1),
                 rows)
        for rows in shapes
    ]
    return tuple(sorted(found, key=lambda r: canonical_key(r.pairs)))


def lift_order(r: Relation, a: HfSet | None = None) -> Relation:
    """Transport a relation over A to its copy over {A} x A via tagging."""
    if a is None:
        a = r.carrier
    elif a != r.carrier:
        raise ValueError("carrier mismatch in lift")
    tag = make_set((a,))
    carrier = cartesian(tag, a)
    tagged = {x: ordered_pair(a, x) for x in a.children}
    pairs = []
    for p in r.pairs.children:
        x, y = unpair(p)
        pairs.append(ordered_pair(tagged[x], tagged[y]))
    return relation_over(carrier, make_set(pairs))


def project_order(q: Relation, a: HfSet) -> Relation:
    """Inverse of :func:`lift_order`: strip the {A} tag off both components."""
    expected_carrier = cartesian(make_set((a,)), a)
    if q.carrier != expected_carrier:
        raise NotLiftShaped(f"carrier is not the tagged copy of {a!r}")
    pairs = []
    for p in q.pairs.children:
        left, right = unpair(p)
        _, x = unpair(left)
        _, y = unpair(right)
        pairs.append(ordered_pair(x, y))
    return relation_over(a, make_set(pairs))
