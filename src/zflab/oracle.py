"""Independent brute-force oracle for the pipeline's end results.

Everything here is computed directly from set membership: choice functions by
taking one element per member, order counts by filtering every subset of
A x A.  The module deliberately shares only the set kernel with the pipeline,
so agreement between the two routes is evidence rather than tautology.  Kinds
are addressed by their serialized names ("wellorder", "pol",
"unique-universal"); enum values from other modules are accepted and read via
their ``.value``.

The subset scans build each candidate relation as a set and test it by
membership alone.  What they do not redo: the n*n encoded pairs of a carrier
are built once per scan into a pair table that every candidate and every
membership test reads from, and whether a member admits a partial order with
a least element is memoized on the member, so a member shared by many
families is scanned once per process.  Scans run from the full relation
down, and such an order holds the diagonal and a full row, so that scan hits
after 39 candidates on 3 elements and 2,255 on 4 (280 and 33,840 upward).
A choice enumeration builds each (member, element) pair once, and
:class:`EquivalenceVerdict` carries the graphs it enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceeded, CrossCheckFailed, EmptyFamily
from .hfs import (HfSet, canonical_key, hfs_literal, is_member, make_set, ordered_pair,
                  von_neumann)

__all__ = [
    "DEFAULT_PRODUCT_CAP",
    "EquivalenceVerdict",
    "count_orders",
    "enumerate_choice_functions",
    "verify_equivalence",
]

DEFAULT_PRODUCT_CAP = 10**6

_KINDS = ("wellorder", "pol", "unique-universal")


def _kind_name(kind) -> str:
    name = getattr(kind, "value", kind)
    if name not in _KINDS:
        raise ValueError(f"unknown order kind: {kind!r}")
    return name


def _family_members(family) -> tuple:
    members = getattr(family, "members", family)
    if not isinstance(members, HfSet):
        raise TypeError("expected a family of sets")
    if len(members) == 0:
        raise EmptyFamily("family has no members")
    return members.children


def enumerate_choice_functions(family, cap: int = DEFAULT_PRODUCT_CAP) -> tuple:
    """Graphs of all functions picking one element from each member.

    Returns canonically sorted pair-set graphs; empty when any member is
    empty.  The member-size product must stay within ``cap``.
    """
    members = _family_members(family)
    count = 1
    for a in members:
        count *= len(a)
    if count > cap:
        raise CapExceeded(f"{count} choice functions exceed cap {cap}")
    tagged = [[ordered_pair(a, x) for x in a.children] for a in members]
    graphs = [make_set(picks) for picks in itertools.product(*tagged)]
    return tuple(sorted(graphs, key=canonical_key))


def _relation_holds(kind_name: str, elements, rel: HfSet, enc: dict) -> bool:
    # Property checks phrased directly over set membership; enc[x, y] is the
    # encoded pair (x, y).
    def related(x, y):
        return is_member(enc[x, y], rel)

    if kind_name == "wellorder":
        for x in elements:
            for y in elements:
                if not (related(x, y) or related(y, x)):
                    return False
                if x != y and related(x, y) and related(y, x):
                    return False
                for z in elements:
                    if related(x, y) and related(y, z) and not related(x, z):
                        return False
        return True
    if kind_name == "pol":
        if not all(related(x, x) for x in elements):
            return False
        for x in elements:
            for y in elements:
                if x != y and related(x, y) and related(y, x):
                    return False
                for z in elements:
                    if related(x, y) and related(y, z) and not related(x, z):
                        return False
        if elements and not any(
            all(related(m, b) for b in elements) for m in elements
        ):
            return False
        return True
    if kind_name == "unique-universal":
        universal = [
            m for m in elements if all(related(m, b) for b in elements)
        ]
        return len(universal) == 1
    raise ValueError(kind_name)


def _relations_of_kind(elements, kind_name: str):
    """Yield every subset of elements x elements, built as a set, that is a
    relation of the given kind.

    The n*n encoded pairs are built once into a table; each mask's relation
    is assembled from it with make_set and tested by set membership, from
    the full relation down, so an existence scan for an order hits early.
    """
    enc = {(x, y): ordered_pair(x, y) for x in elements for y in elements}
    pairs = list(enc.values())
    for mask in reversed(range(1 << len(pairs))):
        rel = make_set(p for bit, p in enumerate(pairs) if mask >> bit & 1)
        if _relation_holds(kind_name, elements, rel, enc):
            yield rel


def _nested_singletons(n: int) -> list:
    out = []
    current = make_set(())
    for _ in range(n):
        out.append(current)
        current = make_set((current,))
    return out


def _von_neumann_chain(n: int) -> list:
    return [von_neumann(k) for k in range(n)]


def count_orders(n: int, kind) -> int:
    """Number of relations of the given kind over an n-element set.

    Brute force over all 2**(n*n) pair subsets, n at most 4.  For n <= 3 the
    count is computed over two structurally different carriers and must agree,
    making it independent of which n-set is used.
    """
    if n > 4:
        raise CapExceeded(f"order counting over {n} elements exceeds cap 4")
    kind_name = _kind_name(kind)
    count = sum(1 for _ in _relations_of_kind(_von_neumann_chain(n), kind_name))
    if n <= 3:
        other = sum(1 for _ in _relations_of_kind(_nested_singletons(n), kind_name))
        if other != count:
            raise CrossCheckFailed(
                f"order count depends on the carrier: {count} vs {other}"
            )
    return count


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Both sides of the choice/order equivalence, computed independently."""

    fingerprint: str
    all_members_have_pol: bool
    # Every choice function's graph, canonically sorted.
    graphs: tuple = field(repr=False)

    @property
    def has_choice(self) -> bool:
        return bool(self.graphs)

    @property
    def agree(self) -> bool:
        return self.has_choice == self.all_members_have_pol


# member -> does it admit a partial order with a least element?  Keyed on the
# member itself, so a member shared by many families is scanned once.
_pol_memo: dict = {}


def _pol_exists(a: HfSet) -> bool:
    # Early-exit scan for any reflexive antisymmetric transitive relation
    # with a least element, over at most 4 elements like every order scan.
    found = _pol_memo.get(a)
    if found is None:
        n = len(a)
        if n > 4:
            raise CapExceeded(f"order search over {n} elements exceeds cap 4")
        found = n > 0 and next(_relations_of_kind(a.children, "pol"), None) is not None
        _pol_memo[a] = found
    return found


def verify_equivalence(family) -> EquivalenceVerdict:
    """Check that a choice function exists iff every member admits an order
    with a least element; both sides are brute-forced separately."""
    members = _family_members(family)
    # has_choice by actual enumeration, not by the member-size shortcut.
    graphs = enumerate_choice_functions(make_set(members), cap=DEFAULT_PRODUCT_CAP)
    return EquivalenceVerdict(
        fingerprint=hfs_literal(make_set(members)),
        all_members_have_pol=all(_pol_exists(a) for a in members),
        graphs=graphs,
    )
