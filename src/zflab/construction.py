"""The choice-function pipeline: from a family of sets to its choice set.

Starting from a family, every member A is tagged into P_A = {A} x A, each
member's admissible orders are transported onto its tagged copy, and a
combined relation Q collects one transported order per member.  The set Q_S
of all such combined relations is carved out of a universe of candidate
relations by the per-member order condition.  F_c is then taken from Q_S by
two routes that read the same Q_S: :func:`build_Fc` takes the least element
of every member's restriction of each Q, and :func:`build_Fc_literal`
separates F_c out of the powerset of A_S x A_U.  A run builds Q_S once and
hands it to both.

A choice function is its graph, the set of its pairs (A, x), and F_c is a
canonically sorted tuple of such graphs, the shape the oracle returns, so
the two are compared as they are.  :func:`is_choice_function` checks a
graph against the family's table of its pairs, and :func:`phi3_holds`
checks the order that one chosen element induces on its member (Theorem 4).

Q_S is held as per-member order picks (:class:`QSet`): each Q unions one
transported order per member, and each order carries its least element, so
F_c is the product of each member's distinct leasts.  No report builds the
Q's as sets: ``enumerate`` prints them from their masks over the union of
the members' pairs (:meth:`QSet.literals`), and a report's one witness Q is
built alone.  :func:`run_pipeline` returns a run's summary, the plain dict a
report prints, beside the Q_S and F_c it built.

The candidate universe U2 is deliberately built in two inequivalent ways:

* ``Literal``: the union over members of the powerset of P_A x P_A.  Every
  candidate covers a single member, so for families with two or more distinct
  nonempty members the filtered Q_S is empty.  That emptiness is a reportable
  finding, not an error.  The separation visits every candidate as a bit
  mask over its member's P_A x P_A.
* ``UnionOfProducts``: the powerset of the union over members of P_A x P_A.
  Candidates here can combine pairs from all members, and Q_S is exactly the
  product of the per-member order sets.  The pipeline takes that product
  directly and, at micro scale, re-derives it from the subset filter and
  raises CrossCheckFailed unless the two agree.  The filter's result
  depends only on the members' sizes, in member order, and the kind, so it
  runs once per (sizes, kind); the comparison runs on every build.

Each member's P_A x P_A has one bit layout: bit i*n + j of a member's mask
is the pair ((A,x_i),(A,x_j)), x_i being the i-th element of A, so an
order's mask is its rows laid end to end and row i is bits i*n to i*n+n-1.
The transported orders, the literal U2, the Q_S cross-check and both F_c
routes work on masks in that layout; a table of each member's n² tagged
pairs, in bit order, turns a mask into pairs where a set is needed.  An
order's mask and the index of its least element depend only on |A|, so
every member of one size shares them.

The separation route tests rows per pick, not per Q.  The members' squares
are disjoint and a Q's bits over A are its pick for A; each row test reads
only A's square; so a Q's tagged-least pairs are the union of its picks'
tagged-least pairs, and F_c's masks are the sums over the product of each
member's distinct parts.

Each of these artifacts (a member's pair table, each size's picks, each
subset-filter result, the full rows of each member's picks) is computed
once per key per process.  Each memo is the cached function itself
(``functools.cache``), keyed by its arguments, so ``cache_info()`` and
``cache_clear()`` come with it.

The sizes of U1 and U2 are counted, not built.  U1 is also built as a
cross-check while members are small (see :func:`run_pipeline`), in mask
coordinates: every subset of every member's A x A is a bit mask over the
distinct pairs, so the check enumerates and deduplicates all of U1 without
building a kernel set, and keeps nothing.  :func:`build_universes` is the
literal kernel build.  U2 is built only by :func:`build_U2_base`; the
pipeline separates the literal U2 one candidate mask at a time.

Orders participate only when they have a least element, since the choice
extraction takes exactly that least; on nonempty carriers every admissible
order qualifies, while the vacuous orders on an empty member qualify never,
which is why a family containing the empty set ends with Q_S and F_c empty.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Iterable, Iterator

from .errors import CapExceeded, CrossCheckFailed, EmptyFamily, NoLeast, NotAPair
from .hfs import (
    DEFAULT_POWERSET_CAP,
    HfSet,
    cartesian,
    hfs_literal,
    make_set,
    mask_selector,
    ordered_pair,
    powerset,
    subset_order,
    subsets_of,
    union_family,
    unpair,
    von_neumann,
)
from .orders import OrderKind, Relation, least_index, order_rows

__all__ = [
    "DEFAULT_PRODUCT_CAP", "Family", "QSet", "U2Variant",
    "build_Fc", "build_Fc_literal", "build_PA", "build_QS", "build_U2_base",
    "build_universes", "choice_from_Q", "is_choice_function", "phi1_holds",
    "phi3_holds", "restrict_Q", "run_pipeline",
]

DEFAULT_PRODUCT_CAP = 10**6


class U2Variant(Enum):
    LITERAL = "literal"
    UNION_OF_PRODUCTS = "union"


class Family:
    """A nonempty set of sets, with its union and its pair table cached.

    The pair table maps each pair (A, x), A a member and x an element of A,
    to A (:func:`is_choice_function`).  It is keyed by the pair's identity,
    since equal sets are one object, and holds the pairs, so no key's id is
    reused while the family lives.
    """

    __slots__ = ("members", "union", "_pairs", "_member_of")

    def __init__(self, members: HfSet):
        if len(members) == 0:
            raise EmptyFamily("a family needs at least one member")
        self.members = members
        self.union = union_family(members)
        self._pairs = [(ordered_pair(a, x), a) for a in members.children for x in a.children]
        self._member_of = {id(p): a for p, a in self._pairs}

    @classmethod
    def of(cls, sets: Iterable[HfSet]) -> "Family":
        return cls(make_set(sets))

    @property
    def has_empty_member(self) -> bool:
        return any(len(a) == 0 for a in self.members.children)

    def __eq__(self, other):
        if not isinstance(other, Family):
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __iter__(self):
        return iter(self.members.children)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"Family({self.members!r})"


def build_PA(a: HfSet) -> HfSet:
    """The tagged copy {A} x A of a member."""
    return cartesian(make_set((a,)), a)


def build_universes(family: Family, powerset_cap: int = DEFAULT_POWERSET_CAP) -> tuple:
    """The union of the family and the first candidate universe U1.

    U1 unions, over the members, the powerset of A x A: it houses every
    relation over any single member.  This is the literal kernel build; the
    pipeline checks |U1| with :func:`_u1_masks` instead, which holds the same
    subsets as bit masks.
    """
    subsets = []
    for a in family.members.children:
        subsets.extend(powerset(cartesian(a, a), cap=powerset_cap).children)
    return family.union, make_set(subsets)


def _check_square_cap(a: HfSet, powerset_cap: int) -> None:
    """The CapExceeded that ``powerset(cartesian(a, a), powerset_cap)`` raises."""
    n = len(a) ** 2
    if n > powerset_cap:
        raise CapExceeded(f"powerset of {n} elements exceeds cap {powerset_cap}")


def _u1_masks(family: Family) -> tuple:
    """U1 in mask coordinates: (pairs, masks).

    ``pairs`` lists the distinct pairs of the members' A x A, and pair i is
    bit i; a pair shared by overlapping members is one kernel node, so one
    bit.  ``masks`` holds every subset of every member's A x A as a mask, so
    ``len(masks)`` is |U1|.  Nothing is kept between calls.
    """
    bit: dict = {}  # pair -> its bit
    masks = set()
    for a in family.members.children:
        full = 0
        for p in cartesian(a, a).children:
            full |= 1 << bit.setdefault(p, len(bit))
        sub = full
        while sub:
            masks.add(sub)
            sub = (sub - 1) & full
        masks.add(0)
    return list(bit), masks


def _u1_size(family: Family, powerset_cap: int = DEFAULT_POWERSET_CAP) -> int:
    """|U1| by inclusion-exclusion, without building U1.

    P(A x A) and P(B x B) meet in P((A n B)^2), so |U1| sums, over nonempty
    sets I of members, (-1)^(|I|+1) * 2^(|n I|^2).  Terms are accumulated per
    distinct intersection, where most of them cancel.  Raises the CapExceeded
    that :func:`build_universes` raises, for the same member.
    """
    coeffs: dict = {}  # intersection of some members -> signed multiplicity
    for a in family.members.children:
        _check_square_cap(a, powerset_cap)
        elems = frozenset(a.children)
        # Every term so far, intersected with A and with its sign flipped,
        # plus A on its own.
        step = {elems: 1}
        for common, c in coeffs.items():
            key = common & elems
            step[key] = step.get(key, 0) - c
        for key, c in step.items():
            c += coeffs.get(key, 0)
            if c:
                coeffs[key] = c
            else:
                coeffs.pop(key, None)
    return sum(c * 2 ** (len(common) ** 2) for common, c in coeffs.items())


def build_U2_base(family: Family, variant: U2Variant,
                  powerset_cap: int = DEFAULT_POWERSET_CAP) -> HfSet:
    """The second candidate universe U2, materialized.

    Literal unions the per-member powersets of P_A x P_A; UnionOfProducts
    takes the powerset of the union of the P_A x P_A themselves.  The two
    coincide exactly on singleton families.
    """
    products = [make_set(_cells(a)) for a in family.members.children]
    if variant is U2Variant.LITERAL:
        return make_set(
            q for product in products for q in powerset(product, cap=powerset_cap).children
        )
    if variant is U2Variant.UNION_OF_PRODUCTS:
        base = make_set(p for product in products for p in product.children)
        return powerset(base, cap=powerset_cap)
    raise TypeError(f"unknown variant: {variant!r}")


def _u2_sizes(family: Family, variant: U2Variant) -> tuple:
    """(|union base|, |U2|) for :func:`build_U2_base`, counted.

    Members are distinct, so their tagged products P_A x P_A are disjoint and
    the union base has sum |A|^2 pairs.  The literal powersets of those
    products share only the empty relation.
    """
    squares = [len(a) ** 2 for a in family.members.children]
    if variant is U2Variant.LITERAL:
        return sum(squares), sum(2 ** n for n in squares) - (len(squares) - 1)
    return sum(squares), 2 ** sum(squares)


# --- per-member machinery, cached --------------------------------------------
#
# Masks follow the bit layout of the module docstring.  A mask over the union
# base lays the members' squares end to end, in member order.


def _rows_mask(rows) -> int:
    n = len(rows)
    return sum(map(operator.lshift, rows, itertools.count(0, n)))


def _mask_rows(mask: int, n: int) -> tuple:
    return tuple(mask >> (i * n) & ((1 << n) - 1) for i in range(n))


def _bits(mask: int) -> list:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


@functools.cache
def _cells(a: HfSet) -> tuple:
    """A member's P_A x P_A, pair ((A,x_i),(A,x_j)) at position i*n + j."""
    tag = [ordered_pair(a, x) for x in a.children]
    return tuple(ordered_pair(x, y) for x in tag for y in tag)


def _over(base: HfSet, cells: tuple, masks: Iterable) -> list:
    """Each mask over ``cells``, in the bit layout above, as a mask over
    ``base`` (:func:`subset_order`'s masks: the first child of ``base`` is
    the most significant bit).  Every cell must be a child of ``base``."""
    n = len(base)
    bit = {p: 1 << (n - 1 - i) for i, p in enumerate(base.children)}
    width = math.isqrt(len(cells))
    full = (1 << width) - 1
    # Per row, from its first bit, a table from the row's value to its cells'
    # bits over base (an empty member has no rows).
    tables = [(i, [sum(bit[cells[i + j]] for j in _bits(v)) for v in range(full + 1)])
              for i in range(0, len(cells), width or 1)]
    return [sum(table[mask >> i & full] for i, table in tables) for mask in masks]


@functools.cache
def _picks(n: int, kind: OrderKind) -> tuple:
    """Per order of ``kind`` over n indices with a least element (the choice
    extraction needs one; on nonempty carriers every order has it), its
    (mask, least index), in the canonical order of its lifted sets: the
    :func:`subset_order` of their masks over the member's sorted cells.

    That order is the same for every n-element member: the tags (A,x) sort
    as the x do, so every member's cells sort by one permutation of the
    bits.  It is read off the first n naturals.
    """
    cells = _cells(von_neumann(n))
    base = make_set(cells)
    picks = [(_rows_mask(rows), least_index(rows, kind)) for rows in order_rows(n, kind)]
    picks = [pick for pick in picks if pick[1] is not None]
    by_mask = dict(zip(_over(base, cells, (mask for mask, _ in picks)), picks))
    return tuple(map(by_mask.get, subset_order(base, by_mask)))


@functools.cache
def _filtered(sizes: tuple, kind: OrderKind) -> frozenset:
    """The subset filter for members of these sizes, in member order: every
    mask over the union base whose slice for each member has a least element
    under ``kind``, found by testing all 2^(sum of n²) masks.

    It depends on nothing else, so the memo is this function itself, keyed
    by (sizes, kind): each is scanned once.  A lone member's slice is tested
    by its rows; with more members each slice is looked up in its size's
    one-member result, which every caller shares."""
    if len(sizes) == 1:
        n = sizes[0]
        return frozenset(mask for mask in range(1 << n * n)
                         if least_index(_mask_rows(mask, n), kind) is not None)
    offsets = itertools.accumulate((n * n for n in sizes), initial=0)
    slices = [(offset, (1 << n * n) - 1, _filtered((n,), kind))
              for offset, n in zip(offsets, sizes)]
    return frozenset(
        mask for mask in range(1 << sum(n * n for n in sizes))
        if all((mask >> offset & full) in valid for offset, full, valid in slices)
    )


def _offsets(members) -> Iterable:
    """Each member's first bit in the union base: the earlier members' n², summed."""
    return itertools.accumulate((len(a) ** 2 for a in members), initial=0)


def _union_masks(qs: "QSet") -> list:
    """Per member, each pick's mask over the union base."""
    return [[mask << offset for mask, _ in member_picks]
            for offset, member_picks in zip(_offsets(qs.members), qs.picks)]


class QSet:
    """Q_S as per-member order picks.

    ``picks`` holds, per member of ``members`` (canonical order), the (mask,
    least index) of each order the member may contribute; Q_S is every
    union of one pick per member, so ``len`` is the product of the pick
    counts.  Every Q is a subset of the union base, the union of the
    members' cells, so each pick becomes a mask over that base once; the
    members' pairs are disjoint, so a Q's mask is the sum of its picks'
    masks.  The Q's come in :func:`subset_order` of their masks.
    ``children`` builds them as sets, on first read; :meth:`literals`
    selects the base pairs' literals instead and builds no Q.  Equality is
    equality of the sets of Q's, so it builds them.
    """

    __slots__ = ("members", "picks", "_set")

    def __init__(self, members: tuple, picks: tuple):
        self.members = members
        self.picks = picks
        self._set = None

    def __len__(self) -> int:
        return math.prod(len(member_picks) for member_picks in self.picks)

    def _masks(self) -> tuple:
        """The union base, and each Q as a mask over it."""
        cells = [_cells(a) for a in self.members]
        base = make_set(itertools.chain.from_iterable(cells))
        masks = [0]
        for member_cells, member_picks in zip(cells, self.picks):
            picked = _over(base, member_cells, (mask for mask, _ in member_picks))
            masks = [q + m for q in masks for m in picked]
        return base, masks

    @property
    def children(self) -> tuple:
        if self._set is None:
            self._set = subsets_of(*self._masks())
        return self._set.children

    def literals(self) -> Iterator[str]:
        """An iterator of each Q's literal without its outer braces, in the
        order of :attr:`children`: the literals of its pairs, comma-joined.
        The base, its pairs' literals and the order are fixed when this is
        called; each Q's literal is joined only when the iterator reaches it."""
        base, masks = self._masks()
        text = [hfs_literal(p) for p in base.children]
        n = len(text)
        return (",".join(itertools.compress(text, mask_selector(m, n)))
                for m in subset_order(base, masks))

    def __eq__(self, other):
        if not isinstance(other, (QSet, HfSet)):
            return NotImplemented
        return self.children == other.children

    __hash__ = None


def phi1_holds(q: HfSet, family: Family, kind: OrderKind) -> bool:
    """The separation condition: for every member A there is an admissible
    order whose tagged copy is exactly the A-part of ``q``.

    Pairs of ``q`` that are not tagged with a single family member constrain
    nothing and are ignored, mirroring the quantifier structure.
    """
    for a in family.members.children:
        index = {x: i for i, x in enumerate(a.children)}
        mask = 0
        for p in restrict_Q(q, a).children:
            left, right = unpair(p)
            i, j = index.get(unpair(left).second), index.get(unpair(right).second)
            if i is None or j is None:  # tagged with A, but not an element of A
                return False
            mask |= 1 << (i * len(a) + j)
        if mask not in {m for m, _ in _picks(len(a), kind)}:
            return False
    return True


def build_QS(family: Family, variant: U2Variant, kind: OrderKind,
             powerset_cap: int = DEFAULT_POWERSET_CAP,
             product_cap: int = DEFAULT_PRODUCT_CAP) -> QSet:
    """The set of combined relations selected by the separation condition.

    Literal separates every candidate of U2 (:func:`_literal_picks`);
    UnionOfProducts takes the product of per-member admissible orders
    directly, and when the union base has at most 12 elements the powerset
    filter's result (:func:`_cross_check_qs`) must agree with it.
    """
    if variant is U2Variant.LITERAL:
        return QSet(family.members.children, _literal_picks(family, kind, powerset_cap))
    if variant is not U2Variant.UNION_OF_PRODUCTS:
        raise TypeError(f"unknown variant: {variant!r}")

    members = family.members.children
    qs = QSet(members, tuple(_picks(len(a), kind) for a in members))
    count = len(qs)
    if count > product_cap:
        raise CapExceeded(f"{count} combined relations exceed cap {product_cap}")
    base_size = sum(len(a) ** 2 for a in members)
    if base_size <= 12:
        _cross_check_qs(family, kind, qs)
    return qs


def _literal_picks(family: Family, kind: OrderKind, powerset_cap: int) -> tuple:
    """The literal Q_S as per-member picks, separated in mask coordinates.

    Every literal candidate is a subset of one member's P_A x P_A, so it is a
    mask over that member's pairs.  A nonzero mask of A passes the separation
    condition iff it is a lifted order of A and every other member admits
    the empty relation; the empty candidate, which all members share, passes
    iff every member admits the empty relation.  Every mask of every member
    is visited; the survivors must split into a product of per-member picks.
    """
    members = family.members.children
    for a in members:
        _check_square_cap(a, powerset_cap)
    picks = [_picks(len(a), kind) for a in members]
    by_mask = [{pick[0]: pick for pick in member_picks} for member_picks in picks]
    empty = [member_masks.get(0) for member_masks in by_mask]
    survivors = []  # per surviving candidate, its pick for every member
    for index, member_masks in enumerate(by_mask):
        others_admit_empty = all(e is not None for j, e in enumerate(empty) if j != index)
        for mask in range(1, 1 << len(members[index]) ** 2):
            pick = member_masks.get(mask)
            if pick is not None and others_admit_empty:
                survivors.append(empty[:index] + [pick] + empty[index + 1:])
    if None not in empty:
        survivors.append(empty)
    seen = [{survivor[k] for survivor in survivors} for k in range(len(members))]
    result = tuple(
        tuple(pick for pick in member_picks if pick in kept)
        for member_picks, kept in zip(picks, seen)
    )
    if math.prod(map(len, result)) != len(survivors):
        raise CrossCheckFailed("literal Q_S survivors do not form a product of member picks")
    return result


def _cross_check_qs(family: Family, kind: OrderKind, qs: QSet) -> None:
    """Re-derive Q_S by filtering every subset of the union base.

    The filter's result depends only on the members' sizes and the kind, so
    it runs once per (sizes, kind) (:func:`_filtered`); the product of the
    picks is enumerated and compared with it on every call.
    """
    filtered = _filtered(tuple(len(a) for a in family.members.children), kind)
    enumerated = {sum(combo) for combo in itertools.product(*_union_masks(qs))}
    if enumerated != filtered or len(enumerated) != len(qs):
        raise CrossCheckFailed("product enumeration disagrees with the subset filter")


def restrict_Q(q: HfSet, a: HfSet) -> HfSet:
    """The pairs of ``q`` whose two components are both tagged with ``a``."""
    kept = []
    for p in q.children:
        try:
            left, right = unpair(p)
            x_tag, _ = unpair(left)
            y_tag, _ = unpair(right)
        except NotAPair:
            continue
        if x_tag == a and y_tag == a:
            kept.append(p)
    return make_set(kept)


def choice_from_Q(q: HfSet, family: Family) -> HfSet:
    """The graph of the choice function of a combined relation.

    For each member the unique element whose tagged pairs to all of the
    member sit in ``q`` is selected; NoLeast if no member element (or more
    than one) qualifies.
    """
    present = frozenset(q.children)
    graph = []
    for a in family.members.children:
        cells, n = _cells(a), len(a)
        winners = [
            m
            for i, m in enumerate(a.children)
            if all(p in present for p in cells[i * n:(i + 1) * n])  # row i: (m, b) for b in A
        ]
        if len(winners) != 1:
            raise NoLeast(
                f"{len(winners)} least candidates for member {a!r}"
            )
        graph.append(ordered_pair(a, winners[0]))
    return make_set(graph)


def build_Fc(family: Family, qs: QSet) -> tuple:
    """The choice functions of the combined relations in ``qs``, taken by
    least elements: their graphs, canonically ordered.

    A Q chooses, for each member, the least element of the order it picks
    there, so F_c is the product of each member's distinct leasts.  The
    product comes out in canonical order, unsorted: a pair (A, x) compares
    by A, then by x, so each member's tagged pairs are contiguous, the
    members' blocks follow the members' order and x orders within a block.
    A graph holds one pair per member, so graphs compare as the tuples of
    their chosen elements, and each member's leasts are taken in element
    order.
    """
    tagged = [
        [ordered_pair(a, a.children[i]) for i in sorted({least for _, least in member_picks})]
        for a, member_picks in zip(family.members.children, qs.picks)
    ]
    return tuple(make_set(chosen) for chosen in itertools.product(*tagged))


@functools.cache
def _full_rows(n: int, picks: tuple) -> frozenset:
    """The distinct sets of full rows among the masks of ``picks``, picks of
    an n-element member: per pick, the indices i whose row, bits i*n to
    i*n+n-1 of its mask, is all ones.  The memo is keyed by the picks
    themselves, so picks that differ never share an answer."""
    full = (1 << n) - 1
    return frozenset(tuple(i for i in range(n) if mask >> i * n & full == full)
                     for mask, _ in picks)


def build_Fc_literal(family: Family, qs: QSet,
                     powerset_cap: int = DEFAULT_POWERSET_CAP) -> tuple:
    """The choice set separated literally from the powerset of A_S x A_U.

    Every subset of A_S x A_U is tested: it belongs iff some combined
    relation Q in ``qs`` makes the subset's pairs exactly the tagged-least
    pairs of Q, the pairs (A, m) whose row of Q's A-part is full.  A subset
    is a mask over A_S x A_U, its first pair the most significant bit, so
    the graphs come in :func:`subset_order`.  Must coincide with
    :func:`build_Fc` on the same ``qs``; exponential in |A_S| * |A_U|.

    The row test runs once per pick, not once per Q: the members' squares
    are disjoint and a Q's A-part is its pick for A, each row test reads
    only A's square, so a Q's tagged-least pairs are the union of its picks'
    tagged-least pairs, and the valid masks are the sums over the product of
    each member's distinct parts.  The picks' masks are read, never their
    recorded least element.
    """
    candidates = cartesian(family.members, family.union)
    k = len(candidates)
    if k > powerset_cap:
        raise CapExceeded(f"separation over {k} candidate pairs exceeds cap {powerset_cap}")
    bit_of = {unpair(p): 1 << (k - 1 - i) for i, p in enumerate(candidates.children)}
    # Per member A, the candidate bits of (A, m) for the full rows m of each
    # pick (no Q in Q_S holds ((A,m),(A,b)) for m outside A), summed.
    parts = [{sum(bit_of[a, a.children[i]] for i in rows)
              for rows in _full_rows(len(a), member_picks)}
             for a, member_picks in zip(family.members.children, qs.picks)]
    valid_masks = set(map(sum, itertools.product(*parts)))
    # The intersection walks range(1 << k): every mask of the powerset is
    # generated and tested against the valid ones, in one C loop.
    return subsets_of(candidates, valid_masks.intersection(range(1 << k))).children


def is_choice_function(graph: HfSet, family: Family) -> bool:
    """Is ``graph`` a choice function on ``family``: pairs (A, x), each
    member A of the family once, x an element of A, and nothing else?

    Each child of ``graph`` is mapped through the family's pair table, to A
    for a pair (A, x) with x in A and to None for anything else.  Pairs
    (A, x) sort by A, so the graph's children map to the family's members,
    in order, exactly when each member occurs once and nothing else does.
    """
    return tuple(map(family._member_of.get, map(id, graph.children))) == family.members.children


def phi3_holds(r: Relation, a: HfSet, m: HfSet) -> bool:
    """Is ``r`` exactly the identity on ``a`` plus the row of the chosen
    element ``m``?"""
    index = {e: i for i, e in enumerate(r.elements)}
    if r.carrier != a:
        return False
    for x in a.children:
        for y in a.children:
            related = bool(r.rows[index[x]] >> index[y] & 1)
            if related != (x == y or x == m):
                return False
    return True


def _first_q(qs: QSet) -> HfSet:
    """The canonically first Q of a nonempty Q_S, built alone.

    All Q's share one rank, so the first has the fewest pairs, and for
    equal-size sets the canonically smaller one holds the least element of
    the symmetric difference.  Members' pairs are disjoint, so the first Q
    takes from each member the canonically least of its smallest orders:
    its first pick (:func:`_picks`).
    """
    return make_set(
        _cells(a)[b] for a, member_picks in zip(qs.members, qs.picks)
        for b in _bits(member_picks[0][0])
    )


def run_pipeline(family: Family, variant: U2Variant, kind: OrderKind,
                 powerset_cap: int = DEFAULT_POWERSET_CAP,
                 product_cap: int = DEFAULT_PRODUCT_CAP) -> tuple:
    """Run the whole construction: (summary, Q_S, F_c).

    ``summary`` is the plain dict of sizes, checks and witnesses that a
    report prints as its ``pipeline`` block.  Q_S is built once and F_c
    taken from it by least elements; of the Q's only the witness is built
    as a set.  U1 and U2 are counted.  While no member has more than 3
    elements (U1 at most 2^9 sets per member) U1 is also built and must
    match; it is built in mask coordinates (:func:`_u1_masks`), each subset
    enumerated and deduplicated, and nothing is kept.
    """
    u1_size = _u1_size(family, powerset_cap)
    if all(len(a) <= 3 for a in family.members.children):
        built = len(_u1_masks(family)[1])
        if built != u1_size:
            raise CrossCheckFailed(f"counted |U1| {u1_size} != built |U1| {built}")
    u2_base_size, u2_size = _u2_sizes(family, variant)
    qs = build_QS(family, variant, kind, powerset_cap, product_cap)
    fcs = build_Fc(family, qs)
    summary = {
        "variant": variant.value,
        "kind": kind.value,
        "family": hfs_literal(family.members),
        "u1_size": u1_size,
        "u2_base_size": u2_base_size,
        "u2_size": u2_size,
        "qs_size": len(qs),
        "fc_size": len(fcs),
        "q_s_empty": len(qs) == 0,
        "f_c_all_valid": all(is_choice_function(g, family) for g in fcs),
        "witnesses": {
            "choice_functions": [hfs_literal(g) for g in fcs[:3]],
            "combined_relations": [hfs_literal(_first_q(qs))] if len(qs) else [],
        },
    }
    return summary, qs, fcs
