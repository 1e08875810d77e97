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

Q_S is held as per-member order picks (:class:`QSet`): each Q unions one
transported order per member, and each order carries its least element, so
F_c is the product of each member's distinct leasts.  The Q's are built as
sets only where something reads them (the ``enumerate`` report prints them
all); a report's one witness Q is built alone.

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
  raises CrossCheckFailed unless the two agree.

Each member's P_A x P_A is encoded once, into a cached table of its pairs
((A,x),(A,y)) with their coordinates in A; the transported orders, U2, the
Q_S cross-check and both F_c routes read that table.

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

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import CapExceeded, CrossCheckFailed, EmptyFamily, NoLeast, NotAPair
from .hfs import (
    DEFAULT_POWERSET_CAP,
    HfSet,
    canonical_key,
    cartesian,
    hfs_literal,
    is_member,
    make_set,
    ordered_pair,
    powerset,
    subsets_of,
    union_family,
    unpair,
)
from .orders import OrderKind, Relation, least_index, order_rows, relation_over

__all__ = [
    "ChoiceFunction", "DEFAULT_PRODUCT_CAP", "Family", "PipelineReport",
    "QSet", "U2Variant", "build_Fc", "build_Fc_literal", "build_PA", "build_QS",
    "build_U2_base", "build_universes", "choice_from_Q", "phi1_holds",
    "phi3_holds", "restrict_Q", "run_pipeline", "theorem4_order_from_choice",
]

DEFAULT_PRODUCT_CAP = 10**6


class U2Variant(Enum):
    LITERAL = "literal"
    UNION_OF_PRODUCTS = "union"


class Family:
    """A nonempty set of sets, with its union cached."""

    __slots__ = ("members", "union")

    def __init__(self, members: HfSet):
        if len(members) == 0:
            raise EmptyFamily("a family needs at least one member")
        self.members = members
        self.union = union_family(members)

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


class ChoiceFunction:
    """A function graph assigning to each member one of its own elements."""

    __slots__ = ("graph", "_mapping")

    def __init__(self, graph: HfSet):
        mapping = {}
        for p in graph.children:
            try:
                a, x = unpair(p)
            except NotAPair:
                raise ValueError(f"graph element {p!r} is not a pair") from None
            if a in mapping:
                raise ValueError(f"two pairs for member {a!r}")
            if not is_member(x, a):
                raise ValueError(f"chosen element {x!r} is outside {a!r}")
            mapping[a] = x
        self.graph = graph
        self._mapping = mapping

    def __call__(self, a: HfSet) -> HfSet:
        return self._mapping[a]

    @property
    def domain(self) -> tuple:
        return tuple(sorted(self._mapping, key=canonical_key))

    def is_valid_for(self, family: Family) -> bool:
        """Exactly one selection for each family member, nothing else."""
        return set(self._mapping) == set(family.members.children)

    def __eq__(self, other):
        if not isinstance(other, ChoiceFunction):
            return NotImplemented
        return self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)

    def __repr__(self):
        return f"ChoiceFunction({self.graph!r})"


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
    products = [_tagged_pairs(a).product for a in family.members.children]
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

class _PairTable(NamedTuple):
    """A member's P_A x P_A, encoded once."""

    product: HfSet  # its children: ((A,x),(A,y)) for x, y in A, canonically ordered
    coords: tuple   # per child, (i, j) with x, y = A.children[i], A.children[j]
    enc: dict       # (x, y) -> ((A,x),(A,y))


class _MemberRecord(NamedTuple):
    """What the pipeline derives once per (member, kind).

    The pipeline admits an order only when it has a least element (the
    choice extraction needs one); on nonempty carriers this filters nothing.
    """

    picks: tuple  # per order, (its pairs lifted onto P_A x P_A, its least element)
    slices: dict  # _cross_check_qs's memo: product-pair submask -> valid?


_pair_cache: dict = {}    # member -> _PairTable
_member_cache: dict = {}  # (member, kind) -> _MemberRecord


def _tagged_pairs(a: HfSet) -> _PairTable:
    table = _pair_cache.get(a)
    if table is None:
        elements = a.children
        tag = [ordered_pair(a, x) for x in elements]
        n = len(tag)
        cells = sorted(
            ((ordered_pair(tag[i], tag[j]), (i, j)) for i in range(n) for j in range(n)),
            key=lambda cell: canonical_key(cell[0]),
        )
        table = _PairTable(make_set(p for p, _ in cells), tuple(ij for _, ij in cells),
                           {(elements[i], elements[j]): p for p, (i, j) in cells})
        _pair_cache[a] = table
    return table


def _member_record(a: HfSet, kind: OrderKind) -> _MemberRecord:
    key = (a, kind)
    record = _member_cache.get(key)
    if record is None:
        table = _tagged_pairs(a)
        picks = []
        for rows in order_rows(len(a), kind):
            least = least_index(rows, kind)
            if least is not None:
                picks.append((tuple(p for p, (i, j) in zip(table.product.children, table.coords)
                                    if rows[i] >> j & 1), a.children[least]))
        record = _MemberRecord(tuple(picks), {})
        _member_cache[key] = record
    return record


def _bit_layout(family: Family) -> list:
    """Per member, (offset, bit): a mask over the union base lays the
    members' P_A x P_A end to end in member order, and pair p of member A is
    bit ``offset + bit[p]``."""
    layout = []
    offset = 0
    for a in family.members.children:
        product = _tagged_pairs(a).product.children
        layout.append((offset, {p: i for i, p in enumerate(product)}))
        offset += len(product)
    return layout


def _mask(pairs, offset: int, bit: dict) -> int:
    return sum(1 << (offset + bit[p]) for p in pairs)


def _pick_masks(layout: list, picks: tuple) -> list:
    """Per member, each pick's pairs as a mask over the union base."""
    return [
        [_mask(pairs, offset, bit) for pairs, _ in member_picks]
        for (offset, bit), member_picks in zip(layout, picks)
    ]


class QSet:
    """Q_S as per-member order picks.

    ``picks`` holds, per member in canonical order, the (lifted pairs, least
    element) of each order the member may contribute; Q_S is every union of
    one pick per member, so ``len`` is the product of the pick counts.
    ``children`` builds the Q's as sets, in canonical order, on first read:
    every Q is a subset of the union of all picks' pairs, so each pick
    becomes a tuple of positions in that base once, and the kernel orders
    the Q's by their merged positions (:func:`subsets_of`).  Equality is
    equality of the sets of Q's, so it builds them.
    """

    __slots__ = ("picks", "_set")

    def __init__(self, picks: tuple):
        self.picks = picks
        self._set = None

    def __len__(self) -> int:
        return math.prod(len(member_picks) for member_picks in self.picks)

    @property
    def children(self) -> tuple:
        if self._set is None:
            base = make_set(
                p for member_picks in self.picks for pairs, _ in member_picks for p in pairs
            )
            position = {p: i for i, p in enumerate(base.children)}
            indexed = [
                [tuple(position[p] for p in pairs) for pairs, _ in member_picks]
                for member_picks in self.picks
            ]
            del position
            # Members' pairs are disjoint, so each Q's merged positions are
            # distinct; each pick's are increasing, so sorting merges runs.
            self._set = subsets_of(base, (
                tuple(sorted(itertools.chain.from_iterable(combo)))
                for combo in itertools.product(*indexed)
            ))
        return self._set.children

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
    members = family.members.children
    buckets = {a: [] for a in members}
    for p in q.children:
        try:
            left, right = unpair(p)
            x_tag, _ = unpair(left)
            y_tag, _ = unpair(right)
        except NotAPair:
            continue
        if x_tag != y_tag:
            continue
        bucket = buckets.get(x_tag)
        if bucket is not None:
            bucket.append(p)
    return all(
        tuple(buckets[a]) in {pairs for pairs, _ in _member_record(a, kind).picks}
        for a in members
    )


def build_QS(family: Family, variant: U2Variant, kind: OrderKind,
             powerset_cap: int = DEFAULT_POWERSET_CAP,
             product_cap: int = DEFAULT_PRODUCT_CAP) -> QSet:
    """The set of combined relations selected by the separation condition.

    Literal separates every candidate of U2 (:func:`_literal_picks`);
    UnionOfProducts takes the product of per-member admissible orders
    directly, and when the union base has at most 12 elements the powerset
    filter is re-run and must agree.
    """
    if variant is U2Variant.LITERAL:
        return QSet(_literal_picks(family, kind, powerset_cap))
    if variant is not U2Variant.UNION_OF_PRODUCTS:
        raise TypeError(f"unknown variant: {variant!r}")

    members = family.members.children
    qs = QSet(tuple(_member_record(a, kind).picks for a in members))
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
    picks = [_member_record(a, kind).picks for a in members]
    by_mask = [
        {_mask(pick[0], 0, bit): pick for pick in member_picks}
        for (_, bit), member_picks in zip(_bit_layout(family), picks)
    ]
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
    seen = [set() for _ in members]
    for survivor in survivors:
        for kept, pick in zip(seen, survivor):
            kept.add(pick)
    result = tuple(
        tuple(pick for pick in member_picks if pick in kept)
        for member_picks, kept in zip(picks, seen)
    )
    if math.prod(map(len, result)) != len(survivors):
        raise CrossCheckFailed("literal Q_S survivors do not form a product of member picks")
    return result


def _cross_check_qs(family: Family, kind: OrderKind, qs: QSet) -> None:
    """Re-derive Q_S by filtering every subset of the union base."""
    layout = _bit_layout(family)
    slices = []  # per member: (offset of its bits, coords, |A|, submask memo)
    for a, (offset, _) in zip(family.members.children, layout):
        slices.append((offset, _tagged_pairs(a).coords, len(a),
                       _member_record(a, kind).slices))

    def slice_ok(offset, coords, n, memo, mask):
        submask = mask >> offset & ((1 << len(coords)) - 1)
        ok = memo.get(submask)
        if ok is None:
            rows = [0] * n
            for bit, (i, j) in enumerate(coords):
                if submask >> bit & 1:
                    rows[i] |= 1 << j
            ok = least_index(rows, kind) is not None
            memo[submask] = ok
        return ok

    width = sum(len(coords) for _, coords, _, _ in slices)
    filtered = {
        mask for mask in range(1 << width)
        if all(slice_ok(*member, mask) for member in slices)
    }
    # Express the picked Q's in the same mask coordinates.
    enumerated = {sum(combo) for combo in itertools.product(*_pick_masks(layout, qs.picks))}
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


def choice_from_Q(q: HfSet, family: Family) -> ChoiceFunction:
    """Extract the choice function of a combined relation.

    For each member the unique element whose tagged pairs to all of the
    member sit in ``q`` is selected; NoLeast if no member element (or more
    than one) qualifies.
    """
    present = frozenset(q.children)
    graph = []
    for a in family.members.children:
        enc = _tagged_pairs(a).enc
        winners = [
            m
            for m in a.children
            if all(enc[m, b] in present for b in a.children)
        ]
        if len(winners) != 1:
            raise NoLeast(
                f"{len(winners)} least candidates for member {a!r}"
            )
        graph.append(ordered_pair(a, winners[0]))
    return ChoiceFunction(make_set(graph))


def build_Fc(family: Family, qs: QSet) -> tuple:
    """The choice functions of the combined relations in ``qs``, taken by
    least elements and canonically ordered.

    A Q chooses, for each member, the least element of the order it picks
    there, so F_c is the product of each member's distinct leasts.
    """
    tagged = [
        [ordered_pair(a, m) for m in dict.fromkeys(least for _, least in member_picks)]
        for a, member_picks in zip(family.members.children, qs.picks)
    ]
    graphs = [make_set(chosen) for chosen in itertools.product(*tagged)]
    return tuple(ChoiceFunction(g) for g in sorted(graphs, key=canonical_key))


def build_Fc_literal(family: Family, qs: QSet,
                     powerset_cap: int = DEFAULT_POWERSET_CAP) -> tuple:
    """The choice set separated literally from the powerset of A_S x A_U.

    Every subset of A_S x A_U is tested: it belongs iff some combined
    relation Q in ``qs`` makes the subset's pairs exactly the tagged-least
    pairs of Q.  Must coincide with :func:`build_Fc` on the same ``qs``;
    exponential in |A_S| * |A_U|.
    """
    candidates = cartesian(family.members, family.union).children
    k = len(candidates)
    if k > powerset_cap:
        raise CapExceeded(f"separation over {k} candidate pairs exceeds cap {powerset_cap}")
    bit_of = {unpair(p): i for i, p in enumerate(candidates)}
    layout = _bit_layout(family)
    tests = []  # per (A, m): its candidate bit, and the union-base mask of ((A,m),(A,b))
    for a, (offset, bit) in zip(family.members.children, layout):
        enc = _tagged_pairs(a).enc
        for m in family.union.children:
            needed = [enc.get((m, b)) for b in a.children]
            if None not in needed:  # m outside A: no Q in Q_S holds these pairs
                tests.append((1 << bit_of[a, m], _mask(needed, offset, bit)))
    valid_masks = set()
    for combo in itertools.product(*_pick_masks(layout, qs.picks)):
        present = sum(combo)  # the pairs of one Q, as union-base bits
        valid_masks.add(sum(chosen for chosen, needed in tests if needed & present == needed))

    found = []
    for mask in range(1 << k):
        if mask in valid_masks:
            graph = make_set(
                candidates[i] for i in range(k) if mask >> i & 1
            )
            found.append(ChoiceFunction(graph))
    return tuple(sorted(found, key=lambda cf: canonical_key(cf.graph)))


def theorem4_order_from_choice(a: HfSet, f: ChoiceFunction) -> Relation:
    """The order a choice function induces on one member: the chosen element
    below everything, all else incomparable."""
    m = f(a)
    pairs = [ordered_pair(x, x) for x in a.children]
    pairs.extend(ordered_pair(m, b) for b in a.children)
    return relation_over(a, make_set(pairs))


def phi3_holds(r: Relation, a: HfSet, f: ChoiceFunction) -> bool:
    """Is ``r`` exactly the identity plus rows from the chosen element?"""
    m = f(a)
    index = {e: i for i, e in enumerate(r.elements)}
    if r.carrier != a:
        return False
    for x in a.children:
        for y in a.children:
            related = bool(r.rows[index[x]] >> index[y] & 1)
            if related != (x == y or x == m):
                return False
    return True


@dataclass(frozen=True)
class PipelineReport:
    """Flat, serialization-ready summary of one pipeline run; ``qs`` and
    ``fcs`` carry the Q_S (as per-member picks, no Q built) and F_c it built
    and stay out of :meth:`to_dict`."""

    variant: str
    kind: str
    family: str
    u1_size: int
    u2_base_size: int
    u2_size: int
    qs_size: int
    fc_size: int
    q_s_empty: bool
    f_c_all_valid: bool
    witnesses: dict
    qs: QSet = field(repr=False)
    fcs: tuple = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "kind": self.kind,
            "family": self.family,
            "u1_size": self.u1_size,
            "u2_base_size": self.u2_base_size,
            "u2_size": self.u2_size,
            "qs_size": self.qs_size,
            "fc_size": self.fc_size,
            "q_s_empty": self.q_s_empty,
            "f_c_all_valid": self.f_c_all_valid,
            "witnesses": self.witnesses,
        }


def _first_q(qs: QSet) -> HfSet:
    """The canonically first Q of a nonempty Q_S, built alone.

    All Q's share one rank, so the first has the fewest pairs, and for
    equal-size sets the canonically smaller one holds the least element of
    the symmetric difference.  Members' pairs are disjoint, so the first Q
    takes from each member the canonically least of its smallest orders.
    """
    parts = (
        min((pairs for pairs, _ in member_picks),
            key=lambda pairs: (len(pairs), tuple(map(canonical_key, pairs))))
        for member_picks in qs.picks
    )
    return make_set(p for pairs in parts for p in pairs)


def run_pipeline(family: Family, variant: U2Variant, kind: OrderKind,
                 powerset_cap: int = DEFAULT_POWERSET_CAP,
                 product_cap: int = DEFAULT_PRODUCT_CAP) -> PipelineReport:
    """Run the whole construction and report sizes and witnesses.

    Q_S is built once and F_c taken from it by least elements; of the Q's
    only the witness is built as a set.  U1 and U2
    are counted.  While no member has more than 3 elements (U1 at most 2^9
    sets per member) U1 is also built and must match; it is built in mask
    coordinates (:func:`_u1_masks`), each subset enumerated and deduplicated,
    and nothing is kept.
    """
    u1_size = _u1_size(family, powerset_cap)
    if all(len(a) <= 3 for a in family.members.children):
        built = len(_u1_masks(family)[1])
        if built != u1_size:
            raise CrossCheckFailed(f"counted |U1| {u1_size} != built |U1| {built}")
    u2_base_size, u2_size = _u2_sizes(family, variant)
    qs = build_QS(family, variant, kind, powerset_cap, product_cap)
    fcs = build_Fc(family, qs)
    witnesses = {
        "choice_functions": [hfs_literal(cf.graph) for cf in fcs[:3]],
        "combined_relations": [hfs_literal(_first_q(qs))] if len(qs) else [],
    }
    return PipelineReport(
        variant=variant.value,
        kind=kind.value,
        family=hfs_literal(family.members),
        u1_size=u1_size,
        u2_base_size=u2_base_size,
        u2_size=u2_size,
        qs_size=len(qs),
        fc_size=len(fcs),
        q_s_empty=len(qs) == 0,
        f_c_all_valid=all(cf.is_valid_for(family) for cf in fcs),
        witnesses=witnesses,
        qs=qs,
        fcs=fcs,
    )
