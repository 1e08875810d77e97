"""Canonical hereditarily finite sets and the executable set operations.

Every value is an immutable, canonically ordered tree: children are
deduplicated and sorted rank-first (then by cardinality, then lexicographically
on children), so extensional equality coincides with structural equality and
each set has exactly one literal rendering.

Each node keeps its canonical key, a byte string: the field of its rank, the
field of its cardinality, then its children's keys in canonical order.  The
field of v is the one byte v when v < 255, and otherwise the byte 0xFF and
then v as four big-endian bytes (no rank or cardinality reaches 2**32 in
memory).  Sorting sets, and comparing two of them, is thus a bytes
comparison, however deeply the sets nest:

    Lemma.  No key is a proper prefix of another, and two keys compare
    bytewise as their sets do canonically: by rank, then by cardinality,
    then lexicographically on their children.

    Proof, by induction on the larger rank.  A field's first byte tells its
    length, so no field is a proper prefix of another, and fields compare
    bytewise as their values do: values below 255 are single bytes below
    0xFF, and larger ones share the byte 0xFF and a fixed width of
    big-endian digits.  A key therefore reads back uniquely: two fields,
    then as many keys as the second field says, none of them a proper
    prefix of another by induction; so no key is a proper prefix of
    another, and distinct sets have distinct keys.  Let s and t be
    distinct sets.  If their ranks differ, the two rank fields differ, and
    at a byte inside both, which orders s and t by rank; so too for
    cardinality.  Otherwise their children first differ at some index i.
    The bytes before the i-th children's keys agree, and those two keys
    differ at a byte inside both, which orders them as the i-th children
    are ordered.

While every rank and cardinality stays below 255, a key holds two bytes per
node of the set's unrolled tree, where a shared subset counts once for each
place it occurs: as many bytes as the literal has braces.  Sets with heavy
sharing cost memory exponential in their size: ``von_neumann(n)`` unrolls to
2**n nodes, so its key is 2**(n + 1) bytes, 2 MB for n = 20.

Nodes are hash-consed through a weak intern table keyed by the frozenset of
their children's ids, so two live sets with equal content are one object.
The table key is sound because every set comes from the table: by induction
on rank, equal children are the same objects, so equal sets have equal
table keys.  An entry's node holds its children, so their ids cannot be
reused while the entry lives; a node's entry is dropped when the node dies,
and an entry whose weak reference already reads None is overwritten.  The
key ignores order and duplicates, as a set does, so ``make_set`` looks its
elements up before it deduplicates (by identity) or sorts them: a set that
exists already costs one frozenset of ids and one lookup.  Building a node
hashes only the ids, never a child's ``__hash__``.  A small frozenset takes
about 200 bytes more than a tuple of the same ids; a sorted tuple of ids
would be as small, but sorting the ids on every call made new nodes
slower.  Equality stays extensional: ``==`` compares content and agrees
with ``is``.  A node's hash is computed on its first ``__hash__``, so sets
never hashed (most candidates of a scan) skip it.  ``ordered_pair`` builds
its nodes directly: {x} sorts before {x,y}, and one key comparison orders
x, y.

Each node renders its literal once and keeps the text, so a subset shared by
many sets (a tagged pair inside every relation of Q_S, say) is printed once
per process however often it is reached.

Subsets of one base are ordered without comparing canonical keys
(:func:`subset_order`, which :func:`subsets_of` builds from).  A subset of
an n-element base is an n-bit mask over its children, the first child the
most significant bit.  Subsets of a canonically sorted base compare first
by rank, then by size, then lexicographically on their children; position
order on the base is canonical order, and a subset's rank is one more than
the rank of its last child, the child of its lowest set bit.  For equal
rank and size, lexicographic order on children is mask order, reversed:

    Lemma.  Let S and T be distinct subsets of equal size, and p the
    smallest position in exactly one of them.  Below p they pick the same
    children, so their sorted children first differ at the child of p, and
    the subset holding p is canonically first.  Position p is the highest
    differing bit, so that subset has the larger mask.

Ordering by the integer key (1 + rank of the last picked child, size,
-mask), with (0, 0, 0) for the empty set, is thus canonical order.

The literal grammar is ``set := '{' (set (',' set)*)? '}'`` with insignificant
whitespace, nested at most ``MAX_LITERAL_DEPTH`` braces deep.  The empty set
prints as ``{}``; emission always uses canonical child order.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from typing import Iterable, NamedTuple

from .errors import CapExceeded, NotAPair, ParseError

__all__ = [
    "DEFAULT_POWERSET_CAP",
    "EMPTY",
    "MAX_LITERAL_DEPTH",
    "HfSet",
    "OrderedPairView",
    "canonical_key",
    "cartesian",
    "hfs_literal",
    "is_member",
    "iter_hfs_by_rank",
    "make_set",
    "mask_selector",
    "ordered_pair",
    "parse_hfs",
    "powerset",
    "subset_order",
    "subsets_of",
    "union_family",
    "unpair",
    "von_neumann",
]

DEFAULT_POWERSET_CAP = 20
# Parsed literals nest at most this deep.  Deeper sets would outrun the
# interpreter's recursion limit in the parser, the printer and ``__hash__``.
# Comparing canonical keys does not recurse: each key is one byte string.
MAX_LITERAL_DEPTH = 256


class HfSet:
    """A hereditarily finite set in canonical form.

    ``children`` is the tuple of member sets, duplicate-free and sorted
    canonically (:func:`canonical_key`: rank first, then cardinality, then
    children); ``rank`` is the nesting depth (0 for the empty set).  The key
    is a byte string built with the node (see the module docstring), so
    ``<`` and sorting compare bytes; it is as long as the set's unrolled
    tree, about the size of its literal.  The hash is not the key's: it
    combines the rank, the cardinality and the children's hashes, so it does
    not depend on ``PYTHONHASHSEED``.
    Instances come from the module factories (:func:`make_set`,
    :func:`parse_hfs`, the set-forming operations), never from direct
    construction, and are immutable value objects.
    """

    __slots__ = ("children", "rank", "_hash", "_key", "_members", "_pair", "_literal",
                 "__weakref__")

    def __init__(self, children, rank, key):
        self.children = children
        self.rank = rank
        self._key = key
        self._hash = None     # lazy hash, computed on the first __hash__
        self._members = None  # lazy frozenset of children
        self._pair = None     # lazy ordered-pair decode: view or _NOT_A_PAIR
        self._literal = None  # lazy canonical literal text

    # Equality is extensional.  Equal sets are one object, so a comparison
    # short-circuits on identity; the fallback compares content all the same.
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HfSet):
            return NotImplemented
        return hash(self) == hash(other) and self.children == other.children

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, len(self.children)) + tuple(map(hash, self.children)))
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __len__(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:
        return hfs_literal(self)


class OrderedPairView(NamedTuple):
    """Decoded view of an encoded ordered pair."""

    first: HfSet
    second: HfSet


_NOT_A_PAIR = object()


class _InternRef(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


# The frozenset of the children's ids -> weak reference to their node (see
# the module docstring).
_intern: "dict[frozenset, _InternRef]" = {}


def _forget(ref: _InternRef, table: dict = _intern) -> None:
    """Drop a dead node's entry, unless a newer node has taken the key.

    The table is bound as a default, so the callback reads no module global:
    at shutdown the interpreter may clear those before the last nodes die.
    """
    if table.get(ref.key) is ref:
        del table[ref.key]


# Opaque sort key realizing the canonical total order on sets.
canonical_key = operator.attrgetter("_key")


def _field(v: int) -> bytes:
    """One byte for v < 255, else 0xFF and then v as four big-endian bytes."""
    return v.to_bytes(1, "big") if v < 255 else b"\xff" + v.to_bytes(4, "big")


def _node(children: tuple, key: frozenset | None = None) -> HfSet:
    """Intern a children tuple that is already sorted and duplicate-free;
    ``key``, when given, is its table key, already looked up and missed."""
    if key is None:
        key = frozenset(map(id, children))
        ref = _intern.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
    n = len(children)
    # Children are sorted rank-first, so the last one has the largest rank.
    rank = 1 + children[-1].rank if n else 0
    node = HfSet(children, rank, _field(rank) + _field(n) + b"".join(map(canonical_key, children)))
    ref = _InternRef(node, _forget)
    ref.key = key
    _intern[key] = ref
    return node


def make_set(elems: Iterable[HfSet] = ()) -> HfSet:
    """The set of the given elements, deduplicated and canonically ordered."""
    elems = tuple(elems)
    # The table key ignores order and duplicates, so an existing node is
    # found before anything is sorted (see the module docstring).
    key = frozenset(map(id, elems))
    ref = _intern.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    if len(key) < len(elems):
        # Equal sets are one object, so identity deduplicates.
        elems = {id(x): x for x in elems}.values()
    return _node(tuple(sorted(elems, key=canonical_key)), key)


EMPTY = make_set(())


def _members(a: HfSet) -> frozenset:
    m = a._members
    if m is None:
        m = frozenset(a.children)
        a._members = m
    return m


def is_member(x: HfSet, a: HfSet) -> bool:
    """Membership x in a."""
    return x in _members(a)


def union_family(s: HfSet) -> HfSet:
    """Union of the members of ``s`` (sets of sets)."""
    return make_set(x for child in s.children for x in child.children)


def subset_order(base: HfSet, masks: Iterable[int]) -> list:
    """The distinct masks, in the canonical order of the subsets of ``base``
    they pick.

    Each mask is an n-bit mask over ``base.children``, the first child the
    most significant bit.  They are ordered by the integer key (1 + rank of
    the last picked child, size, -mask), never by comparing canonical keys
    (see the module docstring).
    """
    n = len(base.children)
    # The lowest set bit of a nonempty mask picks its last child.
    last_rank = {1 << (n - 1 - i): 1 + c.rank for i, c in enumerate(base.children)}
    keys = {(last_rank[m & -m], m.bit_count(), -m) if m else (0, 0, 0) for m in masks}
    return [-m for _, _, m in sorted(keys)]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_selector(mask: int, n: int) -> bytes:
    """One byte per child of an n-element base, 1 where ``mask`` picks it and
    0 elsewhere, first child first: a selector for ``itertools.compress``."""
    return format(mask, "b").zfill(n).encode().translate(_BIT_BYTES)


def subsets_of(base: HfSet, masks: Iterable[int]) -> HfSet:
    """The set of the subsets of ``base`` picked by ``masks``.

    Each mask is an n-bit mask over ``base.children``, the first child the
    most significant bit; equal masks give one subset.  The subsets come in
    :func:`subset_order`.  ValueError if a mask is not an int, is negative
    or is at least ``1 << len(base)``.
    """
    children = base.children
    n = len(children)
    masks = list(masks)
    bad = [m for m in masks if not (isinstance(m, int) and 0 <= m < 1 << n)]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a mask of {n} bits")
    # A subsequence of a sorted tuple is sorted.
    return _node(tuple(_node(tuple(itertools.compress(children, mask_selector(m, n))))
                       for m in subset_order(base, masks)))


def powerset(a: HfSet, cap: int = DEFAULT_POWERSET_CAP) -> HfSet:
    """The set of all subsets of ``a``.

    Guarded: |a| must not exceed ``cap`` (2**cap subsets would follow).
    """
    n = len(a.children)
    if n > cap:
        raise CapExceeded(f"powerset of {n} elements exceeds cap {cap}")
    return subsets_of(a, range(1 << n))


def ordered_pair(x: HfSet, y: HfSet) -> HfSet:
    """The pair-set encoding {{x},{x,y}}; collapses to {{x}} when x = y."""
    sx = _node((x,))
    if x is y:
        return _node((sx,))
    return _node((sx, _node((x, y) if x._key < y._key else (y, x))))


def unpair(p: HfSet) -> OrderedPairView:
    """Decode an encoded ordered pair; NotAPair if ``p`` has no such shape."""
    view = p._pair
    if view is None:
        view = _decode_pair(p)
        p._pair = view
    if view is _NOT_A_PAIR:
        raise NotAPair(f"{p!r} is not an ordered-pair encoding")
    return view


def _decode_pair(p: HfSet):
    cs = p.children
    if len(cs) == 1:
        (inner,) = cs
        if len(inner.children) == 1:
            x = inner.children[0]
            return OrderedPairView(x, x)
        return _NOT_A_PAIR
    if len(cs) == 2:
        # Canonical order puts {x} before {x,y}: equal or lower rank, lower
        # cardinality.
        small, big = cs
        if len(small.children) == 1 and len(big.children) == 2:
            x = small.children[0]
            u, v = big.children
            if x == u:
                return OrderedPairView(x, v)
            if x == v:
                return OrderedPairView(x, u)
        return _NOT_A_PAIR
    return _NOT_A_PAIR


def cartesian(a: HfSet, b: HfSet) -> HfSet:
    """The set of encoded pairs (x, y) for x in a, y in b."""
    return make_set(ordered_pair(x, y) for x in a.children for y in b.children)


def hfs_literal(s: HfSet) -> str:
    """Canonical literal text for ``s``, rendered on the first call and kept
    on the node."""
    text = s._literal
    if text is None:
        text = "{" + ",".join(map(hfs_literal, s.children)) + "}"
        s._literal = text
    return text


def parse_hfs(text: str) -> HfSet:
    """Parse a set literal; whitespace is insignificant."""
    value, pos = _parse_set(text, _skip_ws(text, 0), 1)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after set literal", pos)
    return value


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_set(text: str, pos: int, depth: int) -> tuple[HfSet, int]:
    if pos >= len(text) or text[pos] != "{":
        raise ParseError("expected '{'", pos)
    if depth > MAX_LITERAL_DEPTH:
        raise ParseError(f"set literal nested deeper than {MAX_LITERAL_DEPTH}", pos)
    pos = _skip_ws(text, pos + 1)
    elems = []
    if pos < len(text) and text[pos] == "}":
        return make_set(elems), pos + 1
    while True:
        if pos >= len(text):
            raise ParseError("unterminated set literal", pos)
        elem, pos = _parse_set(text, pos, depth + 1)
        elems.append(elem)
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise ParseError("unterminated set literal", pos)
        if text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
            continue
        if text[pos] == "}":
            return make_set(elems), pos + 1
        raise ParseError("expected ',' or '}'", pos)


_naturals: list[HfSet] = [EMPTY]


def von_neumann(n: int) -> HfSet:
    """The n-th von Neumann natural: 0 = {} and k+1 = k U {k}."""
    if n < 0:
        raise ValueError("natural expected")
    while len(_naturals) <= n:
        # Ranks strictly increase along the naturals, so the prefix tuple is
        # already in canonical order.
        _naturals.append(_node(tuple(_naturals)))
    return _naturals[n]


def iter_hfs_by_rank(max_rank: int, cap: int = DEFAULT_POWERSET_CAP) -> list[HfSet]:
    """All sets of rank <= max_rank, in canonical order."""
    universe = [EMPTY]
    for _ in range(max_rank):
        universe = list(powerset(make_set(universe), cap=cap).children)
    return universe
