"""Kernel tests: canonical form, pairs, powersets, literals, interning."""

import gc
import itertools
import json
import struct
import weakref

import pytest
from hypothesis import given, strategies as st

from helpers import DISJOINT4, UNIVERSE4, UNIVERSE5, frozen_pair, frozen_powerset, to_frozen
from zflab import hfs
from zflab.errors import CapExceeded, NotAPair, ParseError
from zflab.hfs import (
    EMPTY,
    MAX_LITERAL_DEPTH,
    HfSet,
    canonical_key,
    cartesian,
    hfs_literal,
    is_member,
    iter_hfs_by_rank,
    make_set,
    ordered_pair,
    parse_hfs,
    powerset,
    subset_order,
    subsets_of,
    union_family,
    unpair,
    von_neumann,
)


def test_empty_set_basics():
    assert len(EMPTY) == 0
    assert EMPTY.rank == 0
    assert hfs_literal(EMPTY) == "{}"
    assert make_set(()) is EMPTY


def test_extensional_dedup_and_interning():
    a = make_set((EMPTY, make_set((EMPTY,)), EMPTY))
    b = make_set((make_set((EMPTY,)), EMPTY))
    assert a is b
    assert len(a) == 2


def test_rank_is_one_plus_max_child_rank():
    s1 = make_set((EMPTY,))
    s2 = make_set((s1,))
    assert s1.rank == 1
    assert s2.rank == 2
    assert make_set((EMPTY, s2)).rank == 3


def test_von_neumann_numerals():
    for n in range(6):
        v = von_neumann(n)
        assert len(v) == n
        assert v.rank == n
    three = von_neumann(3)
    assert is_member(von_neumann(2), three)
    assert not is_member(three, three)


def test_literal_roundtrip():
    for s in UNIVERSE5 + [von_neumann(4), ordered_pair(UNIVERSE4[1], UNIVERSE4[3])]:
        assert parse_hfs(hfs_literal(s)) is s


@pytest.mark.parametrize("bad", ["", "{", "{}}", "{},{}", "a", "{{}", "{,}"])
def test_parse_rejects_malformed_literals(bad):
    with pytest.raises(ParseError):
        parse_hfs(bad)


@pytest.mark.parametrize("text,offset", [("{", 1), ("{ ", 2), ("{{", 2), ("{{}", 3),
                                         ("{{},", 4)])
def test_a_literal_that_ends_inside_a_set_is_unterminated(text, offset):
    with pytest.raises(ParseError) as err:
        parse_hfs(text)
    assert str(err.value) == f"unterminated set literal (at offset {offset})"


def test_set_literals_hold_only_braces_and_commas():
    # So a literal is its own JSON string body: no character needs escaping.
    texts = [hfs_literal(s) for s in iter_hfs_by_rank(3)]
    texts += [hfs_literal(parse_hfs(text)) for text in
              (" { } ", "{\n{ },\t{{}} }", "{ {{}} , { } ,{{{}}}}\r\n")]
    assert len(texts) == 16 + 3
    for text in texts:
        assert set(text) <= set("{},")
        assert json.dumps(text) == '"' + text + '"'


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse_hfs("{{},}")
    assert "offset" in str(err.value)


def nested(depth: int) -> str:
    """The literal of ``depth`` nested braces: {{...{}...}}."""
    return "{" * depth + "}" * depth


def test_parse_accepts_literals_nested_to_the_bound():
    s = parse_hfs(nested(MAX_LITERAL_DEPTH))
    assert s.rank == MAX_LITERAL_DEPTH - 1
    assert hfs_literal(s) == nested(MAX_LITERAL_DEPTH)


@pytest.mark.parametrize("depth", [MAX_LITERAL_DEPTH + 1, 3000])
def test_parse_rejects_literals_nested_past_the_bound(depth):
    with pytest.raises(ParseError) as err:
        parse_hfs(nested(depth))
    assert err.value.position == MAX_LITERAL_DEPTH


def test_canonical_order_is_total_and_consistent():
    atoms = iter_hfs_by_rank(3)
    for a in atoms:
        assert not a < a
    for a, b in itertools.combinations(atoms, 2):
        assert (a < b) != (b < a)
        assert (a < b) == (canonical_key(a) < canonical_key(b))
    ordered = sorted(atoms, key=canonical_key)
    for x, y in zip(ordered, ordered[1:]):
        assert x < y


def test_children_are_sorted_canonically():
    s = make_set(reversed(UNIVERSE5))
    assert list(s.children) == sorted(s.children, key=canonical_key)


def test_pair_roundtrip_exhaustive_rank2():
    for x in UNIVERSE4:
        for y in UNIVERSE4:
            p = unpair(ordered_pair(x, y))
            assert p.first is x and p.second is y


def test_pair_matches_frozenset_model():
    for x in UNIVERSE4:
        for y in UNIVERSE4:
            assert to_frozen(ordered_pair(x, y)) == frozen_pair(to_frozen(x), to_frozen(y))


def test_diagonal_pair_collapses_to_singleton():
    x = UNIVERSE4[1]
    p = ordered_pair(x, x)
    assert len(p) == 1
    assert unpair(p).second is x


@pytest.mark.parametrize("junk", [
    EMPTY,
    make_set((EMPTY, make_set((EMPTY,)), make_set((make_set((EMPTY,)),)))),
    von_neumann(3),
])
def test_unpair_rejects_non_pairs(junk):
    with pytest.raises(NotAPair):
        unpair(junk)


def test_powerset_sizes_and_membership():
    elems = iter_hfs_by_rank(3)[:6]
    for n in range(7):
        carrier = make_set(elems[:n])
        ps = powerset(carrier)
        assert len(ps) == 2 ** n
        assert is_member(EMPTY, ps)
        assert is_member(carrier, ps)
    assert to_frozen(powerset(make_set(elems[:3]))) == frozen_powerset(
        to_frozen(make_set(elems[:3]))
    )


def test_powerset_cap():
    with pytest.raises(CapExceeded):
        powerset(make_set(iter_hfs_by_rank(3)[:5]), cap=4)


# --- subsets ordered by mask --------------------------------------------------

RANK3 = iter_hfs_by_rank(3)
# Ranks 0-3, and rank 5: the tagged pairs (A, x) of a rank-3 member A.
MIXED_RANKS = RANK3 + [ordered_pair(make_set(RANK3[1:4]), x) for x in RANK3[1:4]]


def make_set_powerset(a: HfSet) -> HfSet:
    """The powerset route that ``subsets_of`` replaced: every subset, then
    one canonical-key sort."""
    n = len(a.children)
    return make_set(
        make_set(a.children[i] for i in range(n) if mask >> i & 1)
        for mask in range(1 << n)
    )


def mask_of(n: int, *positions: int) -> int:
    """The mask over an n-element base that picks these positions: the
    first child is the most significant bit."""
    return sum(1 << (n - 1 - i) for i in positions)


def positions_of(n: int, mask: int) -> tuple:
    return tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)


def position_key_order(base: HfSet, index_sets) -> list:
    """The distinct position tuples, ordered by the key ``subset_order``
    used before masks: (1 + rank of the last position, size, positions)."""
    children = base.children
    keys = {(1 + children[s[-1]].rank, len(s), s) if s else (0, 0, s) for s in index_sets}
    return [s for _, _, s in sorted(keys)]


@st.composite
def bases_and_masks(draw):
    base = make_set(draw(st.lists(st.sampled_from(MIXED_RANKS), max_size=8)))
    n = len(base)
    singleton = st.integers(0, n - 1).map(lambda i: mask_of(n, i)) if n else st.just(0)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1) | singleton | st.just(0), max_size=10))
    masks += masks[:draw(st.integers(0, len(masks)))]  # repeated masks
    return base, draw(st.permutations(masks))


@given(bases_and_masks())
def test_subsets_of_matches_make_set(case):
    base, masks = case
    n = len(base)
    expected = make_set(make_set(base.children[i] for i in positions_of(n, m)) for m in masks)
    assert subsets_of(base, masks) is expected


@given(bases_and_masks())
def test_subset_order_matches_the_position_tuple_key(case):
    base, masks = case
    n = len(base)
    assert ([positions_of(n, m) for m in subset_order(base, masks)]
            == position_key_order(base, [positions_of(n, m) for m in masks]))


def test_subsets_of_orders_empty_singletons_and_repeats():
    base = make_set(MIXED_RANKS)
    n = len(base)
    sets = [(18,), (), (0, 18), (3,), (), (0,), (18,), (1, 2, 3)]
    masks = [mask_of(n, *s) for s in sets]
    expected = make_set(make_set(base.children[i] for i in s) for s in sets)
    assert subsets_of(base, masks) is expected
    assert len(expected) == 6
    assert subsets_of(base, []) is EMPTY


@pytest.mark.parametrize("bad", [-1, -(1 << 5), 1 << 5, (1 << 5) + 1, 1 << 70,
                                 1.0, "3", (0, 1), None])
def test_subsets_of_rejects_masks_that_are_negative_too_wide_or_not_ints(bad):
    base = make_set(RANK3[:5])
    with pytest.raises(ValueError):
        subsets_of(base, [mask_of(5, 0, 1), bad])


def test_powerset_is_the_make_set_route_exhaustive():
    for k in range(5):
        for elems in itertools.combinations(RANK3, k):
            a = make_set(elems)
            assert powerset(a) is make_set_powerset(a)
            if k <= 3:
                square = cartesian(a, a)
                assert powerset(square) is make_set_powerset(square)


def test_cartesian_size_and_decode():
    a = make_set(UNIVERSE4[:3])
    b = make_set(UNIVERSE4[1:])
    prod = cartesian(a, b)
    assert len(prod) == 9
    for p in prod.children:
        view = unpair(p)
        assert is_member(view.first, a) and is_member(view.second, b)


def test_union_family_matches_model():
    fam = make_set((make_set(UNIVERSE4[:2]), make_set(UNIVERSE4[1:3]), EMPTY))
    u = union_family(fam)
    expected = frozenset().union(*(to_frozen(m) for m in fam.children))
    assert to_frozen(u) == expected


def test_iter_hfs_by_rank_counts():
    assert len(iter_hfs_by_rank(0)) == 1
    assert len(iter_hfs_by_rank(1)) == 2
    assert len(iter_hfs_by_rank(2)) == 4
    assert len(iter_hfs_by_rank(3)) == 16
    assert iter_hfs_by_rank(2) == UNIVERSE4


@given(st.lists(st.sampled_from(UNIVERSE4), max_size=8))
def test_make_set_ignores_order_and_repetition(elems):
    forward = make_set(elems)
    assert make_set(reversed(elems)) is forward
    assert make_set(elems + elems) is forward
    assert to_frozen(forward) == frozenset(to_frozen(e) for e in elems)


@given(st.lists(st.sampled_from(iter_hfs_by_rank(3)), min_size=2, max_size=6))
def test_equality_agrees_with_frozenset_model(elems):
    a = make_set(elems[: len(elems) // 2])
    b = make_set(elems[len(elems) // 2 :])
    assert (a == b) == (to_frozen(a) == to_frozen(b))


def test_membership_agrees_with_children():
    s = make_set(UNIVERSE4[:3])
    for x in UNIVERSE4:
        assert is_member(x, s) == (x in s.children)


# --- the literal memo -----------------------------------------------------------

def reference_literal(s: HfSet) -> str:
    """The uncached recursive renderer that the memo replaces."""
    return "{" + ",".join(reference_literal(c) for c in s.children) + "}"


def subtree(s: HfSet) -> list:
    """Every distinct node of ``s``, ``s`` included."""
    seen = {}
    stack = [s]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


def forget_literals(nodes) -> None:
    """Put ``nodes`` back to the cold state, as if never rendered."""
    for node in nodes:
        node._literal = None


hf_sets = st.recursive(
    st.just(EMPTY),
    lambda inner: st.lists(inner, max_size=4).map(make_set),
    max_leaves=24,
)

RENDER_ORDERS = {
    "parents_first": lambda nodes, rnd: sorted(nodes, key=canonical_key, reverse=True),
    "children_first": lambda nodes, rnd: sorted(nodes, key=canonical_key),
    "shuffled": lambda nodes, rnd: rnd.sample(nodes, len(nodes)),
}


@pytest.mark.parametrize("order", sorted(RENDER_ORDERS))
@given(s=hf_sets, rnd=st.randoms(use_true_random=False))
def test_cached_literal_matches_the_uncached_renderer(order, s, rnd):
    nodes = subtree(s)
    forget_literals(nodes)
    for node in RENDER_ORDERS[order](nodes, rnd):
        hfs_literal(node)
    for node in nodes:
        text = hfs_literal(node)
        assert text == reference_literal(node)
        assert hfs_literal(node) is text
        assert repr(node) is text


def test_literal_roundtrip_with_a_warm_cache_exhaustive_rank3():
    universe = iter_hfs_by_rank(3)
    sets = universe + list(cartesian(make_set(universe), make_set(universe)).children)
    for s in sets:
        hfs_literal(s)
    for s in sets:
        assert hfs_literal(s) == reference_literal(s)
        assert parse_hfs(hfs_literal(s)) is s


def test_literal_nested_to_the_bound_renders_the_same_cold_and_warm():
    s = parse_hfs(nested(MAX_LITERAL_DEPTH))
    chain = subtree(s)
    assert len(chain) == MAX_LITERAL_DEPTH
    forget_literals(chain)
    cold = hfs_literal(s)
    assert cold == nested(MAX_LITERAL_DEPTH) == reference_literal(s)
    assert hfs_literal(s) is cold
    forget_literals(chain)
    for node in sorted(chain, key=canonical_key):
        hfs_literal(node)
    assert hfs_literal(s) == cold


def test_each_node_is_rendered_once(monkeypatch):
    # A relation whose pairs share their components: cold, the renderer is
    # entered once for the root and once per child of each distinct node;
    # warm, once.
    u = iter_hfs_by_rank(2)
    s = make_set(ordered_pair(x, y) for x in u for y in u)
    nodes = subtree(s)
    forget_literals(nodes)
    calls = []
    render = hfs.hfs_literal

    def counted(node):
        calls.append(node)
        return render(node)

    monkeypatch.setattr(hfs, "hfs_literal", counted)
    hfs.hfs_literal(s)
    assert len(calls) == 1 + sum(len(node.children) for node in nodes)
    calls.clear()
    hfs.hfs_literal(s)
    assert calls == [s]


# --- interning by the children's identities -----------------------------------

# Nested tuples describe sets without holding any, so a test can drop every
# node it built and build the same sets again later.
shapes = st.recursive(
    st.just(()),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


def build(shape) -> HfSet:
    return make_set(build(child) for child in shape)


@given(originals=st.lists(shapes, min_size=1, max_size=4),
       others=st.lists(shapes, max_size=4))
def test_interning_survives_dropped_nodes_and_reused_ids(originals, others):
    literals = [reference_literal(build(shape)) for shape in originals]
    gc.collect()
    # New nodes take the memory, and with it the ids, of the dropped ones.
    unrelated = [build(shape) for shape in others]
    unrelated += [ordered_pair(x, y) for x in unrelated for y in unrelated]
    rebuilt = [build(shape) for shape in originals]
    assert [reference_literal(s) for s in rebuilt] == literals
    live = {}
    for s in rebuilt + unrelated:
        for node in subtree(s):
            live[id(node)] = node
    nodes = list(live.values())
    for a in nodes:
        assert parse_hfs(hfs_literal(a)) is a
        for b in nodes:
            assert (a == b) == (a is b)


def test_intern_table_shrinks_back_after_a_dropped_powerset():
    base = make_set(iter_hfs_by_rank(3))
    assert len(base) == 16
    gc.collect()
    baseline = len(hfs._intern)
    p = powerset(base)
    assert len(p) == 2 ** 16
    assert len(hfs._intern) > baseline + 2 ** 15
    del p
    gc.collect()
    assert len(hfs._intern) == baseline
    assert all(ref() is not None for ref in hfs._intern.values())


@given(shape=shapes, data=st.data())
def test_make_set_finds_one_node_for_any_order_duplicates_or_generator(shape, data):
    # The table key ignores order and duplicates, so every spelling of the
    # same children finds the node that the canonical tuple gives.
    children = [build(child) for child in shape]
    canonical = tuple(sorted({id(c): c for c in children}.values(), key=canonical_key))
    node = make_set(canonical)
    assert node.children == canonical
    repeated = data.draw(st.lists(st.sampled_from(children), max_size=6)) if children else []
    spelled = data.draw(st.permutations(children + repeated))
    assert make_set(spelled) is node
    assert make_set(tuple(spelled)) is node
    assert make_set(iter(spelled)) is node
    assert make_set(c for c in reversed(spelled)) is node
    assert hfs._node(canonical) is node


@given(shape=shapes)
def test_a_dead_node_is_rebuilt_once_with_one_live_entry(shape):
    children = [build(child) for child in shape]
    # A tag, nested until no live node has these children, makes the node new.
    tag = EMPTY
    while frozenset(map(id, children + [tag])) in hfs._intern:
        tag = make_set((tag,))
    children.append(tag)
    node = make_set(children)
    dead = weakref.ref(node)
    del node
    gc.collect()
    assert dead() is None
    before = len(hfs._intern)
    gc.disable()
    try:
        # Reversed and with every child twice: the new node is canonical all
        # the same.
        again = make_set(children[::-1] + children)
        after = len(hfs._intern)
    finally:
        gc.enable()
    assert after == before + 1
    assert again.children == tuple(sorted({id(c): c for c in children}.values(),
                                          key=canonical_key))
    assert [ref for ref in hfs._intern.values() if ref() is again] == [
        hfs._intern[frozenset(map(id, children))]]
    assert make_set(children) is again


# --- the flat canonical key ----------------------------------------------------

def reference_field(v: int) -> bytes:
    """A key field from its definition: the byte v below 255, else the byte
    255 and then v as an unsigned 32-bit big-endian integer."""
    return bytes([v]) if v < 255 else bytes([255]) + struct.pack(">I", v)


def reference_fields(s: HfSet) -> tuple:
    """(rank, canonical key, hash) computed from scratch, rank as one more
    than the largest child rank."""
    fields = [reference_fields(c) for c in s.children]
    rank = 1 + max((r for r, _, _ in fields), default=-1)
    key = reference_field(rank) + reference_field(len(fields)) + b"".join(k for _, k, _ in fields)
    return rank, key, hash((rank, len(fields)) + tuple(h for _, _, h in fields))


def tuple_key(s: HfSet) -> tuple:
    """The nested-tuple key that the flat key replaced: rank, then
    cardinality, then the children's keys."""
    return (s.rank, len(s.children), tuple(map(tuple_key, s.children)))


def assert_tuple_key_order(sets) -> None:
    """On every pair of ``sets``, the flat key orders as the tuple key does,
    and two sets have one key only when they are one object."""
    keyed = [(s, canonical_key(s), tuple_key(s)) for s in sets]
    for a, key_a, ref_a in keyed:
        for b, key_b, ref_b in keyed:
            assert (key_a < key_b) == (ref_a < ref_b)
            assert (key_a == key_b) == (a is b)


RANK3_AND_PAIRS = RANK3 + [ordered_pair(x, y) for x in RANK3 for y in RANK3]


def test_rank_key_and_hash_match_the_reference_on_rank3_sets_and_pairs():
    assert len(RANK3_AND_PAIRS) == 16 + 16 * 16
    for s in RANK3_AND_PAIRS:
        assert (s.rank, canonical_key(s), hash(s)) == reference_fields(s)
        assert len(canonical_key(s)) == 2 * hfs_literal(s).count("{")
        keys = [reference_fields(c)[1] for c in s.children]
        assert keys == sorted(set(keys))


def test_the_flat_key_orders_rank3_sets_and_pairs_as_the_tuple_key():
    assert_tuple_key_order(RANK3_AND_PAIRS)


def test_the_flat_key_orders_tagged_pairs_of_disjoint_members_as_the_tuple_key():
    # The tags (A, x) of four disjoint members, and the pairs of tags that
    # the relations of Q_S hold.
    family = [parse_hfs(text) for text in DISJOINT4]
    tags = [ordered_pair(a, x) for a in family for x in a.children]
    assert len(tags) == 9
    assert_tuple_key_order(tags + [ordered_pair(s, t) for s in tags for t in tags])


@given(st.lists(hf_sets, max_size=8))
def test_the_flat_key_orders_drawn_sets_as_the_tuple_key(sets):
    assert_tuple_key_order(sets + [c for s in sets for c in s.children])


def test_long_cardinality_fields_order_as_the_tuple_key():
    # Each set holds the last of the 512 subsets of a 9-element base, so all
    # have one rank and differ in cardinality or children.
    subsets = powerset(make_set(RANK3[:9])).children
    assert len(subsets) == 512
    sets = [make_set(subsets[-k:]) for k in (254, 255, 256, 257, 512)]
    sets += [make_set(subsets[:k - 1] + subsets[-1:]) for k in (255, 256, 257)]
    assert {s.rank for s in sets} == {1 + subsets[-1].rank}
    assert sorted({len(s) for s in sets}) == [254, 255, 256, 257, 512]
    for s in sets:
        assert canonical_key(s) == reference_fields(s)[1]
    assert_tuple_key_order(sets)


def test_long_rank_fields_order_as_the_tuple_key():
    chain = [EMPTY]
    while len(chain) <= 300:
        chain.append(make_set((chain[-1],)))
    assert [s.rank for s in chain[250:262]] == list(range(250, 262))
    sets = chain[250:262] + [make_set((EMPTY, s)) for s in chain[250:262]] + chain[-1:]
    for s in sets:
        assert canonical_key(s) == reference_fields(s)[1]
    assert_tuple_key_order(sets)


@given(hf_sets)
def test_a_key_holds_two_bytes_per_brace_of_the_literal(s):
    assert len(canonical_key(s)) == 2 * hfs_literal(s).count("{")


def test_ordered_pair_is_the_pair_set_built_without_make_set(monkeypatch):
    universe = iter_hfs_by_rank(3)
    expected = {(x, y): make_set((make_set((x,)), make_set((x, y))))
                for x in universe for y in universe}
    assert len(expected) == 256
    calls = []
    build = hfs.make_set

    def counted(elems=()):
        calls.append(elems)
        return build(elems)

    monkeypatch.setattr(hfs, "make_set", counted)
    for (x, y), pair in expected.items():
        assert ordered_pair(x, y) is pair
    assert calls == []


def test_hash_of_a_literal_nested_to_the_bound_is_computed_cold_on_first_use():
    # Depth 4 at the core, so the literal nests exactly MAX_LITERAL_DEPTH deep.
    text = "{" * (MAX_LITERAL_DEPTH - 4) + "{{},{{{}}}}" + "}" * (MAX_LITERAL_DEPTH - 4)
    s = parse_hfs(text)
    chain = subtree(s)
    assert max(node.rank for node in chain) == MAX_LITERAL_DEPTH - 1
    for node in chain:
        node._hash = None  # cold, as if never hashed
    table = {s: "deep"}
    assert table[s] == "deep"
    assert s in {EMPTY, s}
    assert hash(s) == reference_fields(s)[2]
