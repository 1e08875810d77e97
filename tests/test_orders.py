"""Order relation tests: properties, kinds, enumeration, lifting."""

import functools
import itertools

import pytest

from helpers import UNIVERSE4, pol_verbatim
from zflab.errors import (
    CapExceeded,
    NoLeast,
    NotLiftShaped,
    NotUniquelySatisfied,
    PairOutOfCarrier,
    UnboundVariable,
)
from zflab.formula import parse_formula
from zflab.hfs import EMPTY, canonical_key, cartesian, make_set, ordered_pair
from zflab import orders
from zflab.orders import (
    OrderKind,
    Relation,
    enumerate_orders,
    least_element,
    least_index,
    lift_order,
    order_from_formula,
    order_rows,
    project_order,
    properties_from_rows,
    relation_over,
    relation_properties,
    satisfies,
    well_order_literal,
)

E, S1, S2, D = UNIVERSE4


def _rel(carrier_elems, pairs):
    return relation_over(
        make_set(carrier_elems),
        make_set(ordered_pair(x, y) for x, y in pairs),
    )


def _chain(elems):
    pairs = [(x, y) for i, x in enumerate(elems) for y in elems[i:]]
    return _rel(elems, pairs)


def test_relation_over_validates_pairs():
    with pytest.raises(PairOutOfCarrier):
        relation_over(make_set((E, S1)), make_set((make_set((E, S1, S2)),)))
    with pytest.raises(PairOutOfCarrier):
        _rel([E, S1], [(E, S2)])


def test_chain_is_well_order():
    r = _chain([E, S1, S2])
    props = relation_properties(r)
    assert props.reflexive and props.antisymmetric
    assert props.transitive and props.total
    assert props.least is E
    assert satisfies(r, OrderKind.WELL_ORDER)
    assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert satisfies(r, OrderKind.UNIQUE_UNIVERSAL)


def test_antichain_with_least_is_pol_not_wellorder():
    elems = [E, S1, S2]
    pairs = [(x, x) for x in elems] + [(E, S1), (E, S2)]
    r = _rel(elems, pairs)
    assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert not satisfies(r, OrderKind.WELL_ORDER)
    assert least_element(r) is E


def test_cycle_is_no_order():
    r = _rel([E, S1], [(E, E), (S1, S1), (E, S1), (S1, E)])
    props = relation_properties(r)
    assert not props.antisymmetric
    for kind in OrderKind:
        assert not satisfies(r, kind)


def test_least_element_requires_exactly_one():
    with pytest.raises(NoLeast):
        least_element(_rel([E, S1], [(E, E), (S1, S1)]))
    both = _rel([E, S1], [(E, E), (S1, S1), (E, S1), (S1, E)])
    with pytest.raises(NoLeast):
        least_element(both)


def test_empty_carrier_conventions():
    r = _rel([], [])
    assert satisfies(r, OrderKind.WELL_ORDER)
    assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert not satisfies(r, OrderKind.UNIQUE_UNIVERSAL)


def test_well_order_literal_agrees_with_fast_form():
    carrier = make_set((E, S1, S2))
    elems = carrier.children
    n = len(elems)
    table = [ordered_pair(x, y) for x in elems for y in elems]
    for mask in range(1 << (n * n)):
        r = relation_over(
            carrier,
            make_set(p for i, p in enumerate(table) if mask >> i & 1),
        )
        assert well_order_literal(r) == satisfies(r, OrderKind.WELL_ORDER)


@pytest.mark.parametrize("n,wo,pol,uu", [
    (0, 1, 1, 0),
    (1, 1, 1, 1),
    (2, 2, 2, 6),
    (3, 6, 9, 147),
])
def test_enumeration_counts(n, wo, pol, uu):
    carrier = make_set(UNIVERSE4[:n])
    assert len(enumerate_orders(carrier, OrderKind.WELL_ORDER)) == wo
    assert len(enumerate_orders(carrier, OrderKind.PARTIAL_ORDER_WITH_LEAST)) == pol
    assert len(enumerate_orders(carrier, OrderKind.UNIQUE_UNIVERSAL)) == uu


def test_enumeration_cross_check_small():
    for n in range(3):
        enumerate_orders(make_set(UNIVERSE4[:n]), OrderKind.WELL_ORDER)


def test_enumeration_cap():
    big = make_set((E, S1, S2, D, make_set((S2,))))
    with pytest.raises(CapExceeded):
        enumerate_orders(big, OrderKind.WELL_ORDER)


def test_kind_implications_on_nonempty_carriers():
    for n in range(1, 4):
        carrier = make_set(UNIVERSE4[:n])
        wo = set(enumerate_orders(carrier, OrderKind.WELL_ORDER))
        pol = set(enumerate_orders(carrier, OrderKind.PARTIAL_ORDER_WITH_LEAST))
        uu = set(enumerate_orders(carrier, OrderKind.UNIQUE_UNIVERSAL))
        assert wo <= pol <= uu


def test_every_enumerated_pol_passes_the_verbatim_check():
    carrier = make_set((E, S1, S2))
    for r in enumerate_orders(carrier, OrderKind.PARTIAL_ORDER_WITH_LEAST):
        assert pol_verbatim(r)


def test_lift_project_roundtrip_preserves_kind():
    carrier = make_set((E, S1))
    for kind in OrderKind:
        for r in enumerate_orders(carrier, kind):
            q = lift_order(r)
            assert satisfies(q, kind)
            back = project_order(q, carrier)
            assert back == r


def test_lift_carrier_mismatch():
    r = _chain([E, S1])
    with pytest.raises(ValueError):
        lift_order(r, make_set((E, S2)))


def test_project_rejects_unlifted_relations():
    r = _chain([E, S1])
    with pytest.raises(NotLiftShaped):
        project_order(r, r.carrier)


def test_lifted_carrier_is_tagged_copy():
    a = make_set((E, S1))
    q = lift_order(_chain([E, S1]))
    assert q.carrier == cartesian(make_set((a,)), a)


def test_order_from_formula_roundtrip():
    carrier = make_set((E, S1, S2))
    phi = parse_formula("x = {{}}")
    r = order_from_formula(carrier, phi)
    assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert least_element(r) is S1


def test_order_from_formula_env_and_var():
    carrier = make_set((E, S1))
    phi = parse_formula("x = y")
    r = order_from_formula(carrier, phi, {"y": E}, var="x")
    assert least_element(r) is E


def test_order_from_formula_infers_single_free_var():
    carrier = make_set((E, S1))
    with pytest.raises(UnboundVariable):
        order_from_formula(carrier, parse_formula("x = y"))


def test_order_from_formula_needs_unique_witness():
    carrier = make_set((E, S1, S2))
    with pytest.raises(NotUniquelySatisfied):
        order_from_formula(carrier, parse_formula("x = x"))
    with pytest.raises(NotUniquelySatisfied):
        order_from_formula(carrier, parse_formula("false & x = x"))


def test_relations_hash_by_content():
    a = _chain([E, S1])
    b = _chain([E, S1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_enumeration_is_canonically_sorted_and_deterministic():
    carrier = make_set((E, S1, S2))
    first = enumerate_orders(carrier, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    second = enumerate_orders(carrier, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert first == second
    literals = [r.pairs for r in first]
    assert literals == sorted(literals, key=canonical_key)


# --- orders as row tuples, one enumeration per carrier size ------------------

def _is_order(rows, kind) -> bool:
    # Each kind's defining condition, read off the property report.
    props = properties_from_rows(rows, range(len(rows)))
    if kind is OrderKind.WELL_ORDER:
        return props.total and props.antisymmetric and props.transitive
    if kind is OrderKind.PARTIAL_ORDER_WITH_LEAST:
        return (props.reflexive and props.antisymmetric and props.transitive
                and (not rows or props.least is not None))
    return props.least is not None


@functools.lru_cache(maxsize=None)
def _brute_force(n, kind) -> tuple:
    return tuple(rows for rows in itertools.product(range(1 << n), repeat=n)
                 if _is_order(rows, kind))


@pytest.mark.parametrize("kind", list(OrderKind))
@pytest.mark.parametrize("n", range(4))
def test_order_rows_equal_the_brute_force_filter(n, kind):
    assert sorted(order_rows(n, kind)) == sorted(_brute_force(n, kind))
    assert len(set(order_rows(n, kind))) == len(order_rows(n, kind))
    # least_index names the least element of exactly the nonempty orders.
    for rows in itertools.product(range(1 << n), repeat=n):
        least = least_index(rows, kind)
        assert (least is not None) == (n > 0 and rows in _brute_force(n, kind))
        if least is not None:
            assert properties_from_rows(rows, range(n)).least == least


@pytest.mark.parametrize("kind", list(OrderKind))
def test_direct_order_rows_at_four_equal_the_brute_force_filter(kind):
    # At n = 4 nothing cross-checks the direct generator inside the package.
    assert sorted(order_rows(4, kind)) == sorted(_brute_force(4, kind))
    assert len(set(order_rows(4, kind))) == len(order_rows(4, kind))


@pytest.mark.parametrize("kind,counts", [
    (OrderKind.WELL_ORDER, [1, 1, 2, 6, 24]),
    (OrderKind.PARTIAL_ORDER_WITH_LEAST, [1, 1, 2, 9, 76]),
    (OrderKind.UNIQUE_UNIVERSAL, [0, 1, 6, 147, 13500]),
])
def test_order_rows_counts(kind, counts):
    assert [len(order_rows(n, kind)) for n in range(5)] == counts


@pytest.mark.parametrize("kind", list(OrderKind))
@pytest.mark.parametrize("a", [make_set(c) for k in range(5)
                               for c in itertools.combinations(UNIVERSE4, k)])
def test_enumeration_equals_decoding_every_satisfying_row_tuple(a, kind):
    # Every satisfying row tuple's pairs, decoded back through relation_over.
    elems = a.children
    n = len(elems)
    expected = sorted(
        (relation_over(a, make_set(ordered_pair(elems[i], elems[j])
                                   for i in range(n) for j in range(n) if rows[i] >> j & 1))
         for rows in _brute_force(n, kind)),
        key=lambda r: canonical_key(r.pairs),
    )
    got = enumerate_orders(a, kind)
    assert [r.pairs for r in got] == [r.pairs for r in expected]
    assert [r.rows for r in got] == [r.rows for r in expected]
    assert all(r.carrier is a and r.elements == elems for r in got)

