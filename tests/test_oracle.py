"""Oracle tests: brute-force results, and its independence from the pipeline."""

import ast
import inspect
import itertools

import pytest

from helpers import UNIVERSE4, to_frozen
from zflab import oracle
from zflab.errors import CapExceeded, EmptyFamily
from zflab.hfs import EMPTY, iter_hfs_by_rank, make_set, unpair
from zflab.orders import OrderKind, enumerate_orders

E, S1, S2, D = UNIVERSE4

ONE = make_set((EMPTY,))
TWO = make_set((EMPTY, ONE))


def test_oracle_imports_only_the_kernel():
    """Agreement with the pipeline is evidence only if the oracle shares
    nothing with it beyond the set kernel."""
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or ".".join(
                alias.name for alias in node.names))
    allowed = {"errors", "hfs", "itertools", "dataclasses", "__future__"}
    assert imported <= allowed, imported


def test_choice_function_count_is_product_of_sizes():
    fam = make_set((ONE, TWO, make_set((E, S1, S2))))
    graphs = oracle.enumerate_choice_functions(fam)
    assert len(graphs) == 1 * 2 * 3


def test_choice_graphs_match_a_frozenset_model():
    fam = make_set((TWO, make_set((S1, S2))))
    got = {to_frozen(g) for g in oracle.enumerate_choice_functions(fam)}
    model = set()
    for picks in itertools.product(
        *[[to_frozen(x) for x in a.children] for a in fam.children]
    ):
        model.add(frozenset(
            frozenset((frozenset((to_frozen(a),)),
                       frozenset((to_frozen(a), x))))
            for a, x in zip(fam.children, picks)
        ))
    assert got == model


def test_each_graph_selects_inside_each_member():
    fam = make_set((TWO, make_set((S1, S2))))
    for g in oracle.enumerate_choice_functions(fam):
        assert len(g) == 2
        for p in g.children:
            a, x = unpair(p)
            assert a in fam.children
            assert x in a.children


def test_empty_member_means_no_choice_functions():
    assert oracle.enumerate_choice_functions(make_set((EMPTY, ONE))) == ()


def test_empty_family_rejected():
    with pytest.raises(EmptyFamily):
        oracle.enumerate_choice_functions(EMPTY)


def test_choice_enumeration_cap():
    fam = make_set((make_set(UNIVERSE4),))
    with pytest.raises(CapExceeded):
        oracle.enumerate_choice_functions(fam, cap=3)


@pytest.mark.parametrize("kind,counts", [
    ("wellorder", (1, 1, 2, 6)),
    ("pol", (1, 1, 2, 9)),
    ("unique-universal", (0, 1, 6, 147)),
])
def test_count_orders_values(kind, counts):
    for n, expected in enumerate(counts):
        assert oracle.count_orders(n, kind) == expected


def test_count_orders_accepts_enum_kinds():
    assert oracle.count_orders(2, OrderKind.WELL_ORDER) == 2


def test_count_orders_matches_pipeline_enumeration():
    for n in range(4):
        carrier = make_set(UNIVERSE4[:n])
        for kind in OrderKind:
            assert oracle.count_orders(n, kind) == len(
                enumerate_orders(carrier, kind)
            )


def test_count_orders_cap():
    with pytest.raises(CapExceeded):
        oracle.count_orders(5, "wellorder")


def test_count_orders_rejects_unknown_kind():
    with pytest.raises(ValueError):
        oracle.count_orders(2, "lattice")


def test_verify_equivalence_on_a_choosable_family():
    verdict = oracle.verify_equivalence(make_set((ONE, TWO)))
    assert verdict.has_choice
    assert verdict.all_members_have_pol
    assert verdict.agree


def test_verify_equivalence_with_an_empty_member():
    verdict = oracle.verify_equivalence(make_set((EMPTY,)))
    assert not verdict.has_choice
    assert not verdict.all_members_have_pol
    assert verdict.agree


def test_memoized_pol_search_matches_a_fresh_scan(monkeypatch):
    subsets = [make_set(c) for k in range(5)
               for c in itertools.combinations(UNIVERSE4, k)]
    assert len(subsets) == 16
    monkeypatch.setattr(oracle, "_pol_memo", {})
    fresh = [oracle._pol_exists(a) for a in subsets]
    assert set(oracle._pol_memo) == set(subsets)
    memoized = [oracle._pol_exists(a) for a in subsets]
    assert memoized == fresh == [len(a) > 0 for a in subsets]


def test_verify_equivalence_pol_side_matches_order_enumeration():
    for fam in (make_set((ONE,)), make_set((TWO, make_set((S1, S2)))),
                make_set((EMPTY, ONE))):
        verdict = oracle.verify_equivalence(fam)
        via_orders = all(
            len(a) > 0 and len(
                enumerate_orders(a, OrderKind.PARTIAL_ORDER_WITH_LEAST)
            ) > 0
            for a in fam.children
        )
        assert verdict.all_members_have_pol == via_orders


def test_pol_search_over_five_elements_exceeds_the_cap_without_scanning(monkeypatch):
    def scan(elements, kind_name):
        raise AssertionError("scanned a 5-element carrier")

    monkeypatch.setattr(oracle, "_relations_of_kind", scan)
    monkeypatch.setattr(oracle, "_pol_memo", {})
    five = make_set((*UNIVERSE4, make_set((S2,))))
    with pytest.raises(CapExceeded, match="exceeds cap 4"):
        oracle.verify_equivalence(make_set((five,)))
    assert five not in oracle._pol_memo


RANK3 = iter_hfs_by_rank(3)
POL_MEMBERS = ([make_set(c) for k in range(5) for c in itertools.combinations(UNIVERSE4, k)]
               + [make_set(RANK3[0:4]), make_set(RANK3[2:6]), make_set(RANK3[4:8])])


def test_pol_search_matches_a_full_scan(monkeypatch):
    monkeypatch.setattr(oracle, "_pol_memo", {})
    for a in POL_MEMBERS:
        every = list(oracle._relations_of_kind(a.children, "pol"))
        assert oracle._pol_exists(a) == (len(a) > 0 and len(every) > 0)


@pytest.mark.parametrize("size,bound", [(3, 39), (4, 2255)])
def test_pol_search_tests_few_candidates_before_its_first_hit(monkeypatch, size, bound):
    holds = oracle._relation_holds
    calls = []

    def counted(*args):
        calls.append(args[0])
        return holds(*args)

    monkeypatch.setattr(oracle, "_relation_holds", counted)
    for a in POL_MEMBERS:
        if len(a) == size:
            monkeypatch.setattr(oracle, "_pol_memo", {})
            calls.clear()
            assert oracle._pol_exists(a)
            assert 0 < len(calls) <= bound
