"""Pipeline tests: universes, separation, combined relations, choice sets."""

import ast
import importlib
import itertools
import json
import math
import pkgutil
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zflab
from helpers import (MEMOS, SUBSETS4, SUBSETS4_UP_TO_3, UNIVERSE4, cold_caches, formula_fc,
                     to_frozen)
from zflab import cli, construction, hfs, oracle, orders
from zflab.errors import CapExceeded, EmptyFamily, NoLeast, NotAPair
from zflab.construction import (
    Family,
    U2Variant,
    build_Fc,
    build_Fc_literal,
    build_PA,
    build_QS,
    build_U2_base,
    build_universes,
    _u1_size,
    _u2_sizes,
    choice_from_Q,
    is_choice_function,
    phi1_holds,
    phi3_holds,
    restrict_Q,
    run_pipeline,
)
from zflab.formula import parse_formula, separation
from zflab.hfs import (
    EMPTY,
    canonical_key,
    cartesian,
    hfs_literal,
    is_member,
    iter_hfs_by_rank,
    make_set,
    ordered_pair,
    powerset,
    union_family,
    unpair,
)
from zflab.orders import (
    OrderKind,
    enumerate_orders,
    lift_order,
    order_from_formula,
    pointed_order,
    relation_properties,
    satisfies,
)

E, S1, S2, D = UNIVERSE4

ONE = make_set((EMPTY,))            # {0}
TWO = make_set((EMPTY, ONE))        # {0,{0}}
RUNNING = Family.of([ONE, TWO])


def test_family_rejects_empty():
    with pytest.raises(EmptyFamily):
        Family.of([])


def test_family_basics():
    assert len(RUNNING) == 2
    assert RUNNING.union == TWO
    assert not RUNNING.has_empty_member
    assert Family.of([EMPTY, ONE]).has_empty_member
    assert Family.of([TWO, ONE]) == RUNNING
    assert hash(Family.of([ONE, TWO])) == hash(RUNNING)


def test_build_PA_tags_elements():
    pa = build_PA(TWO)
    assert len(pa) == 2
    for p in pa.children:
        assert p in cartesian(make_set((TWO,)), TWO).children


def test_u1_size_overlapping_members():
    # the two members share the pair (0,0), so the powersets overlap
    _, u1 = build_universes(RUNNING)
    assert len(u1) == 16


def test_u1_size_disjoint_members():
    disjoint = Family.of([ONE, make_set((S1, S2))])
    _, u1 = build_universes(disjoint)
    assert len(u1) == 17


def test_u1_matches_frozenset_model():
    def model(family):
        out = set()
        for a in family:
            prod = to_frozen(cartesian(a, a))
            for mask in range(1 << len(prod)):
                elems = list(prod)
                out.add(frozenset(e for i, e in enumerate(elems) if mask >> i & 1))
        return len(out)

    for family in (RUNNING, Family.of([ONE, make_set((S1, S2))])):
        _, u1 = build_universes(family)
        assert len(u1) == model(family)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4), min_size=1, max_size=4))
@example([make_set((E, S1)), make_set((S1, S2)), make_set((S2, D))])    # overlapping
@example([make_set((E,)), make_set((E, S1)), make_set((E, S1, S2))])   # nested
@example([make_set((E, S1)), make_set((S2, D)), make_set((E, D))])     # equal sizes
@example([EMPTY, make_set(UNIVERSE4)])
def test_counted_u1_equals_the_built_u1(members):
    fam = Family.of(members)
    assert _u1_size(fam) == len(build_universes(fam)[1])


@pytest.mark.parametrize("cap", [0, 1, 3, 4, 8, 9])
def test_counted_u1_fails_the_cap_as_the_built_u1_does(cap):
    fam = Family.of([ONE, TWO, make_set((E, S1, S2))])

    def outcome(size):
        try:
            return size()
        except CapExceeded as e:
            return str(e)

    assert outcome(lambda: _u1_size(fam, cap)) == outcome(
        lambda: len(build_universes(fam, cap)[1])
    )


def cap_outcome(size):
    try:
        return size()
    except CapExceeded as e:
        return str(e)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=4))
@example([make_set((E, S1)), make_set((S1, S2)), make_set((S2, D))])
@example([EMPTY, make_set((E,)), make_set((E, S1, S2))])
def test_u1_masks_decode_to_the_literal_u1(members):
    fam = Family.of(members)
    pairs, masks = construction._u1_masks(fam)
    decoded = {make_set(p for i, p in enumerate(pairs) if m >> i & 1) for m in masks}
    assert decoded == set(build_universes(fam)[1].children)
    assert len(masks) == _u1_size(fam)


def forbid(monkeypatch, owner, *names):
    """Each ``owner.name`` raises if called."""
    for name in names:
        def call(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(owner, name, call)


@pytest.mark.parametrize("kind", ["wellorder", "pol"])
def test_the_pipeline_builds_u1_without_kernel_powersets(kind, monkeypatch):
    elements = iter_hfs_by_rank(3)[:12]
    fam = Family.of(make_set(elements[i:i + 3]) for i in range(0, 12, 3))
    forbid(monkeypatch, construction, "build_universes", "powerset")
    forbid(monkeypatch, hfs, "powerset")
    summary, _, _ = run_pipeline(fam, U2Variant.UNION_OF_PRODUCTS, OrderKind(kind))
    # four disjoint 9-pair squares share only the empty relation
    assert summary["u1_size"] == 4 * 2**9 - 3


def test_a_four_element_member_builds_no_u1(monkeypatch):
    fam = Family.of([make_set(UNIVERSE4), ONE])
    forbid(monkeypatch, construction, "_u1_masks", "build_universes")
    summary, _, _ = run_pipeline(fam, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    assert summary["u1_size"] == _u1_size(fam)


@pytest.mark.parametrize("cap", [0, 1, 3, 4, 8, 9])
def test_the_pipeline_fails_the_cap_as_the_count_does(cap):
    fam = Family.of([ONE, TWO, make_set((E, S1, S2))])
    assert cap_outcome(lambda: _u1_size(fam, cap)) == cap_outcome(lambda: run_pipeline(
        fam, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER, cap)[0]["u1_size"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3))
@example([EMPTY])
@example([EMPTY, make_set((E, S1)), make_set((S1, S2, D))])
@example([make_set((E, S1, S2)), make_set((S1, S2, D)), make_set((E, D))])
@example([make_set((E,)), make_set((E, S1)), make_set((S2, D))])  # 9 union pairs
def test_counted_u2_sizes_equal_the_built_u2(members):
    fam = Family.of(members)
    base = make_set(
        p for a in fam for p in cartesian(build_PA(a), build_PA(a)).children
    )
    literal = build_U2_base(fam, U2Variant.LITERAL)
    assert _u2_sizes(fam, U2Variant.LITERAL) == (len(base), len(literal))
    base_size, union_size = _u2_sizes(fam, U2Variant.UNION_OF_PRODUCTS)
    assert base_size == len(base)
    if len(base) <= 12:
        assert union_size == len(build_U2_base(fam, U2Variant.UNION_OF_PRODUCTS))


def test_u2_variants_coincide_exactly_on_singletons():
    for member in (ONE, TWO, make_set((E, S1, S2))):
        fam = Family.of([member])
        literal = build_U2_base(fam, U2Variant.LITERAL)
        union = build_U2_base(fam, U2Variant.UNION_OF_PRODUCTS)
        assert literal == union


def test_u2_variants_differ_on_multi_member_families():
    literal = build_U2_base(RUNNING, U2Variant.LITERAL)
    union = build_U2_base(RUNNING, U2Variant.UNION_OF_PRODUCTS)
    assert len(literal) == 17
    assert len(union) == 32
    # every literal candidate covers one member; the union route mixes them
    assert all(q in union.children for q in literal.children)


def test_phi1_accepts_exactly_combined_lifted_orders():
    qs = build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    assert len(qs) == 2
    for q in qs.children:
        assert phi1_holds(q, RUNNING, OrderKind.WELL_ORDER)
    # dropping any pair breaks the member whose order loses it
    q0 = qs.children[0]
    for p in q0.children:
        smaller = make_set(c for c in q0.children if c is not p)
        assert not phi1_holds(smaller, RUNNING, OrderKind.WELL_ORDER)


def test_phi1_ignores_unconstrained_pairs():
    qs = build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    q0 = qs.children[0]
    # a pair tagged with two different members constrains no single member
    stray = ordered_pair(ordered_pair(ONE, EMPTY), ordered_pair(TWO, EMPTY))
    enlarged = make_set(q0.children + (stray,))
    assert phi1_holds(enlarged, RUNNING, OrderKind.WELL_ORDER)


def test_qs_literal_empty_for_multi_member_families():
    for kind in OrderKind:
        assert len(build_QS(RUNNING, U2Variant.LITERAL, kind)) == 0


def test_qs_literal_equals_union_on_singletons():
    fam = Family.of([TWO])
    for kind in OrderKind:
        a = build_QS(fam, U2Variant.LITERAL, kind)
        b = build_QS(fam, U2Variant.UNION_OF_PRODUCTS, kind)
        assert a == b


def test_qs_counts_are_products_of_per_member_order_counts():
    fam = Family.of([ONE, TWO, make_set((E, S1, S2))])
    for kind, per_member in [
        (OrderKind.WELL_ORDER, (1, 2, 6)),
        (OrderKind.PARTIAL_ORDER_WITH_LEAST, (1, 2, 9)),
        (OrderKind.UNIQUE_UNIVERSAL, (1, 6, 147)),
    ]:
        qs = build_QS(fam, U2Variant.UNION_OF_PRODUCTS, kind,
                      product_cap=10**7)
        expected = 1
        for c in per_member:
            expected *= c
        assert len(qs) == expected


def test_qs_empty_when_any_member_is_empty():
    fam = Family.of([EMPTY, ONE])
    for variant in U2Variant:
        for kind in OrderKind:
            assert len(build_QS(fam, variant, kind)) == 0


def test_restrict_q_keeps_one_members_pairs():
    qs = build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    q0 = qs.children[0]
    part1 = restrict_Q(q0, ONE)
    part2 = restrict_Q(q0, TWO)
    assert len(part1) == 1
    assert len(part2) == 3
    assert make_set(part1.children + part2.children) == q0


def test_choice_from_q_extracts_the_least():
    qs = build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    graphs = {hfs_literal(choice_from_Q(q, RUNNING)) for q in qs.children}
    assert len(graphs) == 2


def test_choice_from_q_needs_a_least():
    # the diagonal on TWO relates nothing to everything
    diagonal = make_set(
        ordered_pair(ordered_pair(TWO, x), ordered_pair(TWO, x))
        for x in TWO.children
    )
    with pytest.raises(NoLeast):
        choice_from_Q(diagonal, Family.of([TWO]))


def test_choice_function_validation():
    good = make_set((ordered_pair(ONE, EMPTY), ordered_pair(TWO, ONE)))
    assert is_choice_function(good, RUNNING)
    assert is_choice_function(make_set((ordered_pair(TWO, EMPTY),)), Family.of([TWO]))
    bad = {
        "not a pair": (ordered_pair(ONE, EMPTY), ordered_pair(TWO, ONE), EMPTY),
        "chosen outside its member": (ordered_pair(ONE, EMPTY), ordered_pair(TWO, S2)),
        "two pairs for one member": (ordered_pair(ONE, EMPTY), ordered_pair(TWO, EMPTY),
                                     ordered_pair(TWO, ONE)),
        "a member missing": (ordered_pair(TWO, ONE),),
        "a pair for a non-member": (ordered_pair(ONE, EMPTY), ordered_pair(TWO, ONE),
                                    ordered_pair(S2, S1)),
    }
    assert {name: is_choice_function(make_set(pairs), RUNNING)
            for name, pairs in bad.items()} == dict.fromkeys(bad, False)


def sorted_membership_is_choice_function(graph, family) -> bool:
    """The check that the pair table replaced: every child decoded, the
    first components sorted and compared with the members, and each chosen
    element tested for membership."""
    try:
        pairs = [unpair(p) for p in graph.children]
    except NotAPair:
        return False
    return (sorted(a for a, _ in pairs) == list(family.members.children)
            and all(is_member(x, a) for a, x in pairs))


@st.composite
def near_choice_graphs(draw):
    """A family of SUBSETS4_UP_TO_3 members and a graph near one of its
    choice functions: some members' pairs dropped, and pairs added that
    repeat a member, choose outside their member, tag a foreign set, or are
    no pairs at all."""
    family = Family.of(draw(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1,
                                      max_size=3)))
    pairs = [ordered_pair(a, draw(st.sampled_from(a.children))) for a in family if len(a)]
    dropped = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=2)) if pairs else set()
    tags = list(family.members.children) + SUBSETS4
    added = draw(st.lists(st.one_of(
        st.builds(ordered_pair, st.sampled_from(tags), st.sampled_from(UNIVERSE4)),
        st.builds(ordered_pair, st.sampled_from(UNIVERSE4), st.sampled_from(UNIVERSE4)),
        st.sampled_from(SUBSETS4)), max_size=2))
    kept = [p for i, p in enumerate(pairs) if i not in dropped]
    return family, make_set(kept + added)


@settings(max_examples=300, deadline=None)
@given(near_choice_graphs())
def test_the_pair_table_check_equals_the_sorted_membership_check(case):
    family, graph = case
    assert is_choice_function(graph, family) == sorted_membership_is_choice_function(graph, family)


def test_the_pair_table_check_accepts_every_oracle_graph_of_small_families():
    for members in itertools.combinations(SUBSETS4_UP_TO_3[1:], 2):
        family = Family.of(members)
        graphs = oracle.enumerate_choice_functions(family)
        assert graphs
        assert all(is_choice_function(g, family) for g in graphs)
        assert all(sorted_membership_is_choice_function(g, family) for g in graphs)


def test_build_fc_matches_oracle_on_running_example():
    for kind in OrderKind:
        fcs = build_Fc(RUNNING, build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, kind))
        assert fcs == oracle.enumerate_choice_functions(RUNNING)
        assert all(is_choice_function(g, RUNNING) for g in fcs)


def test_build_fc_literal_route_agrees():
    for kind in OrderKind:
        qs = build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS, kind)
        direct = build_Fc_literal(RUNNING, qs)
        closed = build_Fc(RUNNING, qs)
        assert direct == closed


def test_build_fc_literal_cap():
    fam = Family.of([make_set(UNIVERSE4)])
    with pytest.raises(CapExceeded):
        build_Fc_literal(fam, build_QS(fam, U2Variant.UNION_OF_PRODUCTS,
                                       OrderKind.WELL_ORDER), powerset_cap=3)


def test_product_cap():
    fam = Family.of([make_set((E, S1, S2))])
    with pytest.raises(CapExceeded):
        build_QS(fam, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER,
                 product_cap=5)


# Every family of one or two distinct subsets of {0, {0}, {{0}}} whose union
# base has at most 9 pairs, so that U2 has at most 512 candidates.
SUBSETS3 = [make_set(c) for k in range(4) for c in itertools.combinations(UNIVERSE4[:3], k)]
SMALL_FAMILIES = [
    Family.of(members) for k in (1, 2) for members in itertools.combinations(SUBSETS3, k)
    if sum(len(a) ** 2 for a in members) <= 9
]

# The paper's two separations as formula text.  Q_S out of U2: for every
# member A, the A-part of q is exactly one lifted order r of A, where L holds
# the (A, r) pairs and R the lifted orders.
QS_PHI = parse_formula(
    "forall A in S . exists r in R . (A, r) in L & (forall p in r . p in q) & "
    "(forall x in A . forall y in A . (((A,x),(A,y)) in q -> ((A,x),(A,y)) in r))"
)
# F_c out of P(A_S x A_U): helpers.formula_fc.


@pytest.mark.parametrize("kind", list(OrderKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=lambda fam: hfs_literal(fam.members))
def test_fc_selection_formula_evaluated_literally(fam, kind):
    """Both separations, written as actual formulas and evaluated by the
    formula module over the materialized sets, pick out the pipeline's Q_S
    and F_c."""
    qs = build_QS(fam, U2Variant.UNION_OF_PRODUCTS, kind)
    # Only orders with a least element take part, as in the pipeline: the
    # vacuous order on an empty member has none.
    lifted = [(a, lift_order(r).pairs) for a in fam for r in enumerate_orders(a, kind)
              if relation_properties(r).least is not None]
    env = {"S": fam.members, "R": make_set(r for _, r in lifted),
           "L": make_set(ordered_pair(a, r) for a, r in lifted)}
    got_qs = separation(build_U2_base(fam, U2Variant.UNION_OF_PRODUCTS), "q", QS_PHI, env)
    assert got_qs.children == qs.children

    expected = list(build_Fc(fam, qs))
    assert list(formula_fc(fam, got_qs)) == expected
    assert list(build_Fc_literal(fam, qs)) == expected

    # The selection in one step, over every candidate, with m ranging over
    # the whole union.
    one_step = parse_formula(
        "exists Q in QS . forall A in F . forall m in U . "
        "((A,m) in f <-> (forall b in A . ((A,m),(A,b)) in Q))"
    )
    one_step_env = {"QS": qs, "F": fam.members, "U": fam.union}
    candidates = powerset(cartesian(fam.members, fam.union))
    assert list(separation(candidates, "f", one_step, one_step_env).children) == expected


def test_theorem4_order_is_pol_with_chosen_least():
    fcs = build_Fc(RUNNING, build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS,
                                     OrderKind.WELL_ORDER))
    for graph in fcs:
        for a, m in map(unpair, graph.children):
            r = pointed_order(a, m)
            assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)
            assert phi3_holds(r, a, m)


def test_one_theorem4_order():
    # The formula route and pointed_order give one order, and it is the
    # order phi3 defines for the chosen element.
    carriers = [ONE, make_set((E, S1)), make_set((E, S1, S2)), make_set(UNIVERSE4)]
    for a in carriers:
        for m in a.children:
            r = pointed_order(a, m)
            assert order_from_formula(a, parse_formula(f"x = {hfs_literal(m)}")) == r
            assert phi3_holds(r, a, m)
            assert satisfies(r, OrderKind.PARTIAL_ORDER_WITH_LEAST)


def test_phi3_rejects_other_relations():
    graph = build_Fc(RUNNING, build_QS(RUNNING, U2Variant.UNION_OF_PRODUCTS,
                                       OrderKind.WELL_ORDER))[0]
    m = dict(map(unpair, graph.children))[TWO]
    r = pointed_order(TWO, m)
    other = enumerate_orders(TWO, OrderKind.UNIQUE_UNIVERSAL)
    mismatches = [q for q in other if q != r]
    assert mismatches
    assert not any(phi3_holds(q, TWO, m) for q in mismatches)


def test_run_pipeline_report_shape():
    d, _, _ = run_pipeline(RUNNING, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    assert list(d) == [
        "variant", "kind", "family", "u1_size", "u2_base_size", "u2_size",
        "qs_size", "fc_size", "q_s_empty", "f_c_all_valid", "witnesses",
    ]
    assert d["variant"] == "union"
    assert d["kind"] == "wellorder"
    assert d["u1_size"] == 16
    assert d["u2_base_size"] == 5
    assert d["u2_size"] == 32
    assert d["qs_size"] == 2
    assert d["fc_size"] == 2
    assert d["q_s_empty"] is False
    assert d["f_c_all_valid"] is True


def test_run_pipeline_literal_variant_reports_the_finding():
    summary, _, _ = run_pipeline(RUNNING, U2Variant.LITERAL, OrderKind.WELL_ORDER)
    assert summary["u2_size"] == 17
    assert summary["q_s_empty"]
    assert summary["fc_size"] == 0


# --- the per-member pair table against the routes it replaces ----------------

A4 = make_set(UNIVERSE4)


@pytest.mark.parametrize("a", SUBSETS4, ids=hfs_literal)
def test_pair_table_is_the_tagged_product(a):
    cells = construction._cells(a)
    n = len(a)
    assert make_set(cells).children == cartesian(build_PA(a), build_PA(a)).children
    assert len(cells) == len(make_set(cells)) == n * n
    for bit, p in enumerate(cells):
        i, j = divmod(bit, n)
        left, right = unpair(p)
        assert (unpair(left), unpair(right)) == ((a, a.children[i]), (a, a.children[j]))


def lifted_picks(a, kind):
    """Each pick's mask of ``a`` as the set of its tagged pairs."""
    cells = construction._cells(a)
    return [make_set(cells[b] for b in construction._bits(mask))
            for mask, _ in construction._picks(len(a), kind)]


@pytest.mark.parametrize("kind", OrderKind)
@pytest.mark.parametrize("a", SUBSETS4, ids=hfs_literal)
def test_picks_come_in_the_canonical_order_of_their_lifted_sets(a, kind):
    # _first_q takes each member's first pick for the canonically first Q.
    lifted = lifted_picks(a, kind)
    assert all(x < y for x, y in zip(lifted, lifted[1:]))


@pytest.mark.parametrize("n", range(4))
def test_mask_rows_inverts_rows_mask(n):
    for rows in itertools.product(range(1 << n), repeat=n):
        assert construction._mask_rows(construction._rows_mask(rows), n) == rows


@pytest.mark.parametrize("a,kind", [
    *((a, kind) for a in SUBSETS4_UP_TO_3 for kind in OrderKind),
    (A4, OrderKind.WELL_ORDER),
    (A4, OrderKind.PARTIAL_ORDER_WITH_LEAST),
])
def test_member_record_lifts_each_order_as_lift_order_does(a, kind):
    expected = tuple(
        lift_order(r).pairs.children
        for r in enumerate_orders(a, kind)
        if relation_properties(r).least is not None
    )
    lifted = [pairs.children for pairs in lifted_picks(a, kind)]

    def order(pairs):
        return tuple(map(canonical_key, pairs))

    assert len(lifted) == len(expected)
    assert sorted(lifted, key=order) == sorted(expected, key=order)


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(construction.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("zflab")):
                private.extend(f"{path.name}: {alias.name}" for alias in node.names
                               if alias.name.startswith("_"))
    assert private == []


def _fillable(value) -> bool:
    # An empty dict or set, or a list: the package keeps its constant tables
    # in tuples, frozensets and filled dicts.
    if isinstance(value, ast.Call):
        return (isinstance(value.func, ast.Name) and value.func.id in ("dict", "list", "set")
                and not value.args and not value.keywords)
    return isinstance(value, ast.List) or isinstance(value, ast.Dict) and not value.keys


def test_no_module_keeps_a_hand_rolled_memo():
    # Every pipeline memo is a functools.cache on the function that computes
    # it.  These three module-level containers are not, each for a reason:
    allowed = {
        "hfs._intern",      # weak: an entry lives only as long as its node
        "hfs._naturals",    # grows by appending, each natural from all before it
        "oracle._pol_memo",  # the oracle may not import functools
                            # (test_oracle_imports_only_the_kernel)
    }
    found = set()
    for path in sorted(Path(construction.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _fillable(node.value):
                found.update(f"{path.stem}.{t.id}" for t in targets
                             if isinstance(t, ast.Name) and not t.id.startswith("__"))
    assert found == allowed


def test_every_memo_is_cleared_by_cold_caches():
    # A functools.cache memo that cold_caches() does not clear would carry
    # what one test computed, under a patch or not, into the next.  The
    # parser is the one memo left out: it holds no pipeline result.
    registered = set(map(id, MEMOS))
    modules = [zflab] + [importlib.import_module(f"zflab.{info.name}")
                         for info in pkgutil.iter_modules(zflab.__path__)]
    found = {f"{module.__name__}.{name}": value for module in modules
             for name, value in vars(module).items() if hasattr(value, "cache_clear")}
    unregistered = [name for name, value in found.items()
                    if id(value) not in registered and value is not cli._parser]
    assert unregistered == []
    assert registered <= set(map(id, found.values()))


def test_carriers_of_one_size_share_one_enumeration(monkeypatch):
    satisfy = orders._rows_satisfy
    calls = []

    def counted(rows, kind):
        calls.append(rows)
        return satisfy(rows, kind)

    monkeypatch.setattr(orders, "_rows_satisfy", counted)
    triples = [make_set(c) for c in itertools.combinations(UNIVERSE4, 3)]
    assert len(triples) == 4
    with cold_caches():
        for a in triples:
            assert len(construction._picks(len(a), OrderKind.PARTIAL_ORDER_WITH_LEAST)) == 9
    # One enumeration of size 3: the brute-force cross-check's 8 ** 3 row
    # tuples and the direct filter's 4 ** 2 candidates per least element.
    assert len(calls) == 2 ** 9 + 3 * 2 ** 4


def test_verify_computes_each_artifact_once_per_key(tmp_path):
    # The running family {{{}}, {{},{{}}}}: members of sizes 1 and 2, which
    # are also the naturals the picks are read off.
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": ["{{}}", "{{},{{}}}"]}))
    config = cli.RunConfig(command="verify", family=str(path))

    def misses():
        return {memo.__name__: memo.cache_info().misses for memo in MEMOS}

    # _cells: the two members; _picks and order_rows: sizes 1 and 2;
    # _filtered: (1,), (2,) and (1, 2); _full_rows: the picks of sizes 1
    # and 2; _induced_order_holds: {{}} with {}, and {{},{{}}} with each of
    # its two elements.
    once = {"_cells": 2, "_picks": 2, "_filtered": 3, "_full_rows": 2, "order_rows": 2,
            "_induced_order_holds": 3}
    with cold_caches():
        first = cli.execute(config)
        assert misses() == once
        assert cli.execute(config) == first
        assert misses() == once


def test_verify_with_an_empty_member_agrees_on_empty_choice_sets(tmp_path):
    members = ["{}", "{{}}", "{{},{{}}}"]  # 3 members x 2 union elements = 6 pairs
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": members}))
    status, rendered = cli.execute(cli.RunConfig(command="verify", family=str(path)))
    report = json.loads(rendered)
    assert status == 0
    assert report["pipeline"]["fc_size"] == 0
    assert report["cross_checks"]["route_agreement"] is True
    fam = Family.of([EMPTY, ONE, TWO])
    qs = build_QS(fam, U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER)
    assert build_Fc_literal(fam, qs) == build_Fc(fam, qs) == ()


# --- Q_S as per-member picks against the materialized Q_S --------------------

def lifted_qs(fam, kind):
    """Q_S built the long way: every combination of lifted orders, one per
    member, as a set of sets."""
    per_member = [
        [lift_order(r).pairs.children for r in enumerate_orders(a, kind)
         if relation_properties(r).least is not None]
        for a in fam
    ]
    return make_set(
        make_set(p for pairs in combo for p in pairs)
        for combo in itertools.product(*per_member)
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3),
       st.sampled_from([OrderKind.WELL_ORDER, OrderKind.PARTIAL_ORDER_WITH_LEAST]))
@example([A4], OrderKind.PARTIAL_ORDER_WITH_LEAST)
@example([A4, make_set((E, S1))], OrderKind.WELL_ORDER)
@example([EMPTY, make_set((E, S1))], OrderKind.PARTIAL_ORDER_WITH_LEAST)
@example([make_set((E, S1, S2)), make_set((S1, S2, D)), make_set((E, D))],
         OrderKind.PARTIAL_ORDER_WITH_LEAST)
# Unique-universal orders differ in size, and there the first Q is not the
# one whose pairs come first.
@example([make_set((E, S1, S2))], OrderKind.UNIQUE_UNIVERSAL)
@example([make_set((E, S1)), make_set((S1, S2, D))], OrderKind.UNIQUE_UNIVERSAL)
def test_picks_route_equals_the_materialized_q_s(members, kind):
    fam = Family.of(members)
    qs = build_QS(fam, U2Variant.UNION_OF_PRODUCTS, kind)
    expected = lifted_qs(fam, kind)
    fcs = build_Fc(fam, qs)
    witnesses = run_pipeline(fam, U2Variant.UNION_OF_PRODUCTS, kind)[0]["witnesses"]
    # The sizes, F_c and the witness come from the picks, before any Q is built.
    assert len(qs) == len(expected)
    graphs = {choice_from_Q(q, fam) for q in expected.children}
    assert list(fcs) == sorted(graphs)
    assert witnesses["combined_relations"] == [hfs_literal(q) for q in expected.children[:1]]
    assert qs.children == expected.children
    assert qs == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3),
       st.sampled_from(list(OrderKind)))
@example([EMPTY], OrderKind.WELL_ORDER)
@example([make_set((E, S1, S2))], OrderKind.UNIQUE_UNIVERSAL)
@example([ONE, TWO], OrderKind.PARTIAL_ORDER_WITH_LEAST)
def test_literal_mask_filter_equals_the_phi1_filter_over_u2(members, kind):
    fam = Family.of(members)
    expected = make_set(
        q for q in build_U2_base(fam, U2Variant.LITERAL).children
        if phi1_holds(q, fam, kind)
    )
    qs = build_QS(fam, U2Variant.LITERAL, kind)
    assert len(qs) == len(expected)
    assert qs == expected


@pytest.mark.parametrize("members,admits", [
    ([TWO], [TWO]),              # the empty candidate survives
    ([ONE, TWO], [TWO]),         # ONE's orders survive beside TWO's empty part
    ([ONE, TWO], [ONE]),
])
def test_literal_mask_filter_follows_members_that_admit_the_empty_relation(
        monkeypatch, members, admits):
    # The members in ``admits`` also admit the empty relation (least element:
    # their first element), for the mask filter and phi1 alike.
    # Picks are shared by the members of one size; these members differ in size.
    assert len({len(a) for a in members}) == len(members)
    real = construction._picks
    sizes = {len(a) for a in admits}

    def picks(n, kind):
        found = real(n, kind)
        return found + ((0, 0),) if n in sizes else found

    monkeypatch.setattr(construction, "_picks", picks)
    fam = Family.of(members)
    kind = OrderKind.WELL_ORDER
    expected = make_set(
        q for q in build_U2_base(fam, U2Variant.LITERAL).children
        if phi1_holds(q, fam, kind)
    )
    qs = build_QS(fam, U2Variant.LITERAL, kind)
    assert len(qs) == len(expected) > 0
    assert qs == expected


def test_q_s_equality_is_set_equality():
    union = U2Variant.UNION_OF_PRODUCTS
    wo = build_QS(Family.of([TWO]), union, OrderKind.WELL_ORDER)
    pol = build_QS(Family.of([TWO]), union, OrderKind.PARTIAL_ORDER_WITH_LEAST)
    assert wo == pol  # the same two orders on a 2-element carrier
    assert wo != build_QS(RUNNING, union, OrderKind.WELL_ORDER)
    assert build_QS(Family.of([EMPTY]), union, OrderKind.WELL_ORDER) == build_QS(
        RUNNING, U2Variant.LITERAL, OrderKind.WELL_ORDER)  # both empty
    assert wo == make_set(wo.children)


def q_count(members, kind: OrderKind) -> int:
    """|Q_S| of the family of ``members`` under the union U2, which bounds it
    under the literal U2."""
    return math.prod(len(construction._picks(len(a), kind)) for a in set(members))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3),
       st.sampled_from(list(OrderKind)), st.sampled_from(list(U2Variant)))
@example([ONE, TWO], OrderKind.WELL_ORDER, U2Variant.LITERAL)  # "relations": []
@example([EMPTY, make_set((E, S1))], OrderKind.PARTIAL_ORDER_WITH_LEAST,
         U2Variant.UNION_OF_PRODUCTS)
@example([A4], OrderKind.PARTIAL_ORDER_WITH_LEAST, U2Variant.UNION_OF_PRODUCTS)
def test_q_s_literals_and_the_enumerate_report_equal_the_materialized_q_s(
        tmp_path_factory, members, kind, variant):
    assume(q_count(members, kind) <= 6000)
    fam = Family.of(members)
    qs = build_QS(fam, variant, kind)
    literals = ["{" + body + "}" for body in qs.literals()]
    expected = [hfs_literal(q) for q in qs.children]
    assert literals == expected
    path = tmp_path_factory.mktemp("family") / "family.json"
    path.write_text(json.dumps({"family": [hfs_literal(a) for a in fam]}))
    status, rendered = cli.execute(cli.RunConfig(
        command="enumerate", family=str(path), kind=kind.value, u2=variant.value))
    assert status == 0
    report = json.loads(rendered)
    assert report["q_s"] == {"size": len(expected), "relations": expected}
    assert rendered == json.dumps(report, indent=2) + "\n"


# --- the mask route against the routes it replaced ---------------------------

@st.composite
def small_q_s(draw):
    """A family of members from SUBSETS4_UP_TO_3, a kind and a variant, with
    at most 6,000 Q's, so the slow routes stay cheap."""
    kind = draw(st.sampled_from(list(OrderKind)))
    variant = draw(st.sampled_from(list(U2Variant)))
    members = draw(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3).filter(
        lambda ms: q_count(ms, kind) <= 6000))
    return Family.of(members), variant, kind


def merged_position_route(qs) -> tuple:
    """Q_S's children and literals by the route masks replaced: each pick as
    sorted positions in the union base, each Q as its picks' positions
    merged, ordered by (1 + rank of the last position, size, positions)."""
    cells = [construction._cells(a) for a in qs.members]
    base = make_set(itertools.chain.from_iterable(cells)).children
    position = {p: i for i, p in enumerate(base)}
    indexed = [[sorted(position[member_cells[b]] for b in construction._bits(mask))
                for mask, _ in member_picks]
               for member_cells, member_picks in zip(cells, qs.picks)]
    merged = {tuple(sorted(itertools.chain.from_iterable(combo)))
              for combo in itertools.product(*indexed)}
    order = sorted(merged, key=lambda s: (1 + base[s[-1]].rank, len(s), s) if s else (0, 0, s))
    children = tuple(make_set(base[i] for i in s) for s in order)
    literals = ["{" + ",".join(hfs_literal(base[i]) for i in s) + "}" for s in order]
    return children, literals


def sorted_fc_route(family: Family, qs) -> tuple:
    """F_c by the route the product order replaced: each member's leasts in
    pick order, every graph built, then one canonical-key sort."""
    tagged = [[ordered_pair(a, a.children[i]) for i in dict.fromkeys(x for _, x in member_picks)]
              for a, member_picks in zip(family.members.children, qs.picks)]
    return tuple(sorted((make_set(chosen) for chosen in itertools.product(*tagged)),
                        key=canonical_key))


THREE = make_set((E, S1, S2))


@settings(max_examples=60, deadline=None)
@given(small_q_s())
@example((Family.of([THREE, make_set((E, D))]), U2Variant.UNION_OF_PRODUCTS,
          OrderKind.UNIQUE_UNIVERSAL))  # Q's of many sizes
@example((Family.of([THREE]), U2Variant.LITERAL, OrderKind.UNIQUE_UNIVERSAL))
@example((RUNNING, U2Variant.LITERAL, OrderKind.WELL_ORDER))  # Q_S empty
def test_q_s_masks_match_the_merged_position_route(case):
    family, variant, kind = case
    qs = build_QS(family, variant, kind)
    children, literals = merged_position_route(qs)
    assert qs.children == children
    assert ["{" + body + "}" for body in qs.literals()] == literals


@settings(max_examples=60, deadline=None)
@given(small_q_s())
@example((Family.of([THREE, make_set((E, D)), ONE]), U2Variant.UNION_OF_PRODUCTS,
          OrderKind.PARTIAL_ORDER_WITH_LEAST))
@example((Family.of([EMPTY, TWO]), U2Variant.UNION_OF_PRODUCTS, OrderKind.WELL_ORDER))
def test_build_fc_product_order_matches_the_sorted_route(case):
    family, variant, kind = case
    qs = build_QS(family, variant, kind)
    assert build_Fc(family, qs) == sorted_fc_route(family, qs)


def comprehension_visit_route(family: Family, qs) -> tuple:
    """``build_Fc_literal`` with the visit the set intersection replaced: a
    list comprehension over ``range(1 << k)`` that tests each mask."""
    candidates = cartesian(family.members, family.union)
    k = len(candidates)
    bit_of = {unpair(p): 1 << (k - 1 - i) for i, p in enumerate(candidates.children)}
    members = family.members.children
    tests = [(bit_of[a, m], ((1 << len(a)) - 1) << (offset + i * len(a)))
             for offset, a in zip(construction._offsets(members), members)
             for i, m in enumerate(a.children)]
    valid_masks = set()
    for combo in itertools.product(*construction._union_masks(qs)):
        present = sum(combo)
        valid_masks.add(sum(chosen for chosen, needed in tests if needed & present == needed))
    return hfs.subsets_of(candidates, [mask for mask in range(1 << k)
                                       if mask in valid_masks]).children


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=4),
       st.sampled_from(list(OrderKind)), st.sampled_from(list(U2Variant)))
@example([THREE, make_set((E, S1, D)), make_set((S1, S2, D)), make_set((E, S2, D))],
         OrderKind.WELL_ORDER, U2Variant.UNION_OF_PRODUCTS)  # k = 16
@example([THREE, make_set((E, D))], OrderKind.UNIQUE_UNIVERSAL, U2Variant.UNION_OF_PRODUCTS)
@example([EMPTY, TWO], OrderKind.PARTIAL_ORDER_WITH_LEAST, U2Variant.UNION_OF_PRODUCTS)
@example([ONE, TWO], OrderKind.WELL_ORDER, U2Variant.LITERAL)  # Q_S empty
def test_the_intersection_visit_equals_the_comprehension_it_replaces(members, kind, variant):
    assume(q_count(members, kind) <= 6000)
    family = Family.of(members)
    assume(len(family.members) * len(family.union) <= 16)
    qs = build_QS(family, variant, kind)
    assert build_Fc_literal(family, qs) == comprehension_visit_route(family, qs)


# --- the per-pick row test against the per-Q loop -----------------------------

@st.composite
def rows_of(draw, n: int) -> int:
    """An n²-bit mask in the row layout, each row full or any n-bit row, so
    that masks with no, one or several full rows all occur."""
    full = (1 << n) - 1
    rows = draw(st.lists(st.one_of(st.just(full), st.integers(0, full)), min_size=n, max_size=n))
    return construction._rows_mask(rows)


@st.composite
def drawn_q_s(draw):
    """A family of 1-4 members from SUBSETS4_UP_TO_3 with k <= 16, and a
    QSet over it whose picks are arbitrary masks, up to four per member."""
    members = draw(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=4))
    family = Family.of(members)
    assume(len(family.members) * len(family.union) <= 16)
    picks = tuple(
        tuple(draw(st.lists(st.tuples(rows_of(len(a)), st.integers(0, max(len(a) - 1, 0))),
                            max_size=4)))
        for a in family.members.children)
    return family, construction.QSet(family.members.children, picks)


@settings(max_examples=150, deadline=None)
@given(drawn_q_s())
@example((Family.of([THREE, A4]), construction.QSet(
    Family.of([THREE, A4]).members.children,
    (((0b111_111_111, 0), (0b001_111_010, 1), (0, 0)), ((0xFFFF, 0), (0x0F0F, 2))))))
def test_the_per_pick_row_test_equals_the_per_q_loop(case):
    family, qs = case
    assert build_Fc_literal(family, qs) == comprehension_visit_route(family, qs)


def test_the_per_pick_row_test_equals_the_per_q_loop_on_every_small_family():
    # Every family of one or two members of SUBSETS4 (all have k <= 16),
    # under every kind and both U2 variants, where the loop meets at most
    # 6,000 Q's.
    families = [c for r in (1, 2) for c in itertools.combinations(SUBSETS4, r)]
    checked = 0
    for members, kind, variant in itertools.product(families, OrderKind, U2Variant):
        if q_count(members, kind) <= 6000:
            family = Family.of(members)
            qs = build_QS(family, variant, kind)
            assert build_Fc_literal(family, qs) == comprehension_visit_route(family, qs)
            checked += 1
    assert checked == 774


def test_the_full_row_memo_is_keyed_by_the_picks():
    # Two pick tuples of one size share no answer, and neither does one
    # pick tuple under another member size.
    with cold_caches():
        assert construction._full_rows(2, ((0b0111, 0),)) == {(0,)}
        assert construction._full_rows(2, ((0b1111, 0),)) == {(0, 1)}
        assert construction._full_rows(4, ((0b1111, 0),)) == {(0,)}
        assert construction._full_rows.cache_info().misses == 3
