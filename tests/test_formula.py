"""Formula language tests: grammar, evaluation, separation, printing."""

import pytest
from hypothesis import given, strategies as st

from helpers import UNIVERSE4, to_frozen
from zflab.errors import ParseError, UnboundVariable
from zflab.formula import (
    And,
    BoolConst,
    Equals,
    ExistsIn,
    ExistsUniqueIn,
    ForallIn,
    Iff,
    Implies,
    Literal,
    MemberOf,
    Not,
    Or,
    PairTerm,
    SetTerm,
    Var,
    eval_formula,
    eval_term,
    format_formula,
    free_vars,
    parse_formula,
    separation,
)
from zflab.hfs import EMPTY, make_set, ordered_pair

E, S1, S2, D = UNIVERSE4


def test_atoms_and_constants():
    assert parse_formula("true") == BoolConst(True)
    assert parse_formula("false") == BoolConst(False)
    assert parse_formula("x in y") == MemberOf(Var("x"), Var("y"))
    assert parse_formula("x = y") == Equals(Var("x"), Var("y"))


def test_bare_identifier_is_not_a_formula():
    with pytest.raises(ParseError):
        parse_formula("x")
    with pytest.raises(ParseError):
        parse_formula("x & y")


def test_connective_precedence():
    f = parse_formula("x = x & y = y | z = z")
    assert isinstance(f, Or)
    assert isinstance(f.left, And)
    g = parse_formula("!x = x & y = y")
    assert isinstance(g, And)
    assert isinstance(g.left, Not)


def test_implies_is_right_associative():
    f = parse_formula("x = x -> y = y -> z = z")
    assert isinstance(f, Implies)
    assert isinstance(f.right, Implies)
    assert isinstance(f.left, Equals)


def test_iff_and_and_are_left_associative():
    f = parse_formula("x = x <-> y = y <-> z = z")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Iff)
    g = parse_formula("x = x & y = y & z = z")
    assert isinstance(g, And)
    assert isinstance(g.left, And)


def test_quantifier_body_extends_right():
    f = parse_formula("forall x in y . x = x & false")
    assert isinstance(f, ForallIn)
    assert isinstance(f.body, And)


def test_exists_unique_spelling():
    a = parse_formula("exists! x in y . true")
    b = parse_formula("exists ! x in y . true")
    assert a == b == ExistsUniqueIn("x", Var("y"), BoolConst(True))


def test_ground_set_literal_folds():
    f = parse_formula("x in {{},{{}}}")
    assert f.container == Literal(D)


def test_symbolic_set_literal_stays_a_term():
    f = parse_formula("{x,{}} = y")
    assert f.left == SetTerm((Var("x"), Literal(EMPTY)))
    assert eval_term(f.left, {"x": S1}) == make_set((S1, EMPTY))


def test_pair_term_evaluates_to_encoded_pair():
    t = parse_formula("(x,{}) in y").item
    assert isinstance(t, PairTerm)
    assert eval_term(t, {"x": S1}) == ordered_pair(S1, EMPTY)


@pytest.mark.parametrize("bad,offset_hint", [
    ("x =", None),
    ("forall x . true", None),
    ("(x = y", None),
    ("x in in y", None),
    ("exists x in y", None),
    ("x = y)", None),
])
def test_parse_errors(bad, offset_hint):
    with pytest.raises(ParseError):
        parse_formula(bad)


@pytest.mark.parametrize("deep", [
    "!" * 3000 + "x = x",
    "(" * 3000 + "x = x" + ")" * 3000,
    "x = " + "{" * 3000 + "}" * 3000,
], ids=["not", "parens", "braces"])
def test_deep_nesting_is_a_parse_error(deep):
    with pytest.raises(ParseError) as err:
        parse_formula(deep)
    assert type(err.value) is ParseError
    assert str(err.value).startswith("formula nested too deeply")


def test_a_hundred_nested_parentheses_still_parse():
    assert parse_formula("(" * 100 + "x = y" + ")" * 100) == Equals(Var("x"), Var("y"))


def test_quantifier_semantics_on_empty_domain():
    assert eval_formula(parse_formula("forall x in {} . false"), {})
    assert not eval_formula(parse_formula("exists x in {} . true"), {})
    assert not eval_formula(parse_formula("exists! x in {} . true"), {})


def test_exists_unique_counts():
    env = {"d": D}
    assert eval_formula(parse_formula("exists! x in d . x = {}"), env)
    assert not eval_formula(parse_formula("exists! x in d . true"), env)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_formula(parse_formula("x = {}"), {})


@pytest.mark.parametrize("text,expected", [
    ("false & x = {}", False),
    ("true | x = {}", True),
    ("false -> x = {}", True),
])
def test_binary_connectives_short_circuit(text, expected):
    # x is unbound, so reading the right side would raise
    assert eval_formula(parse_formula(text), {}) is expected


@pytest.mark.parametrize("text,expected", [
    ("exists x in d . x = {} | z = {}", True),  # stops at its first hit
    ("forall x in d . x = {{}} & z = {}", False),  # stops at its first miss
    ("exists! x in d . x = {} | x = {{}} | z = {}", False),  # stops at its second hit
])
def test_quantifiers_stop_once_decided(text, expected):
    # d's next element would evaluate the unbound z
    d = make_set((E, S1, S2))
    assert d.children == (E, S1, S2)
    assert eval_formula(parse_formula(text), {"d": d}) is expected


def test_shadowing_restores_outer_binding():
    # the quantified x shadows the outer one inside, not after
    f = parse_formula("(exists x in d . x = {}) & x = {{}}")
    assert eval_formula(f, {"x": S1, "d": D})
    assert not eval_formula(f, {"x": E, "d": D})


def test_free_vars():
    f = parse_formula("forall x in y . (x,z) in w")
    assert free_vars(f) == frozenset({"y", "z", "w"})


def test_membership_and_equality_semantics():
    env = {"a": E, "b": S1}
    assert eval_formula(parse_formula("a in b"), env)
    assert not eval_formula(parse_formula("b in a"), env)
    assert eval_formula(parse_formula("a = {}"), env)


def test_separation_is_a_filter():
    carrier = make_set(UNIVERSE4)
    got = separation(carrier, "x", parse_formula("{} in x"))
    want = [x for x in carrier.children if to_frozen(E) in to_frozen(x)]
    assert list(got.children) == want


def test_separation_with_env():
    carrier = make_set(UNIVERSE4)
    phi = parse_formula("y in x")
    got = separation(carrier, "x", phi, {"y": S1})
    assert list(got.children) == [x for x in carrier.children if S1 in x.children]


# --- printer roundtrip --------------------------------------------------------

_atom_terms = st.sampled_from([
    Var("x"), Var("y"), Literal(EMPTY), Literal(S1),
    PairTerm(Var("x"), Literal(EMPTY)),
    SetTerm((Var("x"),)), SetTerm((Var("y"), Literal(D))),
])

_atoms = st.one_of(
    st.just(BoolConst(True)),
    st.just(BoolConst(False)),
    st.builds(MemberOf, _atom_terms, _atom_terms),
    st.builds(Equals, _atom_terms, _atom_terms),
)


def _compounds(inner):
    name = st.sampled_from(["x", "y", "z"])
    return st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(ForallIn, name, _atom_terms, inner),
        st.builds(ExistsIn, name, _atom_terms, inner),
        st.builds(ExistsUniqueIn, name, _atom_terms, inner),
    )


@given(st.recursive(_atoms, _compounds, max_leaves=10))
def test_print_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


def test_printer_spells_known_forms():
    assert format_formula(parse_formula("x = x -> y = y -> z = z")) \
        == "x = x -> y = y -> z = z"
    f = Implies(Implies(Equals(Var("x"), Var("x")), BoolConst(True)), BoolConst(False))
    assert parse_formula(format_formula(f)) == f
