"""Interval arm tests: parsing, choice values, the distance order.

The interval checks compare rationals by integer cross-multiplication; each
is tested against the Fraction-operator formulation it replaced, kept here
as a reference.
"""

import math
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from zflab import intervals
from zflab.errors import EmptyInterval, ParseError, SampleOutsideInterval
from zflab.intervals import (
    Interval,
    choice_value,
    hyper_choice,
    parse_interval,
    parse_rational,
    phi2_holds,
    pol_compare,
    sample_check_pol,
)


def test_parse_rational():
    assert parse_rational("-7/2") == Q(-7, 2)
    assert parse_rational("14") == Q(14)
    assert parse_rational("6/4") == Q(3, 2)
    for bad in ("", "1.5", "7/", "/2", "1/-2", "+3", "a"):
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_interval_literal_roundtrip():
    for text in ("[1,3]", "(0,5)", "[-7/2,0)", "(-inf,5]", "[2,+inf)",
                 "(-inf,+inf)", "[4,4]"):
        assert str(parse_interval(text)) == text


def test_parse_interval_rejects_malformed():
    for bad in ("", "1,3", "[1;3]", "[1,3", "{1,3}", "[inf,3]", "[1,-inf]"):
        with pytest.raises(ParseError):
            parse_interval(bad)


def test_empty_intervals_rejected():
    for bad in ("(3,3)", "(3,3]", "[3,3)", "[5,1]"):
        with pytest.raises(EmptyInterval):
            parse_interval(bad)


def test_infinite_ends_must_be_open():
    with pytest.raises(ValueError):
        parse_interval("[-inf,0]")
    with pytest.raises(ValueError):
        parse_interval("(0,+inf]")
    with pytest.raises(ValueError):
        Interval(None, Q(0), True, True)


def test_containment():
    i = parse_interval("(0,5]")
    assert Q(5) in i and Q(1, 2) in i
    assert Q(0) not in i and Q(6) not in i
    ray = parse_interval("[3,+inf)")
    assert Q(3) in ray and Q(10**9) in ray and Q(2) not in ray


@pytest.mark.parametrize("text,expected", [
    ("[1,3]", Q(2)),
    ("(-inf,5]", Q(4)),
    ("(0,+inf)", Q(1)),
    ("(-inf,+inf)", Q(0)),
    ("(1,4)", Q(5, 2)),
    ("[4,4]", Q(4)),
    ("(-inf,0)", Q(-1)),
    ("[-3/2,+inf)", Q(-1, 2)),
])
def test_choice_values(text, expected):
    assert choice_value(parse_interval(text)) == expected


def _grid_intervals():
    grid = [Q(n) for n in range(-6, 7)] + [Q(1, 2), Q(-5, 3)]
    out = []
    for lo in grid:
        for hi in grid:
            for lo_closed in (True, False):
                for hi_closed in (True, False):
                    try:
                        out.append(Interval(lo, hi, lo_closed, hi_closed))
                    except EmptyInterval:
                        pass
    for v in grid:
        out.append(Interval(None, v, False, True))
        out.append(Interval(None, v, False, False))
        out.append(Interval(v, None, True, False))
        out.append(Interval(v, None, False, False))
    out.append(Interval(None, None, False, False))
    return out


def test_choice_value_lands_inside_every_interval():
    for i in _grid_intervals():
        assert choice_value(i) in i


def test_phi2_holds_exactly_at_the_choice_value():
    probes = [Q(n) for n in range(-8, 9)] + [Q(1, 2), Q(-5, 3), Q(7, 3)]
    for i in _grid_intervals():
        a = choice_value(i)
        assert phi2_holds(i, a)
        for x in probes:
            assert phi2_holds(i, x) == (x == a)


def test_pol_compare_hand_cases():
    assert pol_compare(Q(2), Q(2), Q(7))
    assert pol_compare(Q(2), Q(1), Q(3))
    assert not pol_compare(Q(2), Q(3), Q(1))


_rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(_rats, _rats, _rats)
def test_pol_compare_is_total_and_antisymmetric(a_star, x, y):
    forward = pol_compare(a_star, x, y)
    backward = pol_compare(a_star, y, x)
    assert forward or backward
    if forward and backward:
        assert x == y


@given(_rats, _rats, _rats, _rats)
def test_pol_compare_is_transitive(a_star, x, y, z):
    if pol_compare(a_star, x, y) and pol_compare(a_star, y, z):
        assert pol_compare(a_star, x, z)


@given(_rats, _rats)
def test_pol_compare_least_is_a_star(a_star, x):
    assert pol_compare(a_star, a_star, x)


@given(_rats, _rats, _rats)
def test_pol_compare_is_nearer_first_then_smaller(a_star, x, y):
    dx, dy = abs(x - a_star), abs(y - a_star)
    assert pol_compare(a_star, x, y) == (dx < dy or (dx == dy and x <= y))


@st.composite
def _intervals(draw):
    lo, hi = draw(st.none() | _rats), draw(st.none() | _rats)
    if lo is not None and hi is not None:
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            return Interval(lo, hi, True, True)
    return Interval(lo, hi, lo is not None and draw(st.booleans()),
                    hi is not None and draw(st.booleans()))


# Large coprime denominators, so a sample's common denominator is large.
_wide_rats = _rats | st.sampled_from([Q(1, 10**9 + 7), Q(-2, 999983), Q(7, 2**31 - 1),
                                      Q(3, 65537), Q(-5, 998244353)])


@given(_intervals(), st.lists(_wide_rats, max_size=8), st.lists(_wide_rats, max_size=8))
@example(Interval(None, None, False, False), [Q(1, 10**9 + 7), Q(-2, 999983), Q(7, 2**31 - 1)],
         [Q(1, 10**9 + 7), Q(-2, 999983)])
def test_sample_rows_are_the_pol_compare_rows(i, points, offsets):
    # Points mirrored around a* tie on distance, so the tie-break is reached.
    a_star = choice_value(i)
    sample = [x for x in points if x in i]
    sample += [x for d in offsets for x in (a_star - d, a_star + d) if x in i]
    with mock.patch.object(intervals, "properties_from_rows",
                           wraps=intervals.properties_from_rows) as spy:
        sample_check_pol(i, sample)
    rows, elements = spy.call_args.args
    assert elements == tuple(sorted(set(sample) | {a_star}))
    assert rows == tuple(
        sum(1 << j for j, y in enumerate(elements) if pol_compare(a_star, x, y))
        for x in elements
    )


def test_sample_check_pol_worked_examples():
    r = sample_check_pol(parse_interval("[0,4]"),
                         [Q(0), Q(1), Q(2), Q(3), Q(4)])
    assert r.reflexive and r.antisymmetric and r.transitive and r.total
    assert r.least == Q(2)
    r = sample_check_pol(parse_interval("(-inf,0]"), [Q(-3), Q(-1), Q(0)])
    assert r.least == Q(-1)


def test_sample_check_pol_takes_float_points():
    # A float is a binary fraction; 0.1 and -0.1 tie on distance exactly.
    r = sample_check_pol(parse_interval("(-inf,+inf)"), [0.1, -0.1, 0.25, 1])
    assert r.reflexive and r.antisymmetric and r.transitive and r.total
    assert r.least == Q(0)


def test_sample_check_pol_adds_the_choice_point():
    r = sample_check_pol(parse_interval("[1,3]"), [])
    assert r.least == Q(2)


def test_sample_outside_interval():
    with pytest.raises(SampleOutsideInterval):
        sample_check_pol(parse_interval("[0,1]"), [Q(5)])


@pytest.mark.parametrize("text", ["(-inf,+inf)", "(0,+inf)", "(-inf,0]", "[1,3]"])
@pytest.mark.parametrize("point", [float("inf"), float("-inf"), float("nan")], ids=str)
def test_non_finite_sample_points_are_outside(text, point):
    i = parse_interval(text)
    assert not i.contains(point)
    with pytest.raises(SampleOutsideInterval):
        sample_check_pol(i, [point])


def test_hyper_choice():
    assert hyper_choice(["[1,3]", "[0,+inf)"]) == (Q(2), Q(1))
    assert hyper_choice([parse_interval("[1,3]")]) == (Q(2),)
    assert hyper_choice(["(-inf,+inf)"] * 3) == (Q(0), Q(0), Q(0))
    assert hyper_choice([]) == ()


def test_hyper_choice_reports_the_empty_component():
    with pytest.raises(EmptyInterval) as err:
        hyper_choice(["[1,3]", "(2,2)", "[0,1]"])
    assert "component 1" in str(err.value)


def test_hyper_choice_reports_the_component_with_a_closed_infinite_end():
    for bad in ("[-inf,3]", "[0,+inf]"):
        with pytest.raises(ValueError) as err:
            hyper_choice(["[1,3]", bad])
        assert type(err.value) is ValueError
        assert str(err.value).startswith("component 1: an infinite ")


@pytest.mark.parametrize("bad,message", [
    ("garbage", "component 1: not an interval literal: 'garbage'"),
    ("[1/0,3]", "component 1: zero denominator: '1/0'"),
], ids=["garbage", "zero-denominator"])
def test_hyper_choice_reports_the_component_with_a_malformed_literal(bad, message):
    with pytest.raises(ParseError) as err:
        hyper_choice(["[1,3]", bad])
    assert str(err.value) == message


# --- the integer checks against the Fraction formulations they replaced ----------

def fraction_contains(i, x) -> bool:
    """``Interval.contains`` by Fraction comparisons."""
    if isinstance(x, float) and not math.isfinite(x):
        return False
    if i.lo is not None:
        if x < i.lo or (x == i.lo and not i.lo_closed):
            return False
    if i.hi is not None:
        if x > i.hi or (x == i.hi and not i.hi_closed):
            return False
    return True


def fraction_emptiness(lo, hi, lo_closed, hi_closed):
    """The message ``Interval`` raises EmptyInterval with, by Fraction
    comparisons, or None for a nonempty interval."""
    if lo > hi:
        return f"{lo} > {hi}"
    if lo == hi and not (lo_closed and hi_closed):
        return f"a point interval at {lo} needs both ends closed"
    return None


def fraction_choice_value(i) -> Q:
    """``choice_value`` by Fraction ``+``, ``-`` and ``/`` on the exact ends."""
    if i.lo is None and i.hi is None:
        return Q(0)
    if i.lo is None:
        return Q(i.hi) - 1
    if i.hi is None:
        return Q(i.lo) + 1
    return (Q(i.lo) + Q(i.hi)) / 2


# Exact rationals of every kind a caller may hand in: small and huge
# Fractions, ints, and finite floats, whose exact ratio is a binary fraction
# (0.1 is not Fraction("0.1")).
_huge = st.integers(-10**40, 10**40)
_exact = (_rats | st.builds(Q, _huge, st.integers(1, 10**40)) | _huge
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.1, -0.1, Q(1, 10), Q(-1, 10), 5e-324, 1e300]))
_non_finite = st.sampled_from([float("inf"), float("-inf"), float("nan")])
_flags = st.booleans()


def _interval_or_none(lo, hi, lo_closed, hi_closed):
    try:
        return Interval(lo, hi, lo_closed, hi_closed)
    except EmptyInterval:
        return None


@given(st.none() | _exact, st.none() | _exact, _flags, _flags,
       st.lists(_exact | _non_finite, max_size=6))
@example(Q(0), Q(1, 10), True, True, [])  # 0.1 is above 1/10
@example(Q(1, 10), Q(1), False, True, [])
@example(0.1, Q(1), False, True, [])  # the point is the open end itself
@example(Q(-10**40, 3), Q(10**40 + 1, 3), True, False, [])
def test_contains_matches_the_fraction_comparisons(lo, hi, lo_closed, hi_closed, points):
    i = _interval_or_none(lo, hi, lo is not None and lo_closed, hi is not None and hi_closed)
    assume(i is not None)
    # Each end, and the points a decimal reading confuses with 1/10.
    ends = [e for e in (lo, hi) if e is not None]
    for x in points + ends + [0.1, -0.1, Q(1, 10), 0]:
        assert i.contains(x) == fraction_contains(i, x), x
    for x in (float("inf"), float("-inf"), float("nan")):
        assert not i.contains(x)


@given(_exact, _exact, _flags, _flags)
@example(Q(3), Q(3), True, False)
@example(Q(3), 3.0, False, True)
@example(Q(6, 4), 1.5, True, True)
@example(0.1, Q(1, 10), True, True)  # 0.1 is above 1/10: empty
@example(Q(1, 10), 0.1, False, False)
@example(Q(10**40 + 1, 10**40), Q(10**40, 10**40 - 1), True, True)
def test_emptiness_matches_the_fraction_comparisons(lo, hi, lo_closed, hi_closed):
    try:
        Interval(lo, hi, lo_closed, hi_closed)
        got = None
    except EmptyInterval as e:
        got = str(e)
    assert got == fraction_emptiness(lo, hi, lo_closed, hi_closed)


@given(st.none() | _exact, st.none() | _exact, _flags, _flags)
@example(None, 0.1, False, False)
@example(Q(1, 10**40 + 7), Q(3, 10**40 - 1), False, False)
@example(Q(-7, 2), None, True, False)
def test_choice_value_matches_the_fraction_arithmetic(lo, hi, lo_closed, hi_closed):
    i = _interval_or_none(lo, hi, lo is not None and lo_closed, hi is not None and hi_closed)
    assume(i is not None)
    value = choice_value(i)
    assert type(value) is Q
    assert value == fraction_choice_value(i)
    assert str(value) == str(fraction_choice_value(i))
    assert i.contains(value)
