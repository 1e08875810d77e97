"""Choice over rational intervals, and the distance order around the choice.

Every nonempty interval gets a canonical point: 0 on the full line, the
midpoint when both ends are finite, one unit inside the finite end of a ray.
Around that point a* the predicate ``pol_compare`` orders the line by
distance from a*, ties broken toward the smaller number; restricted to any
finite sample it is a partial order with least element a*.

Endpoints are exact rationals (fractions.Fraction), so every check here is
decidable equality, never a tolerance.  The interval checks compare
rationals by integer cross-multiplication: with b, d > 0, a/b < c/d iff
a*d < c*b.  The sample check puts its points over one common denominator
and compares their distance keys as integers, which is exact too.
``phi2_holds`` and ``pol_compare`` stay Fraction formulations, the
independent statements the integer checks are tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import EmptyInterval, ParseError, SampleOutsideInterval
from .orders import PropertyReport, properties_from_rows

__all__ = [
    "Interval", "Rational", "choice_value", "hyper_choice", "parse_interval",
    "parse_rational", "phi2_holds", "pol_compare", "sample_check_pol",
]

Rational = Fraction

_RAT = re.compile(r"-?\d+(?:/\d+)?\Z")
_INTERVAL = re.compile(
    r"([(\[])(-inf|-?\d+(?:/\d+)?),(\+inf|-?\d+(?:/\d+)?)([)\]])\Z"
)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT.match(text):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval; None endpoints are infinite."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ValueError("an infinite left end must be open")
        if self.hi is None and self.hi_closed:
            raise ValueError("an infinite right end must be open")
        if self.lo is not None and self.hi is not None:
            (ln, ld), (hn, hd) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
            c = hn * ld - ln * hd  # the sign of hi - lo
            if c < 0:
                raise EmptyInterval(f"{self.lo} > {self.hi}")
            if c == 0 and not (self.lo_closed and self.hi_closed):
                raise EmptyInterval(
                    f"a point interval at {self.lo} needs both ends closed"
                )

    def contains(self, x: Fraction) -> bool:
        if isinstance(x, float) and not math.isfinite(x):
            return False  # inf and nan are not rationals
        n, d = x.as_integer_ratio()
        if self.lo is not None:
            ln, ld = self.lo.as_integer_ratio()
            c = n * ld - ln * d  # the sign of x - lo
            if c < 0 or (c == 0 and not self.lo_closed):
                return False
        if self.hi is not None:
            hn, hd = self.hi.as_integer_ratio()
            c = hn * d - n * hd  # the sign of hi - x
            if c < 0 or (c == 0 and not self.hi_closed):
                return False
        return True

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{left}{lo},{hi}{right}"


def parse_interval(text: str) -> Interval:
    """Literal grammar: ``('('|'[') (rat|-inf) ',' (rat|+inf) (')'|']')``."""
    m = _INTERVAL.match(text.strip())
    if not m:
        raise ParseError(f"not an interval literal: {text!r}")
    left, lo_text, hi_text, right = m.groups()
    lo = None if lo_text == "-inf" else parse_rational(lo_text)
    hi = None if hi_text == "+inf" else parse_rational(hi_text)
    return Interval(lo, hi, left == "[", right == "]")


def choice_value(i: Interval) -> Fraction:
    """The canonical point: 0, midpoint, or one unit inside a ray's end."""
    if i.lo is None and i.hi is None:
        return Fraction(0)
    if i.lo is None:
        n, d = i.hi.as_integer_ratio()
        return Fraction(n - d, d)
    if i.hi is None:
        n, d = i.lo.as_integer_ratio()
        return Fraction(n + d, d)
    (ln, ld), (hn, hd) = i.lo.as_integer_ratio(), i.hi.as_integer_ratio()
    return Fraction(ln * hd + hn * ld, 2 * ld * hd)


def phi2_holds(i: Interval, x: Fraction) -> bool:
    """Does ``x`` satisfy the defining condition of the canonical point?

    Deliberately a separate case analysis rather than a call to
    :func:`choice_value`, so the two can be checked against each other.
    """
    if not i.contains(x):
        return False
    if i.lo is None and i.hi is None:
        return x == 0
    if i.lo is None:
        return x == i.hi - 1
    if i.hi is None:
        return x == i.lo + 1
    return 2 * x == i.lo + i.hi


def pol_compare(a_star: Fraction, x: Fraction, y: Fraction) -> bool:
    """Distance order around a*: nearer wins, equal distance prefers smaller."""
    return (abs(x - a_star), x) <= (abs(y - a_star), y)


def sample_check_pol(i: Interval, sample: Iterable[Fraction]) -> PropertyReport:
    """Order a finite sample of the interval by distance from its canonical
    point and report the relation's properties.

    The canonical point joins the sample automatically.  Expected outcome on
    any sample: reflexive, antisymmetric, transitive, total, least point the
    canonical one.
    """
    a_star = choice_value(i)
    points = [a_star]
    for x in sample:
        if not i.contains(x):
            raise SampleOutsideInterval(f"{x} is outside {i}")
        points.append(x)
    # Each point as its numerator over one common denominator (exact for a
    # float too); equal points share one numerator.
    ratios = [x.as_integer_ratio() for x in points]
    d = math.lcm(*(den for _, den in ratios))
    numerators = [num * (d // den) for num, den in ratios]
    scaled = dict(zip(numerators, points))
    order = sorted(scaled)
    elements = tuple(scaled[n] for n in order)
    # Each point's distance key once, as integers, then every ordered pair
    # compared as pol_compare compares them.
    a = numerators[0]  # a*
    keys = [(abs(n - a), n) for n in order]
    rows = []
    for kx in keys:
        row, bit = 0, 1
        for ky in keys:
            if kx <= ky:
                row |= bit
            bit <<= 1
        rows.append(row)
    return properties_from_rows(tuple(rows), elements)


def hyper_choice(intervals: Sequence[Union[Interval, str]]) -> tuple:
    """Componentwise canonical points of a finite product of intervals."""
    chosen = []
    for index, item in enumerate(intervals):
        try:
            interval = parse_interval(item) if isinstance(item, str) else item
        except (EmptyInterval, ParseError, ValueError) as e:
            raise type(e)(f"component {index}: {e}") from None
        chosen.append(choice_value(interval))
    return tuple(chosen)
