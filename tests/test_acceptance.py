"""Acceptance suite: one test per product-level guarantee.

Each criterion is a single test function that prints one [PASS]/[FAIL] line
(visible with ``pytest -s``); the pytest verdict per function is the
authoritative pass/fail signal.  The heavy criteria run the complete
2625-family space; stated time budgets are asserted, not aspirational.
"""

import itertools
import random
import time
from fractions import Fraction as Q

from helpers import (
    UNIVERSE4,
    UNIVERSE5,
    nonempty_subsets,
    pol_verbatim,
    singleton_witness_corpus,
    small_family_space,
    to_frozen,
)
from zflab import cli, oracle
from zflab.construction import (
    Family,
    U2Variant,
    build_Fc,
    build_Fc_literal,
    build_QS,
)
from zflab.errors import EmptyInterval
from zflab.formula import eval_formula, parse_formula, separation
from zflab.hfs import (
    EMPTY,
    is_member,
    iter_hfs_by_rank,
    make_set,
    ordered_pair,
    powerset,
    unpair,
)
from zflab.intervals import choice_value, parse_interval, sample_check_pol
from zflab.orders import (
    OrderKind,
    enumerate_orders,
    least_element,
    order_from_formula,
    satisfies,
)

WO = OrderKind.WELL_ORDER
POL = OrderKind.PARTIAL_ORDER_WITH_LEAST
UNION = U2Variant.UNION_OF_PRODUCTS
LITERAL = U2Variant.LITERAL

_space_cache = []


def _space():
    if not _space_cache:
        _space_cache.extend(small_family_space())
    return _space_cache


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_choice_set_completeness():
    """Closed-route F_c equals the brute-force choice enumeration on every
    small family, for both order kinds, inside the time budget."""
    start = time.perf_counter()
    families = _space()
    mismatches = 0
    for members in families:
        fam = Family(members)
        expected = oracle.enumerate_choice_functions(members)
        for kind in (WO, POL):
            got = build_Fc(fam, build_QS(fam, UNION, kind))
            if got != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: choice-set completeness",
        mismatches == 0 and elapsed < 60.0,
        f"{len(families)} families x 2 kinds, {mismatches} mismatches, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_2_selection_routes_agree():
    """Separating function graphs out of the full powerset of A_S x A_U gives
    the same F_c as the closed route, wherever that powerset is in reach."""
    checked = 0
    mismatches = 0
    for members in _space():
        fam = Family(members)
        if len(fam.members) * len(fam.union) > 16:
            continue
        checked += 1
        qs = build_QS(fam, UNION, WO)
        direct = build_Fc_literal(fam, qs)
        closed = build_Fc(fam, qs)
        if list(direct) != list(closed):
            mismatches += 1
    _report(
        "criterion 2: subset-filter route agreement",
        checked > 0 and mismatches == 0,
        f"{checked} families within the 16-pair bound, {mismatches} mismatches",
    )


def test_criterion_3_literal_universe_finding():
    """The single-member candidate universe empties Q_S on every multi-member
    family and coincides with the product route on singletons."""
    multi_bad = 0
    single_bad = 0
    multi = single = 0
    for members in _space():
        fam = Family(members)
        if len(fam.members) >= 2:
            multi += 1
            if len(build_QS(fam, LITERAL, WO)) != 0:
                multi_bad += 1
        else:
            single += 1
            for kind in (WO, POL):
                if build_QS(fam, LITERAL, kind) != build_QS(fam, UNION, kind):
                    single_bad += 1
    _report(
        "criterion 3: literal-universe finding",
        multi_bad == 0 and single_bad == 0,
        f"{multi} multi-member families all empty, "
        f"{single} singletons agree across variants",
    )


def test_criterion_4_order_counts():
    """Order counts on 0..3 carriers, brute-forced at test time."""
    wo = tuple(oracle.count_orders(n, "wellorder") for n in range(4))
    pol = tuple(oracle.count_orders(n, "pol") for n in range(4))
    via_enum = all(
        oracle.count_orders(n, kind) == len(
            enumerate_orders(make_set(UNIVERSE4[:n]), kind)
        )
        for n in range(4)
        for kind in OrderKind
    )
    factorial4 = oracle.count_orders(4, "wellorder") == 24
    _report(
        "criterion 4: order counts",
        wo == (1, 1, 2, 6) and pol == (1, 1, 2, 9) and via_enum and factorial4,
        f"wellorder {wo}, pol {pol}, enumeration agrees, 4-carrier gives 24",
    )


def test_criterion_5_formula_roundtrip():
    """Orders rebuilt from their least-element formulas keep the least; a
    20-formula corpus with unique witnesses yields verbatim partial orders
    with least."""
    failures = 0
    rebuilt = 0
    phi = parse_formula("forall b in A . (x,b) in R")
    for n in range(1, 4):
        carrier = make_set(UNIVERSE4[:n])
        for r in enumerate_orders(carrier, POL):
            rebuilt += 1
            r2 = order_from_formula(carrier, phi, {"A": carrier, "R": r.pairs})
            if not satisfies(r2, POL):
                failures += 1
            elif least_element(r2) != least_element(r):
                failures += 1
    corpus_checked = 0
    for carrier, text, witness in singleton_witness_corpus():
        corpus_checked += 1
        r = order_from_formula(carrier, parse_formula(text))
        if not pol_verbatim(r) or least_element(r) != witness:
            failures += 1
    _report(
        "criterion 5: least-element formula roundtrip",
        failures == 0 and rebuilt == 12 and corpus_checked == 20,
        f"{rebuilt} rebuilt orders + {corpus_checked}-formula corpus, "
        f"{failures} failures",
    )


def test_criterion_6_choice_orderability_equivalence():
    """Choice existence coincides with every member being orderable with a
    least, across the exhaustive spaces and a seeded fuzz run."""
    disagreements = 0
    for members in _space():
        if not oracle.verify_equivalence(members).agree:
            disagreements += 1

    atoms_members = nonempty_subsets(UNIVERSE4, 4)
    pair_space = 0
    for m1 in atoms_members:
        for m2 in atoms_members:
            pair_space += 1
            if not oracle.verify_equivalence(make_set((m1, m2))).agree:
                disagreements += 1

    rng = random.Random(42)
    fuzzed = 0
    with_empty = 0
    for allow_empty in (False, True):
        for _ in range(500):
            fam = cli._random_family(rng, UNIVERSE4, allow_empty)
            fuzzed += 1
            verdict = oracle.verify_equivalence(fam)
            if not verdict.agree:
                disagreements += 1
            if fam.has_empty_member:
                with_empty += 1
                if verdict.has_choice or verdict.all_members_have_pol:
                    disagreements += 1
    _report(
        "criterion 6: choice/orderability equivalence",
        disagreements == 0 and pair_space == 225 and fuzzed == 1000,
        f"{len(_space())} exhaustive + {pair_space} member-pair + {fuzzed} "
        f"fuzzed families ({with_empty} with an empty member), "
        f"{disagreements} disagreements",
    )


def test_criterion_7_interval_choice_values():
    """The four case values of the interval choice function, exactly."""
    got = {
        "[1,3]": choice_value(parse_interval("[1,3]")),
        "(-inf,5]": choice_value(parse_interval("(-inf,5]")),
        "(0,+inf)": choice_value(parse_interval("(0,+inf)")),
        "(-inf,+inf)": choice_value(parse_interval("(-inf,+inf)")),
    }
    want = {"[1,3]": Q(2), "(-inf,5]": Q(4), "(0,+inf)": Q(1),
            "(-inf,+inf)": Q(0)}
    _report(
        "criterion 7: interval choice values",
        got == want,
        ", ".join(f"{k} -> {v}" for k, v in got.items()),
    )


def test_criterion_8_interval_order_property():
    """The distance order around the chosen point is a total partial order
    with that least point, on 200 seeded random samples, quickly."""
    start = time.perf_counter()
    rng = random.Random(42)
    failures = 0
    for _ in range(200):
        interval = cli._random_interval(rng)
        sample = cli._random_sample(rng, interval)
        props = sample_check_pol(interval, sample)
        ok = (props.reflexive and props.antisymmetric and props.transitive
              and props.total and props.least == choice_value(interval))
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8: interval distance order",
        failures == 0 and elapsed < 5.0,
        f"200 instances, {failures} failures, {elapsed:.2f}s < 5s",
    )


def test_criterion_9_kernel_laws():
    """Pair injectivity, powerset cardinality, separation as a filter."""
    seen = {}
    pair_ok = True
    for x in UNIVERSE4:
        for y in UNIVERSE4:
            p = ordered_pair(x, y)
            if p in seen and seen[p] != (x, y):
                pair_ok = False
            seen[p] = (x, y)
            view = unpair(p)
            if view.first is not x or view.second is not y:
                pair_ok = False
    pair_ok = pair_ok and len(seen) == 16

    elems = iter_hfs_by_rank(3)[:6]
    powerset_ok = all(
        len(powerset(make_set(elems[:n]))) == 2 ** n for n in range(7)
    )

    sep_ok = True
    domains = [make_set(UNIVERSE4), make_set(UNIVERSE5), powerset(make_set(UNIVERSE4[:3]))]
    texts = ["{} in x", "x = {}", "exists y in x . y = {{}}",
             "(forall y in x . false) | {{}} in x"]
    for domain in domains:
        for text in texts:
            phi = parse_formula(text)
            filtered = make_set(
                x for x in domain.children if eval_formula(phi, {"x": x})
            )
            if separation(domain, "x", phi) != filtered:
                sep_ok = False
    _report(
        "criterion 9: kernel laws",
        pair_ok and powerset_ok and sep_ok,
        "16 distinct pairs decode, powerset sizes 2^n for n<=6, "
        "separation is the comprehension filter",
    )
