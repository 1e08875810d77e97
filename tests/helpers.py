"""Shared test fixtures: small universes, family spaces, an independent
frozenset model of the set kernel, the F_c separation as formulas, and cold
pipeline memos.

The frozenset model re-expresses sets, pairs, and relation properties with
plain Python data so kernel results can be checked against something that
shares no code with the package.
"""

import contextlib
import itertools

from zflab import cli, construction, orders
from zflab.formula import parse_formula, separation
from zflab.hfs import (
    HfSet,
    cartesian,
    is_member,
    iter_hfs_by_rank,
    make_set,
    ordered_pair,
    powerset,
)

UNIVERSE4 = iter_hfs_by_rank(2)
UNIVERSE5 = iter_hfs_by_rank(3)[:5]

# Four disjoint members over a 9-element union (sizes 2, 2, 2, 3), as family
# file literals: k = 4 * 9 = 36 > 16, so ``verify`` skips the separation route.
DISJOINT4 = ["{{},{{}}}", "{{{{}}},{{},{{}}}}", "{{{{{}}}},{{{},{{}}}}}",
             "{{{},{{{}}}},{{},{{},{{}}}},{{{}},{{{}}}}}"]

# Four disjoint 3-element members, the first twelve sets of rank at most 3:
# a product-shaped family with 81 choice functions.
PRODUCT4 = ["{{},{{}},{{{}}}}", "{{{},{{}}},{{{{}}}},{{{},{{}}}}}",
            "{{{},{{{}}}},{{},{{},{{}}}},{{{}},{{{}}}}}",
            "{{{{}},{{},{{}}}},{{{{}}},{{},{{}}}},{{},{{}},{{{}}}}}"]


# --- frozenset model ---------------------------------------------------------

def to_frozen(s: HfSet) -> frozenset:
    return frozenset(to_frozen(c) for c in s.children)


def frozen_pair(x: frozenset, y: frozenset) -> frozenset:
    return frozenset((frozenset((x,)), frozenset((x, y))))


def frozen_powerset(s: frozenset) -> frozenset:
    elems = list(s)
    out = set()
    for mask in range(1 << len(elems)):
        out.add(frozenset(e for i, e in enumerate(elems) if mask >> i & 1))
    return frozenset(out)


# --- member and family spaces -------------------------------------------------

# Every subset of the four-element universe, and those of at most three
# elements.
SUBSETS4 = [make_set(c) for k in range(5) for c in itertools.combinations(UNIVERSE4, k)]
SUBSETS4_UP_TO_3 = [s for s in SUBSETS4 if len(s) <= 3]


def nonempty_subsets(atoms, max_size):
    """All nonempty subsets of ``atoms`` up to ``max_size``, as sets."""
    out = []
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(atoms, k):
            out.append(make_set(combo))
    return out


def small_family_space():
    """Every family of up to three members, the members being nonempty
    subsets of the five-atom universe with at most three elements each."""
    members = nonempty_subsets(UNIVERSE5, 3)
    families = []
    for k in range(1, 4):
        for combo in itertools.combinations(members, k):
            families.append(make_set(combo))
    return families


# --- pipeline memos -------------------------------------------------------------

# Every pipeline memo is the cached function that computes it.  They are taken
# here, at import, so that a test which patches one of these names still
# clears the memo itself.
MEMOS = (construction._cells, construction._picks, construction._filtered,
         construction._full_rows, orders.order_rows, cli._induced_order_holds)


@contextlib.contextmanager
def cold_caches():
    """Clear every pipeline memo on entry and again on exit, so that what a
    test computes under a patch, such as picks laid out by a patched
    ``_rows_mask``, is never read by a later test."""
    for memo in MEMOS:
        memo.cache_clear()
    try:
        yield
    finally:
        for memo in MEMOS:
            memo.cache_clear()


# --- F_c separated by formulas ---------------------------------------------------

# F_c out of P(A_S x A_U): first the function-shaped graphs, then those that
# choose the least element of each member's part of some Q.
FUNCTION_PHI = parse_formula("forall p in f . exists A in S . exists x in A . p = (A,x)")
SELECTION_PHI = parse_formula(
    "exists Q in QS . forall A in S . forall x in A . "
    "((A,x) in f <-> (forall y in A . ((A,x),(A,y)) in Q))"
)


def formula_fc(family, qs) -> tuple:
    """The graphs that FUNCTION_PHI and then SELECTION_PHI separate out of
    the powerset of A_S x A_U, the Q's of ``qs`` read as sets of pairs."""
    env = {"S": family.members, "QS": qs}
    functions = separation(powerset(cartesian(family.members, family.union)), "f",
                           FUNCTION_PHI, env)
    return separation(functions, "f", SELECTION_PHI, env).children


# --- verbatim order checkers ---------------------------------------------------

def pol_verbatim(r) -> bool:
    """Reflexive, antisymmetric, transitive, with an element below all
    others, written directly as quantifier loops over pair membership."""
    elems = r.carrier.children

    def rel(x, y):
        return is_member(ordered_pair(x, y), r.pairs)

    if not all(rel(a, a) for a in elems):
        return False
    for a in elems:
        for b in elems:
            if rel(a, b) and rel(b, a) and a != b:
                return False
    for a in elems:
        for b in elems:
            for c in elems:
                if rel(a, b) and rel(b, c) and not rel(a, c):
                    return False
    return any(all(rel(m, b) for b in elems) for m in elems)


# --- formula corpus -------------------------------------------------------------

def singleton_witness_corpus():
    """Twenty (carrier, formula text, witness) triples; on its carrier each
    formula holds at exactly one element, the named witness."""
    e = UNIVERSE4[0]          # {}
    s1 = UNIVERSE4[1]         # {{}}
    s2 = UNIVERSE4[2]         # {{{}}}
    d = UNIVERSE4[3]          # {{},{{}}}
    abc = make_set((e, s1, s2))
    full = make_set(UNIVERSE4)
    pair_ed = make_set((e, d))
    corpus = [
        (abc, "x = {}", e),
        (abc, "x = {{}}", s1),
        (abc, "x = {{{}}}", s2),
        (abc, "forall y in x . false", e),
        (abc, "exists y in x . y = {}", s1),
        (abc, "exists y in x . y = {{}}", s2),
        (abc, "{{}} = x", s1),
        (abc, "!(x = {}) & !(x = {{{}}})", s1),
        (abc, "x = {} | x = {}", e),
        (abc, "(forall y in x . y in {{}}) & !(x = {})", s1),
        (full, "{} in x & {{}} in x", d),
        (full, "(exists y in x . {} in y) & !({} in x)", s2),
        (full, "{{}} in x & (exists! y in x . y in {{},{{}}})", s2),
        (full, "!(x = {}) & (forall y in x . y = {})", s1),
        (full, "x = {{},{{}}}", d),
        (pair_ed, "exists y in x . true", d),
        (pair_ed, "x in {{},{{}}} -> false", d),
        (pair_ed, "(x = {} -> false) & true", d),
        (pair_ed, "x = {} <-> true", e),
        (full, "(exists y in x . exists z in y . true) & {} in x", d),
    ]
    assert len(corpus) == 20
    return corpus
