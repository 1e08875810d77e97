"""Cross-checks between two routes to one result raise CrossCheckFailed, and
do so under ``python -O`` too, where an ``assert`` would vanish.

Each check is broken on purpose by patching one route so that it disagrees
with the other.  The module is also imported by a ``python -O`` subprocess,
which runs the same breaks there.

A corrupted least element is no disagreement inside one function: it makes
``verify`` fail its oracle comparison and, where the separation route runs,
its route agreement, so the report fails with exit 1.  F_c separated by
formulas reads the Q's as sets, so it differs from ``build_Fc`` too.

A break that must meet the pipeline memos cold, or warm from one clean call,
runs inside ``helpers.cold_caches``, which also clears what the break left.

The Theorem-4 roundtrip keeps one verdict per (member, chosen element), so a
broken induced order shows only to a cold memo; the memo's verdicts equal
the direct route's, clean and broken alike.

A member whose orderability the oracle fails to find, while its choice
functions are still found, makes the equivalence's two sides disagree:
``verify`` reports ``agree: false`` and fails, and ``fuzz`` records the
disagreement.

A built F_c graph that is not a choice function on the family (a member left
out, an element chosen from outside its member, a non-pair) fails ``verify``
with exit 1 and a JSON report, as a failed property, never a traceback.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import zflab
from helpers import (DISJOINT4, SUBSETS4, SUBSETS4_UP_TO_3, UNIVERSE4, cold_caches,
                     formula_fc)
from zflab import cli, construction, oracle, orders
from zflab.construction import Family, U2Variant, phi3_holds
from zflab.errors import CrossCheckFailed, NotAPair
from zflab.hfs import EMPTY, cartesian, is_member, make_set, ordered_pair, unpair
from zflab.orders import OrderKind

ONE = make_set((EMPTY,))
TWO = make_set((EMPTY, ONE))
RUNNING = Family.of([ONE, TWO])
UNION = U2Variant.UNION_OF_PRODUCTS
LITERAL = U2Variant.LITERAL
WO = OrderKind.WELL_ORDER


@contextlib.contextmanager
def patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def raises_cross_check(fn) -> bool:
    try:
        fn()
    except CrossCheckFailed:
        return True
    return False


def patched_picks(change):
    # Every n-element member's picks, passed through ``change(n, picks)``.
    real = construction._picks
    return patched(construction, "_picks", lambda n, kind: change(n, real(n, kind)))


def break_qs_product():
    # The product route loses one admissible order; the subset filter does not.
    return patched_picks(lambda n, picks: picks[1:])


def break_literal_product():
    # Every member also admits the empty relation, so the literal survivors
    # are each member's orders beside the others' empty relation: a union of
    # slices, not a product.
    return patched_picks(lambda n, picks: picks + ((0, picks[0][1]),))


def break_recorded_least():
    # The picks of every size from 2 up name the wrong least element for
    # their first order; the masks, which the separation route reads, stay
    # right.
    def corrupted(n, picks):
        if n < 2:
            return picks
        (mask, least), *rest = picks
        other = next(i for i in range(n) if i != least)
        return ((mask, other), *rest)

    return patched_picks(corrupted)


def break_u1_count():
    return patched(construction, "_u1_size", lambda family, cap: 0)


def break_u1_masks():
    # The running family's built U1 loses TWO's full square, the whole of
    # TWO x TWO as a mask, which ONE's square does not hold.
    real = construction._u1_masks

    def masks(family):
        pairs, built = real(family)
        built.discard(sum(1 << pairs.index(p) for p in cartesian(TWO, TWO).children))
        return pairs, built

    return patched(construction, "_u1_masks", masks)


@contextlib.contextmanager
def memos(warm_with=None):
    """Every pipeline memo, empty, or filled by one clean call of
    ``warm_with``, so that a break meets them cold or warm; all are cleared
    again on exit."""
    with cold_caches():
        if warm_with is not None:
            warm_with()
        yield


def build_running_qs():
    return construction.build_QS(RUNNING, UNION, WO)


def qs_routes_disagree() -> bool:
    with memos(), break_qs_product():
        return raises_cross_check(build_running_qs)


def qs_routes_disagree_warm() -> bool:
    with memos(build_running_qs), break_qs_product():
        return raises_cross_check(build_running_qs)


def literal_picks_not_a_product() -> bool:
    with break_literal_product():
        return raises_cross_check(lambda: construction.build_QS(RUNNING, LITERAL, WO))


def u1_routes_disagree() -> bool:
    with break_u1_count():
        return raises_cross_check(lambda: construction.run_pipeline(RUNNING, UNION, WO))


def u1_mask_corrupted() -> bool:
    with break_u1_masks():
        return raises_cross_check(lambda: construction.run_pipeline(RUNNING, UNION, WO))


def order_predicate_rejects_everything() -> bool:
    # Both routes inside order_rows filter by the predicate, so they find
    # nothing and agree; the subset filter behind Q_S reads least_index and
    # still finds every order, so Q_S's product and filter disagree.
    with cold_caches(), patched(orders, "_rows_satisfy", lambda rows, kind: False):
        return all(raises_cross_check(
            lambda: construction.run_pipeline(Family.of([TWO]), UNION, kind))
            for kind in OrderKind)


def direct_rows_disagree(kind: OrderKind) -> bool:
    # The generator loses its first order at every size; the brute-force
    # filter, which checks every size from 1 to 3, does not.
    real = orders._rows_with_least
    with cold_caches(), patched(orders, "_rows_with_least", lambda n, kind: real(n, kind)[1:]):
        return all(raises_cross_check(lambda: orders.order_rows(n, kind)) for n in (1, 2, 3))


def order_count_carriers_disagree() -> bool:
    # The second carrier has one element too few.
    with patched(oracle, "_nested_singletons",
                 lambda n: oracle._von_neumann_chain(n - 1)):
        return raises_cross_check(lambda: oracle.count_orders(2, "wellorder"))


CHECKS = {
    "build_QS": qs_routes_disagree,
    "build_QS_warm": qs_routes_disagree_warm,
    "build_QS_literal": literal_picks_not_a_product,
    "run_pipeline_u1": u1_routes_disagree,
    "run_pipeline_u1_masks": u1_mask_corrupted,
    "order_predicate": order_predicate_rejects_everything,
    "order_rows_wellorder": lambda: direct_rows_disagree(WO),
    "order_rows_pol": lambda: direct_rows_disagree(OrderKind.PARTIAL_ORDER_WITH_LEAST),
    "order_rows_unique_universal": lambda: direct_rows_disagree(OrderKind.UNIQUE_UNIVERSAL),
    "count_orders": order_count_carriers_disagree,
}


def test_families_of_the_same_sizes_and_kind_scan_the_union_base_once():
    # {{}} and {{},{{}}}; then {{{}}} and {{},{{{}}}}: sizes 1 and 2 both times.
    other = Family.of([make_set((ONE,)), make_set((EMPTY, make_set((ONE,))))])
    sizes = [tuple(map(len, family)) for family in (RUNNING, other)]
    assert other != RUNNING and sizes == [(1, 2), (1, 2)]
    with cold_caches():
        for family in (RUNNING, other, RUNNING):
            construction.build_QS(family, UNION, WO)
        scanned = construction._filtered.cache_info()
        assert scanned.misses == 3
        # The three scans were (1,), (2,) and (1, 2): each is now a hit.
        for key in ((1,), (2,), (1, 2)):
            construction._filtered(key, WO)
        info = construction._filtered.cache_info()
        assert (info.hits - scanned.hits, info.misses) == (3, 3)


def cli_outcomes(family_path: str) -> dict:
    """Exit status and error type of ``verify`` with each reachable check
    broken, the pipeline memos cold and warm."""
    def verify():
        return cli.execute(cli.RunConfig(command="verify", family=family_path))

    out = {}
    for name, breaker, warm_with in (("build_QS", break_qs_product, None),
                                     ("build_QS_warm", break_qs_product, verify),
                                     ("run_pipeline_u1", break_u1_count, None)):
        with memos(warm_with), breaker():
            status, rendered = verify()
        report = json.loads(rendered)
        out[name] = [status, report["error"]["type"], report["ok"]]
    return out


def caught() -> dict:
    return {name: check() for name, check in CHECKS.items()}


def write_running(tmp_path) -> str:
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": ["{{}}", "{{},{{}}}"]}))
    return str(path)


EXPECTED_CLI = dict.fromkeys(("build_QS", "build_QS_warm", "run_pipeline_u1"),
                             [1, "CrossCheckFailed", False])


def test_each_cross_check_raises_when_its_routes_disagree():
    assert caught() == dict.fromkeys(CHECKS, True)


def test_cli_reports_a_failed_cross_check_with_exit_1(tmp_path):
    assert cli_outcomes(write_running(tmp_path)) == EXPECTED_CLI


def python_O(tmp_path, expression: str, arg: str) -> list:
    """Evaluate ``expression`` (a list, with this module imported as ``t``)
    in a ``python -O`` subprocess given ``arg`` as ``sys.argv[1]``."""
    code = f"import json, sys, test_cross_checks as t; print(json.dumps({expression}))"
    src = Path(zflab.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent), str(src)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, arg],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cross_checks_survive_python_O(tmp_path):
    debug, got, cli_got = python_O(
        tmp_path, "[__debug__, t.caught(), t.cli_outcomes(sys.argv[1])]", write_running(tmp_path)
    )
    assert debug is False
    assert got == dict.fromkeys(CHECKS, True)
    assert cli_got == EXPECTED_CLI


def verify_outcomes(directory: str) -> dict:
    """``verify`` with one recorded least corrupted, on the running family
    (k = 4) and on four disjoint members (k = 36), and ``verify --u2 literal``
    with survivors that are not a product: exit status, the two F_c checks
    or the error type, and ``ok``."""
    out = {}
    for name, literals in (("running", ["{{}}", "{{},{{}}}"]), ("disjoint4", DISJOINT4)):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"family": literals}, fh)
        with break_recorded_least():
            status, rendered = cli.execute(cli.RunConfig(command="verify", family=path))
        report = json.loads(rendered)
        checks = report["cross_checks"]
        out[name] = [status, checks["oracle_fc_match"], checks["route_agreement"],
                     report["ok"]]
    with break_literal_product():
        status, rendered = cli.execute(cli.RunConfig(
            command="verify", family=os.path.join(directory, "running.json"), u2="literal"))
    report = json.loads(rendered)
    out["literal"] = [status, report["error"]["type"], report["ok"]]
    return out


EXPECTED_VERIFY = {
    "running": [1, False, False, False],
    "disjoint4": [1, False, None, False],
    "literal": [1, "CrossCheckFailed", False],
}


def formula_route_outcome() -> list:
    """Does F_c separated by formulas from the running family's Q_S equal
    ``build_Fc``: clean, then with one recorded least corrupted, which
    ``build_QS``'s own cross-check does not see."""
    def agree():
        qs = build_running_qs()
        fcs = construction.build_Fc(RUNNING, qs)
        return list(formula_fc(RUNNING, qs)) == list(fcs)

    clean = agree()
    with break_recorded_least():
        return [clean, agree()]


def test_formula_route_catches_a_corrupted_least(tmp_path):
    assert formula_route_outcome() == [True, False]
    debug, got = python_O(tmp_path, "[__debug__, t.formula_route_outcome()]", "")
    assert debug is False
    assert got == [True, False]


def test_verify_fails_on_a_corrupted_least_and_a_literal_non_product(tmp_path):
    assert verify_outcomes(str(tmp_path)) == EXPECTED_VERIFY


def test_verify_fails_on_the_same_breaks_under_python_O(tmp_path):
    debug, got = python_O(tmp_path, "[__debug__, t.verify_outcomes(sys.argv[1])]", str(tmp_path))
    assert debug is False
    assert got == EXPECTED_VERIFY


def u1_mask_verify_outcome(family_path: str) -> list:
    """Exit status, error type and ``ok`` of ``verify`` on the running
    family with a corrupted U1 mask set."""
    with break_u1_masks():
        status, rendered = cli.execute(cli.RunConfig(command="verify", family=family_path))
    report = json.loads(rendered)
    return [status, report["error"]["type"], report["ok"]]


def test_verify_fails_on_a_corrupted_u1_mask_set(tmp_path):
    family_path = write_running(tmp_path)
    expected = [1, "CrossCheckFailed", False]
    assert u1_mask_verify_outcome(family_path) == expected
    debug, got = python_O(tmp_path, "[__debug__, t.u1_mask_verify_outcome(sys.argv[1])]",
                          family_path)
    assert debug is False
    assert got == expected


def break_mask_layout():
    # Orders are laid into masks column by column, each order transposed;
    # the subset filter still reads masks row by row.  Picks laid out before
    # the break would hide it, so it runs inside memos() with no picks warm.
    def column_major(rows):
        n = len(rows)
        return sum((row >> j & 1) << (j * n + i) for i, row in enumerate(rows) for j in range(n))

    return patched(construction, "_rows_mask", column_major)


def mask_layout_verify_outcome(directory: str) -> list:
    """Exit status, error type and ``ok`` of ``verify --kind pol`` on one
    3-element member, with orders laid into masks column-major, the subset
    filter's memo cold and then warm.  A well-order transposed is a
    well-order, so ``pol`` is the kind that shows it."""
    path = os.path.join(directory, "three.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"family": ["{{},{{}},{{{}}}}"]}, fh)

    def verify():
        return cli.execute(cli.RunConfig(command="verify", family=path, kind="pol"))

    def warm_filter():
        construction._filtered((3,), OrderKind.PARTIAL_ORDER_WITH_LEAST)

    out = []
    for warm_with in (None, warm_filter):
        with memos(warm_with), break_mask_layout():
            status, rendered = verify()
        report = json.loads(rendered)
        out.append([status, report["error"]["type"], report["ok"]])
    return out


def test_verify_fails_on_orders_laid_column_major(tmp_path):
    expected = [[1, "CrossCheckFailed", False]] * 2
    assert mask_layout_verify_outcome(str(tmp_path)) == expected
    debug, got = python_O(tmp_path, "[__debug__, t.mask_layout_verify_outcome(sys.argv[1])]",
                          str(tmp_path))
    assert debug is False
    assert got == expected


# --- the Theorem-4 roundtrip ----------------------------------------------------

def break_induced_order():
    # The Theorem-4 order loses the pair (m, b), b the first element of the
    # member other than the chosen m, so m is no longer below b; on a
    # singleton member it stays whole.  The roundtrip reads the CLI's name
    # for pointed_order, so that name is patched.
    real = orders.pointed_order

    def pointed_order(a, m):
        r = real(a, m)
        b = next((b for b in a.children if b != m), None)
        if b is None:
            return r
        dropped = ordered_pair(m, b)
        return orders.relation_over(a, make_set(p for p in r.pairs.children if p != dropped))

    return patched(cli, "pointed_order", pointed_order)


def induced_order_outcomes(family_path: str) -> list:
    """``verify`` on the running family and ``fuzz --trials 5``, the memos
    cold and the Theorem-4 order broken: verify's exit status, roundtrip
    check, failures and ``ok``, then fuzz's exit status, failures and
    ``ok``."""
    with cold_caches(), break_induced_order():
        verify_status, verify = cli.execute(cli.RunConfig(command="verify", family=family_path))
        fuzz_status, fuzz = cli.execute(cli.RunConfig(command="fuzz", trials=5))
    verify, fuzz = json.loads(verify), json.loads(fuzz)
    return [[verify_status, verify["cross_checks"]["induced_order_roundtrip"],
             verify["failures"], verify["ok"]],
            [fuzz_status, fuzz["failures"], fuzz["ok"]]]


# Seed 0's trial 2 is the one family of singletons, whose orders stay whole.
EXPECTED_INDUCED = [
    [1, False, ["choice-induced order failed its defining condition"], False],
    [1, [f"trial {i}: induced order failed on {family}" for i, family in (
        (0, "{{{},{{}}},{{{}},{{{}}},{{},{{}}}}}"),
        (1, "{{{{{}}}},{{{}},{{{}}}}}"),
        (3, "{{{},{{}}},{{},{{}},{{{}}}},{{},{{}},{{},{{}}}}}"),
        (4, "{{{{}},{{{}}}},{{{{}}},{{},{{}}}}}"),
    )], False],
]


def test_a_broken_induced_order_fails_verify_and_fuzz(tmp_path):
    family_path = write_running(tmp_path)
    assert induced_order_outcomes(family_path) == EXPECTED_INDUCED
    debug, got = python_O(tmp_path, "[__debug__, t.induced_order_outcomes(sys.argv[1])]",
                          family_path)
    assert debug is False
    assert got == EXPECTED_INDUCED


def direct_verdict(a, m) -> bool:
    return phi3_holds(cli.pointed_order(a, m), a, m)


def fc_of(family) -> tuple:
    return construction.build_Fc(family, construction.build_QS(family, UNION, WO))


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
def test_the_memo_gives_the_direct_verdict_cold_and_warm(broken):
    # Each element of a member is the least of one of its well-orders, so
    # the member's own F_c chooses each element once.
    choices = [unpair(p) for a in SUBSETS4 for graph in fc_of(Family.of([a]))
               for p in graph.children]
    assert len(choices) == 32
    with cold_caches(), (break_induced_order() if broken else contextlib.nullcontext()):
        direct = [direct_verdict(a, m) for a, m in choices]
        cold = [cli._induced_order_holds(a, m) for a, m in choices]
        warm = [cli._induced_order_holds(a, m) for a, m in choices]
        info = cli._induced_order_holds.cache_info()
    assert cold == warm == direct
    assert (info.misses, info.hits) == (32, 32)
    # Broken, only the four singletons keep their order.
    assert direct.count(False) == (28 if broken else 0)


def old_roundtrip(family, fcs) -> bool:
    # One check per graph and member of the family, with no memo.
    return all(direct_verdict(a, dict(map(unpair, graph.children))[a])
               for graph in fcs for a in family)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3), st.booleans())
@example([make_set((EMPTY, ONE)), make_set((ONE,))], True)
@example([make_set((ONE,)), make_set((EMPTY,))], True)
def test_the_memoized_roundtrip_equals_the_loop_it_replaces(members, broken):
    family = Family.of(members)
    fcs = fc_of(family)
    with cold_caches(), (break_induced_order() if broken else contextlib.nullcontext()):
        for graph in fcs:
            assert cli._induced_orders_roundtrip((graph,)) == old_roundtrip(family, (graph,))
        assert cli._induced_orders_roundtrip(fcs) == old_roundtrip(family, fcs)


def per_occurrence_roundtrip(fcs) -> bool:
    # Every occurrence of every child decoded and checked, with no dedupe
    # and no memo.
    for graph in fcs:
        for p in graph.children:
            try:
                a, m = unpair(p)
            except NotAPair:
                return False
            if not (is_member(m, a) and direct_verdict(a, m)):
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SUBSETS4_UP_TO_3), min_size=1, max_size=3), st.booleans(),
       st.lists(st.tuples(st.integers(0, 80), st.one_of(
           st.sampled_from(SUBSETS4),
           st.builds(ordered_pair, st.sampled_from(SUBSETS4), st.sampled_from(UNIVERSE4)))),
           max_size=3))
def test_the_distinct_pair_roundtrip_equals_the_per_occurrence_decode(members, broken, extras):
    # Graphs of F_c, some with a child added: a non-pair, or a pair (A, x)
    # whose A may be no member and whose x may lie outside A.
    fcs = list(fc_of(Family.of(members)))
    for index, extra in extras:
        if fcs:
            i = index % len(fcs)
            fcs[i] = make_set(fcs[i].children + (extra,))
    with cold_caches(), (break_induced_order() if broken else contextlib.nullcontext()):
        assert cli._induced_orders_roundtrip(tuple(fcs)) == per_occurrence_roundtrip(fcs)


def test_the_roundtrip_checks_each_distinct_pair_once(tmp_path):
    # The running family's two graphs choose {} from {{}} in both, and each
    # element of {{},{{}}} in one: three distinct pairs, four (graph, member).
    pairs = {unpair(p) for graph in fc_of(RUNNING) for p in graph.children}
    assert len(pairs) == 3
    with cold_caches():
        cli.execute(cli.RunConfig(command="verify", family=write_running(tmp_path)))
        info = cli._induced_order_holds.cache_info()
    assert (info.hits, info.misses) == (0, len(pairs))


# --- F_c graphs that are not choice functions -------------------------------------

# Each turns one of build_Fc's graphs into a set that is not a choice
# function on the running family {{{}}, {{},{{}}}}.
FC_CORRUPTIONS = {
    # {{}} loses its pair.
    "member_dropped": lambda graph: make_set(p for p in graph.children if unpair(p)[0] != ONE),
    # {{}} chooses itself, never one of its own elements.
    "chosen_outside": lambda graph: make_set(
        ordered_pair(a, a if a == ONE else m) for a, m in map(unpair, graph.children)),
    "not_a_pair": lambda graph: make_set(graph.children + (EMPTY,)),
}


def corrupted_fc_outcomes(family_path: str) -> dict:
    """``verify`` on the running family with every graph of ``build_Fc``
    corrupted each way, memos cold: exit status, ``f_c_all_valid``, the
    cross-checks and the failures."""
    real = construction.build_Fc
    out = {}
    for name, corrupt in FC_CORRUPTIONS.items():
        def build_Fc(family, qs):
            return tuple(corrupt(graph) for graph in real(family, qs))

        with cold_caches(), patched(construction, "build_Fc", build_Fc):
            status, rendered = cli.execute(cli.RunConfig(command="verify", family=family_path))
        report = json.loads(rendered)
        out[name] = [status, report["pipeline"]["f_c_all_valid"], report["cross_checks"],
                     report["failures"]]
    return out


FC_FAILURES = ["a built graph is not a choice function on the family",
               "pipeline choice functions differ from the oracle",
               "subset-filter route disagrees with the closed route"]
ROUNDTRIP_FAILURE = "choice-induced order failed its defining condition"
EXPECTED_CORRUPTED_FC = {
    "member_dropped": [1, False, {"oracle_fc_match": False, "route_agreement": False,
                                  "induced_order_roundtrip": True}, FC_FAILURES],
    "chosen_outside": [1, False, {"oracle_fc_match": False, "route_agreement": False,
                                  "induced_order_roundtrip": False},
                       FC_FAILURES + [ROUNDTRIP_FAILURE]],
    "not_a_pair": [1, False, {"oracle_fc_match": False, "route_agreement": False,
                              "induced_order_roundtrip": False},
                   FC_FAILURES + [ROUNDTRIP_FAILURE]],
}


def test_a_graph_that_is_not_a_choice_function_fails_verify(tmp_path):
    family_path = write_running(tmp_path)
    assert corrupted_fc_outcomes(family_path) == EXPECTED_CORRUPTED_FC
    debug, got = python_O(tmp_path, "[__debug__, t.corrupted_fc_outcomes(sys.argv[1])]",
                          family_path)
    assert debug is False
    assert got == EXPECTED_CORRUPTED_FC


# --- the choice/orderability equivalence ------------------------------------------

def break_orderability():
    # The oracle's orderability side loses {{},{{}}}: no order with a least
    # element is found on it, while its choice functions are still there.
    real = oracle._pol_exists
    return patched(oracle, "_pol_exists", lambda a: a != TWO and real(a))


def disagreement_outcomes(family_path: str) -> list:
    """``verify`` on the running family and ``fuzz --trials 5`` with one
    member's orderability broken: verify's exit status, equivalence block,
    failures and ``ok``, then fuzz's exit status, failures and ``ok``."""
    with break_orderability():
        verify_status, verify = cli.execute(cli.RunConfig(command="verify", family=family_path))
        fuzz_status, fuzz = cli.execute(cli.RunConfig(command="fuzz", trials=5))
    verify, fuzz = json.loads(verify), json.loads(fuzz)
    return [[verify_status, verify["equivalence"], verify["failures"], verify["ok"]],
            [fuzz_status, fuzz["failures"], fuzz["ok"]]]


# Seed 0's trials 0 and 3 hold {{},{{}}}.
EXPECTED_DISAGREEMENT = [
    [1, {"fingerprint": "{{{}},{{},{{}}}}", "has_choice": True, "all_members_have_pol": False,
         "agree": False},
     ["choice existence and per-member orderability disagree"], False],
    [1, [f"trial {i}: equivalence disagreement on {family}" for i, family in (
        (0, "{{{},{{}}},{{{}},{{{}}},{{},{{}}}}}"),
        (3, "{{{},{{}}},{{},{{}},{{{}}}},{{},{{}},{{},{{}}}}}"),
    )], False],
]


def test_a_broken_equivalence_side_fails_verify_and_fuzz(tmp_path):
    family_path = write_running(tmp_path)
    assert disagreement_outcomes(family_path) == EXPECTED_DISAGREEMENT
    debug, got = python_O(tmp_path, "[__debug__, t.disagreement_outcomes(sys.argv[1])]",
                          family_path)
    assert debug is False
    assert got == EXPECTED_DISAGREEMENT
