"""Batch front door: load families, run the pipeline and the oracle side by
side, fuzz random families, and emit deterministic reports.

Reports are plain dicts that hold the pipeline's own values: ``verify``'s
``pipeline`` block is the summary :func:`run_pipeline` returns, and
``enumerate`` puts the ``QSet`` itself under ``q_s``.  One writer per format
renders a report as JSON or indented text into a sink, a ``write``
callable: ``execute`` collects the text and returns it, and ``main`` streams
it into the ``--out`` file or stdout, so Q_S's literals are made one at a
time as they are written and no whole-report string is built.  For a fixed
configuration (including the seed) the emitted bytes are identical across
runs and sinks.

Exit status is 0 exactly when no asserted property failed, 1 when one did
(including a cross-check between two internal routes, and a built graph
that is not a choice function on the family), and 2 on diagnostics (bad
input, caps, unwritable output, a write that fails mid-report); findings
(such as the literal-universe empty Q_S) are recorded without failing.

F_c is carried as the canonically sorted tuple of its graphs, the shape of
the oracle's, so ``verify`` and ``fuzz`` compare the two directly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import oracle
from .construction import (
    DEFAULT_PRODUCT_CAP,
    Family,
    QSet,
    U2Variant,
    build_Fc,
    build_Fc_literal,
    build_QS,
    phi3_holds,
    run_pipeline,
)
from .errors import (CapExceeded, ConfigError, CrossCheckFailed, EmptyFamily, NotAPair,
                     ParseError, ZfLabError)
from .hfs import (
    DEFAULT_POWERSET_CAP,
    HfSet,
    hfs_literal,
    is_member,
    iter_hfs_by_rank,
    make_set,
    parse_hfs,
    unpair,
)
from .intervals import (
    Interval,
    choice_value,
    parse_interval,
    phi2_holds,
    sample_check_pol,
)
from .orders import OrderKind, enumerate_orders, pointed_order

__all__ = ["RunConfig", "execute", "load_family", "main"]

# The buffer, in bytes, of the file a report is streamed into.
_OUT_BUFFER = 64 * 1024


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output."""

    command: str
    family: Optional[str] = None
    kind: str = "wellorder"
    u2: str = "union"
    seed: int = 0
    trials: int = 100
    allow_empty: bool = False
    out: Optional[str] = None
    format: str = "json"
    powerset_cap: int = DEFAULT_POWERSET_CAP
    product_cap: int = DEFAULT_PRODUCT_CAP
    literals: tuple = ()


def load_family(path: str) -> Family:
    """Read a family file: ``{"family": ["{{}}", ...]}`` with set literals."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text (byte {e.start})") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("family"), list):
        raise ParseError(f'{path}: expected a top-level {{"family": [...]}} object')
    members = []
    for index, entry in enumerate(data["family"]):
        if not isinstance(entry, str):
            raise ParseError(f"{path}: family entries must be set literals")
        try:
            members.append(parse_hfs(entry))
        except ParseError as e:
            raise ParseError(f"{path}: family entry {index}: {e}") from None
    if not members:
        raise EmptyFamily(f"{path}: the family list is empty")
    return Family.of(members)


def _nonnegative(name: str, value) -> int:
    # Caps bound enumeration sizes and --trials counts runs, so each is a
    # nonnegative integer.
    try:
        number = int(value)
        if number >= 0:
            return number
    except ValueError:
        pass
    raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _resolve_caps(env: Optional[str], powerset_flag: Optional[int],
                  product_flag: Optional[int]) -> tuple:
    powerset_cap = DEFAULT_POWERSET_CAP
    product_cap = DEFAULT_PRODUCT_CAP
    if env:
        parts = env.split(",")
        if len(parts) != 2:
            raise ParseError(f"ZFLAB_CAPS must be 'powerset,product', got {env!r}")
        if parts[0].strip():
            powerset_cap = _nonnegative("the ZFLAB_CAPS powerset cap", parts[0])
        if parts[1].strip():
            product_cap = _nonnegative("the ZFLAB_CAPS product cap", parts[1])
    if powerset_flag is not None:
        powerset_cap = _nonnegative("--powerset-cap", powerset_flag)
    if product_flag is not None:
        product_cap = _nonnegative("--product-cap", product_flag)
    return powerset_cap, product_cap


# The report's config block: every RunConfig field but where the report goes
# and how it looks, and the interval literals (reported with their results).
_CONFIG_KEYS = tuple(
    f.name for f in fields(RunConfig) if f.name not in ("out", "format", "literals")
)


def _config_dict(cfg: RunConfig) -> dict:
    return {name: getattr(cfg, name) for name in _CONFIG_KEYS}


@functools.cache
def _induced_order_holds(a: HfSet, m: HfSet) -> bool:
    """Does the order that choosing ``m`` from member ``a`` induces (Theorem
    4) meet its defining condition?  False when ``m`` is not an element of
    ``a``.  The verdict depends only on the pair, so it is computed once per
    (member, chosen element) per process, the order built as kernel sets."""
    return is_member(m, a) and phi3_holds(pointed_order(a, m), a, m)


def _induced_orders_roundtrip(fcs: tuple) -> bool:
    """Does the order each choice function in ``fcs`` induces on each member
    it chooses from meet its defining condition?  Each distinct pair
    (member, chosen element) of the graphs, found by identity, is decoded
    and checked once; a graph element that is not a pair fails the check."""
    try:
        pairs = [unpair(p) for p in {id(p): p for graph in fcs for p in graph.children}.values()]
    except NotAPair:
        return False
    return all(_induced_order_holds(a, m) for a, m in pairs)


def _verify(cfg: RunConfig, report: dict, findings: list, failures: list) -> None:
    family = load_family(cfg.family)
    kind = OrderKind(cfg.kind)
    variant = U2Variant(cfg.u2)
    warnings = []
    if family.has_empty_member:
        warnings.append("family contains the empty set")
    report["warnings"] = warnings

    summary, qs, fcs = run_pipeline(family, variant, kind, cfg.powerset_cap, cfg.product_cap)
    report["pipeline"] = summary
    verdict = oracle.verify_equivalence(family)
    report["equivalence"] = {
        "fingerprint": verdict.fingerprint,
        "has_choice": verdict.has_choice,
        "all_members_have_pol": verdict.all_members_have_pol,
        "agree": verdict.agree,
    }
    if not verdict.agree:
        failures.append("choice existence and per-member orderability disagree")

    if not summary["f_c_all_valid"]:
        failures.append("a built graph is not a choice function on the family")

    checks = {}
    if variant is U2Variant.UNION_OF_PRODUCTS:
        # No cap check is lost by reading the verdict's graphs: each element
        # is the least of some order of every kind, so |Q_S| >= the number of
        # choice functions, and build_QS raised CapExceeded past the cap.
        match = fcs == verdict.graphs
        checks["oracle_fc_match"] = match
        if not match:
            failures.append("pipeline choice functions differ from the oracle")
    if summary["q_s_empty"] and variant is U2Variant.LITERAL:
        findings.append(
            "literal U2 yields empty Q_S (expected for multi-member families)"
        )

    k = len(family.members) * len(family.union)
    if k <= 16:
        direct = build_Fc_literal(family, qs, max(cfg.powerset_cap, k))
        agree = direct == fcs
        checks["route_agreement"] = agree
        if not agree:
            failures.append("subset-filter route disagrees with the closed route")
    else:
        checks["route_agreement"] = None

    roundtrip = _induced_orders_roundtrip(fcs)
    checks["induced_order_roundtrip"] = roundtrip
    if not roundtrip:
        failures.append("choice-induced order failed its defining condition")
    report["cross_checks"] = checks


def _enumerate(cfg: RunConfig, report: dict, findings: list, failures: list) -> None:
    family = load_family(cfg.family)
    kind = OrderKind(cfg.kind)
    variant = U2Variant(cfg.u2)
    members = []
    for a in family:
        orders = enumerate_orders(a, kind)
        members.append({
            "member": hfs_literal(a),
            "order_count": len(orders),
            "orders": [hfs_literal(r.pairs) for r in orders],
        })
    report["members"] = members
    qs = build_QS(family, variant, kind, cfg.powerset_cap, cfg.product_cap)
    fcs = build_Fc(family, qs)
    report["q_s"] = {"size": len(qs), "relations": qs}
    report["f_c"] = {
        "size": len(fcs),
        "graphs": [hfs_literal(g) for g in fcs],
    }
    report["oracle_choice_functions"] = [
        hfs_literal(g)
        for g in oracle.enumerate_choice_functions(family, cap=cfg.product_cap)
    ]


def _random_family(rng: random.Random, universe: tuple, allow_empty: bool) -> Family:
    members = []
    for _ in range(rng.randint(1, 3)):
        low = 0 if allow_empty else 1
        size = rng.randint(low, 3)
        members.append(make_set(rng.sample(universe, size)))
    return Family.of(members)


def _fuzz(cfg: RunConfig, report: dict, findings: list, failures: list) -> None:
    rng = random.Random(cfg.seed)
    universe = iter_hfs_by_rank(2)
    kind = OrderKind(cfg.kind)
    checked = 0
    skipped = 0
    with_empty = 0
    samples = []
    for trial in range(cfg.trials):
        family = _random_family(rng, universe, cfg.allow_empty)
        literal = hfs_literal(family.members)
        if trial < 5:
            samples.append(literal)
        if family.has_empty_member:
            with_empty += 1
        verdict = oracle.verify_equivalence(family)
        if not verdict.agree:
            failures.append(f"trial {trial}: equivalence disagreement on {literal}")
            continue
        try:
            qs = build_QS(family, U2Variant.UNION_OF_PRODUCTS, kind,
                          cfg.powerset_cap, cfg.product_cap)
            fcs = build_Fc(family, qs)
        except CapExceeded:
            skipped += 1
            continue
        if fcs != verdict.graphs:
            failures.append(f"trial {trial}: choice mismatch on {literal}")
            continue
        if not _induced_orders_roundtrip(fcs):
            failures.append(f"trial {trial}: induced order failed on {literal}")
            continue
        checked += 1
    if skipped:
        findings.append(f"{skipped} trials skipped at the configured caps")
    report["fuzz"] = {
        "trials": cfg.trials,
        "checked": checked,
        "skipped_by_cap": skipped,
        "families_with_empty_member": with_empty,
        "sample_families": samples,
    }


def _random_interval(rng: random.Random) -> Interval:
    def endpoint() -> Fraction:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 8))

    shape = rng.randrange(4)
    if shape == 0:
        return Interval(None, None, False, False)
    if shape == 1:
        return Interval(None, endpoint(), False, rng.random() < 0.5)
    if shape == 2:
        return Interval(endpoint(), None, rng.random() < 0.5, False)
    lo, hi = sorted((endpoint(), endpoint()))
    if lo == hi:
        return Interval(lo, hi, True, True)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _random_sample(rng: random.Random, interval: Interval) -> list:
    base = choice_value(interval)
    p, q = base.numerator, base.denominator
    sample = []
    for _ in range(rng.randint(0, 8)):
        num = rng.randint(-24, 24)
        den = rng.randint(1, 6)
        x = Fraction(p * den + num * q, q * den)  # base + num/den
        if interval.contains(x):
            sample.append(x)
    return sample


def _interval_entry(interval: Interval) -> dict:
    """An interval, the point chosen from it, and whether that point meets
    the choice condition."""
    value = choice_value(interval)
    return {
        "interval": str(interval),
        "choice_value": str(value),
        "satisfies_condition": phi2_holds(interval, value),
    }


def _intervals(cfg: RunConfig, report: dict, findings: list, failures: list) -> None:
    report["demo"] = [
        _interval_entry(parse_interval(text))
        for text in ("[1,3]", "(-inf,5]", "(0,+inf)", "(-inf,+inf)")
    ]

    named = []
    for text in cfg.literals:
        try:
            interval = parse_interval(text)
        except ValueError as e:
            # The library rejects a closed infinite end with ValueError; on the
            # command line that is a malformed literal.
            raise ParseError(f"{text!r}: {e}") from None
        entry = _interval_entry(interval)
        if not entry["satisfies_condition"]:
            failures.append(f"{interval}: chosen point fails its condition")
        named.append(entry)
    if named:
        report["intervals"] = named

    rng = random.Random(cfg.seed)
    passed = 0
    for trial in range(cfg.trials):
        interval = _random_interval(rng)
        sample = _random_sample(rng, interval)
        props = sample_check_pol(interval, sample)
        ok = (props.reflexive and props.antisymmetric and props.transitive
              and props.total and props.least == choice_value(interval))
        if ok:
            passed += 1
        else:
            failures.append(
                f"trial {trial}: distance order broke on {interval} sample {sample}"
            )
    report["sample_checks"] = {"trials": cfg.trials, "passed": passed}


_COMMANDS = {
    "verify": _verify,
    "enumerate": _enumerate,
    "fuzz": _fuzz,
    "intervals": _intervals,
}


# The values ``main``'s parser lets through, for the RunConfig fields it
# restricts to a choice.
_CHOICES = {
    "command": sorted(_COMMANDS),
    "kind": sorted(k.value for k in OrderKind),
    "u2": sorted(v.value for v in U2Variant),
    "format": ["json", "text"],
}


def _check_config(cfg: RunConfig) -> None:
    """ConfigError on a value that ``main`` would refuse."""
    for name, allowed in _CHOICES.items():
        value = getattr(cfg, name)
        if value not in allowed:
            raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    for name in ("seed", "trials", "powerset_cap", "product_cap"):
        value = getattr(cfg, name)
        if type(value) is not int:
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < 0 and name != "seed":
            raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")
    if type(cfg.allow_empty) is not bool:
        raise ConfigError(f"allow_empty must be True or False, got {cfg.allow_empty!r}")
    if cfg.command in ("verify", "enumerate") and not isinstance(cfg.family, str):
        raise ConfigError(f"family must be a file path for {cfg.command}, got {cfg.family!r}")
    if not (isinstance(cfg.literals, tuple) and all(isinstance(t, str) for t in cfg.literals)):
        raise ConfigError(f"literals must be a tuple of strings, got {cfg.literals!r}")


def execute(cfg: RunConfig) -> tuple:
    """Run one command; return (exit status, rendered report)."""
    status, report = _run(cfg)
    chunks: list = []
    _render(report, cfg.format, chunks.append)
    return status, "".join(chunks)


def _run(cfg: RunConfig) -> tuple:
    """Run one command; return (exit status, report).  Every error the
    command can raise is caught here, so rendering the report raises none."""
    report = {"command": cfg.command, "config": _config_dict(cfg)}
    findings: list = []
    failures: list = []
    status = 0
    try:
        _check_config(cfg)
        _COMMANDS[cfg.command](cfg, report, findings, failures)
    except ZfLabError as e:
        report["error"] = {"type": type(e).__name__, "message": str(e)}
        # Two routes inside the program disagreeing is a failed property,
        # not a diagnostic about the input.
        status = 1 if isinstance(e, CrossCheckFailed) else 2
    except OSError as e:
        report["error"] = {"type": "IoError", "message": str(e)}
        status = 2
    return _conclude(report, findings, failures, status)


def _conclude(report: dict, findings: list, failures: list, status: int) -> tuple:
    report["findings"] = findings
    report["failures"] = failures
    report["ok"] = status == 0 and not failures
    if failures and status == 0:
        status = 1
    return status, report


def _render(report: dict, fmt: str, write) -> None:
    """Write ``report`` in format ``fmt``, piece by piece, to ``write``."""
    if fmt == "text":
        _text_lines(report, 0, write)
    else:
        _json_chunks(report, "", write)
        write("\n")


# The text json.dumps gives the report's common scalars, by exact type and
# without its encoder's set-up per call; any other value goes through
# json.dumps.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}

# What the text writer prints nested under its key, or as "empty".  A QSet
# is printed as its Q's literals (:meth:`QSet.literals`), each without its
# outer braces, which the writers add.  A literal holds only '{', '}' and
# ',', so it is its own JSON string body, and the JSON writer writes it
# unescaped.
_NESTED = (dict, list, QSet)


def _json_chunks(value, pad: str, write) -> None:
    """Write the text ``json.dumps(value, indent=2)`` gives ``value`` at
    indentation ``pad``."""
    if isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n"
        for key, item in value.items():
            write(f"{sep}{inner}{_SCALARS.get(type(key), json.dumps)(key)}: ")
            _json_chunks(item, inner, write)
            sep = ",\n"
        write(f"\n{pad}}}")
    elif isinstance(value, (list, tuple, QSet)):
        inner = pad + "  "
        sep = "[\n"
        for item in value.literals() if isinstance(value, QSet) else value:
            if isinstance(value, QSet):
                write(f'{sep}{inner}"{{{item}}}"')
            else:
                write(sep + inner)
                _json_chunks(item, inner, write)
            sep = ",\n"
        write(f"\n{pad}]" if value else "[]")
    else:
        write(_SCALARS.get(type(value), json.dumps)(value))


def _text_lines(value, depth: int, write) -> None:
    """Write the lines of the text report of a dict or a nonempty list."""
    pad = "  " * depth
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, _NESTED) and item:
                write(f"{pad}{key}:\n")
                _text_lines(item, depth + 1, write)
            else:
                write(f"{pad}{key}: {_scalar(item)}\n")
    elif isinstance(value, QSet):
        for item in value.literals():
            write(f"{pad}- {{{item}}}\n")
    else:
        for item in value:
            if isinstance(item, _NESTED) and item:
                write(f"{pad}-\n")
                _text_lines(item, depth + 1, write)
            else:
                write(f"{pad}- {_scalar(item)}\n")


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _NESTED):
        return "empty"
    return str(value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="zflab",
        description="finite set-theory workbench: choice-function pipelines over "
                    "hereditarily finite sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes only the flags it reads, and an absent flag is left
    # out of the parsed arguments: RunConfig holds every default, and fills
    # in the rest of the report's config block.
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)
    verify = command("verify", help="run the pipeline and the oracle side by side")
    enum = command("enumerate", help="dump orders, combined relations, and choice functions")
    fuzz = command("fuzz", help="run seeded random families through every invariant")
    intervals = command("intervals", help="rational-interval choice demo and sample checks")
    for cmd in (verify, enum):
        cmd.add_argument("--family", required=True, help="path to a family file")
        cmd.add_argument("--u2", choices=_CHOICES["u2"])
    for cmd in (verify, enum, fuzz):
        cmd.add_argument("--kind", choices=_CHOICES["kind"])
        cmd.add_argument("--powerset-cap", type=int)
        cmd.add_argument("--product-cap", type=int)
    for cmd in (fuzz, intervals):
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--trials", type=int)
    fuzz.add_argument("--allow-empty", action="store_true")
    intervals.add_argument("literals", nargs="*",
                           help="interval literals such as [1,3] or (0,+inf)")
    for cmd in (verify, enum, fuzz, intervals):
        cmd.add_argument("--out", help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=_CHOICES["format"])
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as e:  # usage errors (exit 2) and --help (exit 0)
        return e.code
    try:
        args["powerset_cap"], args["product_cap"] = _resolve_caps(
            os.environ.get("ZFLAB_CAPS"), args.get("powerset_cap"), args.get("product_cap")
        )
        if "trials" in args:
            _nonnegative("--trials", args["trials"])
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if "literals" in args:
        args["literals"] = tuple(args["literals"])
    cfg = RunConfig(**args)
    status, report = _run(cfg)
    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8", buffering=_OUT_BUFFER) as fh:
                _render(report, cfg.format, fh.write)
            return status
        except OSError as e:
            report = {"command": cfg.command, "config": _config_dict(cfg),
                      "error": {"type": "IoError", "message": str(e)}}
            status, report = _conclude(report, [], [], 2)
    _render(report, cfg.format, sys.stdout.write)
    return status


if __name__ == "__main__":
    sys.exit(main())
