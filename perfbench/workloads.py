"""Seeded op streams for the zflab benchmark, and the answers each report must show.

Ops come in blocks.  Every block of a workload has the same composition
(commands, order kinds, member shapes); the seed picks which concrete
families fill it, and in sweep also the fuzz and intervals seeds and the
order of ops.  A run always executes whole blocks, so a median over a run
never depends on where the clock happened to stop.

Family files are written from literal strings built here, not from zflab, and
every known answer is computed from member sizes alone, never from the
pipeline.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

WORKLOADS = ("sweep", "product", "wide")

# Number of orders of each kind on an n-element carrier, n = 0..4.
N_ORDERS = {"wellorder": (1, 1, 2, 6, 24), "pol": (1, 1, 2, 9, 76)}

# The four sets of rank <= 1 (the elements of the rank-2 universe).
U4 = ("{}", "{{}}", "{{{}}}", "{{},{{}}}")
# The 5-atom universe of the exhaustive 2625-family space.
ATOMS5 = U4 + ("{{{{}}}}",)
# The 16 sets of rank <= 3, pairwise distinct.
U16 = tuple(
    "{" + ",".join(combo) + "}"
    for k in range(len(U4) + 1)
    for combo in itertools.combinations(U4, k)
)

INTERVAL_DEMO = ("2", "4", "1", "0")

def set_literal(elements) -> str:
    return "{" + ",".join(elements) + "}"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv without ``--out``, plus what to check."""

    command: str
    argv: tuple
    family_file: Optional[str] = None
    members: tuple = ()        # members as frozensets of element literals
    kind: Optional[str] = None
    u2: Optional[str] = None
    trials: int = 0

    def family_json(self) -> str:
        return json.dumps({"family": [set_literal(sorted(m)) for m in self.members]})

    def expected_sizes(self) -> tuple:
        """(qs_size, fc_size), from member sizes only."""
        if self.u2 == "literal" and len(self.members) > 1:
            return 0, 0
        qs = math.prod(N_ORDERS[self.kind][len(m)] for m in self.members)
        fc = math.prod(len(m) for m in self.members)
        return qs, fc


def _family_op(command, workload, seed, index, members, kind, u2="union") -> Op:
    name = f"{workload}-{seed}-{index:05d}.json"
    argv = [command, "--family", name, "--kind", kind]
    if u2 != "union":
        argv += ["--u2", u2]
    return Op(command, tuple(argv), name, tuple(frozenset(m) for m in members), kind, u2)


# --- sweep ---------------------------------------------------------------------

SWEEP_VERIFY = (
    (("wellorder", "union"),) * 6 + (("wellorder", "literal"),) * 2
    + (("pol", "union"),) * 6 + (("pol", "literal"),) * 2
)


def sweep_family_space() -> list:
    """Every family of 1-3 distinct nonempty members of at most three of the
    five atoms (2625 families), sorted by what drives a verify op's cost:
    the subset-filter route scans 2**(members * |union|) masks, and the
    cross-check scans 2**(sum of |A|**2) when that sum is at most 12."""
    members = [
        frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(ATOMS5, k)
    ]
    families = [
        combo for k in (1, 2, 3) for combo in itertools.combinations(members, k)
    ]

    def cost_key(family):
        sizes = sorted(len(m) for m in family)
        union = frozenset().union(*family)
        return len(family) * len(union), sum(s * s for s in sizes), sizes

    families.sort(key=cost_key)
    return families


# Odd, so that the median verify op falls inside one stratum's cluster of
# times, not in the gap between two strata.
SWEEP_STRATA = 81


def sweep_blocks(seed: int) -> Iterator[list]:
    """Blocks of 101: 81 verify (about a quarter with literal U2, about half
    pol), 10 fuzz --trials 25 (half with --allow-empty) and 10 intervals
    --trials 200.

    The 2625 families are cut into 81 strata of similar cost, and each block
    takes one family from every stratum, with the same kind and U2 variant
    for a stratum in every block.  Runs of different seeds thus see the same
    mix of costs; the seed picks the families within strata, the fuzz and
    intervals seeds, and the order of ops in a block."""
    rng = random.Random(seed)
    space = sweep_family_space()
    strata = [
        space[i * len(space) // SWEEP_STRATA:(i + 1) * len(space) // SWEEP_STRATA]
        for i in range(SWEEP_STRATA)
    ]
    index = 0
    while True:
        ops = []
        for i, stratum in enumerate(strata):
            kind, u2 = SWEEP_VERIFY[i % len(SWEEP_VERIFY)]
            ops.append(_family_op("verify", "sweep", seed, index, rng.choice(stratum),
                                  kind, u2))
            index += 1
        for i in range(10):
            kind = ("wellorder", "pol")[i % 2]
            argv = ["fuzz", "--trials", "25", "--seed", str(rng.randrange(10**6)),
                    "--kind", kind] + (["--allow-empty"] if i >= 5 else [])
            ops.append(Op("fuzz", tuple(argv), kind=kind, trials=25))
        for _ in range(10):
            argv = ["intervals", "--trials", "200", "--seed", str(rng.randrange(10**6))]
            ops.append(Op("intervals", tuple(argv), trials=200))
        rng.shuffle(ops)
        yield ops


# --- product ---------------------------------------------------------------------

# Disjoint members; |Q_S| is 1296, 1458, 864, 648 and 288.  Five 3-element
# pol members would be 59,049 Q's, and enumerating them alone outlasts a run.
# The shape count is odd so that the median verify op falls inside one
# shape's cluster of times, not in the gap between two clusters.
PRODUCT_SHAPES = (
    ("wellorder", (3, 3, 3, 3)),
    ("pol", (3, 3, 3, 2)),
    ("wellorder", (3, 3, 3, 2, 2)),
    ("pol", (3, 3, 2, 2, 2)),
    ("wellorder", (3, 3, 2, 2, 2)),
)


def _atom_pools(count: int) -> list:
    """The ways to leave 16 - ``count`` atoms out of the 16, restricted to the
    most common total literal length left out, so that every pool of
    ``count`` atoms spells out to the same length (report size, and with it
    the memory high-water mark, then depends little on the seed)."""
    by_length: dict = {}
    for left_out in itertools.combinations(U16, len(U16) - count):
        by_length.setdefault(sum(len(a) for a in left_out), []).append(frozenset(left_out))
    return max(by_length.values(), key=len)


def product_blocks(seed: int) -> Iterator[list]:
    """Blocks of 10: verify and enumerate on each shape, each op on its own
    family of disjoint members drawn from the 16 sets of rank <= 3.  The op
    order is fixed, so the memory high-water mark after a block does not
    depend on where in it the largest report falls."""
    rng = random.Random(seed)
    pools = {n: _atom_pools(n) for n in {sum(sizes) for _, sizes in PRODUCT_SHAPES}}
    index = 0
    while True:
        ops = []
        for kind, sizes in PRODUCT_SHAPES:
            for command in ("verify", "enumerate"):
                left_out = rng.choice(pools[sum(sizes)])
                atoms = [a for a in U16 if a not in left_out]
                rng.shuffle(atoms)
                members = []
                start = 0
                for size in sizes:
                    members.append(atoms[start:start + size])
                    start += size
                ops.append(_family_op(command, "product", seed, index, members, kind))
                index += 1
        yield ops


# --- wide ------------------------------------------------------------------------

def wide_blocks(seed: int) -> Iterator[list]:
    """Blocks of 2 verify ops, wellorder then pol: one on {A4}, the other on
    {A4, B} with B a seeded nonempty proper subset of A4; which kind gets B
    alternates by block."""
    rng = random.Random(seed)
    proper = [c for k in (1, 2, 3) for c in itertools.combinations(U4, k)]
    for block in itertools.count():
        families = [[U4], [U4, rng.choice(proper)]]
        if block % 2:
            families.reverse()
        yield [
            _family_op("verify", "wide", seed, 2 * block + i, members, kind)
            for i, (kind, members) in enumerate(zip(("wellorder", "pol"), families))
        ]


BLOCKS = {"sweep": sweep_blocks, "product": product_blocks, "wide": wide_blocks}


# --- known answers -----------------------------------------------------------------

def check(op: Op, status, data: Optional[bytes]) -> list:
    """Problems with one op's outcome; empty when the op passed."""
    if status != 0:
        return [f"exit status {status}"]
    if data is None:
        return ["no report written"]
    try:
        report = json.loads(data)
    except ValueError as e:
        return [f"report is not JSON: {e}"]
    if report.get("ok") is not True:
        return [f"ok is {report.get('ok')!r}: {report.get('failures')}"]
    try:
        return _CHECKS[op.command](op, report)
    except (KeyError, TypeError) as e:
        return [f"report lacks {e!r}"]


def _check_verify(op: Op, report: dict) -> list:
    problems = []
    qs, fc = op.expected_sizes()
    pipeline = report["pipeline"]
    if pipeline["qs_size"] != qs:
        problems.append(f"qs_size {pipeline['qs_size']} != {qs}")
    if pipeline["fc_size"] != fc:
        problems.append(f"fc_size {pipeline['fc_size']} != {fc}")
    if report["equivalence"]["agree"] is not True:
        problems.append("equivalence.agree is not true")
    for name in ("oracle_fc_match", "route_agreement"):
        if report["cross_checks"].get(name) not in (True, None):
            problems.append(f"{name} is {report['cross_checks'][name]!r}")
    return problems


def _check_enumerate(op: Op, report: dict) -> list:
    problems = []
    qs, fc = op.expected_sizes()
    if report["q_s"]["size"] != qs or len(report["q_s"]["relations"]) != qs:
        problems.append(f"q_s size {report['q_s']['size']} != {qs}")
    if report["f_c"]["size"] != fc or len(report["f_c"]["graphs"]) != fc:
        problems.append(f"f_c size {report['f_c']['size']} != {fc}")
    counts = sorted(m["order_count"] for m in report["members"])
    expected = sorted(N_ORDERS[op.kind][len(m)] for m in op.members)
    if counts != expected:
        problems.append(f"order counts {counts} != {expected}")
    return problems


def _check_fuzz(op: Op, report: dict) -> list:
    fuzz = report["fuzz"]
    if fuzz["checked"] != op.trials or fuzz["skipped_by_cap"] != 0:
        return [f"fuzz checked {fuzz['checked']} of {op.trials}, "
                f"skipped {fuzz['skipped_by_cap']}"]
    return []


def _check_intervals(op: Op, report: dict) -> list:
    problems = []
    if report["sample_checks"]["passed"] != op.trials:
        problems.append(f"intervals passed {report['sample_checks']['passed']} of {op.trials}")
    demo = tuple(d["choice_value"] for d in report["demo"])
    if demo != INTERVAL_DEMO:
        problems.append(f"demo values {demo} != {INTERVAL_DEMO}")
    return problems


_CHECKS = {
    "verify": _check_verify,
    "enumerate": _check_enumerate,
    "fuzz": _check_fuzz,
    "intervals": _check_intervals,
}


# --- run record ----------------------------------------------------------------------

@dataclass
class InputRecord:
    """Properties of the ops a run executed."""

    ops: dict = field(default_factory=dict)
    seen: set = field(default_factory=set)
    largest_seen_before: int = 0
    family_ops: int = 0
    largest_member: int = 0
    total_qs: int = 0

    def add(self, op: Op) -> None:
        self.ops[op.command] = self.ops.get(op.command, 0) + 1
        if not op.members:
            return
        self.family_ops += 1
        largest = max(op.members, key=lambda m: (len(m), sorted(m)))
        if largest in self.seen:
            self.largest_seen_before += 1
        self.seen.update(op.members)
        self.largest_member = max(self.largest_member, len(largest))
        self.total_qs += op.expected_sizes()[0]

    def as_dict(self) -> dict:
        return {
            "ops_per_command": dict(sorted(self.ops.items())),
            "distinct_members": len(self.seen),
            "largest_member_seen_frac": (
                self.largest_seen_before / self.family_ops if self.family_ops else None
            ),
            "largest_member_size": self.largest_member,
            "total_qs": self.total_qs,
        }
