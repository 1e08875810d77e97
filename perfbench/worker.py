"""One workload process: import zflab from source, generate inputs, run ops.

Started by ``run.py`` as a fresh interpreter, so zflab's caches start cold.
It prints ``ready`` once zflab is imported and the first block of inputs is
generated (the parent times set-up up to that line), then runs whole blocks
of ops through ``zflab.cli.main(argv + ["--out", ...])`` in this one thread,
one op at a time, and prints its result as one JSON line.  The result lists
every op's command, time and (start, end) on ``time.perf_counter``, the
system's monotonic clock, in order.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30 \
        --workdir .perfbench_work/1234 [--max-ops N] [--first-block N]
        [--trace] [--spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

REPORT = "report.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def import_zflab():
    """Import zflab from the checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import zflab.cli
    import zflab.hfs

    if Path(zflab.__file__).resolve().parent != SRC / "zflab":
        raise ImportError(f"zflab was imported from {zflab.__file__}, not {SRC}")
    return zflab


def run_op(zflab, op) -> tuple:
    """Run one op; return (exit status or error text, seconds, report bytes,
    (start, end) on the perf_counter clock)."""
    if op.family_file:
        Path(op.family_file).write_text(op.family_json(), encoding="utf-8")
    Path(REPORT).unlink(missing_ok=True)
    argv = list(op.argv) + ["--out", REPORT]
    start = time.perf_counter()
    try:
        status = zflab.cli.main(argv)
    except (Exception, SystemExit) as e:  # an op that raises is a failed op
        status = f"raised {type(e).__name__}: {e}"
    end = time.perf_counter()
    try:
        data = Path(REPORT).read_bytes()
    except FileNotFoundError:
        data = None
    return status, end - start, data, (start, end)


def run_ops(zflab, workload: str, seed: int, seconds: float, max_ops=None,
            tracer=None, ready=None, first_block=0) -> dict:
    """Run whole blocks, from block ``first_block`` of the seed's stream on,
    while one more block, at the mean block time so far, still fits in
    ``seconds`` of op time (at least one block), or run exactly ``max_ops``
    ops.  The current directory receives family files and reports."""
    blocks = workloads.BLOCKS[workload](seed)
    for _ in range(first_block):
        next(blocks)
    first = next(blocks)
    if ready is not None:
        ready()
    commands = []
    times = []
    windows = []
    record = workloads.InputRecord()
    failures = []
    failed = 0
    op_time = 0.0
    digest = hashlib.sha256()
    report_bytes = 0
    intern_max = 0
    layers: dict = {}
    verify_qs_calls = 0
    ops = 0
    for blocks_done, block in enumerate(itertools.chain([first], blocks), 1):
        for op in block if max_ops is None else block[:max_ops - ops]:
            if tracer is not None:
                tracer.begin_op(ops)
            status, elapsed, data, window = run_op(zflab, op)
            if tracer is not None:
                for label, stat in tracer.end_op().items():
                    layers.setdefault(label, tracing.Stat()).add(stat)
                    if label == "construction.build_QS" and op.command == "verify":
                        verify_qs_calls += stat.calls
                intern_max = max(intern_max, len(zflab.hfs._intern))
            op_time += elapsed
            commands.append(op.command)
            times.append(elapsed)
            windows.append(window)
            record.add(op)
            problems = workloads.check(op, status, data)
            if problems:
                failed += 1
                if len(failures) < 10:
                    failures.append({"argv": list(op.argv), "problems": problems})
            if data is not None:
                report_bytes += len(data)
                if ops < len(first):
                    digest.update(data)
            ops += 1
        if block is first:
            # A fixed prefix of ops, so the figure does not depend on how
            # many blocks fit in the time (zflab's caches grow with each op).
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if max_ops is not None:
            if ops >= max_ops:
                break
        elif op_time + op_time / blocks_done > seconds:
            break
    result = {
        "ops": ops,
        "blocks": blocks_done,
        "failed": failed,
        "failures": failures,
        "op_time_s": op_time,
        "commands": commands,
        "times": times,
        "windows": windows,
        "digest": digest.hexdigest(),
        "digest_ops": min(len(first), ops),
        "inputs": record.as_dict(),
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, layers, ops, commands.count("verify"),
                                         verify_qs_calls, intern_max, report_bytes)
    return result


def layer_metrics(tracer, layers: dict, ops: int, verify_ops: int,
                  verify_qs_calls: int, intern_max: int, report_bytes: int) -> dict:
    """Per-layer figures, per op unless the name says otherwise."""
    def stat(label):
        return layers.get(label) or tracing.Stat()

    per_op = 1 / ops
    orders = stat("orders.enumerate_orders")
    kernel = sum(stat(f"hfs.{n}").self_time for n in ("make_set", "ordered_pair", "powerset"))
    return {
        "hfs.make_set.calls": stat("hfs.make_set").calls * per_op,
        "hfs.ordered_pair.calls": stat("hfs.ordered_pair").calls * per_op,
        "hfs.kernel.self_s": kernel * per_op,
        "hfs.powerset.calls": stat("hfs.powerset").calls * per_op,
        "hfs.powerset.self_s": stat("hfs.powerset").self_time * per_op,
        "hfs.hfs_literal.s": stat("hfs.hfs_literal").incl * per_op,
        "hfs.intern_size_max": intern_max,
        "orders.enumerate_orders.calls": orders.calls * per_op,
        "orders.enumerate_orders.s": orders.incl * per_op,
        "orders.enumerate_orders.distinct_frac": (
            len(tracer.keys.get("orders.enumerate_orders", ())) / orders.calls
            if orders.calls else 0.0
        ),
        "construction.build_universes.s": stat("construction.build_universes").incl * per_op,
        "construction.build_U2_base.s": stat("construction.build_U2_base").incl * per_op,
        "construction.build_QS.calls_per_verify": (
            verify_qs_calls / verify_ops if verify_ops else 0.0
        ),
        "construction.build_QS.self_s": stat("construction.build_QS").self_time * per_op,
        "construction.qs_materialized": stat("construction.build_QS").measured * per_op,
        "construction.choice_from_Q.calls": stat("construction.choice_from_Q").calls * per_op,
        "construction.choice_from_Q.s": stat("construction.choice_from_Q").incl * per_op,
        "construction.build_Fc_literal.s": stat("construction.build_Fc_literal").incl * per_op,
        "oracle.verify_equivalence.calls": stat("oracle.verify_equivalence").calls * per_op,
        "oracle.verify_equivalence.s": stat("oracle.verify_equivalence").incl * per_op,
        "oracle.verify_equivalence.self_s": stat("oracle.verify_equivalence").self_time * per_op,
        "oracle.enumerate_choice_functions.s": (
            stat("oracle.enumerate_choice_functions").incl * per_op
        ),
        "intervals.sample_check_pol.calls": stat("intervals.sample_check_pol").calls * per_op,
        "intervals.sample_check_pol.s": stat("intervals.sample_check_pol").incl * per_op,
        "cli.main.self_s": stat("cli.main").self_time * per_op,
        "cli.report_bytes": report_bytes * per_op,
        "cli.load_family.s": stat("cli.load_family").incl * per_op,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--first-block", type=int, default=0,
                        help="start at this block of the seed's stream")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write trace spans here (JSON lines)")
    args = parser.parse_args(argv)

    spans_path = args.spans.resolve() if args.spans else None
    zflab = import_zflab()
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)

    def ready():
        print("ready", flush=True)

    if args.setup_only:
        next(workloads.BLOCKS[args.workload](args.seed))
        ready()
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run_ops(zflab, args.workload, args.seed, args.seconds, args.max_ops,
                         tracer, ready, args.first_block)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None and spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
