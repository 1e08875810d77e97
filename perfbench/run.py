"""The zflab benchmark: one workload run, measured end to end or layer by layer.

    python3 perfbench/run.py --workload {sweep,product,wide} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; zflab is imported from ``src/``.
Each run starts fresh interpreters (``worker.py``), one at a time, so every
run starts with cold caches; zflab runs in one process and one thread, with
one closed-loop client.  With ``--trace 0`` it runs the workload in three
passes of about S/3 seconds of op time each, every pass a fresh interpreter
that starts at its own block of the seed's stream.  Set-up is timed in the
passes and in six more interpreters.  Times are given at a reference host
speed (``hostspeed``): a thread of this process times a reference task
meanwhile, and each op or set-up time is divided by the host factor measured
around it.  With ``--trace 1`` it runs about S/2 seconds untraced, then the
same ops traced, and reports per-layer figures and the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the run record: the inputs' properties, the report
digest, per-command latencies, the failure fraction and the environment.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PASSES = 3
# Set-up-only interpreters started before each pass; with the passes, nine
# set-up samples spread over the run.
SETUPS_PER_PASS = 2
# A run must end within 180 s; a worker still running at this point is killed.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "hfs.make_set.calls": "count/op",
    "hfs.ordered_pair.calls": "count/op",
    "hfs.kernel.self_s": "s/op",
    "hfs.powerset.calls": "count/op",
    "hfs.powerset.self_s": "s/op",
    "hfs.hfs_literal.s": "s/op",
    "hfs.intern_size_max": "count",
    "orders.enumerate_orders.calls": "count/op",
    "orders.enumerate_orders.s": "s/op",
    "orders.enumerate_orders.distinct_frac": "frac",
    "construction.build_universes.s": "s/op",
    "construction.build_U2_base.s": "s/op",
    "construction.build_QS.calls_per_verify": "count/op",
    "construction.build_QS.self_s": "s/op",
    "construction.qs_materialized": "count/op",
    "construction.choice_from_Q.calls": "count/op",
    "construction.choice_from_Q.s": "s/op",
    "construction.build_Fc_literal.s": "s/op",
    "oracle.verify_equivalence.calls": "count/op",
    "oracle.verify_equivalence.s": "s/op",
    "oracle.verify_equivalence.self_s": "s/op",
    "oracle.enumerate_choice_functions.s": "s/op",
    "intervals.sample_check_pol.calls": "count/op",
    "intervals.sample_check_pol.s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.report_bytes": "B/op",
    "cli.load_family.s": "s/op",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(deadline: float, workdir: Path, workload: str, seed: int,
               seconds: float, *extra: str) -> tuple:
    """Start one worker; return ((start, time of its ``ready`` line) on
    ``time.perf_counter``, its parsed result or None for a set-up-only
    worker)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
           *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        line = proc.stdout.readline() if readable else ""
        ready = time.perf_counter()
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return (start, ready), json.loads(lines[-1]) if lines else None


def p50_ms(values: list) -> float:
    return statistics.median(values) * 1000


def by_command(commands: list, times: list) -> dict:
    out: dict = {}
    for command, seconds in zip(commands, times):
        out.setdefault(command, []).append(seconds)
    return out


def at_reference_speed(times: list, windows: list, monitor) -> list:
    """Times divided by the host factors over their (start, end) windows."""
    return [t / monitor.factor(*w) for t, w in zip(times, windows)]


def command_latencies(commands: list, times: list) -> dict:
    """Median per command, and p90 where at least ten samples lie beyond it."""
    out = {}
    for command, values in sorted(by_command(commands, times).items()):
        out[f"{command}_p50_ms"] = {"value": p50_ms(values), "unit": "ms",
                                    "samples": len(values)}
        if len(values) >= 100:
            p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] * 1000
            out[f"{command}_p90_ms"] = {"value": p90, "unit": "ms", "samples": len(values)}
    return out


def end_to_end(commands: list, times: list, setups: list, runs: list) -> dict:
    """The end-to-end metrics from the op times and the set-up times."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "verify_p50_ms": p50_ms([t for c, t in zip(commands, times) if c == "verify"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            deadline: float) -> tuple:
    """Return (result line, run record)."""
    run = functools.partial(run_worker, deadline, workdir, workload, seed)
    if not trace:
        windows, runs = [], []

        def start(*extra):
            window, res = run(*extra)
            windows.append(window)
            return res

        with hostspeed.Monitor() as monitor:
            for _ in range(PASSES):
                for _ in range(SETUPS_PER_PASS):
                    start(0, "--setup-only")
                # The first pass picks how many blocks fit; the others run as
                # many, each from the block after the last one run before it.
                more = (("--max-ops", str(runs[0]["ops"]),
                         "--first-block", str(len(runs) * runs[0]["blocks"])) if runs else ())
                runs.append(start(seconds / PASSES, *more))
        timed_runs = runs
        reports_match = True
        commands = [c for r in runs for c in r["commands"]]
        times = [t for r in runs for t in r["times"]]
        setups = [end - start for start, end in windows]
        timed = at_reference_speed(times, [w for r in runs for w in r["windows"]], monitor)
        values = end_to_end(commands, timed, at_reference_speed(setups, windows, monitor), runs)
        raw = end_to_end(commands, times, setups, runs)
        units = END_TO_END
        extra = {
            "passes": PASSES,
            "at_host_speed": {name: raw[name] for name in ("setup_s", "ops_per_s",
                                                            "verify_p50_ms")},
            "setup_samples_s": setups,
            "host_factor_quartiles": statistics.quantiles(monitor.factors, n=4),
            "host_samples": len(monitor.factors),
        }
    else:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl"
        with hostspeed.Monitor() as monitor:
            _, base = run(seconds / 2)
            _, res = run(seconds, "--trace", "--max-ops", str(base["ops"]),
                         "--spans", str(spans))
        values = dict(res["layers"])
        values["trace.overhead_frac"] = (
            sum(at_reference_speed(res["times"], res["windows"], monitor))
            / sum(at_reference_speed(base["times"], base["windows"], monitor)) - 1
        )
        units = PER_LAYER
        runs = [base, res]
        timed_runs = [base]
        # Tracing must not change what zflab reports.
        reports_match = res["digest"] == base["digest"]
        commands = base["commands"]
        timed = base["times"]
        extra = {"traced_op_time_s": res["op_time_s"], "traced_report_matches": reports_match,
                 "spans_file": str(spans.relative_to(ROOT))}
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0 and reports_match,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fail_frac": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "report_digest": hashlib.sha256("".join(r["digest"] for r in runs).encode()).hexdigest(),
        "digest_ops": [r["digest_ops"] for r in runs],
        "ops": [r["ops"] for r in runs],
        "op_time_s": [r["op_time_s"] for r in runs],
        "command_latencies": command_latencies(commands, timed),
        "inputs": [r["inputs"] for r in timed_runs],
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        **extra,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zflab benchmark: one workload run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zflab" / "__init__.py").is_file():
        print(f"perfbench: no zflab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 workdir, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
