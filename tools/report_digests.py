"""Print the seed-77 report digest of each benchmark workload, and check it.

For each workload this runs the benchmark worker unchanged,

    python3 perfbench/worker.py --workload <w> --seed 77 --seconds 30 \
        --max-ops 303 --workdir <a temporary directory>

reads the JSON result line it prints last, and prints the workload, the
digest of its first block of reports and the number of failed ops.  Equal
digests mean byte-identical reports.

    python3 tools/report_digests.py [--expect WORKLOAD=DIGEST ...]

It runs every workload ``BENCHMARK.json`` declares.  ``--expect`` takes a
digest or a prefix of one; the exit status is 1 if a digest differs from
its expected value or an op failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER_ARGS = ("--seed", "77", "--seconds", "30", "--max-ops", "303")


def parse_result(stdout: str) -> dict:
    """The worker's result: the JSON object on the last nonempty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the worker printed no result line")
    return json.loads(lines[-1])


def run_worker(workload: str) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
             *WORKER_ARGS, "--workdir", workdir],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
    return parse_result(proc.stdout)


def problems(workload: str, result: dict, expect: dict) -> list:
    """What is wrong with one workload's result: a digest that differs from
    its expected prefix, failed ops."""
    found = []
    wanted = expect.get(workload)
    if wanted is not None and not result["digest"].startswith(wanted):
        found.append(f"{workload}: digest {result['digest']} is not {wanted}")
    if result["failed"]:
        found.append(f"{workload}: {result['failed']} failed ops")
    return found


def expectation(text: str) -> tuple:
    workload, sep, digest = text.partition("=")
    if not (sep and digest):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=DIGEST, got {text!r}")
    return workload, digest


def main(argv=None) -> int:
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", action="append", default=[], type=expectation,
                        metavar="WORKLOAD=DIGEST",
                        help="the expected digest, or a prefix of it (repeatable)")
    args = parser.parse_args(argv)
    expect = dict(args.expect)
    if set(expect) - set(declared):
        parser.error(f"--expect names no declared workload: {sorted(set(expect) - set(declared))}")
    found = []
    for workload in declared:
        result = run_worker(workload)
        print(f"{workload:10} {result['digest']}  failed {result['failed']}", flush=True)
        found += problems(workload, result, expect)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
