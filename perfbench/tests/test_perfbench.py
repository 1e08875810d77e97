"""Tests of the benchmark itself: workloads pass their checks at a tiny size,
reports are deterministic, the tracer leaves zflab as it found it, the
known-answer checker catches a corrupted report, and the entry point refuses
to run without the zflab source.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

zflab = worker.import_zflab()


@pytest.fixture
def in_tmp(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


@pytest.mark.parametrize("workload, ops", [("sweep", 20), ("product", 2), ("wide", 1)])
def test_workload_runs_tiny_and_passes_checks(in_tmp, workload, ops):
    result = worker.run_ops(zflab, workload, seed=3, seconds=0, max_ops=ops)
    assert result["ops"] == ops
    assert result["failed"] == 0, result["failures"]
    assert sum(result["inputs"]["ops_per_command"].values()) == ops


def test_same_seed_gives_same_report_digest(in_tmp):
    first = worker.run_ops(zflab, "sweep", seed=5, seconds=0, max_ops=20)
    second = worker.run_ops(zflab, "sweep", seed=5, seconds=0, max_ops=20)
    other = worker.run_ops(zflab, "sweep", seed=6, seconds=0, max_ops=20)
    assert first["digest"] == second["digest"]
    assert first["digest"] != other["digest"]


def test_blocks_are_seeded():
    for workload, blocks in workloads.BLOCKS.items():
        a, b, c = blocks(1), blocks(1), blocks(2)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)], workload
        assert first != [next(c) for _ in range(3)], workload


def test_sweep_block_composition():
    block = next(workloads.sweep_blocks(0))
    commands = [op.command for op in block]
    assert commands.count("verify") == 81
    assert commands.count("fuzz") == commands.count("intervals") == 10
    verify = [op for op in block if op.command == "verify"]
    assert sum(op.u2 == "literal" for op in verify) == 20
    assert sum(op.kind == "pol" for op in verify) == 40
    fuzz = [op for op in block if op.command == "fuzz"]
    assert sum("--allow-empty" in op.argv for op in fuzz) == 5
    assert sum(op.kind == "pol" for op in fuzz) == 5
    assert len(workloads.sweep_family_space()) == 2625


def _module_snapshot():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "zflab" or name.startswith("zflab.")
    }


def test_tracer_restores_every_function_it_rebinds(in_tmp):
    before = _module_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zflab.construction.make_set is not before["zflab.construction"]["make_set"]
        assert zflab.hfs.make_set is zflab.construction.make_set
        result = worker.run_ops(zflab, "sweep", seed=3, seconds=0, max_ops=4, tracer=tracer)
    finally:
        tracer.restore()
    after = _module_snapshot()
    assert before.keys() == after.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    layers = result["layers"]
    assert set(layers) == set(run.PER_LAYER) - {"trace.overhead_frac"}
    assert layers["hfs.make_set.calls"] > 0
    assert all(span is not None for span in tracer.spans)


def test_tracer_counts_only_the_outermost_recursive_call():
    tracer = tracing.Tracer([tracing.Target("zflab.hfs", "hfs_literal")])
    tracer.install()
    try:
        tracer.begin_op(0)
        assert zflab.hfs.hfs_literal(zflab.hfs.parse_hfs("{{{{}}},{}}")) == "{{},{{{}}}}"
        stats = tracer.end_op()
    finally:
        tracer.restore()
    assert stats["hfs.hfs_literal"].calls == 1


def test_self_time_excludes_child_spans(in_tmp):
    Path("f.json").write_text('{"family": ["{{}}"]}')
    ticks = iter(range(100))
    tracer = tracing.Tracer([tracing.Target("zflab.cli", "load_family", span=True),
                             tracing.Target("zflab.hfs", "parse_hfs", span=True)],
                            clock=lambda: next(ticks))
    tracer.install()
    try:
        tracer.begin_op(0)
        zflab.cli.load_family("f.json")
        stats = tracer.end_op()
    finally:
        tracer.restore()
    # load_family runs from tick 0 to 3, parse_hfs inside it from 1 to 2.
    assert (stats["cli.load_family"].incl, stats["cli.load_family"].self_time) == (3, 2)
    assert (stats["hfs.parse_hfs"].incl, stats["hfs.parse_hfs"].self_time) == (1, 1)
    assert tracer.spans == [(0, None, 0, "cli.load_family", 0, 3),
                            (1, 0, 0, "hfs.parse_hfs", 1, 2)]


def _first_op_report(in_tmp, command, workload="sweep"):
    for block in workloads.BLOCKS[workload](11):
        for op in block:
            if op.command == command:
                if op.family_file:
                    Path(op.family_file).write_text(op.family_json())
                assert zflab.cli.main(list(op.argv) + ["--out", "r.json"]) == 0
                data = Path("r.json").read_bytes()
                assert workloads.check(op, 0, data) == []
                return op, json.loads(data)


@pytest.mark.parametrize("command, corrupt", [
    ("verify", lambda r: r["pipeline"].update(qs_size=r["pipeline"]["qs_size"] + 1)),
    ("verify", lambda r: r["pipeline"].update(fc_size=r["pipeline"]["fc_size"] + 1)),
    ("verify", lambda r: r["equivalence"].update(agree=False)),
    ("verify", lambda r: r["cross_checks"].update(route_agreement=False)),
    ("verify", lambda r: r.update(ok=False)),
    ("verify", lambda r: r.pop("pipeline")),
    ("fuzz", lambda r: r["fuzz"].update(checked=r["fuzz"]["checked"] - 1)),
    ("fuzz", lambda r: r["fuzz"].update(skipped_by_cap=1)),
    ("intervals", lambda r: r["sample_checks"].update(passed=0)),
    ("intervals", lambda r: r["demo"][0].update(choice_value="3")),
])
def test_checker_flags_a_corrupted_report(in_tmp, command, corrupt):
    op, report = _first_op_report(in_tmp, command)
    corrupt(report)
    assert workloads.check(op, 0, json.dumps(report).encode())


def test_checker_flags_failed_exit_and_missing_report(in_tmp):
    op, report = _first_op_report(in_tmp, "verify")
    data = json.dumps(report).encode()
    assert workloads.check(op, 1, data)
    assert workloads.check(op, "raised ValueError: x", data)
    assert workloads.check(op, 0, None)
    assert workloads.check(op, 0, b"not json")


def test_enumerate_checker_flags_wrong_order_count(in_tmp):
    op = workloads.Op("enumerate", ("enumerate", "--family", "f.json", "--kind", "pol"),
                      "f.json", (frozenset({"{}", "{{}}"}), frozenset({"{{{}}}"})), "pol")
    Path("f.json").write_text(op.family_json())
    assert zflab.cli.main(list(op.argv) + ["--out", "r.json"]) == 0
    report = json.loads(Path("r.json").read_bytes())
    assert workloads.check(op, 0, json.dumps(report).encode()) == []
    report["members"][0]["order_count"] += 1
    assert workloads.check(op, 0, json.dumps(report).encode())


class FixedMonitor:
    """Host factor 2 up to time 10, then 1."""

    def factor(self, start, end):
        return 2.0 if end <= 10 else 1.0


def test_latencies_and_end_to_end_metrics():
    times = run.at_reference_speed([0.2, 0.4, 0.1, 0.4], [(0, 1), (2, 3), (11, 12), (13, 14)],
                                   FixedMonitor())
    assert times == pytest.approx([0.1, 0.2, 0.1, 0.4])
    commands = ["verify", "fuzz", "verify", "verify"]
    latencies = run.command_latencies(commands, times)
    assert latencies["verify_p50_ms"]["value"] == pytest.approx(100)
    assert latencies["verify_p50_ms"]["samples"] == 3
    assert latencies["fuzz_p50_ms"]["value"] == pytest.approx(200)
    assert "verify_p90_ms" not in latencies
    assert run.command_latencies(["verify"] * 100, [0.1] * 100)["verify_p90_ms"]["samples"] == 100
    values = run.end_to_end(commands, times, [0.3, 0.1, 0.2],
                            [{"peak_rss_mb": 20.0}, {"peak_rss_mb": 21.0}])
    assert values == pytest.approx({"setup_s": 0.2, "ops_per_s": 5.0,
                                    "verify_p50_ms": 100, "peak_rss_mb": 20.5})


def test_monitor_samples_the_host_while_the_program_runs():
    with hostspeed.Monitor() as monitor:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert len(monitor.factors) == len(monitor.at) >= 3
    assert all(f > 0 for f in monitor.factors)
    inside = [f for at, f in zip(monitor.at, monitor.factors)
              if start - hostspeed.WINDOW_S <= at <= end + hostspeed.WINDOW_S]
    assert monitor.factor(start, end) == statistics.median(inside)
    # Far from every sample, the nearest one counts.
    assert monitor.factor(end + 100, end + 101) == monitor.factors[-1]


def test_a_pass_runs_whole_blocks_within_its_budget(in_tmp):
    block = len(next(workloads.sweep_blocks(3)))
    result = worker.run_ops(zflab, "sweep", seed=3, seconds=0)
    assert result["ops"] == len(result["times"]) == block
    assert result["blocks"] == 1


def test_a_pass_can_start_at_a_later_block(in_tmp):
    stream = workloads.product_blocks(4)
    second = [next(stream), next(stream)][1]
    result = worker.run_ops(zflab, "product", seed=4, seconds=0, max_ops=2, first_block=1)
    assert result["commands"] == [op.command for op in second[:2]]
    assert result["failed"] == 0
    assert result["digest"] != worker.run_ops(zflab, "product", seed=4, seconds=0,
                                              max_ops=2)["digest"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
