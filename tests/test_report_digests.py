"""``tools/report_digests.py`` reads the worker's result line; it never runs here."""

import argparse
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digests)

# What ``perfbench/worker.py`` prints: ``ready``, then its result as one JSON
# line (trimmed here to a few of its fields).
WORKER_STDOUT = (
    "ready\n"
    '{"ops": 303, "blocks": 4, "failed": 0, "failures": [], "op_time_s": 2.5, '
    '"digest": "14b2b9f1d9beb08702abfb968c77ec49b380d1ea7cb6d8904dccd6c8757f3a2a", '
    '"digest_ops": 100, "peak_rss_mb": 61.2}\n'
)


def test_parses_the_last_line_of_the_worker_output():
    result = report_digests.parse_result(WORKER_STDOUT)
    assert result["digest"].startswith("14b2b9f1")
    assert result["failed"] == 0
    assert result["ops"] == 303
    with pytest.raises(ValueError):
        report_digests.parse_result("ready\n\n")


def test_a_digest_that_differs_or_a_failed_op_is_a_problem():
    result = report_digests.parse_result(WORKER_STDOUT)
    problems = report_digests.problems
    assert problems("product", result, {"product": "14b2b9f1"}) == []
    assert problems("product", result, {}) == []
    assert problems("product", result, {"product": "d120c44d"}) != []
    assert problems("product", dict(result, failed=2), {"product": "14b2b9f1"}) != []


def test_expect_takes_a_workload_and_a_digest():
    assert report_digests.expectation("wide=2b216407") == ("wide", "2b216407")
    for bad in ("wide", "wide="):
        with pytest.raises(argparse.ArgumentTypeError):
            report_digests.expectation(bad)
