"""The functions the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` names its targets by module and attribute.  A rename
in zflab would otherwise surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves a class's module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    missing = [
        target.label for target in targets
        if not callable(getattr(importlib.import_module(target.module), target.name, None))
    ]
    assert missing == []
