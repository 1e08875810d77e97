"""Layer tracing by rebinding: wrap chosen zflab functions without editing zflab.

Each target function is replaced by a wrapper in every ``zflab.*`` module
namespace that holds it, so calls from inside zflab are caught too.  Every
wrapped call adds to per-op aggregates (calls, inclusive time, self time);
targets marked as spans also record (id, parent id, op, name, start, end).
Self time is a call's duration minus the time of the wrapped calls directly
inside it.  A call made while the same function is already active (recursion)
is passed straight through, so only the outermost call counts.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str          # e.g. "zflab.hfs"
    name: str            # e.g. "make_set"
    span: bool = False   # record individual spans, not only aggregates
    key: Optional[Callable] = None     # args -> hashable, counts distinct calls
    measure: Optional[Callable] = None  # result -> number, summed per op

    @property
    def label(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


def _kind_key(args, kwargs):
    carrier = args[0] if args else kwargs["a"]
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    # The hash, not the set: holding carriers would keep them in the intern table.
    return hash(carrier), getattr(kind, "value", kind)


TARGETS = (
    Target("zflab.cli", "main", span=True),
    Target("zflab.cli", "load_family", span=True),
    Target("zflab.construction", "run_pipeline", span=True),
    Target("zflab.construction", "build_universes", span=True),
    Target("zflab.construction", "build_U2_base", span=True),
    Target("zflab.construction", "build_QS", span=True, measure=len),
    Target("zflab.construction", "build_Fc", span=True),
    Target("zflab.construction", "build_Fc_literal", span=True),
    Target("zflab.construction", "choice_from_Q"),
    Target("zflab.oracle", "verify_equivalence", span=True),
    Target("zflab.oracle", "enumerate_choice_functions", span=True),
    Target("zflab.orders", "enumerate_orders", span=True, key=_kind_key),
    Target("zflab.intervals", "sample_check_pol", span=True),
    Target("zflab.hfs", "make_set"),
    Target("zflab.hfs", "ordered_pair"),
    Target("zflab.hfs", "powerset"),
    Target("zflab.hfs", "hfs_literal"),
)


class Stat:
    __slots__ = ("calls", "incl", "self_time", "measured")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.measured = 0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.incl += other.incl
        self.self_time += other.self_time
        self.measured += other.measured


class Tracer:
    """Installs wrappers for ``targets``; ``restore`` puts the originals back."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.op = 0
        self.op_stats: dict = {}   # label -> Stat for the current op
        self.keys: dict = {}       # label -> set of distinct call keys, whole run
        self.spans: list = []
        self._frames: list = []    # [child time, enclosing span id] per active call
        self._rebound: list = []   # (module, attribute, original)

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "zflab" or n.startswith("zflab."))]
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_stats = {}

    def end_op(self) -> dict:
        stats, self.op_stats = self.op_stats, {}
        return stats

    def _wrap(self, target: Target, fn):
        label = target.label
        tracer = self
        clock = self.clock
        frames = self._frames
        active = [False]
        keys = self.keys.setdefault(label, set()) if target.key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            parent = frames[-1][1] if frames else None
            span_id = len(tracer.spans) if target.span else parent
            if target.span:
                tracer.spans.append(None)
            frame = [0.0, span_id]
            frames.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                frames.pop()
                active[0] = False
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                stat = tracer.op_stats.get(label)
                if stat is None:
                    stat = tracer.op_stats[label] = Stat()
                stat.calls += 1
                stat.incl += duration
                stat.self_time += duration - frame[0]
                if target.measure is not None and result is not None:
                    stat.measured += target.measure(result)
                if keys is not None:
                    keys.add(target.key(args, kwargs))
                if target.span:
                    tracer.spans[span_id] = (span_id, parent, tracer.op, label, start, end)

        return wrapper
