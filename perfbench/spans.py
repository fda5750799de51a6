"""Spans recorded around the program's public functions, from outside it,
and the arithmetic that turns them into per-layer metrics.

A Tracer replaces each traced function by a wrapper in every module of the
package that holds it, because callers look the name up where they imported
it (``steplab.train.build_input`` as well as ``steplab.signals.build_input``).
Spans stay in memory. Work that a process pool forks off records its spans in
the worker; a target marked ``ship`` writes them to a spool directory when it
returns there, and ``take`` reads them back into the parent.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence


@dataclass
class Span:
    id: str
    parent: Optional[str]
    name: str
    start: float          # time.perf_counter(), comparable across processes
    end: float
    pid: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[[tuple, object], dict]


@dataclass(frozen=True)
class Target:
    module: str           # e.g. "steplab.train"
    attr: str             # e.g. "fit"
    span: str             # e.g. "train.fit"
    counter: Optional[Counter] = None
    ship: bool = False    # runs in pool workers; send its spans to the parent


class Tracer:
    def __init__(self, package: str, targets: Sequence[Target], spool_dir: Path):
        self.package = package
        self.targets = list(targets)
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._next_id = 0

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            span_id = f"{pid}-{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            first = len(self.spans)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = target.counter(args, result) if target.counter else {}
            self.spans.append(Span(span_id, parent, target.span, start, end, pid, counts))
            if target.ship and pid != self.pid:
                self._ship(first, span_id)
            return result
        return wrapper

    def _ship(self, first: int, span_id: str) -> None:
        records = [asdict(s) for s in self.spans[first:]]
        del self.spans[first:]
        (self.spool_dir / f"spans-{span_id}.json").write_text(json.dumps(records))

    def install(self) -> Callable[[], None]:
        """Patch every alias of every target; returns the undo function."""
        return patch(self.package, [
            (t.module, t.attr, functools.partial(self._wrap, t)) for t in self.targets])

    def take(self) -> list[Span]:
        """All spans since the last take, worker spans included."""
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            self.spans.extend(Span(**r) for r in json.loads(path.read_text()))
            path.unlink()
        spans, self.spans = self.spans, []
        return spans


def patch(package: str, wraps) -> Callable[[], None]:
    """For each (module, attr, wrap), replace the function module.attr by
    wrap(function) in every module of the package that holds it, because
    callers look the name up where they imported it. Returns the undo
    function."""
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    patched = []
    for module_name, attr, wrap in wraps:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrap(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    patched.append((module, name, original))

    def restore():
        for module, name, original in reversed(patched):
            setattr(module, name, original)
    return restore


# ---------------------------------------------------------------------------
# arithmetic


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Span duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}


def aggregate(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds, calls and summed counts."""
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s.name]
        a["s"] += s.duration
        a["self_s"] += own[s.id]
        a["calls"] += 1
        for key, value in s.counts.items():
            a[key] += value
    return agg


def pool_idle_frac(busy_s: Sequence[float], jobs: int, wall_s: float) -> float:
    """1 - busy time / (jobs x wall time); 0 when no work went to a pool."""
    if not busy_s:
        return 0.0
    return 1.0 - sum(busy_s) / (jobs * wall_s)


def gap_s(spans: Sequence[Span], wall_s: float, pid: int) -> float:
    """Wall time not inside any top-level span of the measuring process.

    Self times of that process's spans sum to the top-level durations, so
    this is the part of the traced wall time no layer accounts for."""
    top = sum(s.duration for s in spans if s.parent is None and s.pid == pid)
    return wall_s - top


def layer_metrics(spans: Sequence[Span], wall_s: float, jobs: int, pid: int,
                  names: Sequence[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A name '<span>.<field>' reads the aggregate field of that span; the
    others are derived below. Spans that never ran read as 0. The caller
    adds trace.overhead_frac, which needs the untraced passes too."""
    agg = aggregate(spans)
    folds = [s.duration for s in spans if s.name == "evaluation.fold"]
    cv_wall = sum(s.duration for s in spans if s.name == "evaluation.evaluate_cv")
    derived = {
        "evaluation.fold.median_s": statistics.median(folds) if folds else 0.0,
        "evaluation.fold.max_s": max(folds, default=0.0),
        "evaluation.pool_idle_frac": pool_idle_frac(folds, jobs, cv_wall),
        "baselines.autocorr_unconfident":
            agg.get("baselines.count_autocorrelation", {}).get("unconfident", 0),
        "trace.wall_s": wall_s,
        "trace.gap_s": gap_s(spans, wall_s, pid),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = float(derived[name])
        elif not name.startswith("trace."):
            span, _, key = name.rpartition(".")
            out[name] = float(agg.get(span, {}).get(key, 0.0))
    return out
