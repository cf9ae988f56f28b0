"""Span recorder for traced benchmark jobs.

`install` wraps the public functions of the six shiftchaos modules, and the
`symbol_at` / `window` methods of the sequence classes, from outside the
package.  Each wrapper is bound into every namespace that imported the
original (``certify.distance`` and ``cli.distance`` as well as
``metric.distance``), so calls are seen whichever name the caller used.

Every wrapped call records its duration and its self time: the duration
minus the time its wrapped callees took.  Calls also become spans (name,
start, end, parent span, job id) kept in memory until `Recorder.dump`,
except for the hot leaves in `HOT`, which keep only counts and times.

Durations are corrected for the tracer's own cost.  The bookkeeping a
wrapper does around its timed interval is measured on every call and
taken out of the caller's time; the small costs no clock can see (the
call into the wrapper, the clock reads themselves) are measured once per
process on an empty function (`calibrate`) and taken out as well.  What
remains of the tracing cost shows in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

MODULES = ("sequences", "cylinders", "metric", "certify", "horseshoe", "cli")
SEQUENCE_METHODS = ("symbol_at", "window")
CYLINDER_METHODS = ("contains", "entails")

# Called millions of times per job, or tiny helpers called from such calls:
# one span each would cost more memory and time than the work itself.
HOT = frozenset({
    "sequences.symbol_at", "sequences.window", "sequences.as_word",
    "horseshoe.rectangle_for_word",
    "metric.weight", "metric.weight_above", "metric.weight_below",
})


class Recorder:
    """Per-process call statistics, counters and spans of one job."""

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []           # (name, start, end, parent, job_id)
        # frames: [callees_s, span_index, name, overhead_s]; callees_s is the
        # corrected time of the wrapped callees, overhead_s the tracing cost
        # inside the frame's timed interval
        self.stack: list[list] = []
        self.cost_in = {True: 0.0, False: 0.0}   # hot -> unseen cost inside
        self.cost_out = {True: 0.0, False: 0.0}  # hot -> unseen cost outside

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, job_id = self.stack, self.spans, self.job_id
        clock = time.perf_counter
        hot = name in HOT
        cost_in, cost_out = self.cost_in, self.cost_out

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            if hot:
                frame = [0.0, None if parent is None else parent[1], name, 0.0]
            else:
                frame = [0.0, len(spans), name, 0.0]
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = end - start - cost_in[hot] - frame[3]
                stats[0] += 1
                stats[1] += own
                stats[2] += own - frame[0]
                if parent is not None:
                    parent[0] += own
                if not hot:
                    spans[frame[1]] = (name, start, end, None if parent is None else parent[1], job_id)
            if after is not None:
                after(self, parent, args, result)
            if parent is not None:
                parent[3] += frame[3] + (clock() - entered) - (end - start) + cost_in[hot] + cost_out[hot]
            return result

        return traced

    def calibrate(self, calls: int = 10000) -> None:
        """Measure the wrapper's cost that its clocks do not see, for hot and
        other wrappers, as means over `calls` calls of an empty function."""
        clock = time.perf_counter

        def empty(obj, position):  # shaped like symbol_at(self, j)
            pass

        def per_call(fn) -> float:
            start = clock()
            for j in range(calls):
                fn(self, j)
            return (clock() - start) / calls

        bare = per_call(empty)
        for hot, name in ((True, "sequences.symbol_at"), (False, "calibration")):
            probe = Recorder(self.job_id)
            probe.stack.append([0.0, None, "caller", 0.0])
            traced = probe.wrap(name, empty)
            seen = per_call(traced)              # what a caller pays per call
            stats = probe.stats[name]
            inside = stats[1] / stats[0]         # timed interval, uncorrected
            charged = probe.stack[0][3] / stats[0] + inside
            # inside: interval minus the empty call; outside: what the
            # caller pays beyond the interval and the measured bookkeeping
            self.cost_in[hot] = max(0.0, inside - bare)
            self.cost_out[hot] = max(0.0, seen - charged)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "job_id": self.job_id,
            "stats": self.stats,
            "counters": self.counters,
            "spans": [s for s in self.spans if s is not None],
        }))


# Counters recorded at layer boundaries, keyed by wrapped name.

def _after_distance(rec, parent, args, result) -> None:
    rec.add("metric.distance.exact_calls" if result.error == 0 else "metric.distance.truncated_calls", 1)
    rec.peak("metric.distance.max_error", result.error)


def _after_window(rec, parent, args, result) -> None:
    rec.add("sequences.window.symbols", len(result))
    if parent is not None and parent[2] == "metric.distance":
        # distance reads one window of each sequence per compared position
        rec.add("metric.distance.symbols_compared", len(result) / 2)


def _after_level_rectangles(rec, parent, args, result) -> None:
    rec.add("horseshoe.rects", len(result))


def _after_verify_certificate(rec, parent, args, result) -> None:
    rec.add("certify.verify_certificate.failures", 0 if result.ok else 1)


def _after_verify_file(rec, parent, args, result) -> None:
    rec.add("cli.verify_file.failures", 0 if result == 0 else 1)


AFTER = {
    "metric.distance": _after_distance,
    "sequences.window": _after_window,
    "horseshoe.level_rectangles": _after_level_rectangles,
    "certify.verify_certificate": _after_verify_certificate,
    "cli.verify_file": _after_verify_file,
}


def _cached(rec: Recorder, name: str, fn):
    """Wrap an lru_cache function, counting cache hits."""
    info = fn.cache_info

    def call(*args, **kwargs):
        hits = info().hits
        result = fn(*args, **kwargs)
        rec.add(f"{name}.cache_hits", info().hits - hits)
        return result

    traced = rec.wrap(name, call)
    traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
    return traced


def install(job_id: int) -> Recorder:
    """Wrap the package's layers in this process; returns the recorder."""
    rec = Recorder(job_id)
    rec.calibrate()
    package = importlib.import_module("shiftchaos")
    modules = {short: importlib.import_module(f"shiftchaos.{short}") for short in MODULES}
    replaced: dict[int, object] = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            if hasattr(value, "cache_info"):
                replaced[id(value)] = _cached(rec, name, value)
            else:
                replaced[id(value)] = rec.wrap(name, value, AFTER.get(name))
    # rebind in every namespace that imported the original
    for namespace in (package, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            if id(value) in replaced and not isinstance(value, type):
                setattr(namespace, attr, replaced[id(value)])
    sequences = modules["sequences"]
    for cls in vars(sequences).values():
        if isinstance(cls, type) and issubclass(cls, sequences.BiSequence):
            for method in SEQUENCE_METHODS:
                if method in vars(cls):
                    name = f"sequences.{method}"
                    setattr(cls, method, rec.wrap(name, vars(cls)[method], AFTER.get(name)))
    cylinder_cls = modules["cylinders"].CylinderSet
    for method in CYLINDER_METHODS:
        setattr(cylinder_cls, method, rec.wrap(f"cylinders.{method}", vars(cylinder_cls)[method]))
    return rec
