"""Out-of-band tracing of the orbitcodes package from outside ``src/``.

``Tracer.install`` replaces every public module-level function of every
loaded ``orbitcodes`` module with a wrapper that records a span.  Because
``from x import f`` copies the binding, the same wrapper is installed in
every module namespace that binds the function, so a call through
``report.check_local_rs`` and one through ``codecore.check_local_rs`` are
both seen, under the defining module's name ``codecore.check_local_rs``.

Spans stay in memory as ``[name, start, end, parent]`` rows and are written
once, by ``dump``, after the measured work.  A span's self time is its
duration minus the durations of its direct children; calls are sequential
in one thread, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from functools import wraps

PACKAGE = "orbitcodes"
ROOT = "run"

# FieldElement methods whose calls are counted (no span: they are too many
# and too short to time one by one).
FIELD_COUNTERS = {"__mul__": "gf.mul.calls", "__rmul__": "gf.mul.calls", "inverse": "gf.inverse.calls", "__pow__": "gf.pow.calls"}


def _vertices_checked(rep) -> dict:
    return {"codecore.vertices_checked": len(rep.vertices)}


def _codewords_enumerated(res) -> dict:
    return {"codecore.codewords_enumerated": res.enumerated}


# Counters read from return values, keyed by span name.
RETURN_COUNTERS = {
    "codecore.check_local_rs": _vertices_checked,
    "codecore.min_distance_exhaustive": _codewords_enumerated,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if on_return is not None:
                counts.update(on_return(out))
            return out

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the loaded package."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers: dict = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                if not val.__module__.startswith(PACKAGE) or inspect.isgeneratorfunction(val):
                    continue
                if val not in wrappers:
                    name = span_name(val)
                    wrappers[val] = self.span(name, val, RETURN_COUNTERS.get(name))
                setattr(mod, attr, wrappers[val])
        from orbitcodes.gf import FieldElement

        for meth, key in FIELD_COUNTERS.items():
            setattr(FieldElement, meth, self.counter(key, getattr(FieldElement, meth)))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """{name: {"self_s", "total_s", "calls"}} aggregated over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for (name, start, end, _), covered in zip(self.spans, child_time):
            agg = out[name]
            agg["self_s"] += (end - start) - covered
            agg["total_s"] += end - start
            agg["calls"] += 1
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id"],
                    "spans": [row + [self.run_id] for row in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )


def check_nesting(spans: list[list]) -> list[int]:
    """Indices of spans that do not lie inside their parent's interval."""
    bad = []
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if end < start:
            bad.append(i)
        elif parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            if not (p_start <= start and end <= p_end):
                bad.append(i)
    return bad
