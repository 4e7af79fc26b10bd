"""In-memory spans around library functions, patched in from outside.

A ``Tracer`` replaces module attributes with wrappers for the duration of a
``with tracer.traced_pass(sites):`` block and restores them afterwards, so the
library itself carries no instrumentation.  Each wrapped call records one span
(name, parent span, start, end, pass index); per-layer seconds, self seconds
and call counts are derived from the spans after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def layer_name(fn) -> str:
    """``<module>.<function>`` of the defining module, package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and per-pass counters while its wrappers are installed."""

    def __init__(self, counters=None):
        # counters: layer name -> callable(result) -> {count name: int}
        self.counters = dict(counters or {})
        self.spans = []  # [name, parent index or None, start, end, pass index]
        self.counts = []  # one dict of count name -> int per pass
        self._stack = []
        self._pass = -1

    def _wrap(self, fn):
        name = layer_name(fn)
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, time.perf_counter(), None, self._pass]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                tally = self.counts[self._pass]
                for key, value in counter(result).items():
                    tally[key] = tally.get(key, 0) + int(value)
            return result

        return traced

    @contextlib.contextmanager
    def traced_pass(self, sites):
        """Record one pass with every ``(module, attribute)`` site wrapped.

        Sites naming the same function share one wrapper; every attribute is
        restored on exit, so code outside the block runs untraced.
        """
        self._pass += 1
        self.counts.append({})
        saved = []
        wrappers = {}
        root = ["pass", None, time.perf_counter(), None, self._pass]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            for module, attr in sites:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            root[2] = time.perf_counter()
            yield
        finally:
            root[3] = time.perf_counter()
            self._stack.pop()
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> list:
        """Per pass: layer name -> {"s", "self_s", "calls"}.

        Self time is a span's duration minus the durations of its direct
        children; wrapped functions do not recurse into themselves, so summing
        per name never counts an interval twice.
        """
        child_time = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_pass = [defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
                    for _ in range(self._pass + 1)]
        for index, (name, _, start, end, pass_index) in enumerate(self.spans):
            if name == "pass":
                continue
            entry = per_pass[pass_index][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return [dict(p) for p in per_pass]

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, parent, start, end, pass_index) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": name,
                    "parent": parent,
                    "pass": pass_index,
                    "start_s": start - origin,
                    "end_s": end - origin,
                }) + "\n")
