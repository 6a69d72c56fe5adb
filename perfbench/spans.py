"""In-memory spans and counters, recorded from outside the program.

A span is [name, start ns, end ns, index of the enclosing span or -1].  The
benchmark opens spans around its own calls into the package, and wraps the
package's public names where one layer calls another, so that the callee's
spans nest under the caller's.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = {}
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        return self._wrapped(name, fn, None)(*args, **kwargs)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a traced version; count(counts, args, result)
        runs after the span closes."""
        original = getattr(module, attr)
        setattr(module, attr, self._wrapped(name, original, count))

    def wrap_peak(self, module, attr: str, name: str) -> None:
        """Record the tracemalloc peak of each call of module.attr in peaks[name]."""
        original = getattr(module, attr)
        peaks = self.peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        setattr(module, attr, measured)

    def _wrapped(self, name: str, fn, count):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def totals(self):
        """Per name: calls, total ns, ns covered by direct children; and total
        ns per (enclosing span name, name)."""
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, int] = defaultdict(int)
        child: defaultdict[str, int] = defaultdict(int)
        under: defaultdict[tuple[str, str], int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            under[(parent_name, name)] += duration
            if parent >= 0:
                child[parent_name] += duration
        return calls, total, child, under
