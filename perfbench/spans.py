"""In-memory spans around calls into kfsteiner's public functions.

The wrappers are installed from outside the package: each one replaces a
function at the name its caller looks it up by (a module global or a class
attribute) and restores it afterwards, so no file of the package changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ROOT = "bench.unit"


class Tracer:
    """Records (name, start, end, parent, count) per call, for one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span; count(args, result) -> number."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                n = count(args, result) if count is not None else None
                self.spans[idx] = (name, start, end, parent, n)

        return wrapper

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run(self, fn):
        """Call fn under the root span; return its result."""
        return self.span(ROOT, fn)()

    def records(self):
        return [
            {"run": self.run_id, "id": i, "name": s[0], "start": s[1],
             "end": s[2], "parent": s[3], "count": s[4]}
            for i, s in enumerate(self.spans)
        ]


def summarize(spans):
    """Per-name self seconds, per-call inclusive ms and summed counts.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap and the
    self times of all spans add up to the root span's duration.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls_ms = defaultdict(list)
    counts = defaultdict(float)
    for i, (name, start, end, parent, n) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls_ms[name].append(1e3 * (end - start))
        if n is not None:
            counts[name] += n
    return {"self_s": dict(self_s), "calls_ms": dict(calls_ms),
            "counts": dict(counts)}
