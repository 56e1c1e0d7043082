"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.install` rebinds
library names at the sites that import them to timing wrappers and
`Tracer.uninstall` puts the originals back, so nothing under src/ changes.
Each span carries its name, start, end, parent span and instance id; spans
stay in memory until `dump`. The benchmark is one thread with no queue, so a
span's time is time busy: there is no time waited to record.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

FIELDS = ("name", "start", "end", "parent", "instance")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, instance id]
        self.counts = Counter()
        self.instance = None
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, after=None):
        """fn with every call recorded as a span while an instance is set;
        after(counts, args, result) adds counters once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def install(self, targets):
        """targets: (owner, attribute, span name, after) tuples; owner is a
        module or a class whose attribute is rebound."""
        for owner, attr, name, after in targets:
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, after))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Per span name: (calls, seconds of the span not covered by its
        direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[k]
        return dict(out)

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, fields=FIELDS, spans=self.spans), fh)
