"""In-memory spans recorded from the benchmark around public calls.

A span is ``(name, start, end, parent)``; the spans of one operation
share the index of their root span as trace id.  Nothing is written
until the run ends.  A layer's self time is its span duration minus
the time its child spans cover (children are nested and sequential:
the benchmark is single-threaded).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index, trace id]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        trace = self.spans[parent][4] if parent is not None else index
        record = [name, time.perf_counter(), None, parent, trace]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, trace: int) -> Dict[str, float]:
        """Per-layer self seconds inside one operation (root excluded),
        plus ``"<root>"`` for the root's own uncovered time."""
        child_time: Dict[int, float] = {}
        members = [i for i, s in enumerate(self.spans) if s[4] == trace]
        for i in members:
            parent = self.spans[i][3]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + self.spans[i][2] - self.spans[i][1]
        out: Dict[str, float] = {}
        for i in members:
            name, start, end, parent, _ = self.spans[i]
            key = "<root>" if parent is None else name
            out[key] = (out.get(key, 0.0) + (end - start)
                        - child_time.get(i, 0.0))
        return out

    def duration(self, trace: int) -> float:
        start, end = self.spans[trace][1], self.spans[trace][2]
        return end - start

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([{"name": s[0], "start": s[1], "end": s[2],
                        "parent": s[3], "trace": s[4]}
                       for s in self.spans], handle)
            handle.write("\n")
