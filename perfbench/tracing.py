"""In-memory spans around the benchmark's own calls into distseq.

A span records name, request id, parent span, start, end and whether the
call failed.  Layer and function names come from the span name: the
span ``semigroup.complexity`` belongs to layer ``semigroup``.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Records spans when enabled; otherwise ``call`` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.request = None
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name, "request": self.request,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "end": None, "failed": False}
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span["failed"] = True
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def fail_request(self, request) -> None:
        """Mark every span of a request failed: its answer failed the check."""
        for span in self.spans:
            if span["request"] == request:
                span["failed"] = True

    def self_times(self) -> list[tuple[dict, float]]:
        """(span, duration minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [(s, s["end"] - s["start"] - child_time[s["id"]])
                for s in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
