"""In-memory spans around the benchmark's calls into each engine layer.

A span records name, start, end and parent. Spans are kept in memory
and written out once, when the run ends. A layer's self time is its
span's duration minus the time its child spans cover."""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {"id": idx, "name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f, indent=1)


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
