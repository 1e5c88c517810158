"""In-memory span recorder for the benchmark.

A span covers one call the benchmark makes into a library layer.  Each span
records its name, start, end, parent span and the run id; spans stay in
memory and are written as JSON lines once the run ends.  Per-name busy time,
call counts and self time (busy time minus the part covered by child spans)
are derived from the recorded spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": span_id, "name": name, "parent": parent, "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(span_id)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """``{name: {"busy_s", "self_s", "calls"}}`` over all recorded spans."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict = {}
        for rec in self.spans:
            agg = out.setdefault(rec["name"], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            dur = rec["end"] - rec["start"]
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time[rec["id"]]
            agg["calls"] += 1
        return out
