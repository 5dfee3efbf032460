"""Benchmark-side spans: name, start, end, parent and op id per layer call.

The in-program ``repro.obs`` tracer stays off while the benchmark times
anything; these spans are recorded from the harness, around the public calls
into each layer.  They are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """Nested spans: one open-span stack per thread, one shared row list."""

    def __init__(self) -> None:
        self.rows: list[list] = []  # [name, start, end, parent (-1 = root), op id]
        self._local = threading.local()
        self._lock = threading.Lock()  # makes append + index one step

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: int | None = None) -> int:
        """Start a span under the thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None:
            op = self.rows[parent][OP] if parent >= 0 else -1
        row = [name, 0.0, 0.0, parent, op]
        with self._lock:
            self.rows.append(row)
            idx = len(self.rows) - 1
        stack.append(idx)
        row[START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> float:
        """End span ``idx``; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        stack.pop()
        row = self.rows[idx]
        row[END] = end
        return end - row[START]

    def span(self, name: str, op: int | None = None) -> "_SpanContext":
        return _SpanContext(self, name, op)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    # -- arithmetic --------------------------------------------------------

    def duration(self, idx: int) -> float:
        row = self.rows[idx]
        return row[END] - row[START]

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        covered = [0.0] * len(self.rows)
        for idx, row in enumerate(self.rows):
            if row[PARENT] >= 0:
                covered[row[PARENT]] += self.duration(idx)
        return [self.duration(i) - covered[i] for i in range(len(self.rows))]

    def totals_by(self, group) -> dict[object, dict[str, dict[str, float]]]:
        """``group(op id)`` -> span name -> calls, summed duration and summed
        self time of that group's spans."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
        for idx, row in enumerate(self.rows):
            agg = out[group(row[OP])][row[NAME]]
            agg["calls"] += 1
            agg["total_s"] += self.duration(idx)
            agg["self_s"] += selfs[idx]
        return {key: dict(names) for key, names in out.items()}

    def to_rows(self) -> list[dict]:
        return [
            {"id": idx, "name": r[NAME], "start": r[START], "end": r[END],
             "parent": r[PARENT], "op": r[OP]}
            for idx, r in enumerate(self.rows)
        ]


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str, op: int | None) -> None:
        self.rec, self.name, self.op = rec, name, op
        self.idx = -1
        self.duration = 0.0

    def __enter__(self) -> "_SpanContext":
        self.idx = self.rec.open(self.name, self.op)
        return self

    def __exit__(self, *exc) -> None:
        self.duration = self.rec.close(self.idx)
