"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, op_id)``, its ends read from the
CPU clock of the worker's one thread (``time.thread_time``), as every
benchmark time in the worker is.  ``parent`` is the index of the enclosing
span (or None) and ``op_id`` ties every span of one benchmark op together.
Spans stay in memory until :meth:`Tracer.write` at the end of the run, so
recording never touches the disk inside a timed section.  A disabled tracer
records nothing and costs one context-manager entry per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span and counter recorder; ``Tracer(False)`` is the untraced no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counters: dict[str, float] = {}
        self.op_id = None
        self._open: list[int] = []
        # The CPU clock an op reads for its own sub-intervals; untraced runs
        # replace it with calibrate.Sampler.clock, which skips kernel readings.
        self.clock = time.thread_time

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, time.thread_time(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.thread_time()
            self._open.pop()

    def count(self, name: str, k: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + k

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def busy_by_name(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed duration and call count per span name."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _parent, _op in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return busy, calls


def self_by_name(spans: list[list], offset: int) -> dict[str, float]:
    """Per name, duration minus the time covered by direct children.

    ``offset`` is the index of ``spans[0]`` in the tracer's full list, since
    parents are stored as absolute indices.  Children of one span run one
    after another, so their durations add without overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None and parent >= offset:
            child_time[parent - offset] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _parent, _op), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
