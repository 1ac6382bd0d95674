"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(id, name, start, end, parent, req, attrs)`` with times from
``time.perf_counter()``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the benchmark's own child processes: a child records its
spans with :class:`Tracer` and ships them back as dicts, and the parent
grafts them under the span that launched the child.

Nothing here reaches inside ``src/``: the program's own stage timings and
counters ride along as span attributes.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Optional

__all__ = ["Span", "Tracer", "layer_of", "self_times", "chrome_trace"]

#: span name prefix -> layer; a span's layer is the text before its first dot
LAYERS = ("bench", "process", "pipeline", "codegen", "exec", "check",
          "client", "daemon")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "req", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, req=None,
                 attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.req = req
        self.attrs = attrs if attrs is not None else {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "req": self.req,
                "attrs": self.attrs}

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans when ``enabled``; otherwise every call is a cheap no-op.

    Single-threaded callers nest spans implicitly through :meth:`span`;
    threads pass ``parent=`` explicitly.
    """

    def __init__(self, enabled: bool, id_prefix: str = ""):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._stack: list[str] = []

    def _new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    @contextmanager
    def span(self, name: str, req=None, parent: Optional[str] = None,
             **attrs):
        """Time the body; yields the attribute dict so callers can add to
        it.  When disabled the dict is a throwaway."""
        if not self.enabled:
            yield attrs
            return
        if parent is None and self._stack:
            parent = self._stack[-1]
        sp = Span(self._new_id(), name, 0.0, parent=parent, req=req,
                  attrs=attrs)
        self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp.attrs
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def current(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float, parent=None, req=None,
            **attrs) -> Optional[str]:
        """Record a span whose interval was measured elsewhere (e.g. by a
        worker thread that must not share the implicit stack)."""
        if not self.enabled:
            return None
        sp = Span(self._new_id(), name, start, end, parent, req, attrs)
        self.spans.append(sp)
        return sp.id

    def graft(self, records: Iterable[dict], parent: Optional[str]) -> None:
        """Adopt spans a child process recorded; its roots hang off
        ``parent`` and its ids are re-keyed to stay unique."""
        if not self.enabled:
            return
        prefix = self._new_id() + "/"
        for rec in records:
            self.spans.append(Span(
                prefix + rec["id"], rec["name"], rec["start"], rec["end"],
                prefix + rec["parent"] if rec["parent"] else parent,
                rec["req"], rec["attrs"],
            ))

    def export(self) -> list[dict]:
        return [sp.as_dict() for sp in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of its
    interval that its children cover (children clipped to the parent)."""
    spans = list(spans)
    children: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        kids = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.id, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[layer_of(sp.name)] += max(0.0, sp.duration - _covered(kids))
    return dict(out)


def chrome_trace(spans: Iterable[Span], metadata: dict) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events, microseconds);
    loads in Perfetto or ``chrome://tracing``.  Each request id gets its own
    track so concurrent requests do not overlap on one row."""
    spans = list(spans)
    t0 = min((sp.start for sp in spans), default=0.0)
    tids: dict = {}
    events = []
    for sp in spans:
        tid = tids.setdefault(sp.req, len(tids))
        events.append({
            "name": sp.name,
            "cat": layer_of(sp.name),
            "ph": "X",
            "ts": round((sp.start - t0) * 1e6, 3),
            "dur": round(sp.duration * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": {"id": sp.id, "parent": sp.parent, "req": sp.req,
                     **sp.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": metadata}


def write_chrome_trace(path: str, spans: Iterable[Span], metadata: dict) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, metadata), f, default=str)
