"""Hierarchical span tracing with cross-process propagation.

A *span* is one named, timed unit of work; spans nest via a
contextvars-based current-span, so ``trace("replay")`` inside
``trace("run")`` records the parent/child edge automatically — and
because ``contextvars`` is per-thread-of-control, concurrent request
handler threads in the HTTP service each get their own span stack.

Crossing a process boundary (process-pool replay workers, HTTP hops
between client / service / scheduler workers) is explicit: the sender
captures ``current_context()`` — a ``"trace_id:span_id"`` string, sent
as the ``X-Repro-Trace`` header over HTTP — and the receiver re-enters
it with :func:`bind_context`. Every span created underneath then
shares the original ``trace_id``, so a distributed sweep yields one
coherent trace (submit → claim → stream-build → replay → complete →
store-write) that ``repro-tlb trace`` can render as JSON or as an
ASCII flame summary.

Finished spans land in the process-local :data:`COLLECTOR`, a bounded
ring buffer; remote processes ship their spans home via the service's
``POST /trace`` route. None of this feeds ``RunSpec.key()``, result
rows, or checkpoint digests — tracing is observation only.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Header used to propagate trace context over HTTP.
TRACE_HEADER = "X-Repro-Trace"

_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or in-flight) unit of work inside a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    duration: float = 0.0
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=str(data.get("name", "")),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            parent_id=data.get("parent_id"),
            start=float(data.get("start", 0.0)),
            duration=float(data.get("duration", 0.0)),
            status=str(data.get("status", "ok")),
            attrs=dict(data.get("attrs", {})),
        )


class SpanCollector:
    """Bounded, thread-safe sink for finished spans.

    The bound keeps a long-lived service from accumulating spans
    without limit; at the default 20k a sweep of a few thousand specs
    fits comfortably, and older traces age out FIFO.
    """

    def __init__(self, max_spans: int = 20_000) -> None:
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=max_spans)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def ingest(self, payloads: list[dict[str, Any]]) -> int:
        """Accept span dicts shipped from another process."""
        accepted = 0
        with self._lock:
            for payload in payloads:
                if not isinstance(payload, dict):
                    continue
                span = Span.from_dict(payload)
                if not span.trace_id or not span.span_id:
                    continue
                self._spans.append(span)
                accepted += 1
        return accepted

    def spans(self, trace_id: str | None = None) -> list[Span]:
        with self._lock:
            items = list(self._spans)
        if trace_id is None:
            return items
        return [span for span in items if span.trace_id == trace_id]

    def traces(self) -> list[dict[str, Any]]:
        """Per-trace summaries (id, root name, span count, duration)."""
        summaries: dict[str, dict[str, Any]] = {}
        for span in self.spans():
            entry = summaries.setdefault(
                span.trace_id,
                {"trace_id": span.trace_id, "spans": 0, "root": "", "duration": 0.0},
            )
            entry["spans"] += 1
            if span.parent_id is None and span.duration >= entry["duration"]:
                entry["root"] = span.name
                entry["duration"] = span.duration
        return sorted(summaries.values(), key=lambda e: e["trace_id"])

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Process-local sink that ``trace()`` records into.
COLLECTOR = SpanCollector()

_enabled = True


def set_tracing_enabled(flag: bool) -> None:
    """Globally disable span creation (used by the overhead bench)."""
    global _enabled
    _enabled = bool(flag)


@contextlib.contextmanager
def trace(name: str, **attrs: Any) -> Iterator[Span]:
    """Run the body as one timed span under the current trace.

    Exception-safe: an escaping exception marks the span
    ``status="error"`` (with the exception type in ``attrs``) and
    re-raises. When tracing is disabled a dummy span is yielded and
    nothing is recorded.
    """
    if not _enabled:
        yield Span(name=name, trace_id="", span_id="")
        return
    parent = _current_span.get()
    span = Span(
        name=name,
        trace_id=parent.trace_id if parent else _new_id(),
        span_id=_new_id(),
        parent_id=parent.span_id if parent else None,
        attrs=dict(attrs),
        start=time.time(),
    )
    token = _current_span.set(span)
    began = time.perf_counter()
    try:
        yield span
    except BaseException as exc:
        span.status = "error"
        span.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        span.duration = time.perf_counter() - began
        _current_span.reset(token)
        COLLECTOR.record(span)


def annotate(**attrs: Any) -> None:
    """Add attributes to the innermost open span; a no-op outside one."""
    span = _current_span.get()
    if span is not None:
        span.attrs.update(attrs)


def current_context() -> str | None:
    """The active ``"trace_id:span_id"``, or None outside any span."""
    span = _current_span.get()
    if span is None or not span.trace_id:
        return None
    return f"{span.trace_id}:{span.span_id}"


@contextlib.contextmanager
def bind_context(context: str | None) -> Iterator[None]:
    """Re-enter a remote trace context received as a header/string.

    Spans opened inside the ``with`` block become children of the
    remote span named by ``context``. A malformed or empty context is
    ignored (the block still runs, just unparented) — a lost trace
    must never break the request path.
    """
    parent: Span | None = None
    if context:
        trace_id, _, span_id = str(context).partition(":")
        if trace_id and span_id:
            parent = Span(
                name="remote", trace_id=trace_id, span_id=span_id, parent_id=None
            )
    if parent is None:
        yield
        return
    token = _current_span.set(parent)
    try:
        yield
    finally:
        _current_span.reset(token)


def drain_spans(trace_id: str | None = None) -> list[dict[str, Any]]:
    """Pop every collected span (optionally one trace) as dicts.

    Used by scheduler workers to ship their spans to the service
    after each job batch without re-sending old ones.
    """
    spans = COLLECTOR.spans(trace_id)
    COLLECTOR.clear()
    return [span.to_dict() for span in spans]


def render_flame(spans: list[Span] | list[dict[str, Any]], width: int = 72) -> str:
    """ASCII flame summary of one trace: indented tree with bars.

    Children are indented under their parent and every bar is scaled
    to the root span's duration, so relative width reads as share of
    the whole trace. Orphan spans (parent not present — e.g. a worker
    span whose remote parent lives in another process's collector)
    are promoted to roots rather than dropped.
    """
    items = [
        span if isinstance(span, Span) else Span.from_dict(span) for span in spans
    ]
    if not items:
        return "(no spans)"
    by_id = {span.span_id: span for span in items}
    children: dict[str | None, list[Span]] = {}
    roots: list[Span] = []
    for span in items:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    roots.sort(key=lambda s: s.start)
    total = max((span.duration for span in roots), default=0.0) or 1e-9
    bar_width = max(10, width - 40)
    lines = [f"trace {items[0].trace_id} · {len(items)} spans"]

    def walk(span: Span, depth: int) -> None:
        filled = max(1, round(bar_width * min(1.0, span.duration / total)))
        bar = "#" * filled
        label = "  " * depth + span.name
        mark = " !" if span.status != "ok" else ""
        extra = ""
        if span.attrs:
            keys = sorted(span.attrs)[:2]
            extra = " [" + ",".join(f"{k}={span.attrs[k]}" for k in keys) + "]"
        lines.append(
            f"{label:<28} {span.duration * 1000.0:9.2f} ms {bar}{mark}{extra}"
        )
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
