"""In-memory span recorder wrapped around the public calls of each layer.

The program itself is not modified: :meth:`SpanRecorder.install` swaps
the functions and methods listed in :data:`LAYER_CALLS` for timing
wrappers (module attributes the callers look up at call time, and class
methods), and :meth:`SpanRecorder.uninstall` puts the originals back.

A span records its name, start, end, parent span, run id and a few
counts (references filtered, entries advanced, bytes written).  Spans
stay in memory and are written out once, at the end of the run.

Self time of a span is its duration minus the durations of its child
spans.  Time spent in a *probe* (the repeated ``replay_batch`` call that
splits planning from the loop) is paused out of every enclosing span,
so the accounting still adds up to the untouched work.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module path, attribute path, span name).  The module attribute is
#: what the caller resolves at call time: ``repro.run.runner`` imports
#: ``get_trace`` and ``filter_tlb`` by name, and calls
#: ``batchpath.replay_batch`` through the module.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.run.runner", "Runner.run", "runner.run"),
    ("repro.run.runner", "get_trace", "workloads.get_trace"),
    ("repro.run.runner", "filter_tlb", "two_phase.filter_tlb"),
    ("repro.sim.batchpath", "replay_batch", "batchpath.replay_batch"),
    ("repro.store.store", "ExperimentStore.put_stream", "store.put_stream"),
    ("repro.store.store", "ExperimentStore.put_results", "store.put_results"),
    ("repro.store.store", "ExperimentStore.get_stream", "store.get_stream"),
    ("repro.store.store", "ExperimentStore.get_result", "store.get_result"),
    ("repro.store.store", "ExperimentStore.put_ckpt", "store.put_ckpt"),
    ("repro.store.store", "ExperimentStore.get_ckpt", "store.get_ckpt"),
    ("repro.ckpt.session", "ReplaySession.__init__", "session.open"),
    ("repro.ckpt.session", "ReplaySession.advance", "session.advance"),
    ("repro.ckpt.session", "ReplaySession.resume", "session.resume"),
    ("repro.ckpt.session", "ReplaySession.snapshot", "ckpt.snapshot"),
    ("repro.ckpt.manager", "CheckpointManager.save", "ckpt.save"),
    ("repro.ckpt.manager", "CheckpointManager.save_session", "ckpt.save_session"),
    ("repro.ckpt.manager", "CheckpointManager.load", "ckpt.load"),
    ("repro.service.server", "ExperimentService.handle", "service.handle"),
)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the part of its name before the dot."""
    return span_name.split(".", 1)[0]


class Span:
    __slots__ = (
        "id", "name", "parent", "start", "end", "paused", "probe", "attrs",
        "children_s",
    )

    def __init__(self, span_id, name, parent, start, probe, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.paused = 0.0  # probe time inside this span, excluded below
        self.probe = probe
        self.attrs = attrs
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class SpanRecorder:
    """Records spans for one benchmark run; all spans share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        # Spans open in any thread, in opening order: a span opened in
        # a thread with nothing open (the HTTP handler thread) takes the
        # newest open span of another thread (the client's request) as
        # its parent.  The stream workload is a closed loop with one
        # connection, so that span is the request being served.
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, probe: bool = False, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else None
            span = Span(
                len(self.spans), name, parent, time.perf_counter(), probe, attrs
            )
            self.spans.append(span)
            self._open.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self._open.remove(span)
            if span.probe:
                ancestor = span.parent
                while ancestor is not None:
                    ancestor.paused += span.end - span.start
                    ancestor = ancestor.parent
            elif span.parent is not None:
                span.parent.children_s += span.duration

    @contextmanager
    def span(self, name: str, probe: bool = False, **attrs):
        span = self.begin(name, probe, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # -- patching ------------------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every call in :data:`LAYER_CALLS`.

        ``hooks`` maps a span name to
        ``hook(span, original, args, kwargs, result)``, called after the
        wrapped call returns, to attach counts or run a probe.
        """
        hooks = hooks or {}
        for module_name, attr_path, span_name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, hooks.get(span_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, original, span_name, hook):
        recorder = self
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            span = recorder.begin(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.finish(span)
            if hook is not None:
                hook(span, func, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", span_name)
        return classmethod(wrapper) if is_classmethod else wrapper

    # -- reading -------------------------------------------------------------

    def layer_table(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per-layer calls, total and self seconds under ``root_name`` spans.

        Only spans that descend from a root span count, so set-up and
        correctness checks between passes stay out of the table.
        """
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            if span.probe or not descends_from(span, (root_name,)):
                continue
            row = table[layer_of(span.name)]
            row["calls"] += 1
            row["self_s"] += span.self_s
            # A layer's total counts only its outermost spans, so nested
            # calls of the same layer are not added twice.
            if span.parent is None or layer_of(span.parent.name) != layer_of(span.name):
                row["total_s"] += span.duration
        return dict(table)

    def dump(self, path: Path, provenance: dict) -> None:
        """Write every span as one JSON line, after a provenance line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"provenance": provenance}) + "\n")
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.id,
                            "name": span.name,
                            "parent": span.parent.id if span.parent else None,
                            "start": span.start,
                            "end": span.end,
                            "paused_s": span.paused,
                            "probe": span.probe,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def descends_from(span: Span, roots: tuple[str, ...]) -> bool:
    """True if the span or one of its ancestors is named in ``roots``."""
    node = span
    while node is not None:
        if node.name in roots:
            return True
        node = node.parent
    return False
