"""The benchmark's three workloads: ``figure7``, ``table2`` and ``stream``.

Each workload object is built by its set-up (imports done, spec list
made from the seed, store opened, server up) and then runs *passes*:

- ``cold()`` starts from empty miss-stream, trace and codegen caches
  (and, for ``table2``/``stream``, a fresh store) and does the
  workload's whole job once.  Its wall time is ``sweep_s``.
- ``warm()`` serves the same job from what the cold pass left behind.
  Its wall time is ``warm_s``.

Both return the seconds measured and count the rows they checked in
``attempted`` and the ones that differed from the pinned reference (or
failed outright) in ``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import random
import shutil
import socketserver
import statistics
import threading
import time
from pathlib import Path
from urllib.parse import quote

from repro.analysis import figures
from repro.analysis.experiments import TABLE2_MECHANISMS, ExperimentContext
from repro.analysis.metrics import average_accuracy, weighted_average_accuracy
from repro.analysis.tables import PAPER_HIGH_MISS_RATES, PAPER_TABLE2
from repro.obs import COLLECTOR
from repro.run import runner as runner_module
from repro.sim import batchpath
from repro.store import ExperimentStore
from repro.workloads import registry
from repro.workloads.registry import (
    HIGH_MISS_APPS,
    all_app_names,
    app_names_for_suite,
)

#: Every workload runs the paper's artifacts at full size.
SCALE = 1.0

#: Table 2 parameters (r=256, s=2, direct-mapped), shared with ``stream``.
TABLE2_PARAMS = {"rows": 256, "ways": 1, "slots": 2}

#: Trace scale of the ``stream`` sessions (see :class:`Stream`).
STREAM_SCALE = 0.25

#: Entries per ``POST /streams/<id>/advance``.
CHUNK = 1024

#: Fields a result row is compared on: everything but free-form extras.
ROW_FIELDS = (
    "workload", "mechanism", "tlb_label", "total_references", "tlb_misses",
    "measured_misses", "pb_hits", "prefetches_issued", "buffer_inserted",
    "buffer_refreshed", "buffer_evicted_unused", "overhead_memory_ops",
    "prefetch_fetch_ops",
)

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_rows.json"


def row_digest(row) -> str:
    """Digest of one result row (a ``PrefetchRunStats`` or its JSON dict)."""
    if isinstance(row, dict):
        values = [row[name] for name in ROW_FIELDS]
    else:
        values = [getattr(row, name) for name in ROW_FIELDS]
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:20]


def load_reference(workload: str) -> dict[str, str]:
    """Pinned ``spec key -> row digest`` map, made by ``pin_reference.py``."""
    return json.loads(REFERENCE_FILE.read_text())[workload]


def reset_caches() -> None:
    """Empty every in-process cache a ``repro-tlb`` invocation starts without."""
    runner_module.SHARED_CACHE.clear()
    registry.get_trace.cache_clear()
    batchpath._CODE_CACHE.clear()
    batchpath._ANALYSIS_CACHE.clear()
    COLLECTOR.clear()
    gc.collect()


def figure7_specs(context: ExperimentContext) -> list:
    return [
        context.spec(app, config.mechanism, **config.factory_params())
        for app in app_names_for_suite("spec2000")
        for config in figures.figure7_configs()
    ]


def table2_specs(context: ExperimentContext, apps=None) -> list:
    return [
        context.spec(app, mechanism, **TABLE2_PARAMS)
        for app in (apps if apps is not None else all_app_names())
        for mechanism in TABLE2_MECHANISMS
    ]


def stream_specs() -> list:
    return table2_specs(ExperimentContext(scale=STREAM_SCALE), HIGH_MISS_APPS)


def table2_paper_err(rows) -> float:
    """Mean absolute error of Table 2's average and weighted accuracy.

    The model is unvalidated against hardware; the paper's printed
    values are the only reference it is compared with.
    """
    by_mechanism: dict[str, list] = {}
    for row in rows:
        by_mechanism.setdefault(row.mechanism.split(",")[0], []).append(row)
    errors = []
    for mechanism, (paper_avg, paper_wavg) in PAPER_TABLE2.items():
        runs = by_mechanism[mechanism]
        errors.append(abs(average_accuracy(runs) - paper_avg))
        errors.append(abs(weighted_average_accuracy(runs) - paper_wavg))
    return sum(errors) / len(errors)


def high_miss_rate_err(miss_rates: dict[str, float]) -> float:
    """Mean absolute error of the 128-entry FA TLB miss rates of the
    paper's eight high-miss apps, over those this workload filtered."""
    errors = [
        abs(miss_rates[app] - paper)
        for app, paper in PAPER_HIGH_MISS_RATES.items()
        if app in miss_rates
    ]
    return sum(errors) / len(errors) if errors else 0.0


class _Timed:
    """``with`` block that leaves the pass's seconds in ``.seconds``.

    In a traced run the seconds are the root span's duration, which
    leaves out the probe calls made to split batch planning from the
    replay loop.
    """

    def __init__(self, recorder, kind: str) -> None:
        self.recorder = recorder if recorder is not None and recorder.active else None
        self.kind = kind
        self.seconds = 0.0

    def __enter__(self) -> "_Timed":
        self.span = self.recorder.begin("bench." + self.kind) if self.recorder else None
        self.began = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self.began
        if self.span is not None:
            self.recorder.finish(self.span)
            self.seconds = self.span.duration
        return False


class Workload:
    """Shared bookkeeping: seed order, counters, a private work directory."""

    name = ""

    def __init__(self, seed: int, workdir: Path, recorder=None) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0

    def timed(self, kind: str) -> "_Timed":
        """Times one pass; in a traced run also opens its root span."""
        return _Timed(self.recorder, kind)

    def check_rows(self, specs, rows, reference: dict[str, str]) -> None:
        """Count rows that differ from the pinned reference digests."""
        self.attempted += len(specs)
        for spec, row in zip(specs, rows):
            if reference.get(spec.key()) != row_digest(row):
                self.failed += 1
        if len(rows) != len(specs):
            self.failed += abs(len(specs) - len(rows))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Figure7(Workload):
    """26 SPEC CPU2000 apps x the 21 Figure-7 configs, serial, no store."""

    name = "figure7"

    def __init__(self, seed: int, workdir: Path, recorder=None) -> None:
        super().__init__(seed, workdir, recorder)
        self.specs = figure7_specs(ExperimentContext(scale=SCALE))
        self.rng.shuffle(self.specs)
        self.reference = load_reference(self.name)
        self.context: ExperimentContext | None = None

    def cold(self) -> float:
        reset_caches()
        self.context = ExperimentContext(scale=SCALE)
        with self.timed("cold") as timer:
            rows = self.context.run_specs(self.specs)
        self.check_rows(self.specs, list(rows), self.reference)
        return timer.seconds

    def warm(self) -> float:
        """The same batch again in-process: streams, batch analyses and
        compiled loops are all cached, so this is the replay loop."""
        with self.timed("warm") as timer:
            rows = self.context.run_specs(self.specs)
        self.check_rows(self.specs, list(rows), self.reference)
        return timer.seconds


class Table2(Workload):
    """All 56 apps x {DP, RP, ASP, MP}, against a fresh ExperimentStore."""

    name = "table2"

    #: Warm passes per warm() call; one pass is ~40 ms, far too short
    #: to time alone on a shared machine.
    WARM_PASSES = 50

    def __init__(self, seed: int, workdir: Path, recorder=None) -> None:
        super().__init__(seed, workdir, recorder)
        self.specs = table2_specs(ExperimentContext(scale=SCALE))
        self.rng.shuffle(self.specs)
        self.reference = load_reference(self.name)
        self.generation = 0
        self.store = self._fresh_store()
        self.context: ExperimentContext | None = None

    def _fresh_store(self) -> ExperimentStore:
        self.generation += 1
        return ExperimentStore(self.workdir / f"store-{self.generation}")

    def cold(self) -> float:
        reset_caches()
        if self.context is not None:
            self.store.close()
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = self._fresh_store()
        self.context = ExperimentContext(scale=SCALE, store=self.store)
        with self.timed("cold") as timer:
            rows = list(self.context.run_specs(self.specs))
        self.check_rows(self.specs, rows, self.reference)
        self.paper_err = table2_paper_err(rows)
        return timer.seconds

    def warm(self) -> float:
        samples = []
        for _ in range(self.WARM_PASSES):
            with self.timed("warm") as timer:
                rows = self.context.run_specs(self.specs)
            samples.append(timer.seconds)
            self.check_rows(self.specs, list(rows), self.reference)
        return statistics.median(samples)

    def store_stats(self) -> dict:
        return self.store.stats()

    def close(self) -> None:
        self.store.close()
        super().close()


class _Connection:
    """One keep-alive HTTP/1.1 connection; every request is timed."""

    def __init__(self, port: int, recorder=None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.recorder = recorder

    def request(self, method: str, path: str, body: dict | None = None):
        """Returns ``(status, payload, seconds)``; the span covers the round trip."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        recorder = self.recorder
        span = None
        if recorder is not None and recorder.active:
            span = recorder.begin("client." + path.rsplit("/", 1)[-1])
        began = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = json.loads(response.read())
        finally:
            elapsed = time.perf_counter() - began
            if span is not None:
                recorder.finish(span)
        return response.status, payload, elapsed

    def close(self) -> None:
        self.conn.close()


class _Server:
    """``make_server`` over a store, served from one thread.

    The listening thread handles each connection itself (no thread per
    connection), so the client and the server are the run's only two
    busy threads.
    """

    def __init__(self, store_root: Path, recorder=None) -> None:
        from repro.service.server import make_server

        self.server = make_server(str(store_root))
        self.server.process_request = (
            lambda request, address: socketserver.TCPServer.process_request(
                self.server, request, address
            )
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        self.client = _Connection(self.server.server_address[1], recorder)
        status, _, _ = self.client.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"service not healthy: GET /healthz -> {status}")

    def close(self) -> None:
        # The serving thread is inside the connection's handler until
        # the client hangs up, so close the connection first.
        self.client.close()
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()
        self.server.service.queue.close()
        self.server.service.store.close()


class Stream(Workload):
    """Closed-loop streaming sessions over HTTP against ``make_server``.

    The session set is every pair of ``HIGH_MISS_APPS`` x {DP-256, RP,
    MP-256, ASP-256} at :data:`STREAM_SCALE` (32 sessions, ~435k entries,
    ~436 advances).  The seed orders the opens and the round-robin of
    advances.  A seed-picked subset would change the work per run by up
    to 2x: an RP checkpoint on adpcm-enc costs ~25x one on lucas.

    One client, one keep-alive connection.  On such a connection every
    request after the first waits ~40 ms: the handler writes headers and
    body in two sends, and Nagle's algorithm holds the body until the
    client's delayed ACK.  That stall is what this workload's users see,
    so it is measured, not worked around; it is also why the pass runs
    at a quarter scale, to fit the run time.
    """

    name = "stream"

    #: Restarted-server passes per warm() call.
    WARM_PASSES = 4

    def __init__(self, seed: int, workdir: Path, recorder=None) -> None:
        super().__init__(seed, workdir, recorder)
        self.specs = stream_specs()
        self.rng.shuffle(self.specs)
        self.session_ids = [
            f"s{index:02d}-{spec.workload}-{spec.mechanism.name}"
            for index, spec in enumerate(self.specs)
        ]
        self.reference = load_reference(self.name)
        self.generation = 0
        self.server: _Server | None = None
        self.store_root: Path | None = None
        self.advance_ms: list[float] = []
        self.entries = 0
        self.entries_s = 0.0
        self.final_stats: dict[str, dict] = {}
        self._start_server(fresh_store=True)

    def _start_server(self, fresh_store: bool) -> None:
        if self.server is not None:
            self.server.close()
        if fresh_store:
            if self.store_root is not None:
                shutil.rmtree(self.store_root, ignore_errors=True)
            self.generation += 1
            self.store_root = self.workdir / f"store-{self.generation}"
        self.server = _Server(self.store_root, self.recorder)

    def _call(self, method: str, path: str, body: dict | None = None):
        self.attempted += 1
        try:
            status, payload, elapsed = self.server.client.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError):
            self.failed += 1
            raise
        if not 200 <= status < 300:
            self.failed += 1
            raise RuntimeError(f"{method} {path} -> {status}: {payload.get('error')}")
        return payload, elapsed

    def cold(self) -> float:
        if self.final_stats:
            self._start_server(fresh_store=True)
        reset_caches()
        client_sessions = []
        with self.timed("cold") as timer:
            self._open_and_advance(client_sessions)
        self.entries += sum(entry[2]["total"] for entry in client_sessions)
        self.entries_s += timer.seconds
        self.final_stats = {entry[0]: entry[2]["stats"] for entry in client_sessions}
        self._verify(self.final_stats)
        return timer.seconds

    def _open_and_advance(self, client_sessions: list) -> None:
        for spec, session_id in zip(self.specs, self.session_ids):
            payload, _ = self._call(
                "POST", "/streams", {"spec": spec.to_dict(), "session_id": session_id}
            )
            client_sessions.append([session_id, quote(session_id, safe=""), payload])
        active = list(client_sessions)
        while active:
            still = []
            for entry in active:
                payload, elapsed = self._call(
                    "POST", f"/streams/{entry[1]}/advance", {"count": CHUNK}
                )
                self.advance_ms.append(elapsed * 1000.0)
                entry[2] = payload
                if not payload["finished"]:
                    still.append(entry)
            active = still

    def _verify(self, stats_by_session: dict[str, dict]) -> None:
        """Each session's final stats must equal a one-shot ``POST /runs``
        of its spec, and that row must equal the pinned reference."""
        payload, _ = self._call(
            "POST", "/runs", {"specs": [spec.to_dict() for spec in self.specs]}
        )
        one_shot = dict(zip(payload["keys"], payload["runs"]))
        for spec, session_id in zip(self.specs, self.session_ids):
            self.attempted += 1
            key = spec.key()
            row = one_shot.get(key)
            session = stats_by_session.get(session_id)
            if (
                row is None
                or session is None
                or row_digest(session) != row_digest(row)
                or row_digest(row) != self.reference.get(key)
            ):
                self.failed += 1

    def warm(self) -> float:
        """Restart the server over the cold pass's store and read every
        session's stats: each one restores from its checkpoint and its
        miss stream from the store."""
        samples = []
        for _ in range(self.WARM_PASSES):
            self._start_server(fresh_store=False)
            reset_caches()
            restored = {}
            with self.timed("warm") as timer:
                for session_id in self.session_ids:
                    payload, _ = self._call(
                        "GET", f"/streams/{quote(session_id, safe='')}/stats"
                    )
                    restored[session_id] = payload["stats"]
            samples.append(timer.seconds)
            for session_id in self.session_ids:
                self.attempted += 1
                expected = self.final_stats.get(session_id)
                got = restored.get(session_id)
                if expected is None or got is None or row_digest(got) != row_digest(expected):
                    self.failed += 1
        return statistics.median(samples)

    def store_stats(self) -> dict:
        return self.server.server.service.store.stats()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (Figure7, Table2, Stream)}
