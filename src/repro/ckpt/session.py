"""Incremental phase-2 replay: the same loop, pausable anywhere.

:class:`ReplaySession` is :func:`repro.sim.two_phase.replay_prefetcher`
unrolled into an object: it holds the miss stream, the live mechanism,
and the prefetch buffer, and :meth:`advance` runs the *identical* per-
miss body over the next N entries. Because the loop body is the same
statement-for-statement and all carried state (buffer contents and
counters, mechanism state, measured-hit tally, counter baselines) is
part of the session, advancing in any chunking produces byte-identical
final statistics to a single-shot replay — the streaming service's
contract, enforced by ``tests/ckpt/test_session.py`` and the
differential suite.

:meth:`snapshot` captures the whole session as a
:class:`SessionSnapshot` (nesting the mechanism and buffer snapshots),
and :meth:`ReplaySession.resume` rebuilds a live session from one —
the service uses this pair to evict idle sessions and to survive
server restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from ..errors import CkptError
from ..mem.trace import MissTrace
from ..prefetch.base import Prefetcher
from ..tlb.prefetch_buffer import PrefetchBuffer

if TYPE_CHECKING:  # pragma: no cover - cycle guard (sim imports this package)
    from ..sim.stats import PrefetchRunStats
from .snapshots import (
    BufferSnapshot,
    MechanismSnapshot,
    StateSnapshot,
    restore_buffer,
    restore_prefetcher,
    snapshot_buffer,
    snapshot_prefetcher,
)


@dataclass
class SessionSnapshot(StateSnapshot):
    """A paused :class:`ReplaySession`, minus the miss stream itself.

    The stream is content-addressed in the store already (or rebuilt
    deterministically from the spec), so only the *position* is stored;
    nesting the mechanism and buffer snapshots keeps the whole session
    a single blob with a single digest.
    """

    kind: ClassVar[str] = "session"

    offset: int
    pb_hits_measured: int
    issued_before: int
    overhead_before: int
    max_prefetches_per_miss: int
    mechanism: MechanismSnapshot
    buffer: BufferSnapshot


class ReplaySession:
    """A suspendable, resumable phase-2 replay over one miss stream.

    Args:
        miss_trace: the filtered miss stream to replay.
        prefetcher: the mechanism instance to drive (trained in place,
            exactly as the reference engine trains it).
        buffer_entries: prefetch-buffer capacity.
        max_prefetches_per_miss: per-miss issue clamp (0 = unlimited).
    """

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer_entries: int = 16,
        max_prefetches_per_miss: int = 0,
    ) -> None:
        self.miss_trace = miss_trace
        self.prefetcher = prefetcher
        self.buffer = PrefetchBuffer(buffer_entries)
        self.max_prefetches_per_miss = max_prefetches_per_miss
        pcs, pages, evicted = miss_trace.as_lists()
        self._pcs = pcs
        self._pages = pages
        self._evicted = evicted
        self.offset = 0
        self.pb_hits_measured = 0
        # Counter baselines, exactly as replay_prefetcher snapshots them:
        # a pre-trained instance reports only this stream's activity.
        self.issued_before = prefetcher.prefetches_issued
        self.overhead_before = prefetcher.overhead_ops_total

    @property
    def total(self) -> int:
        """Total miss entries in the stream."""
        return len(self._pages)

    @property
    def remaining(self) -> int:
        """Entries not yet replayed."""
        return self.total - self.offset

    @property
    def finished(self) -> bool:
        """True once every entry has been replayed."""
        return self.offset >= self.total

    def advance(self, count: int | None = None) -> int:
        """Replay up to ``count`` more entries (all remaining if None).

        Returns the number actually advanced. The loop body is a
        verbatim copy of :func:`~repro.sim.two_phase.replay_prefetcher`;
        ``index`` is the *global* stream position, so the warm-up
        boundary lands identically under any chunking.
        """
        if count is not None and count < 0:
            raise CkptError(f"advance count must be >= 0, got {count}")
        stop = self.total if count is None else min(self.total, self.offset + count)
        start = self.offset
        pcs = self._pcs
        pages = self._pages
        evicted = self._evicted
        warmup = self.miss_trace.warmup_misses
        max_prefetches = self.max_prefetches_per_miss
        pb_hits_measured = self.pb_hits_measured
        lookup_remove = self.buffer.lookup_remove
        insert = self.buffer.insert
        on_miss = self.prefetcher.on_miss
        for index in range(start, stop):
            page = pages[index]
            pb_hit = lookup_remove(page)
            if pb_hit and index >= warmup:
                pb_hits_measured += 1
            prefetches = on_miss(pcs[index], page, evicted[index], pb_hit)
            if max_prefetches and len(prefetches) > max_prefetches:
                prefetches = prefetches[:max_prefetches]
            for target in prefetches:
                insert(target)
        self.pb_hits_measured = pb_hits_measured
        self.offset = stop
        return stop - start

    def stats(self) -> PrefetchRunStats:
        """Statistics over the entries replayed so far.

        Field-for-field the same construction as
        :func:`~repro.sim.two_phase.replay_prefetcher`; once
        :attr:`finished`, the result is byte-identical to a single-shot
        replay of the same stream.
        """
        from ..sim.stats import PrefetchRunStats

        return PrefetchRunStats(
            workload=self.miss_trace.name,
            mechanism=self.prefetcher.label,
            tlb_label=self.miss_trace.tlb_label,
            total_references=self.miss_trace.total_references,
            tlb_misses=self.miss_trace.num_misses,
            measured_misses=self.miss_trace.measured_misses,
            pb_hits=self.pb_hits_measured,
            prefetches_issued=self.prefetcher.prefetches_issued - self.issued_before,
            buffer_inserted=self.buffer.inserted,
            buffer_refreshed=self.buffer.refreshed,
            buffer_evicted_unused=self.buffer.evicted_unused,
            overhead_memory_ops=self.prefetcher.overhead_ops_total
            - self.overhead_before,
            prefetch_fetch_ops=self.buffer.inserted,
        )

    def snapshot(self) -> SessionSnapshot:
        """Capture the complete session state (stream position included)."""
        return SessionSnapshot(
            offset=self.offset,
            pb_hits_measured=self.pb_hits_measured,
            issued_before=self.issued_before,
            overhead_before=self.overhead_before,
            max_prefetches_per_miss=self.max_prefetches_per_miss,
            mechanism=snapshot_prefetcher(self.prefetcher),
            buffer=snapshot_buffer(self.buffer),
        )

    @classmethod
    def resume(
        cls,
        snap: SessionSnapshot,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
    ) -> "ReplaySession":
        """Rebuild a live session from a snapshot.

        ``prefetcher`` must be a fresh instance with the captured
        configuration (its state is overwritten); ``miss_trace`` must be
        the same stream the snapshot was taken over — the offset is
        validated against its length, content identity is the caller's
        (content-addressed store's) responsibility.
        """
        if not isinstance(snap, SessionSnapshot):
            raise CkptError(
                f"cannot resume a session from {type(snap).__name__}"
            )
        session = cls(
            miss_trace,
            prefetcher,
            buffer_entries=snap.buffer.capacity,
            max_prefetches_per_miss=snap.max_prefetches_per_miss,
        )
        if not 0 <= snap.offset <= session.total:
            raise CkptError(
                f"corrupt session snapshot: offset {snap.offset} outside "
                f"stream of {session.total} entries"
            )
        restore_prefetcher(snap.mechanism, prefetcher)
        restore_buffer(snap.buffer, session.buffer)
        session.offset = snap.offset
        session.pb_hits_measured = snap.pb_hits_measured
        session.issued_before = snap.issued_before
        session.overhead_before = snap.overhead_before
        return session
