"""Incremental phase-2 replay: one stream, pausable anywhere.

:class:`ReplaySession` is a replay unrolled into an object: it holds
the miss stream, the mechanism and its prefetch buffer, and
:meth:`~ReplaySession.advance` replays the next N entries. Mechanisms
with a compiled loop run in a :class:`~repro.sim.batchpath.LiveSlot`
whose tables, buffer, counters and history registers stay live across
advances; the rest (exact-type dispatch) run the reference loop,
:func:`~repro.sim.two_phase.replay_prefetcher`, over a session-owned
buffer. Either way ``index`` is the global stream position and all
carried state is part of the session, so advancing in any chunking
produces byte-identical statistics to a single-shot replay — the
streaming service's contract, enforced by ``tests/ckpt/test_session.py``
and the differential suite.

:meth:`~ReplaySession.snapshot` captures the whole session as a
:class:`SessionSnapshot` (nesting the mechanism and buffer snapshots),
and :meth:`ReplaySession.resume` rebuilds a live session from one —
the service uses this pair to evict idle sessions and to survive
server restarts. A compiled session writes its final state back into
the mechanism instance once, when the stream finishes.
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


class _ReferenceSlot:
    """The reference loop behind :class:`~repro.sim.batchpath.LiveSlot`'s
    interface, for mechanisms without a compiled loop."""

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer_entries: int,
        max_prefetches_per_miss: int,
    ) -> None:
        self.miss_trace = miss_trace
        self.prefetcher = prefetcher
        self.max_prefetches_per_miss = max_prefetches_per_miss
        self.buffer = PrefetchBuffer(buffer_entries)
        self.capacity = buffer_entries
        self.pb_hits = 0

    def seed(self, mechanism=None, buffer=None, pb_hits: int = 0) -> None:
        # The mechanism snapshot was restored into the instance itself.
        if buffer is not None:
            restore_buffer(buffer, self.buffer)
        self.pb_hits = pb_hits

    def run(self, start: int, stop: int) -> None:
        from ..sim.two_phase import replay_prefetcher

        self.pb_hits += replay_prefetcher(
            self.miss_trace,
            self.prefetcher,
            max_prefetches_per_miss=self.max_prefetches_per_miss,
            start=start,
            stop=stop,
            buffer=self.buffer,
        ).pb_hits

    def totals(self) -> tuple[int, int, int, int, int, int]:
        buffer, prefetcher = self.buffer, self.prefetcher
        return (
            self.pb_hits,
            prefetcher.prefetches_issued,
            buffer.inserted,
            buffer.refreshed,
            buffer.evicted_unused,
            prefetcher.overhead_ops_total,
        )

    def write_back(self) -> None:
        """Nothing to do: the reference loop trains the instance live."""

    def mechanism_snapshot(self) -> MechanismSnapshot:
        return snapshot_prefetcher(self.prefetcher)

    def buffer_snapshot(self) -> BufferSnapshot:
        return snapshot_buffer(self.buffer)


class ReplaySession:
    """A suspendable, resumable phase-2 replay over one miss stream.

    Args:
        miss_trace: the filtered miss stream to replay.
        prefetcher: the mechanism instance to drive (trained exactly as
            the reference engine trains it; a compiled session writes
            the final state back when the stream finishes).
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
        # Imported lazily: repro.sim imports this package.
        from ..sim.batchpath import LiveSlot, supports

        self.miss_trace = miss_trace
        self.prefetcher = prefetcher
        self.max_prefetches_per_miss = max_prefetches_per_miss
        slot = LiveSlot if supports(prefetcher) else _ReferenceSlot
        self._slot = slot(
            miss_trace, prefetcher, buffer_entries, max_prefetches_per_miss
        )
        self._total = len(miss_trace)
        self.offset = 0
        # Counter baselines, exactly as replay_prefetcher snapshots them:
        # a pre-trained instance reports only this stream's activity.
        self.issued_before = prefetcher.prefetches_issued
        self.overhead_before = prefetcher.overhead_ops_total

    @property
    def total(self) -> int:
        """Total miss entries in the stream."""
        return self._total

    @property
    def remaining(self) -> int:
        """Entries not yet replayed."""
        return self.total - self.offset

    @property
    def finished(self) -> bool:
        """True once every entry has been replayed."""
        return self.offset >= self.total

    @property
    def pb_hits_measured(self) -> int:
        """Buffer hits past the warm-up boundary so far."""
        return self._slot.totals()[0]

    @property
    def buffer(self) -> PrefetchBuffer:
        """A copy of the session's prefetch buffer, as of now."""
        buffer = PrefetchBuffer(self._slot.capacity)
        restore_buffer(self._slot.buffer_snapshot(), buffer)
        return buffer

    def advance(self, count: int | None = None) -> int:
        """Replay up to ``count`` more entries (all remaining if None).

        Returns the number actually advanced. ``index`` is the *global*
        stream position, so the warm-up boundary lands identically
        under any chunking.
        """
        if count is not None and count < 0:
            raise CkptError(f"advance count must be >= 0, got {count}")
        start = self.offset
        stop = self.total if count is None else min(self.total, start + count)
        self._slot.run(start, stop)
        self.offset = stop
        if start < stop == self.total:
            self._slot.write_back()
        return stop - start

    def stats(self) -> PrefetchRunStats:
        """Statistics over the entries replayed so far.

        Field-for-field the same construction as
        :func:`~repro.sim.two_phase.replay_prefetcher`; once
        :attr:`finished`, the result is byte-identical to a single-shot
        replay of the same stream.
        """
        from ..sim.stats import PrefetchRunStats

        pb_hits, issued, inserted, refreshed, evicted, overhead = self._slot.totals()
        return PrefetchRunStats(
            workload=self.miss_trace.name,
            mechanism=self.prefetcher.label,
            tlb_label=self.miss_trace.tlb_label,
            total_references=self.miss_trace.total_references,
            tlb_misses=self.miss_trace.num_misses,
            measured_misses=self.miss_trace.measured_misses,
            pb_hits=pb_hits,
            prefetches_issued=issued - self.issued_before,
            buffer_inserted=inserted,
            buffer_refreshed=refreshed,
            buffer_evicted_unused=evicted,
            overhead_memory_ops=overhead - self.overhead_before,
            prefetch_fetch_ops=inserted,
        )

    def snapshot(self) -> SessionSnapshot:
        """Capture the complete session state (stream position included)."""
        return SessionSnapshot(
            offset=self.offset,
            pb_hits_measured=self.pb_hits_measured,
            issued_before=self.issued_before,
            overhead_before=self.overhead_before,
            max_prefetches_per_miss=self.max_prefetches_per_miss,
            mechanism=self._slot.mechanism_snapshot(),
            buffer=self._slot.buffer_snapshot(),
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
        # Restoring into real objects validates both snapshots.
        restore_prefetcher(snap.mechanism, prefetcher)
        restore_buffer(snap.buffer, PrefetchBuffer(snap.buffer.capacity))
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
        session._slot.seed(snap.mechanism, snap.buffer, snap.pb_hits_measured)
        session.offset = snap.offset
        session.issued_before = snap.issued_before
        session.overhead_before = snap.overhead_before
        return session
