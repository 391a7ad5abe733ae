"""Execution-cycle simulation — the paper's Table 3 experiment.

Replays a TLB miss stream against a mechanism while modelling the
memory traffic prefetching induces, under the paper's assumptions
(which deliberately favour RP):

- A constant ``tlb_miss_penalty`` (100 cycles) stalls the CPU on every
  demand fill (prefetch-buffer miss).
- A prefetch-buffer hit whose entry is *still in flight* stalls the CPU
  until the entry arrives (possibly longer than a demand fill when the
  prefetch queue is backed up — how RP manages to lose cycles while
  winning accuracy on mcf).
- Every prefetch-related memory operation — RP's stack-pointer
  manipulations and both schemes' entry fetches — costs
  ``prefetch_op_cost`` (50) cycles and is serialized through a single
  prefetch-traffic queue that does **not** contend with demand traffic.
- Optionally (the paper's RP benefit-of-the-doubt), when the queue is
  still busy at miss time, the mechanism's entry *fetches* are skipped
  (no buffer insertion, no traffic) while its overhead pointer ops
  still execute: "there would be only 4 memory transactions instead
  of 6".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.costs import TimingParameters
from repro.cpu.timing import CoreTimeline
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer


@dataclass(frozen=True)
class CycleSimConfig:
    """Parameters of a cycle-timing run.

    Attributes:
        timing: cycle costs (paper defaults).
        buffer_entries: prefetch buffer capacity.
        skip_fetches_when_busy: apply the paper's RP rule — drop entry
            fetches when earlier prefetch traffic is still outstanding.
            ``None`` (default) enables it automatically for RP only,
            matching the paper's description.
        max_prefetches_per_miss: engine clamp (0 = mechanism's bound).
    """

    timing: TimingParameters = TimingParameters()
    buffer_entries: int = 16
    skip_fetches_when_busy: bool | None = None
    max_prefetches_per_miss: int = 0


@dataclass(frozen=True)
class CycleStats:
    """Outcome of a cycle-timing run.

    ``normalized_cycles`` is only meaningful once a baseline (the same
    miss stream under :class:`~repro.prefetch.null.NullPrefetcher`) has
    been divided out — see :func:`normalized_cycles`.
    """

    workload: str
    mechanism: str
    total_cycles: float
    base_cycles: float
    stall_cycles: float
    demand_stall_cycles: float
    in_flight_stall_cycles: float
    memory_ops: int
    pb_hits: int
    tlb_misses: int
    extra: dict = field(default_factory=dict)

    @property
    def prediction_accuracy(self) -> float:
        return self.pb_hits / self.tlb_misses if self.tlb_misses else 0.0


def simulate_cycles(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    config: CycleSimConfig | None = None,
) -> CycleStats:
    """Replay ``miss_trace`` with timing, returning cycle statistics."""
    config = config or CycleSimConfig()
    timing = config.timing
    skip_when_busy = config.skip_fetches_when_busy
    if skip_when_busy is None:
        skip_when_busy = isinstance(prefetcher, RecencyPrefetcher)

    timeline = CoreTimeline(timing)
    buffer = PrefetchBuffer(config.buffer_entries)
    arrival_time: dict[int, float] = {}  # page -> when its fetch completes

    queue_free_at = 0.0
    demand_stalls = 0.0
    inflight_stalls = 0.0
    memory_ops = 0
    pb_hits = 0
    op_cost = timing.prefetch_op_cost

    exposure = timing.stall_exposure
    exposed_penalty = exposure * timing.tlb_miss_penalty
    pcs, pages, evicted = miss_trace.as_lists()
    ref_index = miss_trace.ref_index.tolist()
    for i, page in enumerate(pages):
        now = timeline.advance_to_reference(ref_index[i])

        pb_hit = buffer.lookup_remove(page)
        if pb_hit:
            pb_hits += 1
            arrives = arrival_time.pop(page, 0.0)
            if arrives > now:
                # Wait for the in-flight entry, but never beyond what a
                # fallback demand fetch would cost.
                stall = exposure * min(arrives - now, timing.tlb_miss_penalty)
                timeline.stall(stall)
                inflight_stalls += stall
        else:
            timeline.stall(exposed_penalty)
            demand_stalls += exposed_penalty
        now = timeline.now

        prefetches = prefetcher.on_miss(pcs[i], page, evicted[i], pb_hit)
        if config.max_prefetches_per_miss and len(prefetches) > config.max_prefetches_per_miss:
            prefetches = prefetches[: config.max_prefetches_per_miss]

        # The skip rule keys on traffic from *earlier* misses still
        # being outstanding, so sample the queue before this miss's own
        # operations are enqueued.
        busy_before = queue_free_at > now
        backlog_limit = timing.max_queue_backlog * op_cost

        # Overhead operations (RP pointer writes) execute unless the
        # write queue is full (stale pointer updates coalesce/drop —
        # a timing-only simplification that favours RP).
        overhead = prefetcher.last_overhead_ops
        if overhead and queue_free_at - now < backlog_limit:
            start = max(now, queue_free_at)
            slots = 1 if timing.pointer_ops_pipelined else overhead
            queue_free_at = start + slots * op_cost
            memory_ops += overhead
        if overhead and busy_before and timing.walk_contention > 0.0:
            # Pending pointer writes contend with this miss's page walk.
            contention = timing.walk_contention * exposure * op_cost
            timeline.stall(contention)
            demand_stalls += contention
            now = timeline.now

        if prefetches and skip_when_busy and busy_before:
            # Paper's rule: treat as a wrong prediction but save traffic.
            prefetches = []

        for target in prefetches:
            if queue_free_at - now >= backlog_limit:
                break  # queue full: prefetch issue suppressed
            if target in buffer:
                buffer.insert(target)  # coalesced: refresh, no new fetch
                continue
            start = max(now, queue_free_at)
            queue_free_at = start + op_cost
            memory_ops += 1
            displaced = buffer.insert(target)
            if displaced is not None:
                arrival_time.pop(displaced, None)
            arrival_time[target] = queue_free_at

    total = timeline.finish(miss_trace.total_references)
    return CycleStats(
        workload=miss_trace.name,
        mechanism=prefetcher.label,
        total_cycles=total,
        base_cycles=total - timeline.total_stall_cycles,
        stall_cycles=timeline.total_stall_cycles,
        demand_stall_cycles=demand_stalls,
        in_flight_stall_cycles=inflight_stalls,
        memory_ops=memory_ops,
        pb_hits=pb_hits,
        tlb_misses=miss_trace.num_misses,
    )


def normalized_cycles(stats: CycleStats, baseline: CycleStats) -> float:
    """Cycles relative to a no-prefetching run of the same miss stream
    (the paper's Table 3 metric)."""
    if baseline.total_cycles == 0:
        return 0.0
    return stats.total_cycles / baseline.total_cycles
