"""Two-phase fast simulation: TLB filter once, replay misses per scheme.

The paper's organization makes prefetching invisible to the TLB: a
prefetch-buffer hit inserts the entry into the TLB exactly as a demand
fetch would, so TLB contents — and therefore the miss stream — are
identical under every mechanism (and under none). That invariance lets
us split simulation into:

1. :func:`filter_tlb` — run the reference trace through the TLB once
   per (workload, TLB shape) and record every miss with its PC, evicted
   page, and position; and
2. :func:`replay_prefetcher` — drive each mechanism + prefetch buffer
   over that recorded miss stream.

With ~20 mechanism configurations per workload (the Figure 7 sweep)
this saves ~95% of simulation work. ``tests/test_two_phase``
property-tests that both paths report identical statistics.

These are the low-level building blocks; batch execution — with the
miss streams cached process-wide and replays optionally fanned out to
worker processes — goes through :class:`repro.run.Runner`.
"""

from __future__ import annotations

import numpy as np

from repro.mem.trace import MissTrace, ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.stats import PrefetchRunStats
from repro.tlb.prefetch_buffer import PrefetchBuffer


def filter_tlb(
    trace: ReferenceTrace,
    tlb_config: TLBConfig | None = None,
    warmup_fraction: float = 0.0,
) -> MissTrace:
    """Phase 1: produce the TLB miss stream for a reference trace.

    Args:
        trace: RLE page reference stream.
        tlb_config: TLB shape (paper default: 128-entry fully assoc.).
        warmup_fraction: leading fraction of references whose misses
            are flagged as warm-up (they still train mechanisms during
            replay but are excluded from accuracy).
    """
    tlb_config = tlb_config or TLBConfig()
    tlb = tlb_config.build()
    # One probe per RLE run: the run's tail re-touches a page the head
    # just made MRU, so it always hits.
    miss_positions, evicted = tlb.filter(trace.pages.tolist())
    at = np.asarray(miss_positions, dtype=np.int64)
    counts = trace.counts
    run_starts = np.cumsum(counts) - counts
    ref_index = run_starts[at]

    warmup_limit = int(trace.total_references * warmup_fraction)
    warmup_misses = int(np.searchsorted(ref_index, warmup_limit))
    return MissTrace(
        pcs=trace.pcs[at],
        pages=trace.pages[at],
        evicted=np.asarray(evicted, dtype=np.int64),
        ref_index=ref_index,
        total_references=trace.total_references,
        warmup_misses=warmup_misses,
        name=trace.name,
        tlb_label=tlb.label,
    )


def replay_prefetcher(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
    start: int = 0,
    stop: int | None = None,
    buffer: PrefetchBuffer | None = None,
) -> PrefetchRunStats:
    """Phase 2: run one mechanism over a recorded miss stream.

    Semantically identical to the online pipeline: for each miss, probe
    the buffer (removing on hit), inform the mechanism, insert its
    prefetches.

    ``start``/``stop`` replay only entries ``[start, stop)`` (``index``
    stays the global stream position, so the warm-up boundary lands
    identically under any chunking), and ``buffer`` continues a
    caller-owned buffer instead of a fresh one of ``buffer_entries``.
    The statistics then cover this call's entries only.
    """
    if buffer is None:
        buffer = PrefetchBuffer(buffer_entries)
    pcs, pages, evicted = miss_trace.as_lists()
    warmup = miss_trace.warmup_misses

    # Mechanism and buffer counters are cumulative over the objects'
    # lifetimes; snapshot them so reused (pre-trained) objects report
    # only this run's activity instead of inflating it with earlier runs'.
    issued_before = prefetcher.prefetches_issued
    overhead_before = prefetcher.overhead_ops_total
    inserted_before = buffer.inserted
    refreshed_before = buffer.refreshed
    evicted_before = buffer.evicted_unused

    pb_hits_measured = 0
    lookup_remove = buffer.lookup_remove
    insert = buffer.insert
    on_miss = prefetcher.on_miss
    for index, page in enumerate(pages[start:stop], start):
        pb_hit = lookup_remove(page)
        if pb_hit and index >= warmup:
            pb_hits_measured += 1
        prefetches = on_miss(pcs[index], page, evicted[index], pb_hit)
        if max_prefetches_per_miss and len(prefetches) > max_prefetches_per_miss:
            prefetches = prefetches[:max_prefetches_per_miss]
        for target in prefetches:
            insert(target)

    return PrefetchRunStats(
        workload=miss_trace.name,
        mechanism=prefetcher.label,
        tlb_label=miss_trace.tlb_label,
        total_references=miss_trace.total_references,
        tlb_misses=miss_trace.num_misses,
        measured_misses=miss_trace.measured_misses,
        pb_hits=pb_hits_measured,
        prefetches_issued=prefetcher.prefetches_issued - issued_before,
        buffer_inserted=buffer.inserted - inserted_before,
        buffer_refreshed=buffer.refreshed - refreshed_before,
        buffer_evicted_unused=buffer.evicted_unused - evicted_before,
        overhead_memory_ops=prefetcher.overhead_ops_total - overhead_before,
        # A prefetch already buffered is coalesced, costing no new fetch.
        prefetch_fetch_ops=buffer.inserted - inserted_before,
    )


def evaluate(
    trace: ReferenceTrace,
    prefetcher: Prefetcher,
    config: SimulationConfig | None = None,
    engine: str = "reference",
) -> PrefetchRunStats:
    """Convenience wrapper: filter then replay under one config.

    ``engine`` selects the replay implementation (see
    :mod:`repro.sim.engine`): ``"reference"`` (default), the compiled
    engine (``"fast"``/``"batch"``) or ``"auto"``. Both engines return
    bit-identical statistics and train the given instance identically.
    """
    config = config or SimulationConfig()
    miss_trace = filter_tlb(trace, config.tlb, config.warmup_fraction)
    # Imported lazily: repro.sim.engine imports this module.
    from repro.sim.engine import replay

    return replay(
        miss_trace,
        prefetcher,
        buffer_entries=config.buffer_entries,
        max_prefetches_per_miss=config.max_prefetches_per_miss,
        engine=engine,
    )
