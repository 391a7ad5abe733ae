"""Online functional simulation (the sim-cache analogue).

Drives the full :class:`~repro.tlb.mmu.MMU` pipeline reference-run by
reference-run over a :class:`~repro.mem.trace.ReferenceTrace`. This is
the authoritative-semantics path; the two-phase path in
:mod:`repro.sim.two_phase` is the fast path and is property-tested to
produce identical results.
"""

from __future__ import annotations

from repro.mem.trace import ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.sim.config import SimulationConfig
from repro.sim.stats import PrefetchRunStats
from repro.tlb.mmu import MMU, TranslationOutcome
from repro.tlb.prefetch_buffer import PrefetchBuffer


def build_mmu(prefetcher: Prefetcher, config: SimulationConfig) -> MMU:
    """Assemble a fresh MMU for ``prefetcher`` under ``config``."""
    return MMU(
        tlb=config.tlb.build(),
        buffer=PrefetchBuffer(config.buffer_entries),
        prefetcher=prefetcher,
        max_prefetches_per_miss=config.max_prefetches_per_miss,
    )


def simulate(
    trace: ReferenceTrace,
    prefetcher: Prefetcher,
    config: SimulationConfig | None = None,
    engine: str = "reference",
) -> PrefetchRunStats:
    """Run ``prefetcher`` over ``trace`` through the full MMU pipeline.

    Accuracy is accounted only after ``config.warmup_fraction`` of the
    references have passed; everything (TLB, buffer, mechanism) still
    *trains* during warm-up, mirroring how the paper's measurement
    window follows a fast-forward period.

    ``engine="reference"`` (the default) drives the online MMU loop
    below. Every other engine routes through the two-phase path with
    the selected replay engine (:mod:`repro.sim.engine`) — bit-identical
    statistics, dramatically less work.
    """
    config = config or SimulationConfig()
    if engine != "reference":
        # Imported lazily: two_phase/engine and this module are peers.
        from repro.sim.two_phase import evaluate

        return evaluate(trace, prefetcher, config, engine=engine)
    mmu = build_mmu(prefetcher, config)
    warmup_limit = int(trace.total_references * config.warmup_fraction)

    # Snapshot cumulative mechanism counters so a reused instance
    # reports per-run deltas (mirrors replay_prefetcher).
    issued_before = prefetcher.prefetches_issued
    overhead_before = prefetcher.overhead_ops_total

    measured_misses = 0
    measured_hits = 0
    references_seen = 0
    pcs, pages, counts = trace.as_lists()
    for pc, page, count in zip(pcs, pages, counts):
        outcome = mmu.translate_run(pc, page, count)
        if outcome is not TranslationOutcome.TLB_HIT and references_seen >= warmup_limit:
            measured_misses += 1
            if outcome is TranslationOutcome.BUFFER_HIT:
                measured_hits += 1
        references_seen += count

    return PrefetchRunStats(
        workload=trace.name,
        mechanism=prefetcher.label,
        tlb_label=mmu.tlb.label,
        total_references=mmu.references,
        tlb_misses=mmu.tlb_misses,
        measured_misses=measured_misses,
        pb_hits=measured_hits,
        prefetches_issued=prefetcher.prefetches_issued - issued_before,
        buffer_inserted=mmu.buffer.inserted,
        buffer_refreshed=mmu.buffer.refreshed,
        buffer_evicted_unused=mmu.buffer.evicted_unused,
        overhead_memory_ops=prefetcher.overhead_ops_total - overhead_before,
        # A prefetch already buffered is coalesced, costing no new fetch.
        prefetch_fetch_ops=mmu.buffer.inserted,
    )
