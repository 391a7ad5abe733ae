"""Oracle replay: the upper bound any prefetch mechanism could reach.

An oracle with ``lookahead = k`` knows the next ``k`` TLB misses and
prefetches exactly those pages — the ceiling for any mechanism that may
issue at most ``k`` prefetches per miss into the same buffer. Comparing
a mechanism's accuracy against the oracle separates "the pattern is
unlearnable" (oracle ≈ 1, mechanism ≈ 0 — e.g. fma3d's random walk is
perfectly coverable with future knowledge) from "the buffer/issue
budget is the binding constraint" (oracle itself degrades).

This is an analysis instrument, not a mechanism: it reads the future of
the miss trace, so it cannot implement :class:`~repro.prefetch.base.
Prefetcher` and lives in the simulation layer instead.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.sim.stats import PrefetchRunStats
from repro.tlb.prefetch_buffer import PrefetchBuffer


def replay_oracle(
    miss_trace: MissTrace,
    lookahead: int = 2,
    buffer_entries: int = 16,
) -> PrefetchRunStats:
    """Replay a miss stream with perfect ``lookahead``-miss knowledge.

    At every miss the next ``lookahead`` missed pages are prefetched
    (subject to the same buffer capacity and replacement as real
    mechanisms). With ``lookahead <= buffer_entries`` the oracle covers
    every miss except the first.
    """
    if lookahead < 1:
        raise ConfigurationError(f"lookahead must be >= 1, got {lookahead}")
    buffer = PrefetchBuffer(buffer_entries)
    _, pages, _ = miss_trace.as_lists()
    warmup = miss_trace.warmup_misses

    pb_hits_measured = 0
    prefetches_issued = 0
    total = len(pages)
    for index, page in enumerate(pages):
        if buffer.lookup_remove(page) and index >= warmup:
            pb_hits_measured += 1
        future = pages[index + 1 : index + 1 + lookahead]
        prefetches_issued += len(future)
        for target in future:
            buffer.insert(target)

    return PrefetchRunStats(
        workload=miss_trace.name,
        mechanism=f"oracle,k={lookahead}",
        tlb_label=miss_trace.tlb_label,
        total_references=miss_trace.total_references,
        tlb_misses=total,
        measured_misses=miss_trace.measured_misses,
        pb_hits=pb_hits_measured,
        prefetches_issued=prefetches_issued,
        buffer_inserted=buffer.inserted,
        buffer_refreshed=buffer.refreshed,
        buffer_evicted_unused=buffer.evicted_unused,
        overhead_memory_ops=0,
        prefetch_fetch_ops=buffer.inserted,
    )


def coverage_headroom(
    miss_trace: MissTrace,
    mechanism_accuracy: float,
    lookahead: int = 2,
    buffer_entries: int = 16,
) -> float:
    """How much accuracy is left on the table vs the oracle ceiling."""
    oracle = replay_oracle(
        miss_trace, lookahead=lookahead, buffer_entries=buffer_entries
    )
    return max(0.0, oracle.prediction_accuracy - mechanism_accuracy)
