"""Tests for the two-phase simulator, including the key equivalences.

Two properties anchor the whole evaluation methodology:

1. **Miss-stream invariance** — the TLB miss stream is identical under
   every prefetch mechanism (and none), because a buffer hit fills the
   TLB exactly like a demand fetch. This is what the paper relies on
   when it states prefetching "can thus not increase the miss rates of
   the original TLB".
2. **Two-phase == online** — filtering the TLB once and replaying the
   miss stream per mechanism gives byte-identical statistics to the
   full online pipeline.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.trace import NO_EVICTION, ReferenceTrace
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.functional import simulate
from repro.sim.two_phase import evaluate, filter_tlb, replay_prefetcher

from conftest import make_trace


class TestFilterTLB:
    def test_records_misses_in_order(self):
        trace = make_trace([1, 2, 1, 3], counts=[1, 1, 2, 1])
        miss_trace = filter_tlb(trace, TLBConfig(entries=4))
        assert miss_trace.pages.tolist() == [1, 2, 3]
        assert miss_trace.ref_index.tolist() == [0, 1, 4]
        assert miss_trace.total_references == 5

    def test_records_evictions(self):
        trace = make_trace([1, 2, 3])
        miss_trace = filter_tlb(trace, TLBConfig(entries=2))
        assert miss_trace.evicted.tolist() == [NO_EVICTION, NO_EVICTION, 1]

    def test_warmup_fraction_marks_leading_misses(self):
        trace = make_trace([1, 2, 3, 4], counts=[10, 10, 10, 10])
        miss_trace = filter_tlb(trace, TLBConfig(entries=8), warmup_fraction=0.5)
        # Misses at ref 0, 10, 20, 30; warm-up limit = 20 references.
        assert miss_trace.warmup_misses == 2
        assert miss_trace.measured_misses == 2

    def test_run_tail_never_misses(self):
        trace = make_trace([1] * 5, counts=[100] * 5)
        miss_trace = filter_tlb(trace, TLBConfig(entries=2))
        assert miss_trace.num_misses == 1
        assert miss_trace.miss_rate == pytest.approx(1 / 500)


@st.composite
def small_traces(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=24), min_size=n, max_size=n
        )
    )
    pcs = draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
    )
    counts = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)
    )
    return ReferenceTrace(pcs, pages, counts, name="hyp")


#: Fully associative, 2-way, 4-way and direct-mapped, small enough
#: that ``small_traces`` pages conflict and evict.
PHASE1_SHAPES = [
    TLBConfig(entries=8),
    TLBConfig(entries=8, ways=2),
    TLBConfig(entries=8, ways=4),
    TLBConfig(entries=8, ways=1),
]


def _probe_fill(tlb, pages):
    """Per-page ``probe``/``fill``: the oracle for ``TLB.filter``."""
    miss_positions, evicted = [], []
    for position, page in enumerate(pages):
        if not tlb.probe(page):
            victim = tlb.fill(page)
            miss_positions.append(position)
            evicted.append(NO_EVICTION if victim is None else victim)
    return miss_positions, evicted


@settings(max_examples=80, deadline=None)
@given(trace=small_traces(), shape=st.sampled_from(PHASE1_SHAPES))
def test_bulk_filter_equals_probe_fill(trace, shape):
    """``TLB.filter`` is exactly per-page probe-then-fill: same misses,
    same evicted pages, same final LRU order, same counters."""
    pages = trace.pages.tolist()
    bulk, oracle = shape.build(), shape.build()
    assert bulk.filter(pages) == _probe_fill(oracle, pages)
    assert bulk.resident_pages() == oracle.resident_pages()
    assert (bulk.hits, bulk.misses) == (oracle.hits, oracle.misses)


@settings(max_examples=60, deadline=None)
@given(
    trace=small_traces(),
    shape=st.sampled_from(PHASE1_SHAPES),
    warmup_fraction=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_filter_tlb_miss_stream_equals_probe_fill(trace, shape, warmup_fraction):
    """The whole miss stream — PCs, pages, evicted pages, reference
    positions, warm-up count — matches one probe/fill per RLE run."""
    miss_positions, evicted = _probe_fill(shape.build(), trace.pages.tolist())
    run_starts = list(accumulate(trace.counts.tolist(), initial=0))
    ref_index = [run_starts[i] for i in miss_positions]
    limit = int(trace.total_references * warmup_fraction)

    miss_trace = filter_tlb(trace, shape, warmup_fraction)
    assert miss_trace.pcs.tolist() == [trace.pcs.tolist()[i] for i in miss_positions]
    assert miss_trace.pages.tolist() == [trace.pages.tolist()[i] for i in miss_positions]
    assert miss_trace.evicted.tolist() == evicted
    assert miss_trace.ref_index.tolist() == ref_index
    assert miss_trace.warmup_misses == sum(1 for ref in ref_index if ref < limit)
    for array in (miss_trace.pcs, miss_trace.pages, miss_trace.evicted, miss_trace.ref_index):
        assert array.dtype == np.int64


class TestFilterTLBEdges:
    def test_empty_trace(self):
        miss_trace = filter_tlb(ReferenceTrace([], [], [], name="empty"), warmup_fraction=0.5)
        assert miss_trace.num_misses == 0
        assert miss_trace.total_references == 0
        assert miss_trace.warmup_misses == 0
        for array in (miss_trace.pcs, miss_trace.pages, miss_trace.evicted, miss_trace.ref_index):
            assert array.dtype == np.int64
            assert array.shape == (0,)

    def test_one_run_trace(self):
        trace = make_trace([5], pcs=[0x40], counts=[7])
        miss_trace = filter_tlb(trace, TLBConfig(entries=4))
        assert miss_trace.pcs.tolist() == [0x40]
        assert miss_trace.pages.tolist() == [5]
        assert miss_trace.evicted.tolist() == [NO_EVICTION]
        assert miss_trace.ref_index.tolist() == [0]
        assert miss_trace.total_references == 7

    def test_warmup_boundary_on_a_miss_is_measured(self):
        # Misses at refs 0, 10, 20, 30. A limit of exactly 20 leaves the
        # miss at ref 20 measured; one reference later it is warm-up.
        trace = make_trace([1, 2, 3, 4], counts=[10, 10, 10, 10])
        on_boundary = filter_tlb(trace, TLBConfig(entries=8), warmup_fraction=0.5)
        assert on_boundary.ref_index.tolist() == [0, 10, 20, 30]
        assert on_boundary.warmup_misses == 2
        past_boundary = filter_tlb(trace, TLBConfig(entries=8), warmup_fraction=0.525)
        assert past_boundary.warmup_misses == 3


@settings(max_examples=40, deadline=None)
@given(trace=small_traces(), mechanism=st.sampled_from(sorted(PREFETCHER_NAMES)))
def test_miss_stream_invariant_under_prefetching(trace, mechanism):
    """Property 1: the miss stream does not depend on the mechanism."""
    config = SimulationConfig(tlb=TLBConfig(entries=8), buffer_entries=4)
    baseline = filter_tlb(trace, config.tlb)
    stats = simulate(trace, create_prefetcher(mechanism, rows=16), config)
    assert stats.tlb_misses == baseline.num_misses
    assert stats.total_references == trace.total_references


@settings(max_examples=40, deadline=None)
@given(trace=small_traces(), mechanism=st.sampled_from(sorted(PREFETCHER_NAMES)))
def test_two_phase_equals_online(trace, mechanism):
    """Property 2: replaying the filtered miss stream is exactly the
    online pipeline, for every mechanism."""
    config = SimulationConfig(tlb=TLBConfig(entries=8), buffer_entries=4)
    online = simulate(trace, create_prefetcher(mechanism, rows=16), config)
    two_phase = evaluate(trace, create_prefetcher(mechanism, rows=16), config)
    assert two_phase.tlb_misses == online.tlb_misses
    assert two_phase.pb_hits == online.pb_hits
    assert two_phase.prefetches_issued == online.prefetches_issued
    assert two_phase.buffer_inserted == online.buffer_inserted
    assert two_phase.buffer_refreshed == online.buffer_refreshed
    assert two_phase.buffer_evicted_unused == online.buffer_evicted_unused
    assert two_phase.overhead_memory_ops == online.overhead_memory_ops
    assert two_phase.prediction_accuracy == pytest.approx(online.prediction_accuracy)


@settings(max_examples=25, deadline=None)
@given(trace=small_traces())
def test_two_phase_equals_online_with_warmup(trace):
    config = SimulationConfig(
        tlb=TLBConfig(entries=8), buffer_entries=4, warmup_fraction=0.3
    )
    online = simulate(trace, create_prefetcher("DP", rows=16), config)
    two_phase = evaluate(trace, create_prefetcher("DP", rows=16), config)
    assert two_phase.measured_misses == online.measured_misses
    assert two_phase.pb_hits == online.pb_hits


class TestReplay:
    def test_max_prefetches_clamp(self):
        trace = make_trace(list(range(20)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=4))
        unclamped = replay_prefetcher(
            miss_trace, create_prefetcher("SP", degree=4), buffer_entries=8
        )
        clamped = replay_prefetcher(
            miss_trace,
            create_prefetcher("SP", degree=4),
            buffer_entries=8,
            max_prefetches_per_miss=1,
        )
        assert clamped.buffer_inserted < unclamped.buffer_inserted

    def test_accuracy_on_sequential_scan(self):
        """A long sequential scan through a small TLB: every miss after
        DP warms up is covered."""
        trace = make_trace(list(range(200)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        stats = replay_prefetcher(miss_trace, create_prefetcher("DP", rows=16))
        assert stats.prediction_accuracy > 0.97

    def test_null_prefetcher_scores_zero(self):
        trace = make_trace(list(range(50)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        stats = replay_prefetcher(miss_trace, create_prefetcher("none"))
        assert stats.pb_hits == 0
        assert stats.prefetches_issued == 0
        assert stats.prediction_accuracy == 0.0


class TestReusedMechanismCounters:
    """Mechanism counters are cumulative over the instance's lifetime;
    per-run stats must report deltas, or reusing one instance across
    runs double-counts the earlier runs' activity."""

    def test_replay_reports_per_run_deltas(self):
        trace = make_trace(list(range(100)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        prefetcher = create_prefetcher("SP", degree=2)
        first = replay_prefetcher(miss_trace, prefetcher)
        second = replay_prefetcher(miss_trace, prefetcher)
        assert first.prefetches_issued > 0
        # The instance's cumulative total is exactly the sum of the
        # per-run reports — nothing was counted twice.
        assert (
            prefetcher.prefetches_issued
            == first.prefetches_issued + second.prefetches_issued
        )

    def test_replay_overhead_ops_are_deltas(self):
        trace = make_trace(list(range(100)))
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        prefetcher = create_prefetcher("RP")  # 4 pointer writes per miss
        first = replay_prefetcher(miss_trace, prefetcher)
        second = replay_prefetcher(miss_trace, prefetcher)
        assert first.overhead_memory_ops > 0
        assert (
            prefetcher.overhead_ops_total
            == first.overhead_memory_ops + second.overhead_memory_ops
        )

    def test_online_simulate_reports_per_run_deltas(self):
        trace = make_trace(list(range(100)))
        config = SimulationConfig(tlb=TLBConfig(entries=8))
        prefetcher = create_prefetcher("SP", degree=2)
        first = simulate(trace, prefetcher, config)
        second = simulate(trace, prefetcher, config)
        assert first.prefetches_issued > 0
        assert (
            prefetcher.prefetches_issued
            == first.prefetches_issued + second.prefetches_issued
        )
