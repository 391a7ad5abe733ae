"""Unit tests for reference-run and trace containers."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mem.reference import ReferenceRun
from repro.mem.trace import NO_EVICTION, MissTrace, ReferenceTrace

from conftest import make_trace


class TestReferenceRun:
    def test_valid(self):
        run = ReferenceRun(pc=1, page=2, count=3)
        assert (run.pc, run.page, run.count) == (1, 2, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pc": 0, "page": 0, "count": 0},
            {"pc": 0, "page": -1, "count": 1},
            {"pc": -1, "page": 0, "count": 1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(TraceError):
            ReferenceRun(**kwargs)


class TestReferenceTrace:
    def test_totals(self):
        trace = make_trace([1, 2, 3], counts=[1, 2, 3])
        assert trace.num_runs == 3
        assert trace.total_references == 6
        assert trace.footprint_pages == 3
        assert len(trace) == 3

    def test_iteration_yields_runs(self):
        trace = make_trace([5, 6], counts=[2, 1])
        runs = list(trace)
        assert runs[0] == ReferenceRun(0x1000, 5, 2)
        assert runs[1] == ReferenceRun(0x1000, 6, 1)

    def test_from_runs_round_trips(self):
        runs = [ReferenceRun(1, 10, 2), ReferenceRun(2, 20, 1)]
        trace = ReferenceTrace.from_runs(runs, name="rt")
        assert list(trace) == runs
        assert trace.name == "rt"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            ReferenceTrace([1], [1, 2], [1, 1])

    def test_zero_count_rejected(self):
        with pytest.raises(TraceError):
            ReferenceTrace([1], [1], [0])

    def test_concatenated(self):
        a = make_trace([1], name="a")
        b = make_trace([2], name="b")
        joined = a.concatenated_with(b)
        assert joined.num_runs == 2
        assert joined.name == "a+b"
        assert joined.pages.tolist() == [1, 2]

    def test_empty_trace(self):
        trace = ReferenceTrace([], [], [])
        assert trace.total_references == 0
        assert trace.footprint_pages == 0

    def test_as_lists_matches_arrays(self):
        trace = make_trace([3, 1], pcs=[7, 8], counts=[4, 5])
        pcs, pages, counts = trace.as_lists()
        assert pcs == [7, 8]
        assert pages == [3, 1]
        assert counts == [4, 5]


def _miss_trace(pages, evicted=None, ref_index=None, total=100, warmup=0):
    n = len(pages)
    return MissTrace(
        pcs=np.zeros(n, dtype=np.int64),
        pages=np.asarray(pages, dtype=np.int64),
        evicted=np.asarray(
            evicted if evicted is not None else [NO_EVICTION] * n, dtype=np.int64
        ),
        ref_index=np.asarray(
            ref_index if ref_index is not None else list(range(n)), dtype=np.int64
        ),
        total_references=total,
        warmup_misses=warmup,
        name="m",
    )


class TestMissTrace:
    def test_counts_and_rate(self):
        mt = _miss_trace([1, 2, 3, 4], total=400)
        assert mt.num_misses == 4
        assert mt.measured_misses == 4
        assert mt.miss_rate == pytest.approx(0.01)

    def test_warmup_excluded_from_measured(self):
        mt = _miss_trace([1, 2, 3, 4], warmup=3)
        assert mt.measured_misses == 1

    def test_warmup_bounds_validated(self):
        with pytest.raises(TraceError):
            _miss_trace([1], warmup=5)

    def test_array_length_mismatch(self):
        with pytest.raises(TraceError):
            MissTrace(
                pcs=np.zeros(2, dtype=np.int64),
                pages=np.zeros(1, dtype=np.int64),
                evicted=np.zeros(1, dtype=np.int64),
                ref_index=np.zeros(1, dtype=np.int64),
                total_references=10,
            )

    def test_as_lists_memoized(self):
        mt = _miss_trace([1, 2])
        first = mt.as_lists()
        assert mt.as_lists() is first

    def test_as_lists_are_the_three_replay_arrays(self):
        mt = _miss_trace([7, 9, 7], evicted=[NO_EVICTION, 7, 9])
        assert mt.as_lists() == (
            mt.pcs.tolist(), mt.pages.tolist(), mt.evicted.tolist()
        )

    def test_zero_reference_rate(self):
        mt = _miss_trace([], total=0)
        assert mt.miss_rate == 0.0
