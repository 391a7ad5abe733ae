"""Tests for trace persistence (.npz round-trips and format safety)."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mem.trace import MissTrace
from repro.mem.trace_io import (
    load_miss_trace,
    load_reference_trace,
    save_miss_trace,
    save_reference_trace,
)
from repro.sim.config import TLBConfig
from repro.sim.two_phase import filter_tlb, replay_prefetcher
from repro.prefetch.factory import create_prefetcher
from repro.store import ExperimentStore

from conftest import make_trace


class TestReferenceTraceRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = make_trace([3, 1, 4, 1, 5], pcs=[7, 8, 9, 8, 7],
                           counts=[2, 1, 3, 1, 2], name="pi")
        path = save_reference_trace(trace, tmp_path / "pi.npz")
        loaded = load_reference_trace(path)
        assert loaded.name == "pi"
        assert loaded.pages.tolist() == trace.pages.tolist()
        assert loaded.pcs.tolist() == trace.pcs.tolist()
        assert loaded.counts.tolist() == trace.counts.tolist()
        assert loaded.total_references == trace.total_references

    def test_loaded_trace_simulates_identically(self, tmp_path):
        trace = make_trace(list(range(100)), name="seq")
        path = save_reference_trace(trace, tmp_path / "seq.npz")
        loaded = load_reference_trace(path)
        original = replay_prefetcher(
            filter_tlb(trace, TLBConfig(entries=8)),
            create_prefetcher("DP", rows=16),
        )
        replayed = replay_prefetcher(
            filter_tlb(loaded, TLBConfig(entries=8)),
            create_prefetcher("DP", rows=16),
        )
        assert replayed.pb_hits == original.pb_hits
        assert replayed.tlb_misses == original.tlb_misses


class TestMissTraceRoundTrip:
    def test_round_trip_preserves_provenance(self, tmp_path):
        trace = make_trace(list(range(50)), name="m")
        miss_trace = filter_tlb(trace, TLBConfig(entries=8), warmup_fraction=0.2)
        path = save_miss_trace(miss_trace, tmp_path / "m.npz")
        loaded = load_miss_trace(path)
        assert loaded.name == miss_trace.name
        assert loaded.tlb_label == miss_trace.tlb_label
        assert loaded.warmup_misses == miss_trace.warmup_misses
        assert loaded.total_references == miss_trace.total_references
        assert loaded.pages.tolist() == miss_trace.pages.tolist()
        assert loaded.evicted.tolist() == miss_trace.evicted.tolist()

    def test_loaded_miss_trace_replays_identically(self, tmp_path):
        trace = make_trace(list(range(80)), name="m2")
        miss_trace = filter_tlb(trace, TLBConfig(entries=8))
        path = save_miss_trace(miss_trace, tmp_path / "m2.npz")
        loaded = load_miss_trace(path)
        a = replay_prefetcher(miss_trace, create_prefetcher("RP"))
        b = replay_prefetcher(loaded, create_prefetcher("RP"))
        assert a.pb_hits == b.pb_hits


class TestFormatSafety:
    def test_kind_mismatch_rejected(self, tmp_path):
        trace = make_trace([1, 2, 3])
        path = save_reference_trace(trace, tmp_path / "x.npz")
        with pytest.raises(TraceError, match="expected a miss-trace"):
            load_miss_trace(path)

    def test_random_npz_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(TraceError, match="not a repro trace file"):
            load_reference_trace(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            kind=np.array("reference-trace"),
            version=np.array(99),
            name=np.array("x"),
            pcs=np.zeros(1, dtype=np.int64),
            pages=np.zeros(1, dtype=np.int64),
            counts=np.ones(1, dtype=np.int64),
        )
        with pytest.raises(TraceError, match="version 99"):
            load_reference_trace(path)


def _savez_compressed_reference(trace, path):
    """A reference trace as written before the level-1 writer."""
    np.savez_compressed(
        path,
        kind=np.array("reference-trace"),
        version=np.array(1),
        name=np.array(trace.name),
        pcs=trace.pcs,
        pages=trace.pages,
        counts=trace.counts,
    )


def _savez_compressed_miss(miss_trace, path):
    """A miss trace as written before the level-1 writer."""
    np.savez_compressed(
        path,
        kind=np.array("miss-trace"),
        version=np.array(1),
        name=np.array(miss_trace.name),
        tlb_label=np.array(miss_trace.tlb_label),
        pcs=miss_trace.pcs,
        pages=miss_trace.pages,
        evicted=miss_trace.evicted,
        ref_index=miss_trace.ref_index,
        total_references=np.array(miss_trace.total_references),
        warmup_misses=np.array(miss_trace.warmup_misses),
    )


def _assert_same_miss_trace(loaded: MissTrace, expected: MissTrace) -> None:
    for field in ("pcs", "pages", "evicted", "ref_index"):
        assert getattr(loaded, field).dtype == np.int64
        assert getattr(loaded, field).tolist() == getattr(expected, field).tolist()
    for field in ("total_references", "warmup_misses", "name", "tlb_label"):
        assert getattr(loaded, field) == getattr(expected, field)


class TestOlderFiles:
    """Files written by ``np.savez_compressed`` (zlib level 6) still load."""

    def test_reference_trace_loads_field_for_field(self, tmp_path):
        trace = make_trace([3, 1, 4, 1, 5], pcs=[7, 8, 9, 8, 7],
                           counts=[2, 1, 3, 1, 2], name="pi")
        _savez_compressed_reference(trace, tmp_path / "old.npz")
        loaded = load_reference_trace(tmp_path / "old.npz")
        assert loaded.name == trace.name
        for field in ("pcs", "pages", "counts"):
            assert getattr(loaded, field).tolist() == getattr(trace, field).tolist()

    def test_miss_trace_loads_field_for_field(self, tmp_path):
        miss_trace = filter_tlb(
            make_trace(list(range(60)) * 2, name="m"), TLBConfig(entries=8),
            warmup_fraction=0.25,
        )
        _savez_compressed_miss(miss_trace, tmp_path / "old.npz")
        _assert_same_miss_trace(load_miss_trace(tmp_path / "old.npz"), miss_trace)

    def test_store_serves_an_older_stream_artifact(self, tmp_path, monkeypatch):
        miss_trace = filter_tlb(make_trace(list(range(40)), name="s"), TLBConfig(entries=8))
        store = ExperimentStore(tmp_path / "store")
        monkeypatch.setattr("repro.store.store.save_miss_trace", _savez_compressed_miss)
        store.put_stream("a" * 24, miss_trace)
        monkeypatch.undo()
        _assert_same_miss_trace(store.get_stream("a" * 24), miss_trace)

    def test_new_files_hold_the_same_members(self, tmp_path):
        miss_trace = filter_tlb(make_trace(list(range(40)), name="s"), TLBConfig(entries=8))
        _savez_compressed_miss(miss_trace, tmp_path / "old.npz")
        save_miss_trace(miss_trace, tmp_path / "new.npz")
        with np.load(tmp_path / "old.npz") as old, np.load(tmp_path / "new.npz") as new:
            assert sorted(new.files) == sorted(old.files)
            for name in old.files:
                assert new[name].dtype == old[name].dtype
                assert np.array_equal(new[name], old[name])


_SAVERS = {
    "reference": lambda path: save_reference_trace(make_trace([1, 2]), path),
    "miss": lambda path: save_miss_trace(
        filter_tlb(make_trace([1, 2]), TLBConfig(entries=8)), path
    ),
}


@pytest.mark.parametrize("kind", sorted(_SAVERS))
@pytest.mark.parametrize(
    "given, written",
    [("foo", "foo.npz"), ("foo.npz", "foo.npz"), ("foo.bar", "foo.bar.npz")],
)
def test_npz_suffix_rule(tmp_path, kind, given, written):
    """``.npz`` is appended unless the path already ends in it, as
    ``np.savez_compressed`` does; the returned path is the file."""
    path = _SAVERS[kind](tmp_path / given)
    assert path == tmp_path / written
    assert sorted(p.name for p in tmp_path.iterdir()) == [written]
