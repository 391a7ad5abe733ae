"""Warm-start differential: trained instances, sessions, and fallbacks.

The compiled engine *continues* a trained mechanism: a live slot seeds
its tables from the instance's canonical snapshot and writes the final
state back. These tests demand full observational equivalence with the
reference engine for every mechanism family — identical statistics on
a second stream *and* identical canonical state digests after any
interleaving of engines — plus bit-identity between chunked
:class:`~repro.ckpt.ReplaySession` streaming (with a serialize/resume
round-trip mid-stream) and a one-shot replay, and equal session
digests at every chunk boundary. Mechanisms without a compiled loop
must come out identical through every path that falls back to the
reference loop.
"""

from __future__ import annotations

import pytest

from repro.ckpt import (
    ReplaySession,
    SessionSnapshot,
    snapshot_buffer,
    snapshot_prefetcher,
    snapshots,
)
from repro.core.distance import DistancePrefetcher
from repro.prefetch.factory import create_prefetcher
from repro.prefetch.null import NullPrefetcher
from repro.run import MissStreamCache, Runner, RunSpec
from repro.run.runner import annotate_stats
from repro.sim.engine import COMPILED, replay, resolve_engine
from repro.sim.two_phase import replay_prefetcher
from repro.store import ExperimentStore
from repro.tlb.prefetch_buffer import PrefetchBuffer

from tests.differential.harness import assert_identical
from tests.test_engine import _CustomPrefetcher

SCALE = 0.05

#: Every family the compiled engine replays, with small tables so state
#: actually churns (evictions, LRU promotions) at this trace scale.
FAMILIES: list[tuple[str, dict]] = [
    ("none", {}),
    ("SP", {}),
    ("SP-adaptive", {}),
    ("ASP", {"rows": 64, "ways": 2}),
    ("MP", {"rows": 64}),
    ("DP", {"rows": 64}),
    ("DP-PC", {"rows": 64, "ways": 2}),
    ("DP-2", {"rows": 64, "ways": 2}),
    ("RP", {}),
    ("RP", {"variant_three": 1}),
]

FAMILY_IDS = [
    f"{name}{''.join(f'-{k}{v}' for k, v in params.items())}"
    for name, params in FAMILIES
]


@pytest.fixture(scope="module")
def streams():
    runner = Runner(cache=MissStreamCache())
    return (
        runner.miss_stream("galgel", scale=SCALE),
        runner.miss_stream("eon", scale=SCALE),
    )


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_warm_instances_bit_identical(streams, name, params):
    """Train on stream A, then replay stream B on each engine: the
    warm second replay must agree on stats and on final state."""
    first, second = streams
    ref_p = create_prefetcher(name, **params)
    compiled_p = create_prefetcher(name, **params)
    warm_ref = replay(first, ref_p, engine="reference")
    warm_compiled = replay(first, compiled_p, engine="auto")
    assert_identical(warm_ref, warm_compiled, context=f"{name} cold run")
    again_ref = replay(second, ref_p, engine="reference")
    again_compiled = replay(second, compiled_p, engine="auto")
    assert_identical(again_ref, again_compiled, context=f"{name} warm run")
    assert (
        snapshot_prefetcher(ref_p).digest()
        == snapshot_prefetcher(compiled_p).digest()
    ), f"{name}: engines disagree on final canonical state"


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_engine_interleaving_order_is_irrelevant(streams, name, params):
    """compiled-then-reference and reference-then-compiled land on the
    same canonical state as reference-only: engines are
    interchangeable mid-sequence."""
    first, second = streams
    digests = []
    for engines in (
        ("reference", "reference"),
        ("auto", "reference"),
        ("reference", "auto"),
        ("auto", "auto"),
    ):
        p = create_prefetcher(name, **params)
        replay(first, p, engine=engines[0])
        replay(second, p, engine=engines[1])
        digests.append(snapshot_prefetcher(p).digest())
    assert len(set(digests)) == 1, f"{name}: order-dependent state {digests}"


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_chunked_session_matches_one_shot(streams, name, params):
    """ReplaySession in uneven chunks — serialized to bytes and resumed
    into a fresh instance mid-stream — equals a one-shot replay."""
    stream = streams[0]
    one_shot = replay_prefetcher(stream, create_prefetcher(name, **params))
    session = ReplaySession(stream, create_prefetcher(name, **params))
    chunk_sizes = iter((1, 97, 1024, 7, 400000))
    while not session.finished:
        session.advance(next(chunk_sizes, None))
        blob = session.snapshot().to_bytes()
        snap = SessionSnapshot.from_bytes(blob)
        session = ReplaySession.resume(
            snap, stream, create_prefetcher(name, **params)
        )
    assert_identical(one_shot, session.stats(), context=f"{name} chunked")


@pytest.fixture(scope="module")
def warmup_stream():
    """A stream whose warm-up boundary lies past the first 1122 entries."""
    stream = Runner(cache=MissStreamCache()).miss_stream(
        "galgel", scale=SCALE, warmup_fraction=0.4
    )
    assert 1122 < stream.warmup_misses < len(stream) - 100
    return stream


@pytest.mark.parametrize(("name", "params"), FAMILIES, ids=FAMILY_IDS)
def test_mid_stream_session_state_matches_reference(warmup_stream, name, params):
    """At every chunk boundary the compiled session's snapshot digest
    equals that of a session driven by the reference loop to the same
    offset: buffer order and counters, mechanism tables and registers,
    and an RP page table holding only the pages touched so far."""
    stream = warmup_stream
    session = ReplaySession(stream, create_prefetcher(name, **params))
    reference_p = create_prefetcher(name, **params)
    reference_buffer = PrefetchBuffer(16)
    reference_hits = 0
    straddle = stream.warmup_misses - 1122 + 50
    for count in (1, 97, 1024, straddle, None):
        start = session.offset
        session.advance(count)
        reference_hits += replay_prefetcher(
            stream, reference_p, start=start, stop=session.offset,
            buffer=reference_buffer,
        ).pb_hits
        expected = SessionSnapshot(
            offset=session.offset,
            pb_hits_measured=reference_hits,
            issued_before=0,
            overhead_before=0,
            max_prefetches_per_miss=0,
            mechanism=snapshot_prefetcher(reference_p),
            buffer=snapshot_buffer(reference_buffer),
        )
        assert session.snapshot().digest() == expected.digest(), (
            f"{name}: session state diverged at offset {session.offset}"
        )
    assert session.finished
    assert (
        snapshot_prefetcher(session.prefetcher).digest()
        == snapshot_prefetcher(reference_p).digest()
    ), f"{name}: finished session wrote back different state"


def test_auto_resolves_fast_for_trained_instances(streams):
    for name, params in FAMILIES:
        p = create_prefetcher(name, **params)
        replay_prefetcher(streams[0], p)
        assert resolve_engine(p, "auto") == COMPILED, name


class _SubclassDP(DistancePrefetcher):
    """A subclass the compiled engine must not second-guess."""


#: Mechanisms without a compiled loop, with the snapshot family their
#: (stateless or inherited) state is captured by.
FALLBACKS = [
    (lambda: _SubclassDP(rows=64), DistancePrefetcher),
    (_CustomPrefetcher, NullPrefetcher),
]


@pytest.fixture
def fallback_snapshots(monkeypatch):
    """Snapshot dispatch is on exact type; register the fallbacks."""
    for factory, family in FALLBACKS:
        monkeypatch.setitem(
            snapshots._FAMILIES, type(factory()), snapshots._FAMILIES[family]
        )


@pytest.mark.parametrize("factory", [f for f, _ in FALLBACKS], ids=["subclass", "custom"])
def test_fallback_paths_equal_reference(
    streams, fallback_snapshots, monkeypatch, tmp_path, factory
):
    """Resumed sessions, checkpointed runs and engine="auto" all fall
    back to the reference loop for a mechanism without a compiled loop."""
    stream = streams[0]
    expected = replay_prefetcher(stream, factory())
    assert resolve_engine(factory(), "auto") == "reference"
    assert_identical(expected, replay(stream, factory(), engine="auto"))

    session = ReplaySession(stream, factory())
    chunk_sizes = iter((1, 97, 1024))
    while not session.finished:
        session.advance(next(chunk_sizes, None))
        snap = SessionSnapshot.from_bytes(session.snapshot().to_bytes())
        session = ReplaySession.resume(snap, stream, factory())
    assert_identical(expected, session.stats(), context="resumed session")

    spec = RunSpec.of("galgel", "DP", scale=SCALE)
    monkeypatch.setattr(RunSpec, "build_prefetcher", lambda self: factory())
    runner = Runner(
        cache=MissStreamCache(),
        store=ExperimentStore(tmp_path / "store"),
        checkpoint_every=700,
    )
    (row,) = runner.run([spec])
    assert_identical(annotate_stats(expected, spec), row, context="checkpointed")
