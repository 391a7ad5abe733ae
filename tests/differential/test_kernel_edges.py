"""Fresh batch edge cases: native kernel and Python fallback vs reference.

Every case replays one batch of fresh mechanisms with
:func:`~repro.sim.batchpath.replay_batch` — once on the native C
kernel, once on the Python live-slot fallback a host without a
compiler runs — and demands each row equal the reference engine's
(:func:`~repro.sim.two_phase.replay_prefetcher` over live objects).
The streams are built by hand to reach the corners a sampled workload
rarely does: empty and one-miss streams, a warm-up boundary on a
buffer hit, negative targets, tiny and large buffers, every clamp,
slot count and table shape, keys wider than 64 bits, and pages the
kernel must refuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.trace import MissTrace
from repro.prefetch.factory import create_prefetcher
from repro.run import Runner, RunSpec
from repro.sim import batchpath
from repro.sim.batchpath import replay_batch
from repro.sim.two_phase import replay_prefetcher

from tests.differential.harness import KERNELS, assert_identical, batch_kernel

#: One instance of every family (RP also in its three-neighbour form).
EVERY_FAMILY: list[tuple[str, dict]] = [
    ("none", {}),
    ("SP", {}),
    ("SP", {"degree": 4}),
    ("SP-adaptive", {"max_degree": 8, "window": 4}),
    # Windows of 5 and 10 reach hit rates equal to the 0.2 and 0.6
    # thresholds, where only the strict comparisons hold the degree.
    ("SP-adaptive", {"max_degree": 4, "window": 5}),
    ("SP-adaptive", {"max_degree": 16, "window": 10}),
    ("ASP", {"rows": 16}),
    ("MP", {"rows": 16}),
    ("DP", {"rows": 16}),
    ("DP-PC", {"rows": 16}),
    ("DP-2", {"rows": 16}),
    ("RP", {}),
    ("RP", {"variant_three": 1}),
]

#: Table shapes: direct-mapped, 2-way, 4-way, fully associative, and
#: non-power-of-two rows and set counts.
GEOMETRIES = [(64, 1), (64, 2), (64, 4), (64, 0), (96, 1), (96, 2), (48, 4)]


def stream(pages, pcs=None, evicted=None, warmup=0) -> MissTrace:
    count = len(pages)
    return MissTrace(
        pcs=np.array(pcs if pcs is not None else [0x400] * count, dtype=np.int64),
        pages=np.array(pages, dtype=np.int64),
        evicted=np.array(evicted if evicted is not None else [-1] * count, dtype=np.int64),
        ref_index=np.arange(count, dtype=np.int64),
        total_references=count,
        warmup_misses=warmup,
        name="edge",
    )


def assert_batch_matches_reference(miss_trace, requests, kernel, expect=None):
    """``requests``: ``(name, params, buffer_entries, clamp)`` tuples."""
    with batch_kernel(kernel, expect):
        rows = replay_batch(
            miss_trace,
            [(create_prefetcher(name, **params), cap, clamp)
             for name, params, cap, clamp in requests],
        )
    assert len(rows) == len(requests)
    for (name, params, cap, clamp), row in zip(requests, rows):
        reference = replay_prefetcher(
            miss_trace, create_prefetcher(name, **params),
            buffer_entries=cap, max_prefetches_per_miss=clamp,
        )
        assert_identical(reference, row, context=f"{name} {params} cap={cap} clamp={clamp}")


def every_family():
    return [(name, params, 16, 0) for name, params in EVERY_FAMILY]


def mixed_stream(count=600, seed=7, warmup=0) -> MissTrace:
    """Strided runs, revisits and jumps over a few PCs, with evictions."""
    rng = np.random.default_rng(seed)
    pages, page = [], 1000
    for _ in range(count):
        page = max(0, page + int(rng.choice([1, 1, 2, -3, 7, 40, -40, 0])))
        pages.append(page)
    evicted = [pages[i - 5] if i >= 5 and i % 3 else -1 for i in range(count)]
    pcs = [int(rng.integers(0, 5)) for _ in range(count)]
    return stream(pages, pcs, evicted, warmup)


@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_and_one_miss_streams(kernel):
    assert_batch_matches_reference(stream([]), every_family(), kernel)
    assert_batch_matches_reference(stream([5], evicted=[3]), every_family(), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_eon_412_miss_stream(kernel):
    miss_trace = Runner().miss_stream_for(RunSpec.of("eon", "DP", scale=1.0))
    assert len(miss_trace) == 412
    assert_batch_matches_reference(miss_trace, every_family(), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("warmup", [4, 5, 6])
def test_warmup_boundary_on_a_buffer_hit(kernel, warmup):
    # A sequential scan: from the second miss on, every miss hits the
    # page SP prefetched, so the boundary lands on a hit.
    miss_trace = stream(list(range(100, 112)), warmup=warmup)
    with batch_kernel(kernel):
        rows = replay_batch(miss_trace, [(create_prefetcher("SP"), 16, 0)])
    assert rows[0].pb_hits == 12 - warmup
    assert_batch_matches_reference(miss_trace, every_family(), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_negative_prefetch_targets_are_dropped(kernel):
    # Descending strides walk distances and strides below page 0.
    pages = [12, 9, 6, 3, 0, 12, 9, 6, 3, 0, 1, 0, 2, 0, 12, 9, 6, 3, 0]
    assert_batch_matches_reference(stream(pages), every_family(), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_buffer_caps_and_clamps(kernel):
    requests = [
        (name, params, cap, clamp)
        for cap in (1, 2, 16, 64, 1024)
        for clamp in (0, 1, 2, 3)
        for name, params in EVERY_FAMILY
    ]
    assert_batch_matches_reference(mixed_stream(warmup=50), requests, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_slot_counts(kernel):
    requests = [
        (name, {"rows": 32, "ways": ways, "slots": slots}, 16, clamp)
        for name in ("MP", "DP", "DP-PC", "DP-2")
        for slots in (1, 2, 3, 6)
        for ways in (1, 4)
        for clamp in (0, 2)
    ]
    assert_batch_matches_reference(mixed_stream(), requests, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_table_geometries(kernel):
    requests = [
        (name, {"rows": rows, "ways": ways}, 16, 0)
        for name in ("ASP", "MP", "DP", "DP-PC", "DP-2")
        for rows, ways in GEOMETRIES
    ]
    # Many distinct keys per set, so every shape evicts rows.
    assert_batch_matches_reference(mixed_stream(count=2000, seed=3), requests, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
def test_keys_wider_than_64_bits(kernel):
    rng = np.random.default_rng(11)
    count = 400
    pcs = [(1 << 50) + int(rng.integers(0, 3)) * (1 << 45) for _ in range(count)]
    pages = [int(rng.choice([10, 11, 12, 1 << 58, (1 << 58) + 2])) for _ in range(count)]
    miss_trace = stream(pages, pcs)
    # The packed (PC, distance) keys really exceed 64 bits.
    keys, _ = batchpath._TraceAnalysis(miss_trace).family_keys("pcdist")
    assert max(keys) >= 1 << 64
    requests = [
        (name, {"rows": rows, "ways": ways}, 16, 0)
        for name in ("DP-PC", "DP-2", "DP", "ASP")
        for rows, ways in GEOMETRIES
    ]
    assert_batch_matches_reference(miss_trace, requests, kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("near", [1 << 62, -(1 << 62)])
def test_kernel_refuses_pages_near_2_to_62(kernel, near):
    pages = [near + delta for delta in (5, 3, 1, 3, 5, 7, 9)] + [1, 2, 3]
    miss_trace = stream(pages)
    if kernel == "native":
        native = batchpath._native_kernel()
        if native is not None:
            plan = batchpath._plan(create_prefetcher("DP"), 16, 0)
            assert batchpath._run_native(native, miss_trace, plan) is None
    # Refused by the kernel, so even the native run replays in Python.
    assert_batch_matches_reference(miss_trace, every_family(), kernel, expect="python")
