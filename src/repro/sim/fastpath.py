"""Vectorized fast-path replay engine: flat-array state, no dispatch.

:func:`repro.sim.two_phase.replay_prefetcher` is the *reference*
replay: it drives a live :class:`~repro.prefetch.base.Prefetcher`
object and the real :class:`~repro.tlb.prefetch_buffer.PrefetchBuffer`
miss by miss, paying a stack of method calls, ``OrderedDict``
operations and per-entry objects for every one of the millions of
misses a sweep replays. This module is the *fast* replay: each
mechanism's whole decision procedure is compiled into one specialized
Python loop whose state lives in flat parallel lists indexed by
integers (plus plain dicts for the prefetch buffer and for
set-associative tables), with statistics accumulated in local counters
rather than per-reference objects. The miss stream itself is
precompiled once into flat lists (and, for recency prefetching, a
dense ``numpy`` page-id mapping) before the loop starts.

The contract is **bit-identical statistics**: :func:`replay_fast`
returns exactly the
:class:`~repro.sim.stats.PrefetchRunStats` the reference engine
returns, field for field. That contract is enforced by
``tests/differential/`` — a curated grid over every mechanism family,
workload family and page size, plus seeded randomized traces/specs —
and any change here must keep that suite green.

The engines are also *observationally identical in side effects*:
like the reference engine, :func:`replay_fast` trains the instance it
is given. It captures a canonical :mod:`repro.ckpt.snapshots` snapshot
of the instance (cheap when fresh), seeds the flat loop structures
from it, runs the loop, and restores the final snapshot back into the
instance — so warm-started instances replay on the fast path too, and
the ``engine="auto"`` dispatch in :mod:`repro.sim.engine` falls back
to the reference engine only for mechanisms without a fast loop (e.g.
user-defined subclasses). The one permitted divergence is the
diagnostic counters excluded from snapshots (table lookup/tag-hit/
eviction tallies, recency-stack pointer writes): the fast engine
leaves them zeroed where the reference engine increments them.

Implementation notes shared by every loop below:

- The prefetch buffer is a plain insertion-ordered dict whose first
  key is the LRU entry; its population is tracked in a local integer
  (``buffered``) so the hot path never calls ``len``.
- Each loop replicates, operation for operation, what
  ``replay_prefetcher`` does with the corresponding mechanism class:
  (1) probe the buffer, removing on hit (hits count after warm-up);
  (2) run the decision procedure, counting every page the mechanism
  *asks* to prefetch (pre-clamp, as ``Prefetcher.account`` does);
  (3) clamp to ``max_prefetches_per_miss`` and insert into the buffer
  with refresh-on-duplicate and evicted-unused accounting.
- Prediction tables are flat parallel arrays for the direct-mapped
  case (dict-free integer indexing) and per-set plain dicts — first
  key = LRU, delete/reinsert = promote — for other associativities.
"""

from __future__ import annotations

import numpy as np

from repro.ckpt.snapshots import (
    AdaptiveSequentialSnapshot,
    DistancePairSnapshot,
    DistanceSnapshot,
    MarkovSnapshot,
    MechanismSnapshot,
    PCDistanceSnapshot,
    RecencySnapshot,
    SequentialSnapshot,
    StrideSnapshot,
    TableSnapshot,
    restore_prefetcher,
    snapshot_prefetcher,
)
from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher, pack_distance_pair
from repro.core.pc_distance import PCDistancePrefetcher, pack_pc_distance
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher


def compile_stream(miss_trace: MissTrace) -> tuple[list[int], list[int], list[int], int]:
    """Precompile a miss stream into flat lists for the replay loops.

    Returns ``(pcs, pages, evicted, warmup_misses)`` as plain Python
    int lists (memoized on the trace), which index faster in the hot
    loops than numpy scalars.
    """
    pcs, pages, evicted = miss_trace.as_lists()
    return pcs, pages, evicted, miss_trace.warmup_misses


class _Counters:
    """Per-run statistics accumulated by every fast replay loop."""

    __slots__ = ("pb_hits", "issued", "inserted", "refreshed", "evicted_unused", "overhead")

    def __init__(self) -> None:
        self.pb_hits = 0
        self.issued = 0
        self.inserted = 0
        self.refreshed = 0
        self.evicted_unused = 0
        self.overhead = 0

    def fill(
        self,
        pb_hits: int,
        issued: int,
        inserted: int,
        refreshed: int,
        evicted_unused: int,
        overhead: int = 0,
    ) -> None:
        self.pb_hits = pb_hits
        self.issued = issued
        self.inserted = inserted
        self.refreshed = refreshed
        self.evicted_unused = evicted_unused
        self.overhead = overhead


def _replay_null(pages: list, warmup: int, counters: _Counters) -> None:
    """No prefetching: nothing is ever buffered, so nothing can hit."""


def _replay_sequential(
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    degree: int,
) -> None:
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    effective = degree if not clamp else min(degree, clamp)
    offsets = range(1, effective + 1)
    for index, page in enumerate(pages):
        if page in buf:
            del buf[page]
            buffered -= 1
            if index >= warmup:
                pb_hits += 1
        issued += degree
        for offset in offsets:
            target = page + offset
            if target in buf:
                del buf[target]
                buf[target] = None
                refreshed += 1
            else:
                if buffered >= cap:
                    del buf[next(iter(buf))]
                    evicted_unused += 1
                else:
                    buffered += 1
                buf[target] = None
                inserted += 1
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)


def _replay_adaptive_sequential(
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    max_degree: int,
    window: int,
    raise_above: float,
    lower_below: float,
    degree: int = 1,
    window_misses: int = 0,
    window_hits: int = 0,
) -> tuple[int, int, int]:
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    for index, page in enumerate(pages):
        pb_hit = page in buf
        if pb_hit:
            del buf[page]
            buffered -= 1
            if index >= warmup:
                pb_hits += 1
        window_misses += 1
        window_hits += pb_hit
        if window_misses >= window:
            hit_rate = window_hits / window_misses
            if hit_rate > raise_above:
                degree = min(degree * 2, max_degree)
            elif hit_rate < lower_below:
                degree = max(degree // 2, 1)
            window_misses = window_hits = 0
        issued += degree
        effective = degree if not clamp else min(degree, clamp)
        for offset in range(1, effective + 1):
            target = page + offset
            if target in buf:
                del buf[target]
                buf[target] = None
                refreshed += 1
            else:
                if buffered >= cap:
                    del buf[next(iter(buf))]
                    evicted_unused += 1
                else:
                    buffered += 1
                buf[target] = None
                inserted += 1
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)
    return degree, window_misses, window_hits


def _replay_stride(
    pcs: list,
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    rows: int,
    ways: int,
    seed: TableSnapshot | None = None,
) -> TableSnapshot:
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    # Chen & Baer states: 0=initial 1=transient 2=steady 3=no-prediction.
    if ways == 1:
        # Direct-mapped: flat parallel arrays, dict-free integer indexing.
        occupied = bytearray(rows)
        tags = [0] * rows
        prev_pages = [0] * rows
        strides = [0] * rows
        states = bytearray(rows)
        if seed is not None:
            for row, pairs in enumerate(seed.sets):
                if pairs:
                    key, payload = pairs[-1]
                    occupied[row] = 1
                    tags[row] = key
                    prev_pages[row] = payload[0]
                    strides[row] = payload[1]
                    states[row] = payload[2]
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            pc = pcs[index]
            row = pc % rows
            if not occupied[row] or tags[row] != pc:
                occupied[row] = 1
                tags[row] = pc
                prev_pages[row] = page
                strides[row] = 0
                states[row] = 0
                continue
            new_stride = page - prev_pages[row]
            unchanged = new_stride == strides[row]
            state = states[row]
            if state == 0:
                if unchanged:
                    states[row] = 2
                else:
                    states[row] = 1
                    strides[row] = new_stride
            elif state == 1:
                if unchanged:
                    states[row] = 2
                else:
                    states[row] = 3
                    strides[row] = new_stride
            elif state == 2:
                if not unchanged:
                    states[row] = 0
            else:
                if unchanged:
                    states[row] = 1
                else:
                    strides[row] = new_stride
            prev_pages[row] = page
            if states[row] == 2:
                stride = strides[row]
                if stride:
                    target = page + stride
                    if target >= 0:
                        issued += 1
                        if target in buf:
                            del buf[target]
                            buf[target] = None
                            refreshed += 1
                        else:
                            if buffered >= cap:
                                del buf[next(iter(buf))]
                                evicted_unused += 1
                            else:
                                buffered += 1
                            buf[target] = None
                            inserted += 1
        final_sets = [
            [[tags[row], [prev_pages[row], strides[row], states[row]]]]
            if occupied[row]
            else []
            for row in range(rows)
        ]
    else:
        # Set-associative: per-set insertion-ordered dicts (first = LRU);
        # each payload is a mutable [prev_page, stride, state] triple.
        num_sets = rows // ways
        sets: list[dict[int, list[int]]] = [{} for _ in range(num_sets)]
        if seed is not None:
            for set_index, pairs in enumerate(seed.sets):
                table_set = sets[set_index]
                for key, payload in pairs:
                    table_set[key] = list(payload)
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            pc = pcs[index]
            table_set = sets[pc % num_sets]
            entry = table_set.get(pc)
            if entry is None:
                if len(table_set) >= ways:
                    del table_set[next(iter(table_set))]
                table_set[pc] = [page, 0, 0]
                continue
            del table_set[pc]  # promote to MRU
            table_set[pc] = entry
            new_stride = page - entry[0]
            unchanged = new_stride == entry[1]
            state = entry[2]
            if state == 0:
                if unchanged:
                    entry[2] = 2
                else:
                    entry[2] = 1
                    entry[1] = new_stride
            elif state == 1:
                if unchanged:
                    entry[2] = 2
                else:
                    entry[2] = 3
                    entry[1] = new_stride
            elif state == 2:
                if not unchanged:
                    entry[2] = 0
            else:
                if unchanged:
                    entry[2] = 1
                else:
                    entry[1] = new_stride
            entry[0] = page
            if entry[2] == 2:
                stride = entry[1]
                if stride:
                    target = page + stride
                    if target >= 0:
                        issued += 1
                        if target in buf:
                            del buf[target]
                            buf[target] = None
                            refreshed += 1
                        else:
                            if buffered >= cap:
                                del buf[next(iter(buf))]
                                evicted_unused += 1
                            else:
                                buffered += 1
                            buf[target] = None
                            inserted += 1
        final_sets = [
            [[key, entry] for key, entry in table_set.items()]
            for table_set in sets
        ]
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)
    return TableSnapshot(rows=rows, ways=ways, sets=final_sets)


def _replay_markov(
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    rows: int,
    ways: int,
    slots: int,
    seed: TableSnapshot | None = None,
    prev_page: int | None = None,
) -> tuple[TableSnapshot, int | None]:
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    if ways == 1:
        occupied = bytearray(rows)
        tags = [0] * rows
        slot_rows: list[list[int]] = [[] for _ in range(rows)]
        if seed is not None:
            for row, pairs in enumerate(seed.sets):
                if pairs:
                    key, payload = pairs[-1]
                    occupied[row] = 1
                    tags[row] = key
                    slot_rows[row] = list(payload)
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            row = page % rows
            if occupied[row] and tags[row] == page:
                # Aliasing the live slot list is safe: the prev-page
                # update below can never mutate *this* row in place
                # (its tag is `page`, the update's key is `prev_page`,
                # and the two differ on every path that updates).
                prefetches = slot_rows[row]
                issued += len(prefetches)
            else:
                occupied[row] = 1
                tags[row] = page
                slot_rows[row] = []
                prefetches = ()
            if prev_page is not None and prev_page != page:
                prev_row = prev_page % rows
                if occupied[prev_row] and tags[prev_row] == prev_page:
                    successors = slot_rows[prev_row]
                else:
                    occupied[prev_row] = 1
                    tags[prev_row] = prev_page
                    successors = []
                    slot_rows[prev_row] = successors
                # Skip the no-op reorder when page is already MRU
                # (remove + insert-at-0 would rebuild the same list).
                if not successors or successors[0] != page:
                    if page in successors:
                        successors.remove(page)
                    successors.insert(0, page)
                    if len(successors) > slots:
                        successors.pop()
            prev_page = page
            if prefetches:
                if clamp and len(prefetches) > clamp:
                    prefetches = prefetches[:clamp]
                for target in prefetches:
                    if target in buf:
                        del buf[target]
                        buf[target] = None
                        refreshed += 1
                    else:
                        if buffered >= cap:
                            del buf[next(iter(buf))]
                            evicted_unused += 1
                        else:
                            buffered += 1
                        buf[target] = None
                        inserted += 1
        final_sets = [
            [[tags[row], slot_rows[row]]] if occupied[row] else []
            for row in range(rows)
        ]
    else:
        num_sets = rows // ways
        sets: list[dict[int, list[int]]] = [{} for _ in range(num_sets)]
        if seed is not None:
            for set_index, pairs in enumerate(seed.sets):
                table_set = sets[set_index]
                for key, payload in pairs:
                    table_set[key] = list(payload)
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            table_set = sets[page % num_sets]
            row = table_set.get(page)
            if row is not None:
                del table_set[page]
                table_set[page] = row
                prefetches = row
                issued += len(prefetches)
            else:
                if len(table_set) >= ways:
                    del table_set[next(iter(table_set))]
                table_set[page] = []
                prefetches = ()
            if prev_page is not None and prev_page != page:
                prev_set = sets[prev_page % num_sets]
                successors = prev_set.get(prev_page)
                if successors is not None:
                    del prev_set[prev_page]
                    prev_set[prev_page] = successors
                else:
                    if len(prev_set) >= ways:
                        del prev_set[next(iter(prev_set))]
                    successors = []
                    prev_set[prev_page] = successors
                # Skip the no-op reorder when page is already MRU
                # (remove + insert-at-0 would rebuild the same list).
                if not successors or successors[0] != page:
                    if page in successors:
                        successors.remove(page)
                    successors.insert(0, page)
                    if len(successors) > slots:
                        successors.pop()
            prev_page = page
            if prefetches:
                if clamp and len(prefetches) > clamp:
                    prefetches = prefetches[:clamp]
                for target in prefetches:
                    if target in buf:
                        del buf[target]
                        buf[target] = None
                        refreshed += 1
                    else:
                        if buffered >= cap:
                            del buf[next(iter(buf))]
                            evicted_unused += 1
                        else:
                            buffered += 1
                        buf[target] = None
                        inserted += 1
        final_sets = [
            [[key, row] for key, row in table_set.items()]
            for table_set in sets
        ]
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)
    return TableSnapshot(rows=rows, ways=ways, sets=final_sets), prev_page


def _replay_distance(
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    rows: int,
    ways: int,
    slots: int,
    seed: TableSnapshot | None = None,
    prev_page: int | None = None,
    prev_distance: int | None = None,
) -> tuple[TableSnapshot, int | None, int | None]:
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    if ways == 1:
        occupied = bytearray(rows)
        tags = [0] * rows
        slot_rows: list[list[int]] = [[] for _ in range(rows)]
        if seed is not None:
            for row, pairs in enumerate(seed.sets):
                if pairs:
                    key, payload = pairs[-1]
                    occupied[row] = 1
                    tags[row] = key
                    slot_rows[row] = list(payload)
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            last_page = prev_page
            prev_page = page
            if last_page is None:
                continue
            distance = page - last_page
            row = distance % rows
            if occupied[row] and tags[row] == distance:
                # Targets are materialized *before* the prev-distance
                # update: when prev_distance == distance, that update
                # mutates this very slot list (mirroring the reference
                # engine, which snapshots entry.values() first).
                prefetches = []
                for predicted in slot_rows[row]:
                    target = page + predicted
                    if target >= 0:
                        prefetches.append(target)
                        issued += 1
            else:
                occupied[row] = 1
                tags[row] = distance
                slot_rows[row] = []
                prefetches = ()
            if prev_distance is not None:
                prev_row = prev_distance % rows
                if occupied[prev_row] and tags[prev_row] == prev_distance:
                    successors = slot_rows[prev_row]
                else:
                    occupied[prev_row] = 1
                    tags[prev_row] = prev_distance
                    successors = []
                    slot_rows[prev_row] = successors
                # Skip the no-op reorder when distance is already MRU
                # (remove + insert-at-0 would rebuild the same list).
                if not successors or successors[0] != distance:
                    if distance in successors:
                        successors.remove(distance)
                    successors.insert(0, distance)
                    if len(successors) > slots:
                        successors.pop()
            prev_distance = distance
            if prefetches:
                if clamp and len(prefetches) > clamp:
                    prefetches = prefetches[:clamp]
                for target in prefetches:
                    if target in buf:
                        del buf[target]
                        buf[target] = None
                        refreshed += 1
                    else:
                        if buffered >= cap:
                            del buf[next(iter(buf))]
                            evicted_unused += 1
                        else:
                            buffered += 1
                        buf[target] = None
                        inserted += 1
        final_sets = [
            [[tags[row], slot_rows[row]]] if occupied[row] else []
            for row in range(rows)
        ]
    else:
        num_sets = rows // ways
        sets: list[dict[int, list[int]]] = [{} for _ in range(num_sets)]
        if seed is not None:
            for set_index, pairs in enumerate(seed.sets):
                table_set = sets[set_index]
                for key, payload in pairs:
                    table_set[key] = list(payload)
        for index, page in enumerate(pages):
            if page in buf:
                del buf[page]
                buffered -= 1
                if index >= warmup:
                    pb_hits += 1
            last_page = prev_page
            prev_page = page
            if last_page is None:
                continue
            distance = page - last_page
            table_set = sets[distance % num_sets]
            row = table_set.get(distance)
            if row is not None:
                del table_set[distance]
                table_set[distance] = row
                prefetches = []
                for predicted in row:
                    target = page + predicted
                    if target >= 0:
                        prefetches.append(target)
                        issued += 1
            else:
                if len(table_set) >= ways:
                    del table_set[next(iter(table_set))]
                table_set[distance] = []
                prefetches = ()
            if prev_distance is not None:
                prev_set = sets[prev_distance % num_sets]
                successors = prev_set.get(prev_distance)
                if successors is not None:
                    del prev_set[prev_distance]
                    prev_set[prev_distance] = successors
                else:
                    if len(prev_set) >= ways:
                        del prev_set[next(iter(prev_set))]
                    successors = []
                    prev_set[prev_distance] = successors
                # Skip the no-op reorder when distance is already MRU
                # (remove + insert-at-0 would rebuild the same list).
                if not successors or successors[0] != distance:
                    if distance in successors:
                        successors.remove(distance)
                    successors.insert(0, distance)
                    if len(successors) > slots:
                        successors.pop()
            prev_distance = distance
            if prefetches:
                if clamp and len(prefetches) > clamp:
                    prefetches = prefetches[:clamp]
                for target in prefetches:
                    if target in buf:
                        del buf[target]
                        buf[target] = None
                        refreshed += 1
                    else:
                        if buffered >= cap:
                            del buf[next(iter(buf))]
                            evicted_unused += 1
                        else:
                            buffered += 1
                        buf[target] = None
                        inserted += 1
        final_sets = [
            [[key, row] for key, row in table_set.items()]
            for table_set in sets
        ]
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)
    return (
        TableSnapshot(rows=rows, ways=ways, sets=final_sets),
        prev_page,
        prev_distance,
    )


def _replay_keyed_distance(
    pcs: list,
    pages: list,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    rows: int,
    ways: int,
    slots: int,
    pc_keyed: bool,
    seed: TableSnapshot | None = None,
    prev_page: int | None = None,
    prev_distance: int | None = None,
    prev_key: int | None = None,
) -> tuple[TableSnapshot, int | None, int | None, int | None]:
    """Shared loop for the DP-PC and DP-2 extensions.

    Both differ from DP only in the table key: ``pack_pc_distance(pc,
    distance)`` for DP-PC, ``pack_distance_pair(prev, current)`` for
    DP-2 (which also needs one extra warm-up miss before its first
    key exists). A per-set dict table covers every associativity.
    """
    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = 0
    num_sets = rows // ways
    sets: list[dict[int, list[int]]] = [{} for _ in range(num_sets)]
    if seed is not None:
        for set_index, pairs in enumerate(seed.sets):
            table_set = sets[set_index]
            for key, payload in pairs:
                table_set[key] = list(payload)
    for index, page in enumerate(pages):
        if page in buf:
            del buf[page]
            buffered -= 1
            if index >= warmup:
                pb_hits += 1
        last_page = prev_page
        prev_page = page
        if last_page is None:
            continue
        distance = page - last_page
        if pc_keyed:
            key = pack_pc_distance(pcs[index], distance)
        else:
            last_distance = prev_distance
            prev_distance = distance
            if last_distance is None:
                continue
            key = pack_distance_pair(last_distance, distance)
        table_set = sets[key % num_sets]
        row = table_set.get(key)
        if row is not None:
            del table_set[key]
            table_set[key] = row
            prefetches = []
            for predicted in row:
                target = page + predicted
                if target >= 0:
                    prefetches.append(target)
                    issued += 1
        else:
            if len(table_set) >= ways:
                del table_set[next(iter(table_set))]
            table_set[key] = []
            prefetches = ()
        if prev_key is not None:
            prev_set = sets[prev_key % num_sets]
            successors = prev_set.get(prev_key)
            if successors is not None:
                del prev_set[prev_key]
                prev_set[prev_key] = successors
            else:
                if len(prev_set) >= ways:
                    del prev_set[next(iter(prev_set))]
                successors = []
                prev_set[prev_key] = successors
            if not successors or successors[0] != distance:
                if distance in successors:
                    successors.remove(distance)
                successors.insert(0, distance)
                if len(successors) > slots:
                    successors.pop()
        prev_key = key
        if prefetches:
            if clamp and len(prefetches) > clamp:
                prefetches = prefetches[:clamp]
            for target in prefetches:
                if target in buf:
                    del buf[target]
                    buf[target] = None
                    refreshed += 1
                else:
                    if buffered >= cap:
                        del buf[next(iter(buf))]
                        evicted_unused += 1
                    else:
                        buffered += 1
                    buf[target] = None
                    inserted += 1
    final_sets = [
        [[key, row] for key, row in table_set.items()]
        for table_set in sets
    ]
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused)
    return (
        TableSnapshot(rows=rows, ways=ways, sets=final_sets),
        prev_page,
        prev_distance,
        prev_key,
    )


def _replay_recency(
    miss_trace: MissTrace,
    warmup: int,
    cap: int,
    clamp: int,
    counters: _Counters,
    variant_three: bool,
    seed: RecencySnapshot | None = None,
) -> tuple[list, int | None, int]:
    """RP over dense page ids: the stack's next/prev pointers become
    flat integer arrays instead of dict-backed page-table entries.

    The page↔id mapping is a bijection over every page the stream can
    mention — including every page a warm-start ``seed`` carries a
    page-table entry for — so buffer membership, stack linkage and hit
    accounting are isomorphic to the reference engine's page-number
    arithmetic. Returns the final page-table entries in canonical
    (page-sorted) order, the final stack-top page, and the last miss's
    overhead ops (RP's ``last_overhead_ops`` semantics).
    """
    pages_array = miss_trace.pages
    evicted_array = miss_trace.evicted
    parts = [pages_array, evicted_array[evicted_array >= 0]]
    seed_entries = seed.entries if seed is not None else []
    if seed_entries:
        parts.append(
            np.asarray([entry[0] for entry in seed_entries], dtype=np.int64)
        )
    unique = np.unique(np.concatenate(parts))
    page_ids = np.searchsorted(unique, pages_array).tolist()
    evicted_ids = np.where(
        evicted_array >= 0, np.searchsorted(unique, evicted_array), -1
    ).tolist()

    footprint = len(unique)
    next_link = [-1] * footprint
    prev_link = [-1] * footprint
    on_stack = bytearray(footprint)
    top = -1
    if seed_entries:
        for page, nxt, prev, stacked in seed_entries:
            pid = int(np.searchsorted(unique, page))
            next_link[pid] = -1 if nxt is None else int(np.searchsorted(unique, nxt))
            prev_link[pid] = -1 if prev is None else int(np.searchsorted(unique, prev))
            on_stack[pid] = 1 if stacked else 0
        if seed.top is not None:
            top = int(np.searchsorted(unique, seed.top))

    buf: dict[int, None] = {}
    buffered = pb_hits = issued = inserted = refreshed = evicted_unused = overhead = 0
    miss_overhead = 0
    for index, page in enumerate(page_ids):
        if page in buf:
            del buf[page]
            buffered -= 1
            if index >= warmup:
                pb_hits += 1
        if on_stack[page]:
            below = next_link[page]
            above = prev_link[page]
            # Unlink from the stack (2 pointer writes of overhead).
            if above != -1:
                next_link[above] = below
            else:
                top = below
            if below != -1:
                prev_link[below] = above
            prev_link[page] = -1
            next_link[page] = -1
            on_stack[page] = 0
            overhead += 2
            miss_overhead = 2
        else:
            below = -1
            above = -1
            miss_overhead = 0
        evicted = evicted_ids[index]
        if evicted != -1:
            if on_stack[evicted]:
                # Re-push of a threaded page: silently unlink first
                # (the reference stack does this inside push_top
                # without charging extra overhead).
                e_above = prev_link[evicted]
                e_below = next_link[evicted]
                if e_above != -1:
                    next_link[e_above] = e_below
                else:
                    top = e_below
                if e_below != -1:
                    prev_link[e_below] = e_above
            next_link[evicted] = top
            prev_link[evicted] = -1
            on_stack[evicted] = 1
            if top != -1:
                prev_link[top] = evicted
            top = evicted
            overhead += 2
            miss_overhead += 2
        prefetches = []
        if above != -1:
            prefetches.append(above)
        if below != -1:
            prefetches.append(below)
        if variant_three and below != -1:
            third = next_link[below] if on_stack[below] else -1
            if third != -1 and third != page:
                prefetches.append(third)
        if prefetches:
            issued += len(prefetches)
            if clamp and len(prefetches) > clamp:
                prefetches = prefetches[:clamp]
            for target in prefetches:
                if target in buf:
                    del buf[target]
                    buf[target] = None
                    refreshed += 1
                else:
                    if buffered >= cap:
                        del buf[next(iter(buf))]
                        evicted_unused += 1
                    else:
                        buffered += 1
                    buf[target] = None
                    inserted += 1
    counters.fill(pb_hits, issued, inserted, refreshed, evicted_unused, overhead)

    unique_pages = unique.tolist()
    entries = []
    for pid in range(footprint):
        nxt = next_link[pid]
        prev = prev_link[pid]
        entries.append(
            [
                unique_pages[pid],
                None if nxt == -1 else unique_pages[nxt],
                None if prev == -1 else unique_pages[prev],
                bool(on_stack[pid]),
            ]
        )
    top_page = None if top == -1 else unique_pages[top]
    return entries, top_page, miss_overhead


# ---------------------------------------------------------------------------
# Dispatch: which mechanisms the fast engine can replay, whether an
# instance is pristine enough to serve as a configuration template,
# and the public replay entry point.
# ---------------------------------------------------------------------------

#: Mechanism classes the fast engine has a specialized loop for.
#: Dispatch is on *exact* type: user subclasses may override behavior
#: the loops do not model, so they always take the reference engine.
_FAST_TYPES = (
    NullPrefetcher,
    SequentialPrefetcher,
    AdaptiveSequentialPrefetcher,
    ArbitraryStridePrefetcher,
    MarkovPrefetcher,
    DistancePrefetcher,
    PCDistancePrefetcher,
    DistancePairPrefetcher,
    RecencyPrefetcher,
)


def supports(prefetcher: Prefetcher) -> bool:
    """True when :func:`replay_fast` has a loop for this mechanism."""
    return type(prefetcher) in _FAST_TYPES


def is_fresh(prefetcher: Prefetcher) -> bool:
    """True when the instance carries no trained state or statistics.

    Since the fast engine learned to seed its tables from (and write
    final state back through) :mod:`repro.ckpt.snapshots`, engine
    dispatch no longer cares about freshness — both engines handle
    warm instances identically. Kept as a cheap public predicate.
    Each mechanism reports its own trained state through
    :meth:`~repro.prefetch.base.Prefetcher.has_prediction_state`.
    """
    return (
        not prefetcher.prefetches_issued
        and not prefetcher.overhead_ops_total
        and not prefetcher.has_prediction_state()
    )


def _final_counters(
    initial: MechanismSnapshot, counters: _Counters, ran: bool
) -> dict:
    """Base-counter fields of the post-run snapshot.

    Every mechanism here calls ``Prefetcher.account`` on each miss with
    zero overhead ops (RP, the exception, is handled separately), so
    after one or more misses ``last_overhead_ops`` is 0; an empty
    stream leaves all counters untouched. Issue/overhead totals grow by
    this run's activity on top of the instance's prior tallies.
    """
    return {
        "last_overhead_ops": 0 if ran else initial.last_overhead_ops,
        "prefetches_issued": initial.prefetches_issued + counters.issued,
        "overhead_ops_total": initial.overhead_ops_total + counters.overhead,
    }


def replay_fast(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
) -> "PrefetchRunStats":
    """Fast-path equivalent of :func:`~repro.sim.two_phase.replay_prefetcher`.

    Trains ``prefetcher`` exactly as the reference engine would: the
    instance's state (warm or fresh) seeds the loop, and the final
    state is restored back into it, so canonical snapshots of the
    instance agree between engines after any sequence of replays.
    Raises :class:`~repro.errors.ConfigurationError` when the mechanism
    has no fast loop.
    """
    if not supports(prefetcher):
        raise ConfigurationError(
            f"fast engine has no replay loop for {type(prefetcher).__name__}; "
            "use engine='reference'"
        )

    cap = buffer_entries
    clamp = max_prefetches_per_miss
    warmup = miss_trace.warmup_misses
    counters = _Counters()
    initial = snapshot_prefetcher(prefetcher)

    kind = type(prefetcher)
    if kind is RecencyPrefetcher:
        # RP builds its own dense numpy id arrays; skip the flat-list
        # precompilation the other loops iterate over.
        entries, top_page, last_overhead = _replay_recency(
            miss_trace, warmup, cap, clamp, counters,
            prefetcher.variant_three, initial,
        )
        ran = len(miss_trace.pages) > 0
        final = RecencySnapshot(
            # RP's on_miss reports each miss's pointer ops, so the last
            # miss's overhead (not 0) is what account() leaves behind.
            last_overhead_ops=last_overhead if ran else initial.last_overhead_ops,
            prefetches_issued=initial.prefetches_issued + counters.issued,
            overhead_ops_total=initial.overhead_ops_total + counters.overhead,
            variant_three=prefetcher.variant_three,
            top=top_page,
            entries=entries,
        )
        restore_prefetcher(final, prefetcher)
        return _stats_from(miss_trace, prefetcher, counters)

    pcs, pages, _evicted, warmup = compile_stream(miss_trace)
    ran = len(pages) > 0
    if kind is NullPrefetcher:
        # Null never calls account(): the reference engine leaves the
        # instance untouched too, so there is nothing to write back.
        _replay_null(pages, warmup, counters)
        return _stats_from(miss_trace, prefetcher, counters)

    if kind is SequentialPrefetcher:
        _replay_sequential(pages, warmup, cap, clamp, counters, prefetcher.degree)
        final = SequentialSnapshot(
            degree=prefetcher.degree,
            **_final_counters(initial, counters, ran),
        )
    elif kind is AdaptiveSequentialPrefetcher:
        degree, window_misses, window_hits = _replay_adaptive_sequential(
            pages, warmup, cap, clamp, counters,
            prefetcher.max_degree, prefetcher.window,
            prefetcher.raise_above, prefetcher.lower_below,
            initial.degree, initial.window_misses, initial.window_hits,
        )
        final = AdaptiveSequentialSnapshot(
            max_degree=prefetcher.max_degree,
            window=prefetcher.window,
            raise_above=prefetcher.raise_above,
            lower_below=prefetcher.lower_below,
            degree=degree,
            window_misses=window_misses,
            window_hits=window_hits,
            **_final_counters(initial, counters, ran),
        )
    elif kind is ArbitraryStridePrefetcher:
        table = _replay_stride(
            pcs, pages, warmup, cap, clamp, counters,
            prefetcher.table.rows, prefetcher.table.ways,
            initial.table,
        )
        final = StrideSnapshot(
            table=table, **_final_counters(initial, counters, ran)
        )
    elif kind is MarkovPrefetcher:
        table, prev_page = _replay_markov(
            pages, warmup, cap, clamp, counters,
            prefetcher.table.rows, prefetcher.table.ways, prefetcher.slots,
            initial.table, initial.prev_page,
        )
        final = MarkovSnapshot(
            slots=prefetcher.slots,
            prev_page=prev_page,
            table=table,
            **_final_counters(initial, counters, ran),
        )
    elif kind is DistancePrefetcher:
        table, prev_page, prev_distance = _replay_distance(
            pages, warmup, cap, clamp, counters,
            prefetcher.table.rows, prefetcher.table.ways, prefetcher.slots,
            initial.table, initial.prev_page, initial.prev_distance,
        )
        final = DistanceSnapshot(
            slots=prefetcher.slots,
            prev_page=prev_page,
            prev_distance=prev_distance,
            table=table,
            **_final_counters(initial, counters, ran),
        )
    elif kind is PCDistancePrefetcher:
        table, prev_page, _, prev_key = _replay_keyed_distance(
            pcs, pages, warmup, cap, clamp, counters,
            prefetcher.table.rows, prefetcher.table.ways, prefetcher.slots,
            pc_keyed=True,
            seed=initial.table,
            prev_page=initial.prev_page,
            prev_key=initial.prev_key,
        )
        final = PCDistanceSnapshot(
            slots=prefetcher.slots,
            prev_page=prev_page,
            prev_key=prev_key,
            table=table,
            **_final_counters(initial, counters, ran),
        )
    else:  # DistancePairPrefetcher (supports() already vetted the type)
        table, prev_page, prev_distance, prev_key = _replay_keyed_distance(
            pcs, pages, warmup, cap, clamp, counters,
            prefetcher.table.rows, prefetcher.table.ways, prefetcher.slots,
            pc_keyed=False,
            seed=initial.table,
            prev_page=initial.prev_page,
            prev_distance=initial.prev_distance,
            prev_key=initial.prev_key,
        )
        final = DistancePairSnapshot(
            slots=prefetcher.slots,
            prev_page=prev_page,
            prev_distance=prev_distance,
            prev_key=prev_key,
            table=table,
            **_final_counters(initial, counters, ran),
        )

    restore_prefetcher(final, prefetcher)
    return _stats_from(miss_trace, prefetcher, counters)


def _stats_from(
    miss_trace: MissTrace, prefetcher: Prefetcher, counters: _Counters
) -> "PrefetchRunStats":
    from repro.sim.stats import PrefetchRunStats

    return PrefetchRunStats(
        workload=miss_trace.name,
        mechanism=prefetcher.label,
        tlb_label=miss_trace.tlb_label,
        total_references=miss_trace.total_references,
        tlb_misses=miss_trace.num_misses,
        measured_misses=miss_trace.measured_misses,
        pb_hits=counters.pb_hits,
        prefetches_issued=counters.issued,
        buffer_inserted=counters.inserted,
        buffer_refreshed=counters.refreshed,
        buffer_evicted_unused=counters.evicted_unused,
        overhead_memory_ops=counters.overhead,
        # A prefetch already buffered is coalesced, costing no new fetch.
        prefetch_fetch_ops=counters.inserted,
    )
