"""``StateSnapshot`` dataclasses for every piece of mechanism state.

A snapshot is a frozen-in-amber copy of one simulation structure —
prediction table, TLB, prefetch buffer, or a whole prefetcher — as
plain codec values (ints, floats, strings, lists), serialized through
:mod:`repro.ckpt.codec` with stable field ordering so that *identical
logical state always yields an identical digest*. That invariant is
load-bearing: checkpoints are content-addressed by digest, and resume
continuations are keyed by ``(spec_key, stream_offset, state_digest)``,
so the reference engine and the fast engine must agree byte-for-byte on
the snapshot of any state they both can reach.

Two canonicalization rules make cross-engine agreement possible:

1. **Behaviour-bearing state only.** Diagnostic counters that influence
   no simulation decision and no reported statistic —
   ``PredictionTable.lookups/tag_hits/row_evictions``,
   ``RecencyStack.pointer_writes`` — are *excluded* from snapshots, and
   restore zeroes them. (The :class:`~repro.prefetch.base.Prefetcher`
   issue/overhead counters and the buffer/TLB counters *are* captured:
   they feed delta-based statistics.)
2. **Canonical element order.** Recency-stack page-table entries are
   stored sorted by page number: dict insertion order never affects
   RP's behaviour, but it would otherwise differ between engines.

Restores are strict: applying a snapshot to a mechanism whose
configuration (rows, ways, slots, degree bounds, ...) differs from the
captured one raises :class:`~repro.errors.CkptError` rather than
silently truncating state.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

from ..core.prediction_table import PredictionTable, SlotList
from ..errors import CkptError
from ..prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from ..prefetch.base import Prefetcher
from ..prefetch.markov import MarkovPrefetcher
from ..prefetch.null import NullPrefetcher
from ..prefetch.recency import RecencyPrefetcher
from ..prefetch.sequential import SequentialPrefetcher
from ..prefetch.stride import ArbitraryStridePrefetcher, StrideEntry, StrideState
from ..tlb.page_table import PageTableEntry
from ..tlb.prefetch_buffer import PrefetchBuffer
from ..tlb.tlb import TLB
from .codec import blob_digest, decode_blob, encode_blob

from ..core.distance import DistancePrefetcher
from ..core.distance_pair import DistancePairPrefetcher
from ..core.pc_distance import PCDistancePrefetcher

#: kind -> snapshot class, populated by ``__init_subclass__``.
SNAPSHOT_KINDS: dict[str, type["StateSnapshot"]] = {}

_NESTED_MARKER = "__kind__"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A snapshot class's dataclass field names, in declaration order."""
    return tuple(field.name for field in dataclasses.fields(cls))


def _decode_nested(value: dict) -> "StateSnapshot":
    kind = value.get(_NESTED_MARKER)
    cls = SNAPSHOT_KINDS.get(kind)
    if cls is None:
        raise CkptError(f"corrupt snapshot: unknown nested kind {kind!r}")
    return cls.from_payload({k: v for k, v in value.items() if k != _NESTED_MARKER})


class StateSnapshot:
    """Base of all snapshot dataclasses: payload <-> bytes plumbing.

    Subclasses are dataclasses declaring a unique ``kind`` string; the
    payload is the ordered mapping of dataclass fields, which the codec
    serializes deterministically. A field holding a snapshot encodes as
    a nested map tagged with its kind; every other field is a plain
    codec value (lists of ints, ``None``, ...) and is passed through
    as is — a snapshot nested *inside* a list is not supported.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = SNAPSHOT_KINDS.get(cls.kind)
            if existing is not None and existing is not cls:
                raise CkptError(f"duplicate snapshot kind {cls.kind!r}")
            SNAPSHOT_KINDS[cls.kind] = cls

    def to_payload(self) -> dict:
        """Ordered field-name -> codec-value mapping of this snapshot.

        The payload shares its lists with the snapshot; it is meant
        for the encoder, not for mutation.
        """
        payload = {}
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, StateSnapshot):
                nested = {_NESTED_MARKER: value.kind}
                nested.update(value.to_payload())
                value = nested
            payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "StateSnapshot":
        """Rebuild a snapshot from :meth:`to_payload` output."""
        if not isinstance(payload, dict):
            raise CkptError(f"corrupt snapshot: {cls.kind!r} payload is not a map")
        names = _field_names(cls)
        if tuple(payload) != names:
            raise CkptError(
                f"corrupt snapshot: {cls.kind!r} fields {sorted(payload)} "
                f"do not match schema {sorted(names)}"
            )
        return cls(
            **{
                name: _decode_nested(value) if type(value) is dict else value
                for name, value in payload.items()
            }
        )

    def to_bytes(self) -> bytes:
        """Serialize as a self-describing ``repro.ckpt/v1`` blob."""
        return encode_blob(self.kind, self.to_payload())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "StateSnapshot":
        """Parse a blob; on the base class, dispatch by embedded kind.

        Calling this on a concrete subclass additionally demands the
        blob's kind match that subclass.
        """
        expect = cls.kind or None
        kind, payload = decode_blob(blob, expect_kind=expect)
        target = SNAPSHOT_KINDS.get(kind)
        if target is None:
            raise CkptError(f"unknown snapshot kind {kind!r}")
        return target.from_payload(payload)

    def digest(self) -> str:
        """Content digest of the serialized snapshot (checkpoint address)."""
        return blob_digest(self.to_bytes())


# ---------------------------------------------------------------------------
# Core structures: prediction table, TLB, prefetch buffer.


@dataclass
class TableSnapshot(StateSnapshot):
    """A :class:`PredictionTable`'s full contents.

    ``sets`` holds one list per set, each a list of ``[key, payload]``
    pairs in LRU -> MRU order; ``payload`` is a list of ints whose
    meaning the owning mechanism defines (slot values, or a stride
    triple). Diagnostic counters are deliberately absent.
    """

    kind: ClassVar[str] = "table"

    rows: int
    ways: int
    sets: list


def snapshot_table(table: PredictionTable, encode) -> TableSnapshot:
    """Capture ``table``; ``encode(payload) -> list[int]`` per row."""
    return TableSnapshot(
        rows=table.rows,
        ways=table.ways,
        sets=[
            [[key, encode(payload)] for key, payload in table_set.items()]
            for table_set in table._sets
        ],
    )


def restore_table(snap: TableSnapshot, table: PredictionTable, decode) -> None:
    """Overwrite ``table`` with ``snap``; ``decode(list[int]) -> payload``.

    Zeroes the table's diagnostic counters (they are not snapshotted).
    """
    if snap.rows != table.rows or snap.ways != table.ways:
        raise CkptError(
            f"table shape mismatch: snapshot is {snap.rows}r/{snap.ways}w, "
            f"live table is {table.rows}r/{table.ways}w"
        )
    if len(snap.sets) != table.num_sets:
        raise CkptError(
            f"corrupt table snapshot: {len(snap.sets)} sets for "
            f"{table.num_sets}-set table"
        )
    for index, pairs in enumerate(snap.sets):
        if len(pairs) > table.ways:
            raise CkptError(
                f"corrupt table snapshot: set {index} holds {len(pairs)} "
                f"rows, associativity is {table.ways}"
            )
        table_set = table._sets[index]
        table_set.clear()
        for key, payload in pairs:
            if key % table.num_sets != index:
                raise CkptError(
                    f"corrupt table snapshot: key {key} filed under set "
                    f"{index}, maps to set {key % table.num_sets}"
                )
            table_set[key] = decode(payload)
    # The sets were filled behind the table's back; re-derive its O(1)
    # occupancy counter from what the snapshot installed.
    table._occupied = sum(len(s) for s in table._sets)
    table.lookups = 0
    table.tag_hits = 0
    table.row_evictions = 0


def _encode_slots(entry: SlotList) -> list:
    return entry.values()


def _slot_decoder(capacity: int):
    def decode(values: list) -> SlotList:
        if len(values) > capacity:
            raise CkptError(
                f"corrupt snapshot: {len(values)} slot values for "
                f"capacity-{capacity} row"
            )
        row = SlotList(capacity)
        row._slots = list(values)
        return row

    return decode


def _encode_stride(entry: StrideEntry) -> list:
    return [entry.prev_page, entry.stride, int(entry.state)]


def _decode_stride(values: list) -> StrideEntry:
    try:
        state = StrideState(values[2])
    except (ValueError, IndexError) as error:
        raise CkptError(f"corrupt stride row {values!r}: {error}") from error
    return StrideEntry(prev_page=values[0], stride=values[1], state=state)


@dataclass
class TLBSnapshot(StateSnapshot):
    """A :class:`TLB`'s resident pages (per set, LRU -> MRU) and counters."""

    kind: ClassVar[str] = "tlb"

    entries: int
    ways: int
    hits: int
    misses: int
    sets: list


def snapshot_tlb(tlb: TLB) -> TLBSnapshot:
    """Capture a TLB's contents, LRU order, and hit/miss counters."""
    return TLBSnapshot(
        entries=tlb.entries,
        ways=tlb.ways,
        hits=tlb.hits,
        misses=tlb.misses,
        sets=[list(tlb_set) for tlb_set in tlb._sets],
    )


def restore_tlb(snap: TLBSnapshot, tlb: TLB) -> None:
    """Overwrite ``tlb`` with ``snap`` (contents and counters)."""
    if snap.entries != tlb.entries or snap.ways != tlb.ways:
        raise CkptError(
            f"TLB shape mismatch: snapshot is {snap.entries}e/{snap.ways}w, "
            f"live TLB is {tlb.entries}e/{tlb.ways}w"
        )
    if len(snap.sets) != tlb.num_sets:
        raise CkptError(
            f"corrupt TLB snapshot: {len(snap.sets)} sets for "
            f"{tlb.num_sets}-set TLB"
        )
    for index, pages in enumerate(snap.sets):
        if len(pages) > tlb.ways:
            raise CkptError(
                f"corrupt TLB snapshot: set {index} holds {len(pages)} "
                f"pages, associativity is {tlb.ways}"
            )
        tlb_set = tlb._sets[index]
        tlb_set.clear()
        for page in pages:
            if page % tlb.num_sets != index:
                raise CkptError(
                    f"corrupt TLB snapshot: page {page} filed under set "
                    f"{index}, maps to set {page % tlb.num_sets}"
                )
            tlb_set[page] = None
    tlb.hits = snap.hits
    tlb.misses = snap.misses


@dataclass
class BufferSnapshot(StateSnapshot):
    """A :class:`PrefetchBuffer`'s pages (LRU first) and counters."""

    kind: ClassVar[str] = "buffer"

    capacity: int
    hits: int
    lookups: int
    inserted: int
    refreshed: int
    evicted_unused: int
    pages: list


def snapshot_buffer(buffer: PrefetchBuffer) -> BufferSnapshot:
    """Capture a prefetch buffer's contents and cumulative counters."""
    return BufferSnapshot(
        capacity=buffer.capacity,
        hits=buffer.hits,
        lookups=buffer.lookups,
        inserted=buffer.inserted,
        refreshed=buffer.refreshed,
        evicted_unused=buffer.evicted_unused,
        pages=buffer.resident_pages(),
    )


def restore_buffer(snap: BufferSnapshot, buffer: PrefetchBuffer) -> None:
    """Overwrite ``buffer`` with ``snap`` (contents and counters)."""
    if snap.capacity != buffer.capacity:
        raise CkptError(
            f"buffer capacity mismatch: snapshot is {snap.capacity}, "
            f"live buffer is {buffer.capacity}"
        )
    if len(snap.pages) > buffer.capacity:
        raise CkptError(
            f"corrupt buffer snapshot: {len(snap.pages)} pages for "
            f"capacity {snap.capacity}"
        )
    buffer._entries = OrderedDict((page, None) for page in snap.pages)
    buffer.hits = snap.hits
    buffer.lookups = snap.lookups
    buffer.inserted = snap.inserted
    buffer.refreshed = snap.refreshed
    buffer.evicted_unused = snap.evicted_unused


# ---------------------------------------------------------------------------
# Mechanism snapshots: one dataclass per prefetcher family. Every one
# carries the base Prefetcher issue/overhead counters — those feed the
# engines' delta-based statistics, so they are behaviour-bearing.


@dataclass
class MechanismSnapshot(StateSnapshot):
    """Shared base: the :class:`Prefetcher` accounting counters."""

    last_overhead_ops: int
    prefetches_issued: int
    overhead_ops_total: int

    def apply_counters(self, prefetcher: Prefetcher) -> None:
        prefetcher.last_overhead_ops = self.last_overhead_ops
        prefetcher.prefetches_issued = self.prefetches_issued
        prefetcher.overhead_ops_total = self.overhead_ops_total


def _base_counters(prefetcher: Prefetcher) -> dict:
    return {
        "last_overhead_ops": prefetcher.last_overhead_ops,
        "prefetches_issued": prefetcher.prefetches_issued,
        "overhead_ops_total": prefetcher.overhead_ops_total,
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CkptError(message)


@dataclass
class NullSnapshot(MechanismSnapshot):
    """``NullPrefetcher`` — counters only (it never issues anything)."""

    kind: ClassVar[str] = "mech.none"


@dataclass
class SequentialSnapshot(MechanismSnapshot):
    """``SP`` — stateless beyond its configured degree."""

    kind: ClassVar[str] = "mech.sp"

    degree: int


@dataclass
class AdaptiveSequentialSnapshot(MechanismSnapshot):
    """``ASP-seq`` — adaptation counters plus configuration bounds."""

    kind: ClassVar[str] = "mech.asp_seq"

    max_degree: int
    window: int
    raise_above: float
    lower_below: float
    degree: int
    window_misses: int
    window_hits: int


@dataclass
class StrideSnapshot(MechanismSnapshot):
    """``ASP`` — the Chen & Baer RPT contents."""

    kind: ClassVar[str] = "mech.asp"

    table: TableSnapshot


@dataclass
class MarkovSnapshot(MechanismSnapshot):
    """``MP`` — successor table plus the previous-miss register."""

    kind: ClassVar[str] = "mech.mp"

    slots: int
    prev_page: int | None
    table: TableSnapshot


@dataclass
class DistanceSnapshot(MechanismSnapshot):
    """``DP`` — distance table plus prev-page/prev-distance registers."""

    kind: ClassVar[str] = "mech.dp"

    slots: int
    prev_page: int | None
    prev_distance: int | None
    table: TableSnapshot


@dataclass
class PCDistanceSnapshot(MechanismSnapshot):
    """``DP-PC`` — (PC, distance)-keyed table plus history registers."""

    kind: ClassVar[str] = "mech.dp_pc"

    slots: int
    prev_page: int | None
    prev_key: int | None
    table: TableSnapshot


@dataclass
class DistancePairSnapshot(MechanismSnapshot):
    """``DP-2`` — distance-pair-keyed table plus history registers."""

    kind: ClassVar[str] = "mech.dp2"

    slots: int
    prev_page: int | None
    prev_distance: int | None
    prev_key: int | None
    table: TableSnapshot


@dataclass
class RecencySnapshot(MechanismSnapshot):
    """``RP`` — every PTE's stack linkage, in canonical (sorted) order.

    ``entries`` is ``[page, next, prev, on_stack]`` per PTE, sorted by
    page number: page-table dict order never affects RP's behaviour,
    and sorting makes the digest independent of which engine (or which
    chunking of the stream) produced the state.
    """

    kind: ClassVar[str] = "mech.rp"

    variant_three: bool
    top: int | None
    entries: list


def _snapshot_sequential(p: SequentialPrefetcher) -> SequentialSnapshot:
    return SequentialSnapshot(degree=p.degree, **_base_counters(p))


def _restore_sequential(snap: SequentialSnapshot, p: SequentialPrefetcher) -> None:
    _require(
        snap.degree == p.degree,
        f"SP degree mismatch: snapshot k={snap.degree}, instance k={p.degree}",
    )
    snap.apply_counters(p)


def _snapshot_adaptive(p: AdaptiveSequentialPrefetcher) -> AdaptiveSequentialSnapshot:
    return AdaptiveSequentialSnapshot(
        max_degree=p.max_degree,
        window=p.window,
        raise_above=p.raise_above,
        lower_below=p.lower_below,
        degree=p.degree,
        window_misses=p._window_misses,
        window_hits=p._window_hits,
        **_base_counters(p),
    )


def _restore_adaptive(
    snap: AdaptiveSequentialSnapshot, p: AdaptiveSequentialPrefetcher
) -> None:
    _require(
        snap.max_degree == p.max_degree
        and snap.window == p.window
        and snap.raise_above == p.raise_above
        and snap.lower_below == p.lower_below,
        "ASP-seq configuration mismatch between snapshot and instance",
    )
    _require(
        1 <= snap.degree <= snap.max_degree,
        f"corrupt ASP-seq snapshot: degree {snap.degree} outside "
        f"[1, {snap.max_degree}]",
    )
    p.degree = snap.degree
    p._window_misses = snap.window_misses
    p._window_hits = snap.window_hits
    snap.apply_counters(p)


def _snapshot_stride(p: ArbitraryStridePrefetcher) -> StrideSnapshot:
    return StrideSnapshot(
        table=snapshot_table(p.table, _encode_stride), **_base_counters(p)
    )


def _restore_stride(snap: StrideSnapshot, p: ArbitraryStridePrefetcher) -> None:
    restore_table(snap.table, p.table, _decode_stride)
    snap.apply_counters(p)


def _snapshot_markov(p: MarkovPrefetcher) -> MarkovSnapshot:
    return MarkovSnapshot(
        slots=p.slots,
        prev_page=p._prev_page,
        table=snapshot_table(p.table, _encode_slots),
        **_base_counters(p),
    )


def _restore_markov(snap: MarkovSnapshot, p: MarkovPrefetcher) -> None:
    _require(
        snap.slots == p.slots,
        f"MP slots mismatch: snapshot s={snap.slots}, instance s={p.slots}",
    )
    restore_table(snap.table, p.table, _slot_decoder(p.slots))
    p._prev_page = snap.prev_page
    snap.apply_counters(p)


def _snapshot_distance(p: DistancePrefetcher) -> DistanceSnapshot:
    return DistanceSnapshot(
        slots=p.slots,
        prev_page=p._prev_page,
        prev_distance=p._prev_distance,
        table=snapshot_table(p.table, _encode_slots),
        **_base_counters(p),
    )


def _restore_distance(snap: DistanceSnapshot, p: DistancePrefetcher) -> None:
    _require(
        snap.slots == p.slots,
        f"DP slots mismatch: snapshot s={snap.slots}, instance s={p.slots}",
    )
    restore_table(snap.table, p.table, _slot_decoder(p.slots))
    p._prev_page = snap.prev_page
    p._prev_distance = snap.prev_distance
    snap.apply_counters(p)


def _snapshot_pc_distance(p: PCDistancePrefetcher) -> PCDistanceSnapshot:
    return PCDistanceSnapshot(
        slots=p.slots,
        prev_page=p._prev_page,
        prev_key=p._prev_key,
        table=snapshot_table(p.table, _encode_slots),
        **_base_counters(p),
    )


def _restore_pc_distance(snap: PCDistanceSnapshot, p: PCDistancePrefetcher) -> None:
    _require(
        snap.slots == p.slots,
        f"DP-PC slots mismatch: snapshot s={snap.slots}, instance s={p.slots}",
    )
    restore_table(snap.table, p.table, _slot_decoder(p.slots))
    p._prev_page = snap.prev_page
    p._prev_key = snap.prev_key
    snap.apply_counters(p)


def _snapshot_distance_pair(p: DistancePairPrefetcher) -> DistancePairSnapshot:
    return DistancePairSnapshot(
        slots=p.slots,
        prev_page=p._prev_page,
        prev_distance=p._prev_distance,
        prev_key=p._prev_key,
        table=snapshot_table(p.table, _encode_slots),
        **_base_counters(p),
    )


def _restore_distance_pair(
    snap: DistancePairSnapshot, p: DistancePairPrefetcher
) -> None:
    _require(
        snap.slots == p.slots,
        f"DP-2 slots mismatch: snapshot s={snap.slots}, instance s={p.slots}",
    )
    restore_table(snap.table, p.table, _slot_decoder(p.slots))
    p._prev_page = snap.prev_page
    p._prev_distance = snap.prev_distance
    p._prev_key = snap.prev_key
    snap.apply_counters(p)


def _snapshot_recency(p: RecencyPrefetcher) -> RecencySnapshot:
    entries = [
        [pte.page, pte.next, pte.prev, pte.on_stack]
        for pte in sorted(
            p.page_table._entries.values(), key=lambda pte: pte.page
        )
    ]
    return RecencySnapshot(
        variant_three=p.variant_three,
        top=p.stack.top,
        entries=entries,
        **_base_counters(p),
    )


def _restore_recency(snap: RecencySnapshot, p: RecencyPrefetcher) -> None:
    _require(
        snap.variant_three == p.variant_three,
        "RP variant mismatch between snapshot and instance",
    )
    table: dict[int, PageTableEntry] = {}
    for record in snap.entries:
        if len(record) != 4:
            raise CkptError(f"corrupt RP snapshot: malformed PTE {record!r}")
        page, nxt, prev, on_stack = record
        if page in table:
            raise CkptError(f"corrupt RP snapshot: duplicate PTE for page {page}")
        table[page] = PageTableEntry(page, next=nxt, prev=prev, on_stack=bool(on_stack))
    _require(
        snap.top is None or snap.top in table,
        f"corrupt RP snapshot: stack top {snap.top} has no PTE",
    )
    p.page_table._entries = table
    p.stack._top = snap.top
    p.stack.pointer_writes = 0
    snap.apply_counters(p)


_FAMILIES: dict[type, tuple] = {
    NullPrefetcher: (
        NullSnapshot,
        lambda p: NullSnapshot(**_base_counters(p)),
        lambda snap, p: snap.apply_counters(p),
    ),
    SequentialPrefetcher: (SequentialSnapshot, _snapshot_sequential, _restore_sequential),
    AdaptiveSequentialPrefetcher: (
        AdaptiveSequentialSnapshot,
        _snapshot_adaptive,
        _restore_adaptive,
    ),
    ArbitraryStridePrefetcher: (StrideSnapshot, _snapshot_stride, _restore_stride),
    MarkovPrefetcher: (MarkovSnapshot, _snapshot_markov, _restore_markov),
    DistancePrefetcher: (DistanceSnapshot, _snapshot_distance, _restore_distance),
    PCDistancePrefetcher: (
        PCDistanceSnapshot,
        _snapshot_pc_distance,
        _restore_pc_distance,
    ),
    DistancePairPrefetcher: (
        DistancePairSnapshot,
        _snapshot_distance_pair,
        _restore_distance_pair,
    ),
    RecencyPrefetcher: (RecencySnapshot, _snapshot_recency, _restore_recency),
}


def snapshot_prefetcher(prefetcher: Prefetcher) -> MechanismSnapshot:
    """Capture any supported mechanism's full behaviour-bearing state.

    Dispatch is on exact type (mirroring the fast engine's support
    check): a subclass with extra state must register its own family.
    """
    family = _FAMILIES.get(type(prefetcher))
    if family is None:
        raise CkptError(
            f"no snapshot support for {type(prefetcher).__name__}"
        )
    return family[1](prefetcher)


def restore_prefetcher(snap: MechanismSnapshot, prefetcher: Prefetcher) -> None:
    """Overwrite ``prefetcher``'s state with ``snap``.

    The snapshot kind must match the instance's exact type, and the
    captured configuration must match the instance's; mismatches raise
    :class:`~repro.errors.CkptError`. Diagnostic counters excluded from
    snapshots (table lookup/hit/eviction tallies, RP pointer-write
    tally) are zeroed.
    """
    family = _FAMILIES.get(type(prefetcher))
    if family is None:
        raise CkptError(f"no snapshot support for {type(prefetcher).__name__}")
    expected, _, restore = family
    if type(snap) is not expected:
        raise CkptError(
            f"snapshot kind mismatch: {type(snap).__name__} cannot restore "
            f"a {type(prefetcher).__name__}"
        )
    restore(snap, prefetcher)
