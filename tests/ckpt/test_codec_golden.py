"""Golden ``repro.ckpt/v1`` blobs: the wire format, frozen on disk.

Checkpoints are content-addressed, so the encoder's exact output is
part of the storage contract: a byte that moves invalidates every
stored snapshot, every ``state_digest`` in a continuation or session
record, and every checkpoint address. ``tests/golden/ckpt_v1_blobs.json``
pins the length and :func:`~repro.ckpt.codec.blob_digest` of a fixed
set of blobs covering every snapshot kind (each prefetcher family, the
prediction table, TLB, prefetch buffer and replay session) plus raw
payloads exercising every value tag: DP-PC keys packed beyond 64 bits,
negative and huge integers, floats, and nested maps.

The states are built from a seeded pseudo-random miss stream, so they
are independent of the workload generators. The file only changes with
a deliberate format version bump; an encoder optimization must match it
byte for byte. Regenerate (for a new schema only) with::

    PYTHONPATH=src python tests/ckpt/test_codec_golden.py --regen
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import (
    CKPT_SCHEMA,
    SNAPSHOT_KINDS,
    ReplaySession,
    StateSnapshot,
    blob_digest,
    decode_blob,
    encode_blob,
    snapshot_buffer,
    snapshot_prefetcher,
    snapshot_table,
    snapshot_tlb,
)
from repro.mem.trace import MissTrace
from repro.prefetch.factory import create_prefetcher
from repro.tlb.prefetch_buffer import PrefetchBuffer
from repro.tlb.tlb import TLB

GOLDEN_FILE = Path(__file__).parent.parent / "golden" / "ckpt_v1_blobs.json"

#: PCs up to 47 bits: DP-PC packs ``pc << 24``, so its keys reach 71 bits.
_PCS = (0x400000, 0x401A30, 0x7FFF_FFFF_F000, 0x5555_5555_5554)


def _miss_stream(seed: int, refs: int = 3000) -> list[tuple[int, int, int]]:
    """``(pc, page, evicted)`` misses of a small TLB over mixed strides."""
    rng = random.Random(seed)
    tlb = TLB(entries=16, ways=0)
    page = 1000
    misses = []
    for _ in range(refs):
        roll = rng.random()
        if roll < 0.55:
            page += rng.choice((1, 1, 2, -1, 3))
        elif roll < 0.85:
            page += rng.randint(-40, 40)
        else:
            page = rng.randint(0, 600)
        page = max(page, 0)
        if not tlb.probe(page):
            misses.append((rng.choice(_PCS), page, tlb.fill(page) or -1))
    return misses


_MISSES = _miss_stream(2002)

#: (label, factory name, params) per prefetcher case. Tables are small
#: so the stream overflows them (conflict evictions, LRU churn).
_MECHANISMS = [
    ("none", "none", {}),
    ("sp", "SP", {"degree": 2}),
    ("sp_adaptive", "SP-adaptive", {}),
    ("asp", "ASP", {"rows": 16, "ways": 2}),
    ("mp", "MP", {"rows": 32, "slots": 2}),
    ("dp", "DP", {"rows": 32, "slots": 2}),
    ("dp_fa", "DP", {"rows": 64, "ways": 0}),
    ("dp_pc", "DP-PC", {"rows": 32, "ways": 4}),
    ("dp2", "DP-2", {"rows": 32, "ways": 2}),
    ("rp", "RP", {}),
    ("rp_variant_three", "RP", {"variant_three": 1}),
]


def _trained(name: str, params: dict, misses=_MISSES):
    prefetcher = create_prefetcher(name, **params)
    for index, (pc, page, evicted) in enumerate(misses):
        prefetcher.on_miss(pc, page, evicted, index % 7 == 0)
    return prefetcher


def _session(name: str, params: dict, stop: int) -> StateSnapshot:
    trace = MissTrace(
        pcs=np.array([pc for pc, _, _ in _MISSES], dtype=np.int64),
        pages=np.array([page for _, page, _ in _MISSES], dtype=np.int64),
        evicted=np.array([ev for _, _, ev in _MISSES], dtype=np.int64),
        ref_index=np.arange(len(_MISSES), dtype=np.int64),
        total_references=3000,
        warmup_misses=50,
        name="golden",
        tlb_label="16e-FA",
    )
    session = ReplaySession(
        trace, create_prefetcher(name, **params), buffer_entries=16
    )
    session.advance(stop)
    return session.snapshot()


def _raw_payload():
    return {
        "ints": [0, 1, -1, 63, -64, 64, -65, 127, 128, 2**31, -(2**31), 2**63 - 1,
                 2**64, -(2**64) - 1, 2**200, -(2**200)],
        "floats": [0.0, -0.0, 1.0, -2.5, 1e-300, 3.141592653589793, float("inf"),
                   float("-inf")],
        "nested": {"a": {"b": {"c": [None, True, False, "x", b"\x00\xff"]}},
                   "": {}, "list": [[], [[]], {"k": -7}]},
        "text": "héllo · wörld",
        "bytes": bytes(range(256)),
        "tuple": (1, (2, 3)),
    }


def _cases() -> dict[str, StateSnapshot | tuple[str, object]]:
    """label -> snapshot, or ``(kind, payload)`` for a raw blob."""
    cases: dict[str, StateSnapshot | tuple[str, object]] = {}
    for label, name, params in _MECHANISMS:
        cases[f"mech.{label}"] = snapshot_prefetcher(_trained(name, params))
    cases["table.dp"] = snapshot_table(
        _trained("DP", {"rows": 32, "slots": 2}).table, lambda row: row.values()
    )
    for label, entries, ways in (("fa", 32, 0), ("4way", 64, 4)):
        tlb = TLB(entries=entries, ways=ways)
        for _, page, _ in _MISSES:
            tlb.access(page)
        cases[f"tlb.{label}"] = snapshot_tlb(tlb)
    buffer = PrefetchBuffer(16)
    for index, (_, page, _) in enumerate(_MISSES):
        if index % 3:
            buffer.insert(page + 1)
        else:
            buffer.lookup_remove(page)
    cases["buffer"] = snapshot_buffer(buffer)
    cases["session.dp"] = _session("DP", {"rows": 32}, 700)
    cases["session.rp"] = _session("RP", {}, 1100)
    cases["session.mp_done"] = _session("MP", {"rows": 32}, None)
    cases["raw.values"] = ("fuzz", _raw_payload())
    cases["raw.empty"] = ("k", None)
    return cases


def _blob(case) -> bytes:
    if isinstance(case, StateSnapshot):
        return case.to_bytes()
    return encode_blob(*case)


def _record(case) -> dict:
    blob = _blob(case)
    kind = decode_blob(blob)[0]
    return {"kind": kind, "bytes": len(blob), "digest": blob_digest(blob)}


def _load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


CASES = _cases()


def test_golden_file_matches_case_set():
    golden = _load_golden()
    assert golden["schema"] == CKPT_SCHEMA
    assert sorted(golden["blobs"]) == sorted(CASES)


def test_every_snapshot_kind_is_covered():
    kinds = {_record(case)["kind"] for case in CASES.values()}
    assert set(SNAPSHOT_KINDS) <= kinds


def test_dp_pc_keys_exceed_64_bits():
    table = CASES["mech.dp_pc"].table
    assert max(key for table_set in table.sets for key, _ in table_set) >= 2**64


@pytest.mark.parametrize("label", sorted(CASES))
def test_blob_bytes_match_golden(label):
    assert _record(CASES[label]) == _load_golden()["blobs"][label]


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_blob_decodes_and_reencodes_identically(label):
    case = CASES[label]
    blob = _blob(case)
    kind, payload = decode_blob(blob)
    assert encode_blob(kind, payload) == blob
    if isinstance(case, StateSnapshot):
        restored = StateSnapshot.from_bytes(blob)
        assert restored == case
        assert restored.to_bytes() == blob


def _regen() -> None:
    blobs = {label: _record(case) for label, case in sorted(CASES.items())}
    GOLDEN_FILE.write_text(
        json.dumps({"schema": CKPT_SCHEMA, "blobs": blobs}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(blobs)} blob records to {GOLDEN_FILE}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        _regen()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
