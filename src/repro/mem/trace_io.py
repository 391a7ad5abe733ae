"""Persistence for reference and miss traces (NumPy ``.npz`` format).

Two uses:

- **Bring your own trace.** The synthetic workload models stand in for
  the paper's SimpleScalar traces, but nothing in the simulators cares
  where a trace came from: convert any page-level reference stream
  (e.g. from a Valgrind/Pin/QEMU plugin) into the RLE ``.npz`` layout
  and every mechanism, sweep and figure harness runs on it unchanged —
  see ``repro-tlb run --trace-file``.
- **Cache expensive intermediates.** Miss traces embed the TLB
  configuration that produced them, so a saved filter result can be
  replayed later without re-filtering.

The format is versioned; loading rejects unknown versions rather than
guessing.

Files are zip archives of ``.npy`` members, the layout
:func:`numpy.savez_compressed` writes, but deflated at zlib level 1
rather than numpy's level 6. A full-scale Table 2 sweep writes ~46 MB
of ``int64`` miss streams into its store. Level 1 writes them ~4x
faster than level 6 (0.42 s against 1.7 s) into files ~40% larger
(8.1 MB against 5.8 MB); storing them uncompressed would take 46 MB.
:func:`numpy.load` reads every level, so files written at level 6
load unchanged.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.mem.trace import MissTrace, ReferenceTrace

_FORMAT_VERSION = 1
_REFERENCE_KIND = "reference-trace"
_MISS_KIND = "miss-trace"
_COMPRESSLEVEL = 1


def save_reference_trace(trace: ReferenceTrace, path: str | Path) -> Path:
    """Write a reference trace to ``path`` (``.npz``); returns the path."""
    return _write_npz(
        path,
        kind=np.array(_REFERENCE_KIND),
        version=np.array(_FORMAT_VERSION),
        name=np.array(trace.name),
        pcs=trace.pcs,
        pages=trace.pages,
        counts=trace.counts,
    )


def load_reference_trace(path: str | Path) -> ReferenceTrace:
    """Read a reference trace written by :func:`save_reference_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_header(data, _REFERENCE_KIND, path)
        return ReferenceTrace(
            data["pcs"], data["pages"], data["counts"], name=str(data["name"])
        )


def save_miss_trace(miss_trace: MissTrace, path: str | Path) -> Path:
    """Write a miss trace (with its TLB provenance) to ``path``."""
    return _write_npz(
        path,
        kind=np.array(_MISS_KIND),
        version=np.array(_FORMAT_VERSION),
        name=np.array(miss_trace.name),
        tlb_label=np.array(miss_trace.tlb_label),
        pcs=miss_trace.pcs,
        pages=miss_trace.pages,
        evicted=miss_trace.evicted,
        ref_index=miss_trace.ref_index,
        total_references=np.array(miss_trace.total_references),
        warmup_misses=np.array(miss_trace.warmup_misses),
    )


def load_miss_trace(path: str | Path) -> MissTrace:
    """Read a miss trace written by :func:`save_miss_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_header(data, _MISS_KIND, path)
        return MissTrace(
            pcs=data["pcs"],
            pages=data["pages"],
            evicted=data["evicted"],
            ref_index=data["ref_index"],
            total_references=int(data["total_references"]),
            warmup_misses=int(data["warmup_misses"]),
            name=str(data["name"]),
            tlb_label=str(data["tlb_label"]),
        )


def _write_npz(path: str | Path, **arrays: np.ndarray) -> Path:
    """Write ``arrays`` as ``<name>.npy`` members of a deflated zip.

    Like :func:`numpy.savez_compressed`, ``.npz`` is appended to a path
    that does not already end in it; returns the path written.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=_COMPRESSLEVEL,
        allowZip64=True,
    ) as archive:
        for name, array in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)
    return path


def _check_header(data: np.lib.npyio.NpzFile, expected_kind: str, path: str | Path) -> None:
    try:
        kind = str(data["kind"])
        version = int(data["version"])
    except KeyError as exc:
        raise TraceError(f"{path}: not a repro trace file (missing {exc})") from exc
    if kind != expected_kind:
        raise TraceError(f"{path}: expected a {expected_kind}, found {kind}")
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported trace format version {version} "
            f"(this library reads version {_FORMAT_VERSION})"
        )
