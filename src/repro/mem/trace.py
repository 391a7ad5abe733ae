"""Trace containers: reference traces and TLB miss traces.

Two containers flow through the simulators:

- :class:`ReferenceTrace` — the page-granular, run-length-encoded
  reference stream a workload model produces (the analogue of a
  SimpleScalar/Shade address trace).
- :class:`MissTrace` — the stream of TLB misses the TLB filter produces,
  which is the *only* input the prefetch engines see (the paper places
  all prefetch logic after the TLB).

Both are backed by parallel :mod:`numpy` arrays for compactness, with
list-based iteration helpers for the hot simulation loops.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.mem.reference import ReferenceRun

#: Sentinel used in :attr:`MissTrace.evicted` when a miss evicted nothing
#: (the TLB still had free entries).
NO_EVICTION = -1


class ReferenceTrace:
    """An immutable, run-length-encoded page reference stream.

    Attributes:
        pcs: int64 array of per-run program counters.
        pages: int64 array of per-run virtual page numbers.
        counts: int64 array of per-run reference counts (all >= 1).
        name: human-readable workload identifier (used in reports).
    """

    __slots__ = ("pcs", "pages", "counts", "name", "_total", "_content_key")

    def __init__(
        self,
        pcs: Iterable[int],
        pages: Iterable[int],
        counts: Iterable[int],
        name: str = "",
    ) -> None:
        self.pcs = np.asarray(list(pcs) if not isinstance(pcs, np.ndarray) else pcs, dtype=np.int64)
        self.pages = np.asarray(
            list(pages) if not isinstance(pages, np.ndarray) else pages, dtype=np.int64
        )
        self.counts = np.asarray(
            list(counts) if not isinstance(counts, np.ndarray) else counts, dtype=np.int64
        )
        if not (len(self.pcs) == len(self.pages) == len(self.counts)):
            raise TraceError(
                "pcs, pages and counts must have equal length "
                f"({len(self.pcs)}, {len(self.pages)}, {len(self.counts)})"
            )
        if len(self.counts) and int(self.counts.min()) < 1:
            raise TraceError("all run counts must be >= 1")
        self.name = name
        self._total = int(self.counts.sum()) if len(self.counts) else 0
        self._content_key: str | None = None

    @classmethod
    def from_runs(cls, runs: Iterable[ReferenceRun], name: str = "") -> "ReferenceTrace":
        """Build a trace from :class:`ReferenceRun` objects."""
        pcs: list[int] = []
        pages: list[int] = []
        counts: list[int] = []
        for run in runs:
            pcs.append(run.pc)
            pages.append(run.page)
            counts.append(run.count)
        return cls(pcs, pages, counts, name=name)

    @property
    def num_runs(self) -> int:
        """Number of RLE runs in the trace."""
        return len(self.pages)

    @property
    def total_references(self) -> int:
        """Total memory references represented (sum of run counts)."""
        return self._total

    @property
    def footprint_pages(self) -> int:
        """Number of distinct pages touched."""
        return int(len(np.unique(self.pages))) if len(self.pages) else 0

    def __len__(self) -> int:
        return self.num_runs

    def __iter__(self) -> Iterator[ReferenceRun]:
        for pc, page, count in zip(
            self.pcs.tolist(), self.pages.tolist(), self.counts.tolist()
        ):
            yield ReferenceRun(pc, page, count)

    def as_lists(self) -> tuple[list[int], list[int], list[int]]:
        """Return ``(pcs, pages, counts)`` as plain lists for hot loops."""
        return self.pcs.tolist(), self.pages.tolist(), self.counts.tolist()

    def content_key(self) -> str:
        """Stable digest of the trace contents (name excluded).

        Two traces with identical run data share a key regardless of how
        they were built, which lets ad-hoc traces participate in the
        process-wide miss-stream cache without identity tricks. The
        digest is computed once and memoized (traces are immutable).
        """
        if self._content_key is None:
            digest = hashlib.sha256()
            for array in (self.pcs, self.pages, self.counts):
                digest.update(np.ascontiguousarray(array).tobytes())
            self._content_key = digest.hexdigest()[:24]
        return self._content_key

    def concatenated_with(self, other: "ReferenceTrace", name: str = "") -> "ReferenceTrace":
        """Return a new trace that plays this trace, then ``other``."""
        return ReferenceTrace(
            np.concatenate([self.pcs, other.pcs]),
            np.concatenate([self.pages, other.pages]),
            np.concatenate([self.counts, other.counts]),
            name=name or f"{self.name}+{other.name}",
        )

    def __repr__(self) -> str:
        return (
            f"ReferenceTrace(name={self.name!r}, runs={self.num_runs}, "
            f"references={self.total_references}, footprint={self.footprint_pages}p)"
        )


@dataclass(frozen=True)
class MissTrace:
    """The TLB miss stream: one record per TLB miss, in order.

    This is the complete interface between the TLB and every prefetch
    mechanism (all of which sit after the TLB, per the paper's Figure 1).

    Attributes:
        pcs: PC of the instruction whose reference missed.
        pages: virtual page number that missed.
        evicted: page evicted from the TLB by this fill, or
            :data:`NO_EVICTION`. RP pushes this page onto its recency
            stack.
        ref_index: 0-based global reference number at which the miss
            occurred (used by the cycle-timing model to space misses).
        total_references: total references the TLB observed, including
            hits; the denominator of the TLB miss rate.
        warmup_misses: number of leading misses that fall inside the
            warm-up window and are excluded from accuracy accounting.
        name: workload identifier.
        tlb_label: short description of the filtering TLB configuration.
    """

    pcs: np.ndarray
    pages: np.ndarray
    evicted: np.ndarray
    ref_index: np.ndarray
    total_references: int
    warmup_misses: int = 0
    name: str = ""
    tlb_label: str = ""
    _lists: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        lengths = {len(self.pcs), len(self.pages), len(self.evicted), len(self.ref_index)}
        if len(lengths) != 1:
            raise TraceError(f"miss trace arrays must have equal length, got {lengths}")
        if not 0 <= self.warmup_misses <= len(self.pages):
            raise TraceError(
                f"warmup_misses {self.warmup_misses} outside [0, {len(self.pages)}]"
            )

    @property
    def num_misses(self) -> int:
        """Total number of TLB misses (including warm-up misses)."""
        return len(self.pages)

    @property
    def measured_misses(self) -> int:
        """Misses counted toward prediction accuracy (post warm-up)."""
        return self.num_misses - self.warmup_misses

    @property
    def miss_rate(self) -> float:
        """TLB misses per reference (the paper's ``m_i``)."""
        if self.total_references == 0:
            return 0.0
        return self.num_misses / self.total_references

    def as_lists(self) -> tuple[list[int], list[int], list[int]]:
        """Return the replay lists ``(pcs, pages, evicted)``, memoized.

        ``ref_index`` is left out: only the cycle model reads it, and it
        converts the array itself rather than pinning a fourth list.
        """
        if not self._lists:
            self._lists["value"] = (
                self.pcs.tolist(),
                self.pages.tolist(),
                self.evicted.tolist(),
            )
        return self._lists["value"]

    def __len__(self) -> int:
        return self.num_misses

    def __repr__(self) -> str:
        return (
            f"MissTrace(name={self.name!r}, tlb={self.tlb_label!r}, "
            f"misses={self.num_misses}, refs={self.total_references}, "
            f"miss_rate={self.miss_rate:.4f})"
        )
