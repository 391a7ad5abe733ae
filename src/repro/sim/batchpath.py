"""The compiled replay engine: a native batch kernel and generated live loops.

:func:`repro.sim.two_phase.replay_prefetcher` is the *reference*
replay: it drives live :class:`~repro.prefetch.base.Prefetcher` and
:class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` objects miss by
miss. This module is the *compiled* replay, with two entry points:

- :func:`replay_batch` replays N *fresh* mechanisms over one stream
  (a sweep's many specs per stream). Every distinct request runs
  through one hand-written C kernel, ``batchkernel.c``, called with
  :mod:`ctypes` over numpy buffers. Geometry, slots, buffer capacity,
  clamp and warm-up are runtime arguments, so the library is compiled
  once per machine (``gcc -O2 -shared -fPIC``, on first use) and
  cached under a name carrying the sha256 of its source and flags,
  in this package's ``__pycache__`` or, when that is not writable, a
  private per-user directory. The planner hands the kernel dense key
  ids computed with numpy, never per-miss Python. Exact-duplicate
  requests share one run. Without a working compiler, or for a
  stream the kernel refuses (a page beyond +-2**60), each distinct
  request replays through a :class:`LiveSlot` instead, with one
  logged warning; the rows are the same.

- :class:`LiveSlot` holds *one* mechanism and its buffer in the form
  of a generated Python loop: the slot's constants (rows, ways,
  slots, buffer capacity, clamp, warm-up boundary) are inlined, the
  source is ``compile()``d once per shape and memoized. It seeds from
  a :mod:`repro.ckpt` mechanism (and buffer) snapshot, replays any
  entry range ``[start, stop)``, and hands its state back as
  snapshots. :func:`replay_live` (warm-started single replays) and
  :class:`~repro.ckpt.session.ReplaySession` are built on it.

The contract is **bit-identical statistics** (and, for live slots,
canonical snapshot digests) to the reference engine, enforced by
``tests/differential/`` (curated grid, fuzzing, kernel edge cases,
warm start and mid-stream sessions, each batch case on the native
kernel and on the forced Python fallback) and the golden files.
Dispatch is on exact type: user subclasses may override behavior the
loops do not model, so they always take the reference engine.
"""

from __future__ import annotations

import ast
import ctypes
import dataclasses
import hashlib
import logging
import os
import platform
import stat
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np

from repro.ckpt.snapshots import (
    BufferSnapshot,
    MechanismSnapshot,
    TableSnapshot,
    restore_prefetcher,
    snapshot_prefetcher,
)
from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher, pack_distance_pair
from repro.core.pc_distance import PCDistancePrefetcher, pack_pc_distance
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.obs.tracing import annotate
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher

#: Families that keep their state in a prediction table.
_TABLE_FAMILIES = ("stride", "markov", "distance", "pcdist", "distpair")

#: Mechanism classes the compiled engine has a loop for. Dispatch is
#: on *exact* type: user subclasses take the reference engine.
_COMPILED_TYPES = (
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
    """True when the compiled engine has a loop for this mechanism."""
    return type(prefetcher) in _COMPILED_TYPES


def is_fresh(prefetcher: Prefetcher) -> bool:
    """True when the instance carries no trained state or statistics."""
    return (
        not prefetcher.prefetches_issued
        and not prefetcher.overhead_ops_total
        and not prefetcher.has_prediction_state()
    )


class _SlotPlan:
    """One requested replay: mechanism config + buffer geometry."""

    __slots__ = ("label", "family", "config", "cap", "clamp")

    def __init__(self, label, family, config, cap, clamp):
        self.label = label
        self.family = family
        self.config = config
        self.cap = cap
        self.clamp = clamp


def _plan(prefetcher: Prefetcher, cap: int, clamp: int) -> _SlotPlan:
    if not supports(prefetcher):
        raise ConfigurationError(
            f"compiled engine has no replay loop for {type(prefetcher).__name__}; "
            "use engine='reference'"
        )
    kind = type(prefetcher)
    label = prefetcher.label
    if kind is NullPrefetcher:
        return _SlotPlan(label, "none", (), cap, clamp)
    if kind is SequentialPrefetcher:
        return _SlotPlan(label, "seq", (prefetcher.degree,), cap, clamp)
    if kind is AdaptiveSequentialPrefetcher:
        return _SlotPlan(
            label,
            "aseq",
            (
                prefetcher.max_degree,
                prefetcher.window,
                prefetcher.raise_above,
                prefetcher.lower_below,
            ),
            cap,
            clamp,
        )
    if kind is RecencyPrefetcher:
        return _SlotPlan(label, "recency", (prefetcher.variant_three,), cap, clamp)
    table = prefetcher.table
    if kind is ArbitraryStridePrefetcher:
        return _SlotPlan(label, "stride", (table.rows, table.ways), cap, clamp)
    slots = prefetcher.slots
    family = {
        MarkovPrefetcher: "markov",
        DistancePrefetcher: "distance",
        PCDistancePrefetcher: "pcdist",
        DistancePairPrefetcher: "distpair",
    }[kind]
    return _SlotPlan(label, family, (table.rows, table.ways, slots), cap, clamp)


# ---------------------------------------------------------------------------
# Code generation: one loop per live slot shape, constants inlined,
# slot names suffixed with the slot index 0. Templates use @K@/@CONST@
# markers substituted with plain str.replace (no str.format — the code
# itself is full of braces and modulo operators), and
# @PROBE@/@INSERT:var@/@PREFETCH@ marker lines spliced with the shared
# buffer blocks at the marker's indentation.
# ---------------------------------------------------------------------------


def _probe_lines(pad: str, k: str, warmup: int) -> list[str]:
    """Buffer probe: remove on hit, count after warm-up.

    Buffer values are always ``None``, so one ``pop`` with a non-None
    default replaces the ``in`` + ``del`` double hash lookup.
    """
    lines = [
        f"{pad}if bp{k}(page, 0) is None:",
        f"{pad}    bn{k} -= 1",
    ]
    if warmup:
        lines += [
            f"{pad}    if index >= {warmup}:",
            f"{pad}        pb{k} += 1",
        ]
    else:
        lines.append(f"{pad}    pb{k} += 1")
    return lines


def _insert_lines(pad: str, k: str, var: str, cap: int) -> list[str]:
    """Buffer install: refresh-on-duplicate, evict-LRU accounting."""
    return [
        f"{pad}if bp{k}({var}, 0) is None:",
        f"{pad}    buf{k}[{var}] = None",
        f"{pad}    rf{k} += 1",
        f"{pad}else:",
        f"{pad}    if bn{k} >= {cap}:",
        f"{pad}        del buf{k}[next(iter(buf{k}))]",
        f"{pad}        ev{k} += 1",
        f"{pad}    else:",
        f"{pad}        bn{k} += 1",
        f"{pad}    buf{k}[{var}] = None",
        f"{pad}    ins{k} += 1",
    ]


def _prefetch_lines(pad: str, k: str, cap: int, clamp: int) -> list[str]:
    """Clamp the materialized pf{k} list and install every target."""
    lines = [f"{pad}if pf{k}:"]
    if clamp:
        lines += [
            f"{pad}    if len(pf{k}) > {clamp}:",
            f"{pad}        pf{k} = pf{k}[:{clamp}]",
        ]
    lines.append(f"{pad}    for tg{k} in pf{k}:")
    lines.extend(_insert_lines(pad + "        ", k, f"tg{k}", cap))
    return lines


def _render(out: list[str], template: str, base: str, k: str, subs: dict,
            warmup: int, cap: int, clamp: int):
    """Splice a body template into ``out`` at indentation ``base``."""
    text = template.replace("@K@", k)
    for marker, value in subs.items():
        text = text.replace(marker, str(value))
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        pad = base + raw[: len(raw) - len(raw.lstrip())]
        if stripped == "@PROBE@":
            out.extend(_probe_lines(pad, k, warmup))
        elif stripped.startswith("@INSERT:"):
            var = stripped[len("@INSERT:"):-1].replace("@K@", k)
            out.extend(_insert_lines(pad, k, var, cap))
        elif stripped == "@PREFETCH@":
            out.extend(_prefetch_lines(pad, k, cap, clamp))
        else:
            out.append(pad + stripped if not raw.startswith(" ") else pad + raw.lstrip())


_SEQ_BODY = """\
@PROBE@
iss@K@ += @DEGREE@
"""

_ASEQ_BODY = """\
hit@K@ = bp@K@(page, 0) is None
if hit@K@:
    bn@K@ -= 1
@HIT_COUNT@
wm@K@ += 1
wh@K@ += hit@K@
if wm@K@ >= @WINDOW@:
    hr@K@ = wh@K@ / wm@K@
    if hr@K@ > @RAISE@:
        deg@K@ = min(deg@K@ * 2, @MAXD@)
    elif hr@K@ < @LOWER@:
        deg@K@ = max(deg@K@ // 2, 1)
    wm@K@ = 0
    wh@K@ = 0
iss@K@ += deg@K@
for of@K@ in range(1, @EFF@ + 1):
    t@K@ = page + of@K@
    @INSERT:t@K@@
"""

_STRIDE_FSM = """\
ns@K@ = page - @PREV@
un@K@ = ns@K@ == @STRIDE@
s@K@ = @STATE@
if s@K@ == 0:
    if un@K@:
        @SET_STATE@ = 2
    else:
        @SET_STATE@ = 1
        @SET_STRIDE@ = ns@K@
elif s@K@ == 1:
    if un@K@:
        @SET_STATE@ = 2
    else:
        @SET_STATE@ = 3
        @SET_STRIDE@ = ns@K@
elif s@K@ == 2:
    if not un@K@:
        @SET_STATE@ = 0
else:
    if un@K@:
        @SET_STATE@ = 1
    else:
        @SET_STRIDE@ = ns@K@
@SET_PREV@ = page
if @STATE@ == 2:
    sv@K@ = @STRIDE@
    if sv@K@:
        t@K@ = page + sv@K@
        if t@K@ >= 0:
            iss@K@ += 1
            @INSERT:t@K@@
"""

_SUCCESSOR_UPDATE = """\
if not sc@K@ or sc@K@[0] != @VALUE@:
    if @VALUE@ in sc@K@:
        sc@K@.remove(@VALUE@)
    sc@K@.insert(0, @VALUE@)
    if len(sc@K@) > @SLOTS@:
        sc@K@.pop()
"""

# Specialized MRU updates for tiny slot counts (the paper's common
# cases). For 2 slots, "move/insert @VALUE@ to the front and truncate"
# always ends as [@VALUE@, old_front] when 2 entries exist — whether
# @VALUE@ was at index 1 or absent — so the scan/remove/insert/pop
# sequence collapses to two subscript stores.
_SUCCESSOR_UPDATE_1 = """\
if not sc@K@:
    sc@K@.append(@VALUE@)
elif sc@K@[0] != @VALUE@:
    sc@K@[0] = @VALUE@
"""

_SUCCESSOR_UPDATE_2 = """\
if not sc@K@:
    sc@K@.append(@VALUE@)
elif sc@K@[0] != @VALUE@:
    if len(sc@K@) == 2:
        sc@K@[1] = sc@K@[0]
        sc@K@[0] = @VALUE@
    else:
        sc@K@.insert(0, @VALUE@)
"""


def _successor_update(slots: int) -> str:
    """Pick the MRU-update template for a slot count."""
    if slots == 1:
        return _SUCCESSOR_UPDATE_1
    if slots == 2:
        return _SUCCESSOR_UPDATE_2
    return _SUCCESSOR_UPDATE.replace("@SLOTS@", str(slots))


def _mod(expr: str, n: int) -> str:
    """Row-index expression; ``&`` for power-of-two table sizes.

    Python's infinite two's complement makes ``x & (n-1)`` equal
    ``x % n`` for any int ``x`` (negative distances included) whenever
    ``n`` is a power of two — and it skips the division.
    """
    if n & (n - 1) == 0:
        return f"{expr} & {n - 1}"
    return f"{expr} % {n}"


def _counters_setup(k):
    # bp{k} pre-binds the buffer's bound ``pop``: the dict object never
    # changes, and probes/installs are the hottest calls in the loop.
    return [
        f"buf{k} = {{}}",
        f"bp{k} = buf{k}.pop",
        f"bn{k} = pb{k} = iss{k} = ins{k} = rf{k} = ev{k} = 0",
    ]


def _emit_seq(k, sig, warmup):
    _, (degree,), cap, clamp = sig[0], sig[1], sig[2], sig[3]
    effective = degree if not clamp else min(degree, clamp)
    out: list[str] = []
    _render(out, _SEQ_BODY, "", k, {"@DEGREE@": degree}, warmup, cap, clamp)
    if effective <= 8:
        # Small degrees (the common case) fully unrolled, no offset loop.
        for offset in range(1, effective + 1):
            out.append(f"t{k} = page + {offset}")
            out.extend(_insert_lines("", k, f"t{k}", cap))
    else:
        out.append(f"for of{k} in range(1, {effective + 1}):")
        out.append(f"    t{k} = page + of{k}")
        out.extend(_insert_lines("    ", k, f"t{k}", cap))
    return _counters_setup(k), {"top": out}


def _emit_aseq(k, sig, warmup):
    maxd, window, raise_above, lower_below = sig[1]
    cap, clamp = sig[2], sig[3]
    if warmup:
        hit_count = f"if hit@K@ and index >= {warmup}:\n    pb@K@ += 1"
    else:
        hit_count = "if hit@K@:\n    pb@K@ += 1"
    eff = f"deg{k}" if not clamp else f"min(deg{k}, {clamp})"
    out: list[str] = []
    _render(
        out,
        _ASEQ_BODY.replace("@HIT_COUNT@", hit_count),
        "",
        k,
        {
            "@WINDOW@": window,
            "@RAISE@": repr(raise_above),
            "@LOWER@": repr(lower_below),
            "@MAXD@": maxd,
            "@EFF@": eff,
        },
        warmup,
        cap,
        clamp,
    )
    setup = _counters_setup(k) + [f"deg{k} = 1", f"wm{k} = wh{k} = 0"]
    return setup, {"top": out}


def _emit_stride(k, sig, warmup):
    geom, cap, clamp = sig[2], sig[3], sig[4]
    out: list[str] = []
    out.extend(_probe_lines("", k, warmup))
    rows, ways = geom
    if ways == 1:
        setup = _counters_setup(k) + [
            f"tag{k} = [None] * {rows}",
            f"ppg{k} = [0] * {rows}",
            f"str{k} = [0] * {rows}",
            f"sst{k} = bytearray({rows})",
        ]
        out.append(f"r{k} = {_mod('pc', rows)}")
        out.append(f"if tag{k}[r{k}] != pc:")
        out.append(f"    tag{k}[r{k}] = pc")
        out.append(f"    ppg{k}[r{k}] = page")
        out.append(f"    str{k}[r{k}] = 0")
        out.append(f"    sst{k}[r{k}] = 0")
        out.append("else:")
        _render(
            out, _STRIDE_FSM, "    ", k,
            {
                "@PREV@": f"ppg{k}[r{k}]", "@STRIDE@": f"str{k}[r{k}]",
                "@STATE@": f"sst{k}[r{k}]", "@SET_STATE@": f"sst{k}[r{k}]",
                "@SET_STRIDE@": f"str{k}[r{k}]", "@SET_PREV@": f"ppg{k}[r{k}]",
            },
            warmup, cap, clamp,
        )
        return setup, {"top": out}
    num_sets = rows // ways
    if num_sets == 1:
        setup = _counters_setup(k) + [f"ts{k} = {{}}"]
    else:
        setup = _counters_setup(k) + [
            f"sets{k} = [{{}} for _ in range({num_sets})]",
        ]
        out.append(f"ts{k} = sets{k}[{_mod('pc', num_sets)}]")
    out.append(f"en{k} = ts{k}.pop(pc, None)")
    out.append(f"if en{k} is None:")
    out.append(f"    if len(ts{k}) >= {ways}:")
    out.append(f"        del ts{k}[next(iter(ts{k}))]")
    out.append(f"    ts{k}[pc] = [page, 0, 0]")
    out.append("else:")
    out.append(f"    ts{k}[pc] = en{k}")
    _render(
        out, _STRIDE_FSM, "    ", k,
        {
            "@PREV@": f"en{k}[0]", "@STRIDE@": f"en{k}[1]",
            "@STATE@": f"en{k}[2]", "@SET_STATE@": f"en{k}[2]",
            "@SET_STRIDE@": f"en{k}[1]", "@SET_PREV@": f"en{k}[0]",
        },
        warmup, cap, clamp,
    )
    return setup, {"top": out}


def _emit_markov(k, sig, warmup):
    """MP bodies: lookup + install in "top", successor update in "mp".

    The install loop iterates the *live* slot list captured at lookup
    time, before any successor update runs — exactly the reference
    engine's materialize-at-predict semantics (buffer inserts never
    touch the table, so running them first is unobservable). The
    update lands in the shared ``if lp is not None and lp != page:``
    block that :func:`_generate` emits around it.
    """
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    out: list[str] = []
    out.extend(_probe_lines("", k, warmup))
    update = _successor_update(slots).replace("@VALUE@", "page")
    upd: list[str] = []
    # Two slots (the paper's standard MP geometry) unrolls the install:
    # no iterator and no clamp copy. A clamp >= 2 is a no-op for two
    # slots; clamp == 1 just omits the second install (``issued`` still
    # counts the full slot list, matching the reference engine).
    two = slots == 2
    second = clamp != 1
    rows, ways = geom
    if ways == 1 and two:
        # Direct-mapped two-slot rows packed into parallel flat arrays
        # (count, MRU successor, LRU successor) instead of one heap
        # list per row: no per-row allocations, and the MRU update is
        # three subscript stores. Same observable trajectory as the
        # list form — [v] is (1, v, _) and [a, b] is (2, a, b).
        setup = _counters_setup(k) + [
            f"tag{k} = [None] * {rows}",
            f"cn{k} = bytearray({rows})",
            f"ma{k} = [0] * {rows}",
            f"mb{k} = [0] * {rows}",
        ]
        out.append(f"r{k} = {_mod('page', rows)}")
        out.append(f"if tag{k}[r{k}] == page:")
        out.append(f"    n{k} = cn{k}[r{k}]")
        out.append(f"    if n{k}:")
        out.append(f"        iss{k} += n{k}")
        out.append(f"        tg{k} = ma{k}[r{k}]")
        out.extend(_insert_lines("        ", k, f"tg{k}", cap))
        if second:
            out.append(f"        if n{k} > 1:")
            out.append(f"            tg{k} = mb{k}[r{k}]")
            out.extend(_insert_lines("            ", k, f"tg{k}", cap))
        out.append("else:")
        out.append(f"    tag{k}[r{k}] = page")
        out.append(f"    cn{k}[r{k}] = 0")
        upd.append(f"pr{k} = {_mod('lp', rows)}")
        upd.append(f"if tag{k}[pr{k}] != lp:")
        upd.append(f"    tag{k}[pr{k}] = lp")
        upd.append(f"    ma{k}[pr{k}] = page")
        upd.append(f"    cn{k}[pr{k}] = 1")
        upd.append(f"elif cn{k}[pr{k}] == 0:")
        upd.append(f"    ma{k}[pr{k}] = page")
        upd.append(f"    cn{k}[pr{k}] = 1")
        upd.append(f"elif ma{k}[pr{k}] != page:")
        upd.append(f"    mb{k}[pr{k}] = ma{k}[pr{k}]")
        upd.append(f"    ma{k}[pr{k}] = page")
        upd.append(f"    cn{k}[pr{k}] = 2")
        return setup, {"top": out, "mp": upd}
    if ways == 1:
        # Direct-mapped: tags start at an unmatchable None sentinel, so
        # no separate occupancy array is consulted in the hot path.
        setup = _counters_setup(k) + [
            f"tag{k} = [None] * {rows}",
            f"sl{k} = [[] for _ in range({rows})]",
        ]
        out.append(f"r{k} = {_mod('page', rows)}")
        out.append(f"if tag{k}[r{k}] == page:")
        out.append(f"    pf{k} = sl{k}[r{k}]")
        out.append(f"    iss{k} += len(pf{k})")
        out.append("else:")
        out.append(f"    tag{k}[r{k}] = page")
        out.append(f"    sl{k}[r{k}] = []")
        out.append(f"    pf{k} = ()")
        out.extend(_prefetch_lines("", k, cap, clamp))
        upd.append(f"pr{k} = {_mod('lp', rows)}")
        upd.append(f"if tag{k}[pr{k}] == lp:")
        upd.append(f"    sc{k} = sl{k}[pr{k}]")
        upd.append("else:")
        upd.append(f"    tag{k}[pr{k}] = lp")
        upd.append(f"    sc{k} = []")
        upd.append(f"    sl{k}[pr{k}] = sc{k}")
        _render(upd, update, "", k, {}, warmup, cap, clamp)
        return setup, {"top": out, "mp": upd}
    num_sets = rows // ways
    if num_sets == 1:
        # Fully associative: one set, bound once — no per-miss indexing.
        setup = _counters_setup(k) + [f"ts{k} = {{}}"]
        ts, ps = f"ts{k}", f"ts{k}"
    else:
        setup = _counters_setup(k) + [
            f"sets{k} = [{{}} for _ in range({num_sets})]",
        ]
        out.append(f"ts{k} = sets{k}[{_mod('page', num_sets)}]")
        upd.append(f"ps{k} = sets{k}[{_mod('lp', num_sets)}]")
        ts, ps = f"ts{k}", f"ps{k}"
    out.append(f"pf{k} = {ts}.pop(page, None)")
    if two:
        out.append(f"if pf{k} is not None:")
        out.append(f"    {ts}[page] = pf{k}")
        out.append(f"    if pf{k}:")
        out.append(f"        n{k} = len(pf{k})")
        out.append(f"        iss{k} += n{k}")
        out.append(f"        tg{k} = pf{k}[0]")
        out.extend(_insert_lines("        ", k, f"tg{k}", cap))
        if second:
            out.append(f"        if n{k} > 1:")
            out.append(f"            tg{k} = pf{k}[1]")
            out.extend(_insert_lines("            ", k, f"tg{k}", cap))
        out.append("else:")
        out.append(f"    if len({ts}) >= {ways}:")
        out.append(f"        del {ts}[next(iter({ts}))]")
        out.append(f"    {ts}[page] = []")
    else:
        out.append(f"if pf{k} is not None:")
        out.append(f"    {ts}[page] = pf{k}")
        out.append(f"    iss{k} += len(pf{k})")
        out.append("else:")
        out.append(f"    if len({ts}) >= {ways}:")
        out.append(f"        del {ts}[next(iter({ts}))]")
        out.append(f"    {ts}[page] = []")
        out.append(f"    pf{k} = ()")
        out.extend(_prefetch_lines("", k, cap, clamp))
    upd.append(f"sc{k} = {ps}.pop(lp, None)")
    upd.append(f"if sc{k} is not None:")
    upd.append(f"    {ps}[lp] = sc{k}")
    upd.append("else:")
    upd.append(f"    if len({ps}) >= {ways}:")
    upd.append(f"        del {ps}[next(iter({ps}))]")
    upd.append(f"    sc{k} = []")
    upd.append(f"    {ps}[lp] = sc{k}")
    _render(upd, update, "", k, {}, warmup, cap, clamp)
    return setup, {"top": out, "mp": upd}


def _materialize_targets(k):
    """Targets are materialized before the successor update: when the
    updated key aliases the looked-up row, the update mutates the live
    slot list (the reference engine snapshots values first)."""
    return [
        f"pf{k} = []",
        f"for pd{k}_ in row{k}:",
        f"    t{k} = page + pd{k}_",
        f"    if t{k} >= 0:",
        f"        pf{k}.append(t{k})",
        f"        iss{k} += 1",
    ]


def _hit_targets(k, cap, clamp, slots=0):
    """The hit path's target handling for keyed (distance-valued) rows.

    With no clamp, installs fuse into the materialize loop: the live
    row is iterated at lookup time (before the successor update can
    mutate it) and each non-negative target goes straight into the
    buffer — no intermediate list. A clamp needs the full list first
    because ``issued`` counts pre-clamp targets. Two-slot rows (the
    standard geometry) unroll the loop entirely.
    """
    if clamp:
        return ["    " + line for line in _materialize_targets(k)]
    if slots == 2:
        lines = [
            f"    if row{k}:",
            f"        t{k} = page + row{k}[0]",
            f"        if t{k} >= 0:",
            f"            iss{k} += 1",
        ]
        lines.extend(_insert_lines("            ", k, f"t{k}", cap))
        lines += [
            f"        if len(row{k}) > 1:",
            f"            t{k} = page + row{k}[1]",
            f"            if t{k} >= 0:",
            f"                iss{k} += 1",
        ]
        lines.extend(_insert_lines("                ", k, f"t{k}", cap))
        return lines
    lines = [
        f"    for pd{k}_ in row{k}:",
        f"        t{k} = page + pd{k}_",
        f"        if t{k} >= 0:",
        f"            iss{k} += 1",
    ]
    lines.extend(_insert_lines("            ", k, f"t{k}", cap))
    return lines


def _emit_keyed_table(k, sig, warmup, key_var, prev_var, section):
    """Shared emitter for DP / DP-PC / DP-2 table bodies.

    ``key_var`` is the shared per-miss lookup key expression,
    ``prev_var`` the shared previous-key variable used for the
    successor update (DP: previous distance; DP-PC/DP-2: previous
    packed key). The successor *value* recorded is always the current
    distance. Bodies land in ``section`` ("dp" runs when a distance
    exists, "dp2" additionally when a distance pair exists).
    """
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    update = _successor_update(slots).replace("@VALUE@", "distance")
    hit = _hit_targets(k, cap, clamp, slots)
    out: list[str] = []

    def miss_and_install():
        # With a clamp the hit path materializes pf{k}; the miss path
        # must define it and the shared install block runs afterwards.
        if clamp:
            out.append(f"    pf{k} = ()")

    def trailing_install():
        if clamp:
            out.extend(_prefetch_lines("", k, cap, clamp))

    rows, ways = geom
    if ways == 1 and sig[0] == "distance":
        # DP direct-mapped: flat parallel arrays; tags start at an
        # unmatchable None sentinel (distances may be any integer, so
        # no integer sentinel is safe).
        setup = _counters_setup(k) + [
            f"tag{k} = [None] * {rows}",
            f"sl{k} = [[] for _ in range({rows})]",
        ]
        out.append(f"r{k} = {_mod('distance', rows)}")
        out.append(f"if tag{k}[r{k}] == distance:")
        out.append(f"    row{k} = sl{k}[r{k}]")
        out.extend(hit)
        out.append("else:")
        out.append(f"    tag{k}[r{k}] = distance")
        out.append(f"    sl{k}[r{k}] = []")
        miss_and_install()
        out.append(f"if {prev_var} is not None:")
        out.append(f"    pr{k} = {_mod(prev_var, rows)}")
        out.append(f"    if tag{k}[pr{k}] == {prev_var}:")
        out.append(f"        sc{k} = sl{k}[pr{k}]")
        out.append("    else:")
        out.append(f"        tag{k}[pr{k}] = {prev_var}")
        out.append(f"        sc{k} = []")
        out.append(f"        sl{k}[pr{k}] = sc{k}")
        _render(out, update, "    ", k, {}, warmup, cap, clamp)
        trailing_install()
        return setup, {section: out}
    num_sets = rows // ways
    if num_sets == 1:
        setup = _counters_setup(k) + [f"ts{k} = {{}}"]
        ts, ps = f"ts{k}", f"ts{k}"
    else:
        setup = _counters_setup(k) + [
            f"sets{k} = [{{}} for _ in range({num_sets})]",
        ]
        out.append(f"ts{k} = sets{k}[{_mod(key_var, num_sets)}]")
        ts, ps = f"ts{k}", f"ps{k}"
    out.append(f"row{k} = {ts}.pop({key_var}, None)")
    out.append(f"if row{k} is not None:")
    out.append(f"    {ts}[{key_var}] = row{k}")
    out.extend(hit)
    out.append("else:")
    out.append(f"    if len({ts}) >= {ways}:")
    out.append(f"        del {ts}[next(iter({ts}))]")
    out.append(f"    {ts}[{key_var}] = []")
    miss_and_install()
    out.append(f"if {prev_var} is not None:")
    if num_sets != 1:
        out.append(f"    ps{k} = sets{k}[{_mod(prev_var, num_sets)}]")
    out.append(f"    sc{k} = {ps}.pop({prev_var}, None)")
    out.append(f"    if sc{k} is not None:")
    out.append(f"        {ps}[{prev_var}] = sc{k}")
    out.append("    else:")
    out.append(f"        if len({ps}) >= {ways}:")
    out.append(f"            del {ps}[next(iter({ps}))]")
    out.append(f"        sc{k} = []")
    out.append(f"        {ps}[{prev_var}] = sc{k}")
    _render(out, update, "    ", k, {}, warmup, cap, clamp)
    trailing_install()
    return setup, {section: out}


#: RP's stack step on one miss, over a live page -> [next, prev,
#: on_stack] dict (-1 = no link): read the missed page's neighbors and
#: unlink it, then push the evicted page on top. A page's first touch
#: creates its entry, exactly as the reference page table does, so the
#: dict's keys are the PTE set a snapshot reports.
_LIVE_STACK = """\
re@K@ = rp@K@.get(page)
if re@K@ is None:
    rp@K@[page] = [-1, -1, False]
    rabove = rbelow = -1
    rlo@K@ = 0
elif re@K@[2]:
    rbelow = re@K@[0]
    rabove = re@K@[1]
    if rabove != -1:
        rp@K@[rabove][0] = rbelow
    else:
        rtop@K@ = rbelow
    if rbelow != -1:
        rp@K@[rbelow][1] = rabove
    re@K@[0] = re@K@[1] = -1
    re@K@[2] = False
    rov@K@ += 2
    rlo@K@ = 2
else:
    rabove = rbelow = -1
    rlo@K@ = 0
revt = evicted[index]
if revt != -1:
    rx@K@ = rp@K@.get(revt)
    if rx@K@ is None:
        rx@K@ = rp@K@[revt] = [rtop@K@, -1, True]
    else:
        if rx@K@[2]:
            ra@K@ = rx@K@[1]
            rb@K@ = rx@K@[0]
            if ra@K@ != -1:
                rp@K@[ra@K@][0] = rb@K@
            else:
                rtop@K@ = rb@K@
            if rb@K@ != -1:
                rp@K@[rb@K@][1] = ra@K@
        rx@K@[0] = rtop@K@
        rx@K@[1] = -1
        rx@K@[2] = True
    if rtop@K@ != -1:
        rp@K@[rtop@K@][1] = revt
    rtop@K@ = revt
    rov@K@ += 2
    rlo@K@ += 2
"""

_LIVE_THIRD = """\
rthird = -1
if rbelow != -1:
    rt@K@ = rp@K@[rbelow]
    if rt@K@[2] and rt@K@[0] != page:
        rthird = rt@K@[0]
"""


def _emit_recency(k, sig, warmup):
    """RP: the recency stack lives in the slot (see :data:`_LIVE_STACK`)."""
    (variant_three,), cap, clamp = sig[1], sig[2], sig[3]
    template = _LIVE_STACK + (_LIVE_THIRD if variant_three else "")
    out: list[str] = []
    _render(out, template, "", k, {}, warmup, cap, clamp)
    out.extend(_probe_lines("", k, warmup))
    neighbors = ("rabove", "rbelow", "rthird")[: 3 if variant_three else 2]
    if not clamp:
        # No clamp: install each stack neighbor directly, in the same
        # above-then-below(-then-third) order the list would have had.
        for name in neighbors:
            out.append(f"if {name} != -1:")
            out.append(f"    iss{k} += 1")
            out.extend(_insert_lines("    ", k, name, cap))
    else:
        out.append(f"pf{k} = []")
        for name in neighbors:
            out.append(f"if {name} != -1:")
            out.append(f"    pf{k}.append({name})")
        out.append(f"if pf{k}:")
        out.append(f"    iss{k} += len(pf{k})")
        out.append(f"    if len(pf{k}) > {clamp}:")
        out.append(f"        pf{k} = pf{k}[:{clamp}]")
        out.append(f"    for tg{k} in pf{k}:")
        out.extend(_insert_lines("        ", k, f"tg{k}", cap))
    setup = _counters_setup(k) + [
        f"rp{k} = {{}}",
        f"rtop{k} = -1",
        f"rov{k} = rlo{k} = 0",
    ]
    return setup, {"top": out}


def _emit_class(k: str, sig: tuple, warmup: int):
    family = sig[0]
    if family == "none":
        # A live Null slot still drains a seeded buffer on hits.
        return _counters_setup(k), {"top": _probe_lines("", k, warmup)}
    if family == "recency":
        return _emit_recency(k, sig, warmup)
    if family == "seq":
        return _emit_seq(k, sig, warmup)
    if family == "aseq":
        return _emit_aseq(k, sig, warmup)
    if family == "stride":
        return _emit_stride(k, sig, warmup)
    if family == "markov":
        return _emit_markov(k, sig, warmup)
    if family == "distance":
        setup, sections = _emit_keyed_table(k, sig, warmup, "distance", "pd", "dp")
    elif family == "pcdist":
        setup, sections = _emit_keyed_table(k, sig, warmup, "kpc", "pkc", "dp")
    elif family == "distpair":
        setup, sections = _emit_keyed_table(k, sig, warmup, "dpk", "pk2", "dp2")
    else:  # pragma: no cover - _plan vets families
        raise ConfigurationError(f"unknown compiled family {family!r}")
    # DP-family bodies probe the buffer on every miss (top level) and
    # run their table logic only once a distance (pair) exists.
    sections["top"] = _probe_lines("", k, warmup)
    return setup, sections


def _state_names(lines: list[str]) -> tuple[list[str], list[str]]:
    """Split a slot's setup lines into state names and derived lines.

    A line binding a bound method (``bp0 = buf0.pop``) is derived: a
    live loop re-binds it after loading the state it derives from.
    """
    names: list[str] = []
    derived: list[str] = []
    for line in lines:
        node = ast.parse(line).body[0]
        if isinstance(node.value, ast.Attribute):
            derived.append(line)
        else:
            names.extend(target.id for target in node.targets)
    return names, derived


def _generate(warmup: int, sig: tuple) -> str:
    """Source of the live loop for one slot shape.

    ``_init()`` builds the slot state as a dict; ``_batch`` loads it,
    replays entries ``[start, stop)`` and stores it back.
    """
    family = sig[0]
    setup, sections = _emit_class("0", sig, warmup)
    inits = list(setup)
    history = family in ("markov", "distance", "pcdist", "distpair")
    if history:
        inits.append("last_page = None")
    if family in ("distance", "distpair"):
        inits.append("last_dist = None")
    if family == "pcdist":
        inits.append("last_kpc = None")
    if family == "distpair":
        inits.append("last_dpk = None")
    state, derived = _state_names(inits)
    pad = "    "
    lines = ["def _init():"]
    lines.extend(pad + line for line in inits)
    lines.append(pad + "return {" + ", ".join(f"{n!r}: {n}" for n in state) + "}")
    lines.append("")
    # Hot-loop names bound as defaults: LOAD_FAST instead of
    # LOAD_GLOBAL for every builtin/table-helper call per miss.
    lines += [
        "def _batch(pcs, pages, evicted, start, stop, S,",
        "           len=len, next=next, iter=iter, min=min, max=max,",
        "           pack_pc_distance=pack_pc_distance,",
        "           pack_distance_pair=pack_distance_pair):",
    ]
    lines.extend(f"{pad}{name} = S[{name!r}]" for name in state)
    lines.extend(pad + line for line in derived)
    loop: list[str] = []
    if history:
        loop.append("lp = last_page")
        loop.append("last_page = page")
    if family in ("stride", "pcdist"):
        loop.append("pc = pcs[index]")
    loop.extend(sections["top"])
    if "mp" in sections:
        # The self-successor rule: a page is never its own successor.
        loop.append("if lp is not None and lp != page:")
        loop.extend(pad + line for line in sections["mp"])
    if "dp" in sections or "dp2" in sections:
        loop.append("if lp is not None:")
        loop.append(pad + "distance = page - lp")
        if family in ("distance", "distpair"):
            loop.append(pad + "pd = last_dist")
            loop.append(pad + "last_dist = distance")
        if family == "pcdist":
            loop.append(pad + "kpc = pack_pc_distance(pc, distance)")
            loop.append(pad + "pkc = last_kpc")
            loop.append(pad + "last_kpc = kpc")
        loop.extend(pad + line for line in sections.get("dp", ()))
        if family == "distpair":
            loop.append(pad + "if pd is not None:")
            loop.append(pad + pad + "dpk = pack_distance_pair(pd, distance)")
            loop.append(pad + pad + "pk2 = last_dpk")
            loop.append(pad + pad + "last_dpk = dpk")
            loop.extend(pad + pad + line for line in sections["dp2"])
    lines.append(pad + "for index, page in enumerate(pages[start:stop], start):")
    lines.extend(pad + pad + line for line in loop)
    lines.extend(f"{pad}S[{name!r}] = {name}" for name in state)
    return "\n".join(lines) + "\n"


#: Live loops memoized by ``(warmup, slot signature)`` as ``(init,
#: loop)`` pairs, and the native kernel's entry point under
#: :data:`_KERNEL_KEY`. Emptied, the next call compiles and loads
#: again as a fresh process would.
_CODE_CACHE: dict[tuple, object] = {}


def _compiled(warmup: int, sig: tuple):
    """The compiled ``(init, loop)`` pair for a live slot shape."""
    key = (warmup, sig)
    fn = _CODE_CACHE.get(key)
    if fn is None:
        source = _generate(warmup, sig)
        namespace = {
            "pack_pc_distance": pack_pc_distance,
            "pack_distance_pair": pack_distance_pair,
        }
        exec(compile(source, "<repro.sim.batchpath>", "exec"), namespace)
        fn = (namespace["_init"], namespace["_batch"])
        if len(_CODE_CACHE) >= 256:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = fn
    return fn


# ---------------------------------------------------------------------------
# The native kernel: built once per machine, loaded on first use.
# ---------------------------------------------------------------------------

#: The kernel's C source.
_KERNEL_SOURCE = Path(__file__).with_name("batchkernel.c")

#: Compiler command; the output and source paths follow it.
_COMPILE = ("gcc", "-O2", "-shared", "-fPIC")

#: Preferred home of built kernels: beside this package's bytecode.
_PYCACHE = Path(__file__).with_name("__pycache__")

#: :data:`_CODE_CACHE` key of the kernel's entry point (None when no
#: compiler works).
_KERNEL_KEY = ("native-kernel",)

_LOG = logging.getLogger(__name__)


def _kernel_dir() -> Path:
    """Where built kernels live: ``__pycache__`` beside this module,
    else a private (0700, owned, not a symlink) per-user directory."""
    try:
        _PYCACHE.mkdir(exist_ok=True)
        if os.access(_PYCACHE, os.W_OK | os.X_OK):
            return _PYCACHE
    except OSError:
        pass
    private = Path(tempfile.gettempdir()) / f"repro-tlb-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    info = os.lstat(private)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & 0o077
    ):
        raise OSError(f"{private} is not a private directory")
    return private


def _bind(path: Path):
    """The ``bk_replay`` entry point of the library at ``path``."""
    kernel = ctypes.CDLL(str(path)).bk_replay
    kernel.restype = ctypes.c_int
    kernel.argtypes = (
        ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )
    return kernel


def _intact(path: Path) -> bool:
    """True when the library ends with the sha256 of the rest of it.

    A truncated ELF file can still ``dlopen`` and then fault when a
    missing page is touched, so a cached library is checked first.
    """
    data = path.read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


def _load_kernel():
    """Load the cached kernel library, building it first if needed.

    The name carries the sha256 of the source, the compiler command
    and the machine type; the file carries the sha256 of its own
    contents (appended after the build, which loaders ignore). A build
    compiles to a temporary file in the same directory, loads it, and
    only then renames it into place, so concurrent builders each load
    a complete library, and a damaged cache entry is rebuilt, never
    loaded.
    """
    source = _KERNEL_SOURCE.read_bytes()
    stamp = "\0".join((*_COMPILE, platform.machine())).encode()
    digest = hashlib.sha256(source + b"\0" + stamp).hexdigest()[:24]
    directory = _kernel_dir()
    path = directory / f"batchkernel-{digest}.so"
    try:
        if _intact(path):
            return _bind(path)
    except (OSError, AttributeError):
        pass
    handle, scratch = tempfile.mkstemp(prefix=".batchkernel-", suffix=".so", dir=directory)
    os.close(handle)
    try:
        subprocess.run(
            [*_COMPILE, "-o", scratch, str(_KERNEL_SOURCE)],
            check=True, capture_output=True, timeout=300,
        )
        with open(scratch, "r+b") as library:
            library.write(hashlib.sha256(library.read()).digest())
        kernel = _bind(Path(scratch))
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return kernel


def _native_kernel():
    """The kernel's entry point, or None when it cannot be built.

    Memoized in :data:`_CODE_CACHE`, so a process builds or loads the
    library at most once per cache lifetime and warns at most once.
    """
    if _KERNEL_KEY not in _CODE_CACHE:
        try:
            kernel = _load_kernel()
        except (OSError, subprocess.SubprocessError, AttributeError) as exc:
            _LOG.warning(
                "native batch kernel unavailable (%s); fresh batch "
                "replays run as Python live slots", exc,
            )
            kernel = None
        _CODE_CACHE[_KERNEL_KEY] = kernel
    return _CODE_CACHE[_KERNEL_KEY]


# ---------------------------------------------------------------------------
# Planning: dense key ids and set indices for the kernel, with numpy.
# ---------------------------------------------------------------------------

#: The kernel's family codes (``batchkernel.c``).
_FAMILY_CODES = {
    "none": 0, "seq": 1, "aseq": 2, "stride": 3, "markov": 4,
    "distance": 5, "pcdist": 6, "distpair": 7, "recency": 8,
}


def _packed_ids(first: np.ndarray, second: np.ndarray, pack) -> tuple:
    """``(unique keys, ids)`` of ``pack(first[i], second[i])``.

    Packed keys can be wider than 64 bits, so they are built as Python
    ints over the distinct pairs only, then gathered back.
    """
    pairs, pair_ids = np.unique(
        np.stack([first, second], axis=1), axis=0, return_inverse=True
    )
    packed = np.array([pack(x, y) for x, y in pairs.tolist()], dtype=object)
    keys, key_ids = np.unique(packed, return_inverse=True)
    return keys, key_ids[pair_ids.reshape(-1)]


class _TraceAnalysis:
    """Per-stream kernel inputs, computed once and reused across calls."""

    __slots__ = ("pages", "pcs", "evicted", "keys", "sets", "rp")

    def __init__(self, miss_trace: MissTrace) -> None:
        self.pages = np.ascontiguousarray(miss_trace.pages, dtype=np.int64)
        self.pcs = np.asarray(miss_trace.pcs, dtype=np.int64)
        self.evicted = np.asarray(miss_trace.evicted, dtype=np.int64)
        self.keys: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.sets: dict[tuple[str, int], np.ndarray] = {}
        self.rp: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def family_keys(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """``(unique keys, per-miss key ids)`` of a table family.

        A miss with no key yet (DP's first miss, DP-2's first two) has
        id -1.
        """
        cached = self.keys.get(family)
        if cached is not None:
            return cached
        pages = self.pages
        lead = 0
        if family == "stride":
            keys, ids = np.unique(self.pcs, return_inverse=True)
        elif family == "markov":
            keys, ids = np.unique(pages, return_inverse=True)
        else:
            distances = np.diff(pages)
            lead = 1
            if family == "distance":
                keys, ids = np.unique(distances, return_inverse=True)
            elif family == "pcdist":
                keys, ids = _packed_ids(self.pcs[1:], distances, pack_pc_distance)
            else:  # distpair
                lead = 2
                keys, ids = _packed_ids(
                    distances[:-1], distances[1:], pack_distance_pair
                )
        full = np.full(len(pages), -1, dtype=np.int32)
        full[lead:] = ids.reshape(-1)
        self.keys[family] = (keys, full)
        return keys, full

    def set_index(self, family: str, num_sets: int) -> np.ndarray:
        """Set of every unique key of ``family`` in a ``num_sets`` table."""
        cached = self.sets.get((family, num_sets))
        if cached is None:
            keys = self.family_keys(family)[0]
            # Python's (and numpy's) non-negative modulo, as the table's.
            cached = (keys % num_sets).astype(np.int32)
            self.sets[(family, num_sets)] = cached
        return cached

    def recency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RP's ``(universe, page ids, evicted ids)``: every page missed
        or evicted, sorted, and each miss's indices into it (-1 = no
        eviction)."""
        if self.rp is None:
            pages, evicted = self.pages, self.evicted
            gone = evicted != -1
            universe = np.unique(np.concatenate([pages, evicted[gone]]))
            page_ids = np.searchsorted(universe, pages).astype(np.int32)
            evicted_ids = np.where(
                gone, np.searchsorted(universe, evicted), -1
            ).astype(np.int32)
            self.rp = (universe, page_ids, evicted_ids)
        return self.rp


#: Keyed by ``id(miss_trace)``; a weakref finalizer evicts the entry
#: when the trace dies, so a recycled id can never alias a stale entry.
_ANALYSIS_CACHE: dict[int, _TraceAnalysis] = {}


def _analysis_for(miss_trace: MissTrace) -> _TraceAnalysis:
    key = id(miss_trace)
    analysis = _ANALYSIS_CACHE.get(key)
    if analysis is None:
        analysis = _TraceAnalysis(miss_trace)
        _ANALYSIS_CACHE[key] = analysis
        weakref.finalize(miss_trace, _ANALYSIS_CACHE.pop, key, None)
    return analysis


def _address(array: np.ndarray | None) -> int | None:
    return None if array is None else array.ctypes.data


def _run_native(kernel, miss_trace: MissTrace, plan: _SlotPlan) -> tuple | None:
    """One request's counters from the kernel; None when it refuses."""
    config, thresholds = plan.config, (0.0, 0.0)
    if plan.family == "aseq":
        config, thresholds = config[:2], config[2:]
    try:
        params = np.zeros(6, dtype=np.int64)
        params[: 3 + len(config)] = (
            _FAMILY_CODES[plan.family], plan.cap, plan.clamp, *config,
        )
    except OverflowError:
        return None
    analysis = _analysis_for(miss_trace)
    keys = set_of = evicted = universe = None
    nkeys = 0
    if plan.family in _TABLE_FAMILIES:
        unique, keys = analysis.family_keys(plan.family)
        nkeys = len(unique)
        set_of = analysis.set_index(plan.family, config[0] // config[1])
    elif plan.family == "recency":
        universe, keys, evicted = analysis.recency()
        nkeys = len(universe)
    out = np.zeros(6, dtype=np.int64)
    status = kernel(
        params.ctypes.data, *thresholds, len(analysis.pages),
        miss_trace.warmup_misses, analysis.pages.ctypes.data, _address(keys),
        nkeys, _address(set_of), _address(evicted), _address(universe),
        out.ctypes.data,
    )
    return tuple(out.tolist()) if status == 0 else None


def _run_python(miss_trace: MissTrace, prefetcher: Prefetcher, plan: _SlotPlan) -> tuple:
    """One request's counters from a throwaway :class:`LiveSlot`."""
    slot = LiveSlot(miss_trace, prefetcher, plan.cap, plan.clamp)
    slot.run(0, len(miss_trace))
    return slot.totals()


# ---------------------------------------------------------------------------
# Public entry point.
# ---------------------------------------------------------------------------


def replay_batch(
    miss_trace: MissTrace,
    requests: "list[tuple[Prefetcher, int, int]]",
) -> "list[PrefetchRunStats]":
    """Replay N fresh mechanisms over one miss stream.

    ``requests`` is a list of ``(prefetcher, buffer_entries,
    max_prefetches_per_miss)`` triples; every prefetcher must be a
    freshly built instance of a supported mechanism (raises
    :class:`~repro.errors.ConfigurationError` otherwise). Returns one
    :class:`~repro.sim.stats.PrefetchRunStats` per request, in request
    order, bit-identical to what the reference engine produces. The
    instances are *not* trained — batch replays are for throwaway
    mechanisms built from specs; warm instances take
    :func:`replay_live`.

    Each distinct request runs once on the native kernel, or as a
    Python :class:`LiveSlot` when the kernel is unavailable or refuses
    the stream; the enclosing trace span gets ``kernel="native"`` or
    ``"python"`` (the latter if any request fell back).
    """
    runs: dict[tuple, int] = {}
    distinct: list[tuple[_SlotPlan, Prefetcher]] = []
    slot_run: list[int] = []
    labels: list[str] = []
    for prefetcher, cap, clamp in requests:
        plan = _plan(prefetcher, cap, clamp)
        if not is_fresh(prefetcher):
            raise ConfigurationError(
                "replay_batch replays freshly built mechanisms only; "
                "warm instances take replay_live"
            )
        index = runs.setdefault((plan.family, plan.config, cap, clamp), len(distinct))
        if index == len(distinct):
            distinct.append((plan, prefetcher))
        slot_run.append(index)
        labels.append(plan.label)
    kernel = _native_kernel() if distinct else None
    native = kernel is not None
    rows = []
    for plan, prefetcher in distinct:
        row = None if kernel is None else _run_native(kernel, miss_trace, plan)
        if row is None:
            native = False
            row = _run_python(miss_trace, prefetcher, plan)
        rows.append(row)
    annotate(kernel="native" if native else "python")
    return [
        _make_stats(miss_trace, label, rows[index])
        for label, index in zip(labels, slot_run)
    ]


def _make_stats(miss_trace: MissTrace, label: str, row: tuple):
    from repro.sim.stats import PrefetchRunStats

    pb_hits, issued, inserted, refreshed, evicted_unused, overhead = row
    return PrefetchRunStats(
        workload=miss_trace.name,
        mechanism=label,
        tlb_label=miss_trace.tlb_label,
        total_references=miss_trace.total_references,
        tlb_misses=miss_trace.num_misses,
        measured_misses=miss_trace.measured_misses,
        pb_hits=pb_hits,
        prefetches_issued=issued,
        buffer_inserted=inserted,
        buffer_refreshed=refreshed,
        buffer_evicted_unused=evicted_unused,
        overhead_memory_ops=overhead,
        # A prefetch already buffered is coalesced, costing no new fetch.
        prefetch_fetch_ops=inserted,
    )


# ---------------------------------------------------------------------------
# Live slots: one mechanism held in loop form across calls, seeded from
# and read back as repro.ckpt snapshots.
# ---------------------------------------------------------------------------

#: Live-state scalar -> mechanism-snapshot field, per family (a live
#: shape has one slot, so its generated names carry index 0).
_SNAPSHOT_SCALARS: dict[str, tuple[tuple[str, str], ...]] = {
    "aseq": (("deg0", "degree"), ("wm0", "window_misses"), ("wh0", "window_hits")),
    "markov": (("last_page", "prev_page"),),
    "distance": (("last_page", "prev_page"), ("last_dist", "prev_distance")),
    "pcdist": (("last_page", "prev_page"), ("last_kpc", "prev_key")),
    "distpair": (
        ("last_page", "prev_page"),
        ("last_dist", "prev_distance"),
        ("last_dpk", "prev_key"),
    ),
}


def _live_sig(plan: _SlotPlan) -> tuple:
    """Emission signature of a live slot, with its concrete geometry."""
    if plan.family in _TABLE_FAMILIES:
        rest, geom = plan.config[2:], plan.config[:2]
        return (plan.family, rest, geom, plan.cap, plan.clamp)
    if plan.family == "none":
        return ("none",)
    return (plan.family, plan.config, plan.cap, plan.clamp)


def _table_sets(state: dict) -> list[dict]:
    """A set-associative live table's per-set dicts."""
    return [state["ts0"]] if "ts0" in state else state["sets0"]


def _seed_table(state: dict, family: str, table: TableSnapshot) -> None:
    if "tag0" not in state:
        for table_set, pairs in zip(_table_sets(state), table.sets):
            for key, payload in pairs:
                table_set[key] = list(payload)
        return
    tags = state["tag0"]
    for row, pairs in enumerate(table.sets):
        if not pairs:
            continue
        key, payload = pairs[-1]
        tags[row] = key
        if family == "stride":
            state["ppg0"][row], state["str0"][row], state["sst0"][row] = payload
        elif "cn0" in state:
            state["cn0"][row] = len(payload)
            for name, value in zip(("ma0", "mb0"), payload):
                state[name][row] = value
        else:
            state["sl0"][row] = list(payload)


def _table_snapshot(state: dict, family: str, rows: int, ways: int) -> TableSnapshot:
    if "tag0" not in state:
        sets = [
            [[key, list(payload)] for key, payload in table_set.items()]
            for table_set in _table_sets(state)
        ]
        return TableSnapshot(rows=rows, ways=ways, sets=sets)
    if family == "stride":
        columns = (state["ppg0"], state["str0"], state["sst0"])

        def payload(row):
            return [column[row] for column in columns]
    elif "cn0" in state:
        counts, first, second = state["cn0"], state["ma0"], state["mb0"]

        def payload(row):
            return [first[row], second[row]][: counts[row]]
    else:
        slot_rows = state["sl0"]

        def payload(row):
            return list(slot_rows[row])

    sets = [
        [[tag, payload(row)]] if tag is not None else []
        for row, tag in enumerate(state["tag0"])
    ]
    return TableSnapshot(rows=rows, ways=ways, sets=sets)


class LiveSlot:
    """One mechanism and its prefetch buffer, held in compiled-loop form.

    The slot's tables, buffer dict, counters and history registers stay
    live between :meth:`run` calls, so replaying a stream in any
    chunking costs what one pass costs. The loop is compiled and the
    state seeded lazily, on the first :meth:`run`, from a mechanism
    snapshot (by default the instance's own) and an optional buffer
    snapshot (see :meth:`seed`). :meth:`mechanism_snapshot` and
    :meth:`buffer_snapshot` read the state back in the canonical form
    the reference engine's objects would give; only
    :meth:`write_back` touches the instance itself.

    Raises :class:`~repro.errors.ConfigurationError` for a mechanism
    without a compiled loop or a non-positive buffer capacity.
    """

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer_entries: int = 16,
        max_prefetches_per_miss: int = 0,
    ) -> None:
        if buffer_entries <= 0:
            raise ConfigurationError(
                f"buffer capacity must be > 0, got {buffer_entries}"
            )
        plan = _plan(prefetcher, buffer_entries, max_prefetches_per_miss)
        self.miss_trace = miss_trace
        self.capacity = buffer_entries
        self._prefetcher = prefetcher
        self._sig = _live_sig(plan)
        self._rows_ways = plan.config[:2]
        self._code = None
        self._mechanism: MechanismSnapshot | None = None
        self._buffer = BufferSnapshot(
            capacity=buffer_entries, hits=0, lookups=0, inserted=0,
            refreshed=0, evicted_unused=0, pages=[],
        )
        self._pb_hits = 0
        self._issued = prefetcher.prefetches_issued
        self._overhead = prefetcher.overhead_ops_total
        self._state: dict | None = None
        self._advanced = 0

    def seed(
        self,
        mechanism: MechanismSnapshot | None = None,
        buffer: BufferSnapshot | None = None,
        pb_hits: int = 0,
    ) -> None:
        """Start from these snapshots instead of the instance's state.

        Must precede the first :meth:`run`. The snapshots are trusted:
        validate them first (e.g. by restoring them into objects).
        """
        if self._state is not None:
            raise ConfigurationError("a live slot is seeded before it runs")
        if mechanism is not None:
            self._mechanism = mechanism
            self._issued = mechanism.prefetches_issued
            self._overhead = mechanism.overhead_ops_total
        if buffer is not None:
            self._buffer = buffer
        self._pb_hits = pb_hits

    def _seed_mechanism(self) -> MechanismSnapshot:
        if self._mechanism is None:
            self._mechanism = snapshot_prefetcher(self._prefetcher)
        return self._mechanism

    def _build_state(self) -> dict:
        self._code = _compiled(self.miss_trace.warmup_misses, self._sig)
        state = self._code[0]()
        seed = self._seed_mechanism()
        family = self._sig[0]
        for name, field in _SNAPSHOT_SCALARS.get(family, ()):
            state[name] = getattr(seed, field)
        if family in _TABLE_FAMILIES:
            _seed_table(state, family, seed.table)
        elif family == "recency":
            links = state["rp0"]
            for page, below, above, on_stack in seed.entries:
                links[page] = [
                    -1 if below is None else below,
                    -1 if above is None else above,
                    bool(on_stack),
                ]
            state["rtop0"] = -1 if seed.top is None else seed.top
            state["rlo0"] = seed.last_overhead_ops
        buffer = self._buffer
        state["buf0"].update(dict.fromkeys(buffer.pages))
        state["bn0"] = len(buffer.pages)
        state["pb0"] = self._pb_hits
        state["ins0"] = buffer.inserted
        state["rf0"] = buffer.refreshed
        state["ev0"] = buffer.evicted_unused
        return state

    def run(self, start: int, stop: int) -> None:
        """Replay stream entries ``[start, stop)`` on the live state."""
        if start >= stop:
            return
        if self._state is None:
            self._state = self._build_state()
        pcs, pages, evicted = self.miss_trace.as_lists()
        self._code[1](pcs, pages, evicted, start, stop, self._state)
        self._advanced += stop - start

    def totals(self) -> tuple[int, int, int, int, int, int]:
        """``(pb_hits, prefetches_issued, inserted, refreshed,
        evicted_unused, overhead_ops_total)`` so far.

        Issue and overhead tallies are the instance's lifetime totals
        (what its ``Prefetcher`` counters would read); the rest are the
        buffer's, from the seeded values on.
        """
        state = self._state
        if state is None:
            buffer = self._buffer
            return (
                self._pb_hits, self._issued, buffer.inserted,
                buffer.refreshed, buffer.evicted_unused, self._overhead,
            )
        return (
            state["pb0"],
            self._issued + state["iss0"],
            state["ins0"],
            state["rf0"],
            state["ev0"],
            self._overhead + state.get("rov0", 0),
        )

    def mechanism_snapshot(self) -> MechanismSnapshot:
        """The mechanism's current state as a canonical snapshot."""
        seed = self._seed_mechanism()
        state = self._state
        family = self._sig[0]
        if state is None or family == "none":
            # Null never calls account(): nothing about it changes.
            return seed
        _, issued, _, _, _, overhead = self.totals()
        fields = {"prefetches_issued": issued, "overhead_ops_total": overhead}
        if family == "recency":
            fields["last_overhead_ops"] = state["rlo0"]
            top = state["rtop0"]
            fields["top"] = None if top == -1 else top
            fields["entries"] = [
                [
                    page,
                    None if below == -1 else below,
                    None if above == -1 else above,
                    on_stack,
                ]
                for page, (below, above, on_stack) in sorted(state["rp0"].items())
            ]
            return dataclasses.replace(seed, **fields)
        # Every other mechanism accounts each miss with no overhead.
        fields["last_overhead_ops"] = 0
        for name, field in _SNAPSHOT_SCALARS.get(family, ()):
            fields[field] = state[name]
        if family in _TABLE_FAMILIES:
            fields["table"] = _table_snapshot(state, family, *self._rows_ways)
        return dataclasses.replace(seed, **fields)

    def write_back(self) -> None:
        """Restore the current mechanism state into the instance."""
        restore_prefetcher(self.mechanism_snapshot(), self._prefetcher)

    def buffer_snapshot(self) -> BufferSnapshot:
        """The prefetch buffer's current contents and counters."""
        state = self._state
        seed = self._buffer
        if state is None:
            return seed
        inserted, evicted, resident = state["ins0"], state["ev0"], state["bn0"]
        # Population only moves by inserts (+1), evictions (-1) and hits
        # (-1), so the hit tally falls out without a per-miss counter.
        hits = (
            seed.hits
            + (inserted - seed.inserted)
            - (evicted - seed.evicted_unused)
            - (resident - len(seed.pages))
        )
        return BufferSnapshot(
            capacity=self.capacity,
            hits=hits,
            lookups=seed.lookups + self._advanced,
            inserted=inserted,
            refreshed=state["rf0"],
            evicted_unused=evicted,
            pages=list(state["buf0"]),
        )


def replay_live(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
) -> "PrefetchRunStats":
    """Compiled equivalent of :func:`~repro.sim.two_phase.replay_prefetcher`.

    Trains ``prefetcher`` exactly as the reference engine would: the
    instance's state (warm or fresh) seeds a :class:`LiveSlot`, and the
    final state is restored back into it, so canonical snapshots of the
    instance agree between engines after any sequence of replays.
    Raises :class:`~repro.errors.ConfigurationError` when the mechanism
    has no compiled loop.
    """
    slot = LiveSlot(miss_trace, prefetcher, buffer_entries, max_prefetches_per_miss)
    issued_before = prefetcher.prefetches_issued
    overhead_before = prefetcher.overhead_ops_total
    slot.run(0, len(miss_trace))
    slot.write_back()
    pb_hits, issued, inserted, refreshed, evicted, overhead = slot.totals()
    return _make_stats(
        miss_trace,
        prefetcher.label,
        (
            pb_hits, issued - issued_before, inserted, refreshed, evicted,
            overhead - overhead_before,
        ),
    )
