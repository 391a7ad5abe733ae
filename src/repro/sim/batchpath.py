"""The compiled replay engine: generated loops over a recorded miss stream.

:func:`repro.sim.two_phase.replay_prefetcher` is the *reference*
replay: it drives live :class:`~repro.prefetch.base.Prefetcher` and
:class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` objects miss by
miss. This module is the *compiled* replay. It generates one
specialized Python loop per shape of work, with every per-slot
constant (rows, ways, slots, buffer capacity, clamp, warm-up boundary,
degrees) inlined as a literal, ``compile()``s it once and memoizes it
by that shape. Slot state lives in flat parallel arrays for
direct-mapped tables, per-set insertion-ordered dicts (first key =
LRU) for other associativities, an insertion-ordered-dict prefetch
buffer with a local population counter, and plain integer counters.

Two entry points share the generator:

- :func:`replay_batch` replays N *fresh* mechanisms over one stream in
  a single pass (a sweep's many specs per stream). Because no slot's
  state is ever read back, the planner may prove slots equivalent and
  simulate each class once:

  - *Never-overflow*: if no set ever holds more distinct keys than it
    has ways, LRU eviction can never fire, so the table behaves
    exactly like an unbounded per-key dict, independent of geometry.
    Such tables are emitted as one plain dict with no set indexing.
  - *Same-partition*: two geometries that induce the same partition
    of the key universe into sets, with equal ways, perform the same
    set operations in the same order and are bit-identical.
  - *Never-hits*: a key stream that never repeats a key issues no
    prefetch for any geometry; the slot costs nothing to simulate.

- :class:`LiveSlot` holds *one* mechanism and its buffer in loop form
  across calls: it seeds from a :mod:`repro.ckpt` mechanism (and
  buffer) snapshot, replays any entry range ``[start, stop)``, and
  hands its state back as snapshots. Its slot is emitted with the
  concrete geometry, since its state is read back. :func:`replay_live`
  (warm-started single replays) and
  :class:`~repro.ckpt.session.ReplaySession` are built on it.

The contract is **bit-identical statistics** (and, for live slots,
canonical snapshot digests) to the reference engine, enforced by
``tests/differential/`` (curated grid, fuzzing, warm start and
mid-stream sessions) and the golden files. Dispatch is on exact type:
user subclasses may override behavior the loops do not model, so they
always take the reference engine.
"""

from __future__ import annotations

import ast
import dataclasses
import weakref

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
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher

#: Families with a table whose key universe the planner can analyze.
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
# Equivalence analysis: prove table configs interchangeable on this stream.
# ---------------------------------------------------------------------------


def _table_class(unique_keys: list[int], rows: int, ways: int) -> tuple:
    """Canonical equivalence class of a ``(rows, ways)`` table on a stream.

    ``unique_keys`` is the stream's key universe in first-occurrence
    order. Returns ``("inf",)`` when no set can ever overflow (the
    table is equivalent to an unbounded per-key dict, hence to every
    other never-overflow geometry), else ``("assoc", ways, labels)``
    where ``labels`` is the canonical first-occurrence numbering of the
    key→set partition — equal labels + equal ways ⇒ identical behavior.
    """
    num_sets = rows // ways
    counts: dict[int, int] = {}
    overflow = False
    for key in unique_keys:
        bucket = key % num_sets
        grown = counts.get(bucket, 0) + 1
        if grown > ways:
            overflow = True
            break
        counts[bucket] = grown
    if not overflow:
        return ("inf",)
    labels: dict[int, int] = {}
    out = []
    for key in unique_keys:
        bucket = key % num_sets
        label = labels.get(bucket)
        if label is None:
            label = len(labels)
            labels[bucket] = label
        out.append(label)
    return ("assoc", ways, tuple(out))


class _StreamKeys:
    """Lazily computed, memoized key universes of one miss stream."""

    def __init__(self, pcs: list[int], pages: list[int]) -> None:
        self._pcs = pcs
        self._pages = pages
        self._distances: list[int] | None = None
        self._cache: dict[str, list[int]] = {}
        self._stream_len: dict[str, int] = {}

    def distances(self) -> list[int]:
        if self._distances is None:
            pages = self._pages
            self._distances = [
                pages[i] - pages[i - 1] for i in range(1, len(pages))
            ]
        return self._distances

    def universe(self, family: str) -> list[int]:
        cached = self._cache.get(family)
        if cached is not None:
            return cached
        if family == "stride":
            keys = self._pcs
        elif family == "markov":
            keys = self._pages
        elif family == "distance":
            keys = self.distances()
        elif family == "pcdist":
            pcs, pages = self._pcs, self._pages
            keys = [
                pack_pc_distance(pcs[i], pages[i] - pages[i - 1])
                for i in range(1, len(pages))
            ]
        else:  # distpair
            dist = self.distances()
            keys = [
                pack_distance_pair(dist[i - 1], dist[i])
                for i in range(1, len(dist))
            ]
        unique = list(dict.fromkeys(keys))
        self._cache[family] = unique
        self._stream_len[family] = len(keys)
        return unique

    def never_hits(self, family: str) -> bool:
        """True when ``family``'s key stream never repeats a key.

        Every table lookup then tag-misses (a key is only ever in the
        table once a *prior* lookup or successor update allocated it),
        so the mechanism issues zero prefetches for *any* geometry,
        slot count, buffer size, or clamp — all such slots collapse
        into one all-zero class that costs nothing to simulate.
        """
        unique = self.universe(family)
        return len(unique) == self._stream_len[family]


def _sigs(plan: _SlotPlan, keys: _StreamKeys) -> tuple[tuple, tuple]:
    """(dedup signature, emission signature) for one slot.

    Slots with equal dedup signatures are bit-identical on this stream
    and share one simulation. The emission signature is what the code
    generator needs: for never-overflow tables the geometry collapses
    to ``None`` (emitted as one plain dict), otherwise the class
    representative's concrete ``(rows, ways)`` is kept.
    """
    if plan.family in _TABLE_FAMILIES:
        if keys.never_hits(plan.family):
            # No repeated key -> no tag hit -> no prefetch, ever. One
            # zero-cost class regardless of geometry/slots/cap/clamp.
            return ("zero",), ("zero",)
        rows, ways = plan.config[0], plan.config[1]
        rest = plan.config[2:]
        tclass = _table_class(keys.universe(plan.family), rows, ways)
        geom = None if tclass == ("inf",) else (rows, ways)
        dedup = (plan.family, rest, tclass, plan.cap, plan.clamp)
        emit = (plan.family, rest, geom, plan.cap, plan.clamp)
        return dedup, emit
    if plan.family == "none":
        # Null never buffers or issues: every slot is one zero row.
        return ("none",), ("none",)
    sig = (plan.family, plan.config, plan.cap, plan.clamp)
    return sig, sig


# ---------------------------------------------------------------------------
# Code generation: one fused loop, constants inlined, names mangled by
# class index. Templates use @K@/@CONST@ markers substituted with plain
# str.replace (no str.format — the code itself is full of braces and
# modulo operators), and @PROBE@/@INSERT:var@/@PREFETCH@ marker lines
# spliced with the shared buffer blocks at the marker's indentation.
# ---------------------------------------------------------------------------


def _probe_lines(pad: str, k: str, var: str, warmup: int) -> list[str]:
    """Buffer probe: remove on hit, count after warm-up.

    Buffer values are always ``None``, so one ``pop`` with a non-None
    default replaces the ``in`` + ``del`` double hash lookup.
    """
    lines = [
        f"{pad}if bp{k}({var}, 0) is None:",
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
            warmup: int, cap: int, clamp: int, probe_var: str | None = None):
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
            out.extend(_probe_lines(pad, k, probe_var or "page", warmup))
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


def _emit_none(k, plan, warmup):
    return [], {}, "(0, 0, 0, 0, 0, 0)"


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
    return _counters_setup(k), {"top": out}, _result(k)


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
    return setup, {"top": out}, _result(k)


def _result(k, overhead="0"):
    return f"(pb{k}, iss{k}, ins{k}, rf{k}, ev{k}, {overhead})"


def _emit_stride(k, sig, warmup):
    geom, cap, clamp = sig[2], sig[3], sig[4]
    out: list[str] = []
    out.extend(_probe_lines("", k, "page", warmup))
    if geom is None:
        # Never-overflow: one plain dict pc -> [prev_page, stride, state].
        setup = _counters_setup(k) + [f"st{k} = {{}}"]
        out.append(f"en{k} = st{k}.get(pc)")
        out.append(f"if en{k} is None:")
        out.append(f"    st{k}[pc] = [page, 0, 0]")
        out.append("else:")
        _render(
            out, _STRIDE_FSM, "    ", k,
            {
                "@PREV@": f"en{k}[0]", "@STRIDE@": f"en{k}[1]",
                "@STATE@": f"en{k}[2]", "@SET_STATE@": f"en{k}[2]",
                "@SET_STRIDE@": f"en{k}[1]", "@SET_PREV@": f"en{k}[0]",
            },
            warmup, cap, clamp,
        )
        return setup, {"top": out}, _result(k)
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
        return setup, {"top": out}, _result(k)
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
    return setup, {"top": out}, _result(k)


def _emit_markov(k, sig, warmup):
    """MP bodies: lookup + install in "top", successor update in "mp".

    The install loop iterates the *live* slot list captured at lookup
    time, before any successor update runs — exactly the reference
    engine's materialize-at-predict semantics (buffer inserts never
    touch the table, so running them first is unobservable). The
    update lands in the shared ``if lp is not None and lp != page:``
    block that :func:`_generate` emits once for every MP class.
    """
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    out: list[str] = []
    out.extend(_probe_lines("", k, "page", warmup))
    update = _successor_update(slots).replace("@VALUE@", "page")
    upd: list[str] = []
    # Two slots (the paper's standard MP geometry) unrolls the install:
    # no iterator and no clamp copy. A clamp >= 2 is a no-op for two
    # slots; clamp == 1 just omits the second install (``issued`` still
    # counts the full slot list, matching the reference engine).
    two = slots == 2
    second = clamp != 1
    if geom is None:
        setup = _counters_setup(k) + [f"mt{k} = {{}}", f"mg{k} = mt{k}.get"]
        out.append(f"pf{k} = mg{k}(page)")
        if two:
            out.append(f"if pf{k} is None:")
            out.append(f"    mt{k}[page] = []")
            out.append(f"elif pf{k}:")
            out.append(f"    n{k} = len(pf{k})")
            out.append(f"    iss{k} += n{k}")
            out.append(f"    tg{k} = pf{k}[0]")
            out.extend(_insert_lines("    ", k, f"tg{k}", cap))
            if second:
                out.append(f"    if n{k} > 1:")
                out.append(f"        tg{k} = pf{k}[1]")
                out.extend(_insert_lines("        ", k, f"tg{k}", cap))
        else:
            out.append(f"if pf{k} is not None:")
            out.append(f"    iss{k} += len(pf{k})")
            out.append("else:")
            out.append(f"    mt{k}[page] = []")
            out.append(f"    pf{k} = ()")
            out.extend(_prefetch_lines("", k, cap, clamp))
        upd.append(f"sc{k} = mg{k}(lp)")
        upd.append(f"if sc{k} is None:")
        upd.append(f"    sc{k} = []")
        upd.append(f"    mt{k}[lp] = sc{k}")
        _render(upd, update, "", k, {}, warmup, cap, clamp)
        return setup, {"top": out, "mp": upd}, _result(k)
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
        return setup, {"top": out, "mp": upd}, _result(k)
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
        return setup, {"top": out, "mp": upd}, _result(k)
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
    return setup, {"top": out, "mp": upd}, _result(k)


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

    if geom is None:
        setup = _counters_setup(k) + [f"dt{k} = {{}}"]
        out.append(f"row{k} = dt{k}.get({key_var})")
        out.append(f"if row{k} is not None:")
        out.extend(hit)
        out.append("else:")
        out.append(f"    dt{k}[{key_var}] = []")
        miss_and_install()
        out.append(f"if {prev_var} is not None:")
        out.append(f"    sc{k} = dt{k}.get({prev_var})")
        out.append(f"    if sc{k} is None:")
        out.append(f"        sc{k} = []")
        out.append(f"        dt{k}[{prev_var}] = sc{k}")
        _render(out, update, "    ", k, {}, warmup, cap, clamp)
        trailing_install()
        return setup, {section: out}, _result(k)
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
        return setup, {section: out}, _result(k)
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
    return setup, {section: out}, _result(k)


def _emit_recency(k, sig, warmup, probe_var="rpage"):
    (variant_three,), cap, clamp = sig[1], sig[2], sig[3]
    out: list[str] = []
    out.extend(_probe_lines("", k, probe_var, warmup))
    if not clamp:
        # No clamp: install each stack neighbor directly, in the same
        # above-then-below(-then-third) order the list would have had.
        out.append("if rabove != -1:")
        out.append(f"    iss{k} += 1")
        out.extend(_insert_lines("    ", k, "rabove", cap))
        out.append("if rbelow != -1:")
        out.append(f"    iss{k} += 1")
        out.extend(_insert_lines("    ", k, "rbelow", cap))
        if variant_three:
            out.append("if rthird != -1:")
            out.append(f"    iss{k} += 1")
            out.extend(_insert_lines("    ", k, "rthird", cap))
        return _counters_setup(k), {"rp": out}, _result(k, "rp_overhead")
    out.append(f"pf{k} = []")
    out.append("if rabove != -1:")
    out.append(f"    pf{k}.append(rabove)")
    out.append("if rbelow != -1:")
    out.append(f"    pf{k}.append(rbelow)")
    if variant_three:
        out.append("if rthird != -1:")
        out.append(f"    pf{k}.append(rthird)")
    out.append(f"if pf{k}:")
    out.append(f"    iss{k} += len(pf{k})")
    out.append(f"    if len(pf{k}) > {clamp}:")
    out.append(f"        pf{k} = pf{k}[:{clamp}]")
    out.append(f"    for tg{k} in pf{k}:")
    out.extend(_insert_lines("        ", k, f"tg{k}", cap))
    return _counters_setup(k), {"rp": out}, _result(k, "rp_overhead")


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


def _emit_live_recency(k, sig, warmup):
    """RP with its stack in the slot: a live slot's state is read back,
    so it cannot use the per-trace precomputed neighbor streams. The
    buffer work is :func:`_emit_recency`'s, keyed by real pages."""
    (variant_three,), cap, clamp = sig[1], sig[2], sig[3]
    template = _LIVE_STACK + (_LIVE_THIRD if variant_three else "")
    out: list[str] = []
    _render(out, template, "", k, {}, warmup, cap, clamp)
    _, sections, _ = _emit_recency(k, sig, warmup, probe_var="page")
    out.extend(sections["rp"])
    setup = _counters_setup(k) + [
        f"rp{k} = {{}}",
        f"rtop{k} = -1",
        f"rov{k} = rlo{k} = 0",
    ]
    return setup, {"top": out}, _result(k, f"rov{k}")


def _recency_streams(
    rp_pages: list[int], rp_evicted: list[int], rp_footprint: int
) -> tuple[list[int], list[int], list[int], int]:
    """Precompute the recency stack's per-miss neighbors for one trace.

    The stack evolution depends only on the miss stream — never on any
    mechanism config — so the (above, below, third) neighbors seen at
    every miss, and the total maintenance overhead, are computed once
    per trace and cached in its :class:`_TraceAnalysis`. Every RP
    class then reduces to buffer work over these arrays. ``third`` is
    pre-filtered exactly as the replay would (absent, off-stack, or
    equal to the missing page -> -1).
    """
    rp_next = [-1] * rp_footprint
    rp_prev = [-1] * rp_footprint
    rp_on = bytearray(rp_footprint)
    rp_top = -1
    overhead = 0
    above: list[int] = []
    below: list[int] = []
    third: list[int] = []
    for rpage, revt in zip(rp_pages, rp_evicted):
        if rp_on[rpage]:
            rbelow = rp_next[rpage]
            rabove = rp_prev[rpage]
            if rabove != -1:
                rp_next[rabove] = rbelow
            else:
                rp_top = rbelow
            if rbelow != -1:
                rp_prev[rbelow] = rabove
            rp_prev[rpage] = -1
            rp_next[rpage] = -1
            rp_on[rpage] = 0
            overhead += 2
        else:
            rbelow = -1
            rabove = -1
        if revt != -1:
            if rp_on[revt]:
                ea = rp_prev[revt]
                eb = rp_next[revt]
                if ea != -1:
                    rp_next[ea] = eb
                else:
                    rp_top = eb
                if eb != -1:
                    rp_prev[eb] = ea
            rp_next[revt] = rp_top
            rp_prev[revt] = -1
            rp_on[revt] = 1
            if rp_top != -1:
                rp_prev[rp_top] = revt
            rp_top = revt
            overhead += 2
        above.append(rabove)
        below.append(rbelow)
        if rbelow != -1 and rp_on[rbelow]:
            th = rp_next[rbelow]
            if th == rpage:
                th = -1
        else:
            th = -1
        third.append(th)
    return above, below, third, overhead


def _emit_class(k: str, sig: tuple, warmup: int):
    family = sig[0]
    if family == "zero":
        # A provably hit-free table mechanism: no per-miss work at all.
        return [], {}, "(0, 0, 0, 0, 0, 0)"
    if family == "none":
        return _emit_none(k, sig, warmup)
    if family == "none-live":
        # A live Null slot still drains a seeded buffer on hits.
        return (
            _counters_setup(k),
            {"top": _probe_lines("", k, "page", warmup)},
            _result(k),
        )
    if family == "rp-live":
        return _emit_live_recency(k, sig, warmup)
    if family == "seq":
        return _emit_seq(k, sig, warmup)
    if family == "aseq":
        return _emit_aseq(k, sig, warmup)
    if family == "stride":
        return _emit_stride(k, sig, warmup)
    if family == "markov":
        return _emit_markov(k, sig, warmup)
    if family == "distance":
        setup, sections, result = _emit_keyed_table(
            k, sig, warmup, "distance", "pd", "dp"
        )
    elif family == "pcdist":
        setup, sections, result = _emit_keyed_table(
            k, sig, warmup, "kpc", "pkc", "dp"
        )
    elif family == "distpair":
        setup, sections, result = _emit_keyed_table(
            k, sig, warmup, "dpk", "pk2", "dp2"
        )
    elif family == "recency":
        return _emit_recency(k, sig, warmup)
    else:  # pragma: no cover - _plan vets families
        raise ConfigurationError(f"unknown batch family {family!r}")
    # DP-family bodies probe the buffer on every miss (top level) and
    # run their table logic only once a distance (pair) exists.
    probe = _probe_lines("", k, "page", warmup)
    sections["top"] = probe
    return setup, sections, result


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


def _generate(
    warmup: int, emit_sigs: tuple[tuple, ...], live: bool = False
) -> str:
    """Source of the fused loop for one batch shape.

    A ``live`` shape differs only around the per-miss body: an
    ``_init()`` builds the slot state as a dict, and the loop loads it
    from that dict, replays ``[start, stop)`` and stores it back.
    """
    setups: list[str] = []
    tops: list[str] = []
    mps: list[str] = []
    dps: list[str] = []
    dp2s: list[str] = []
    rps: list[str] = []
    results: list[str] = []
    need_pc = need_lp = need_dist = need_pd = False
    need_kpc = need_dpk = need_rp = need_rp3 = False
    for index, sig in enumerate(emit_sigs):
        family = sig[0]
        if family in ("stride", "pcdist"):
            need_pc = True
        if family in ("markov", "distance", "pcdist", "distpair"):
            need_lp = need_dist = True
        if family in ("distance", "distpair"):
            need_pd = True
        if family == "pcdist":
            need_kpc = True
        if family == "distpair":
            need_dpk = True
        if family == "recency":
            need_rp = True
            if sig[1][0]:
                need_rp3 = True
        setup, sections, result = _emit_class(str(index), sig, warmup)
        setups.extend(setup)
        tops.extend(sections.get("top", ()))
        mps.extend(sections.get("mp", ()))
        dps.extend(sections.get("dp", ()))
        dp2s.extend(sections.get("dp2", ()))
        rps.extend(sections.get("rp", ()))
        results.append(result)

    inits = list(setups)
    if need_lp:
        inits.append("last_page = None")
    if need_pd:
        inits.append("last_dist = None")
    if need_kpc:
        inits.append("last_kpc = None")
    if need_dpk:
        inits.append("last_dpk = None")
    pad = "    "
    if live:
        state, derived = _state_names(inits)
        lines = ["def _init():"]
        lines.extend(pad + line for line in inits)
        lines.append(
            pad + "return {" + ", ".join(f"{n!r}: {n}" for n in state) + "}"
        )
        lines.append("")
        lines.append("def _batch(pcs, pages, evicted, start, stop, S,")
    else:
        lines = [
            "def _batch(pcs, pages, rp_pages, rp_above, rp_below, "
            "rp_third, rp_overhead,",
        ]
    # Hot-loop names bound as defaults: LOAD_FAST instead of
    # LOAD_GLOBAL for every builtin/table-helper call per miss.
    lines += [
        "           len=len, next=next, iter=iter, min=min, max=max,",
        "           pack_pc_distance=pack_pc_distance,",
        "           pack_distance_pair=pack_distance_pair):",
    ]
    if live:
        lines.extend(f"{pad}{name} = S[{name!r}]" for name in state)
        lines.extend(pad + line for line in derived)
    else:
        lines.extend(pad + line for line in inits)
    loop: list[str] = []
    if need_lp:
        loop.append("lp = last_page")
        loop.append("last_page = page")
    if warmup or live:
        # Probes test `index >= warmup` (and a live loop indexes the
        # global stream position), so the loop must enumerate.
        if need_pc:
            loop.append("pc = pcs[index]")
        if need_rp:
            loop.append("rpage = rp_pages[index]")
            loop.append("rabove = rp_above[index]")
            loop.append("rbelow = rp_below[index]")
            if need_rp3:
                loop.append("rthird = rp_third[index]")
    loop.extend(tops)
    if mps:
        # One shared guard for every MP class's successor update (the
        # self-successor rule: a page is never its own successor).
        loop.append("if lp is not None and lp != page:")
        for line in mps:
            loop.append(pad + line)
    if need_dist and (dps or dp2s):
        loop.append("if lp is not None:")
        loop.append(pad + "distance = page - lp")
        if need_pd:
            loop.append(pad + "pd = last_dist")
            loop.append(pad + "last_dist = distance")
        if need_kpc:
            loop.append(pad + "kpc = pack_pc_distance(pc, distance)")
            loop.append(pad + "pkc = last_kpc")
            loop.append(pad + "last_kpc = kpc")
        for line in dps:
            loop.append(pad + line)
        if need_dpk and dp2s:
            loop.append(pad + "if pd is not None:")
            loop.append(pad + pad + "dpk = pack_distance_pair(pd, distance)")
            loop.append(pad + pad + "pk2 = last_dpk")
            loop.append(pad + pad + "last_dpk = dpk")
            for line in dp2s:
                loop.append(pad + pad + line)
    if need_rp:
        loop.extend(rps)
    if loop:
        # An all-Null batch has no per-miss work at all — skip the loop.
        # Without a warm-up window nothing reads `index`: zip exactly
        # the arrays the bodies touch instead of enumerating.
        if live:
            lines.append(
                pad + "for index, page in enumerate(pages[start:stop], start):"
            )
        elif warmup:
            lines.append(pad + "for index, page in enumerate(pages):")
        else:
            names, iters = ["page"], ["pages"]
            if need_pc:
                names.append("pc")
                iters.append("pcs")
            if need_rp:
                names += ["rpage", "rabove", "rbelow"]
                iters += ["rp_pages", "rp_above", "rp_below"]
                if need_rp3:
                    names.append("rthird")
                    iters.append("rp_third")
            if len(iters) == 1:
                lines.append(pad + "for page in pages:")
            else:
                lines.append(
                    pad + "for " + ", ".join(names)
                    + " in zip(" + ", ".join(iters) + "):"
                )
        body = pad + pad
        for line in loop:
            lines.append(body + line)
    if live:
        lines.extend(f"{pad}S[{name!r}] = {name}" for name in state)
        return "\n".join(lines) + "\n"
    lines.append(pad + "return [")
    for result in results:
        lines.append(pad + pad + result + ",")
    lines.append(pad + "]")
    return "\n".join(lines) + "\n"


#: Compiled fused loops memoized by (warmup, emission signatures,
#: live) — a sweep's streams typically share one shape, so codegen
#: runs once.
_CODE_CACHE: dict[tuple, object] = {}

#: Source of the most recently generated loop (debugging/tests).
_LAST_SOURCE: str | None = None


def _compiled(warmup: int, emit_sigs: tuple[tuple, ...], live: bool = False):
    """The compiled loop for a shape; ``(init, loop)`` when ``live``."""
    global _LAST_SOURCE
    key = (warmup, emit_sigs, live)
    fn = _CODE_CACHE.get(key)
    if fn is None:
        source = _generate(warmup, emit_sigs, live)
        _LAST_SOURCE = source
        namespace = {
            "pack_pc_distance": pack_pc_distance,
            "pack_distance_pair": pack_distance_pair,
        }
        exec(compile(source, "<repro.sim.batchpath>", "exec"), namespace)
        fn = (namespace["_init"], namespace["_batch"]) if live else namespace["_batch"]
        if len(_CODE_CACHE) >= 256:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = fn
    return fn


# ---------------------------------------------------------------------------
# Public entry point.
# ---------------------------------------------------------------------------


class _TraceAnalysis:
    """Per-trace batch analysis, computed once and reused across calls."""

    __slots__ = ("keys", "rp", "sigs")

    def __init__(self) -> None:
        self.keys: _StreamKeys | None = None
        # (rp_pages, above, below, third, overhead): the dense page
        # ids plus the precomputed recency-stack neighbor streams.
        self.rp: (
            tuple[list[int], list[int], list[int], list[int], int] | None
        ) = None
        # (family, config, cap, clamp) -> (dedup_sig, emit_sig); the
        # equivalence analysis is a pure function of the trace and
        # those four plan fields, so repeat batches skip it entirely.
        self.sigs: dict[tuple, tuple[tuple, tuple]] = {}


#: Keyed by ``id(miss_trace)``; a weakref finalizer evicts the entry
#: when the trace dies, so a recycled id can never alias a stale entry.
_ANALYSIS_CACHE: dict[int, _TraceAnalysis] = {}


def _analysis_for(miss_trace: MissTrace) -> _TraceAnalysis:
    key = id(miss_trace)
    analysis = _ANALYSIS_CACHE.get(key)
    if analysis is None:
        analysis = _TraceAnalysis()
        _ANALYSIS_CACHE[key] = analysis
        weakref.finalize(miss_trace, _ANALYSIS_CACHE.pop, key, None)
    return analysis


def replay_batch(
    miss_trace: MissTrace,
    requests: "list[tuple[Prefetcher, int, int]]",
) -> "list[PrefetchRunStats]":
    """Replay N fresh mechanisms over one miss stream in a single pass.

    ``requests`` is a list of ``(prefetcher, buffer_entries,
    max_prefetches_per_miss)`` triples; every prefetcher must be a
    freshly built instance of a supported mechanism (raises
    :class:`~repro.errors.ConfigurationError` otherwise). Returns one
    :class:`~repro.sim.stats.PrefetchRunStats` per request, in request
    order, bit-identical to what the reference engine produces. The
    instances are *not* trained — batch replays are for throwaway
    mechanisms built from specs; warm instances take
    :func:`replay_live`.
    """
    plans = []
    for prefetcher, cap, clamp in requests:
        plan = _plan(prefetcher, cap, clamp)
        if not is_fresh(prefetcher):
            raise ConfigurationError(
                "replay_batch replays freshly built mechanisms only; "
                "warm instances take replay_live"
            )
        plans.append(plan)
    pcs, pages, _evicted = miss_trace.as_lists()
    warmup = miss_trace.warmup_misses
    analysis = _analysis_for(miss_trace)
    if analysis.keys is None:
        analysis.keys = _StreamKeys(pcs, pages)
    keys = analysis.keys

    class_of: dict[tuple, int] = {}
    emit_sigs: list[tuple] = []
    slot_class: list[int] = []
    for plan in plans:
        cache_key = (plan.family, plan.config, plan.cap, plan.clamp)
        cached = analysis.sigs.get(cache_key)
        if cached is None:
            cached = _sigs(plan, keys)
            analysis.sigs[cache_key] = cached
        dedup_sig, emit_sig = cached
        index = class_of.get(dedup_sig)
        if index is None:
            index = len(emit_sigs)
            class_of[dedup_sig] = index
            emit_sigs.append(emit_sig)
        slot_class.append(index)

    rp_pages: list[int] = []
    rp_above: list[int] = []
    rp_below: list[int] = []
    rp_third: list[int] = []
    rp_overhead = 0
    if any(sig[0] == "recency" for sig in emit_sigs):
        if analysis.rp is None:
            pages_array = miss_trace.pages
            evicted_array = miss_trace.evicted
            unique = np.unique(
                np.concatenate([pages_array, evicted_array[evicted_array >= 0]])
            )
            rp_pages = np.searchsorted(unique, pages_array).tolist()
            rp_evicted = np.where(
                evicted_array >= 0, np.searchsorted(unique, evicted_array), -1
            ).tolist()
            analysis.rp = (rp_pages,) + _recency_streams(
                rp_pages, rp_evicted, len(unique)
            )
        rp_pages, rp_above, rp_below, rp_third, rp_overhead = analysis.rp

    fn = _compiled(warmup, tuple(emit_sigs))
    rows = fn(pcs, pages, rp_pages, rp_above, rp_below, rp_third, rp_overhead)
    return [
        _make_stats(miss_trace, plan.label, rows[slot_class[i]])
        for i, plan in enumerate(plans)
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
    """Emission signature of a live slot: always the concrete geometry."""
    if plan.family in _TABLE_FAMILIES:
        rest, geom = plan.config[2:], plan.config[:2]
        return (plan.family, rest, geom, plan.cap, plan.clamp)
    if plan.family == "none":
        return ("none-live",)
    if plan.family == "recency":
        return ("rp-live", plan.config, plan.cap, plan.clamp)
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
        self._code = _compiled(
            self.miss_trace.warmup_misses, (self._sig,), live=True
        )
        state = self._code[0]()
        seed = self._seed_mechanism()
        family = self._sig[0]
        for name, field in _SNAPSHOT_SCALARS.get(family, ()):
            state[name] = getattr(seed, field)
        if family in _TABLE_FAMILIES:
            _seed_table(state, family, seed.table)
        elif family == "rp-live":
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
        if state is None or family == "none-live":
            # Null never calls account(): nothing about it changes.
            return seed
        _, issued, _, _, _, overhead = self.totals()
        fields = {"prefetches_issued": issued, "overhead_ops_total": overhead}
        if family == "rp-live":
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
