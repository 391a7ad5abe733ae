"""Replay-engine selection: the reference loop or the compiled engine.

Two engines replay a mechanism over a TLB miss stream:

- ``"reference"`` — :func:`repro.sim.two_phase.replay_prefetcher`,
  driving live :class:`~repro.prefetch.base.Prefetcher` /
  :class:`~repro.tlb.prefetch_buffer.PrefetchBuffer` objects. This is
  the authoritative engine: the paper's numbers come from it.
- the compiled engine (:mod:`repro.sim.batchpath`) — a native batch
  kernel and generated live-slot loops, bit-identical by contract
  (and by the ``tests/differential/`` harness) but many times faster.
  A :class:`~repro.run.runner.Runner` replays each stream's fresh
  specs in one batch (:func:`~repro.sim.batchpath.replay_batch`); a
  single replay of a given instance (this module's :func:`replay`)
  seeds a live slot from the instance's snapshot and writes the final
  state back (:func:`~repro.sim.batchpath.replay_live`), so warm
  (trained) instances replay compiled too.

The accepted ``engine`` names are ``"auto"``, ``"reference"``,
``"fast"`` and ``"batch"``; ``"fast"`` and ``"batch"`` both force the
compiled engine. ``"auto"`` picks it whenever the mechanism has a
compiled loop and falls back to the reference engine only for
mechanisms without one — e.g. user-defined subclasses — so ``auto`` is
always correct to request.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher
from repro.sim import batchpath
from repro.sim.stats import PrefetchRunStats
from repro.sim.two_phase import replay_prefetcher

#: Engine names accepted everywhere an ``engine`` knob appears
#: (``RunSpec``, ``Runner``, ``evaluate``, ``simulate``, the CLI).
ENGINES: tuple[str, ...] = ("auto", "reference", "fast", "batch")

#: What :func:`resolve_engine` reports for the compiled engine.
COMPILED = "compiled"


def validate_engine(engine: str) -> str:
    """Return ``engine`` or raise the library's configuration error."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine


def resolve_engine(prefetcher: Prefetcher, engine: str = "auto") -> str:
    """The engine a replay will use: ``"reference"`` or :data:`COMPILED`.

    ``"fast"`` and ``"batch"`` force the compiled engine and raise
    :class:`~repro.errors.ConfigurationError` for a mechanism without
    a compiled loop; ``"auto"`` falls back to the reference engine.
    """
    validate_engine(engine)
    if engine == "reference":
        return "reference"
    if batchpath.supports(prefetcher):
        return COMPILED
    if engine == "auto":
        return "reference"
    raise ConfigurationError(
        f"compiled engine has no replay loop for {type(prefetcher).__name__}; "
        "use engine='reference' or 'auto'"
    )


def replay(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
    engine: str = "auto",
) -> PrefetchRunStats:
    """Replay one mechanism over a miss stream on the selected engine.

    The engines are observationally identical: same statistics, and
    both train the given instance (warm or fresh) the same way — any
    sequence of replays leaves the instance with the same canonical
    snapshot regardless of which engine ran each one.
    """
    run = (
        batchpath.replay_live
        if resolve_engine(prefetcher, engine) == COMPILED
        else replay_prefetcher
    )
    return run(
        miss_trace,
        prefetcher,
        buffer_entries=buffer_entries,
        max_prefetches_per_miss=max_prefetches_per_miss,
    )
