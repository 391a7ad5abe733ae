"""DifferentialRunner: execute one spec on every engine, demand equality.

"Bit-identical" here is literal: the full
:class:`~repro.sim.stats.PrefetchRunStats` dataclass — every stored
counter and every ``extra`` annotation — must compare equal field for
field, and whole :class:`~repro.run.results.ResultSet` batches must
serialize to identical JSON. Tolerances would defeat the point: the
compiled engine is only trustworthy if it *is* the reference engine,
observationally.

Every check compares the two engines: the reference loop and the
compiled engine, through both of its entry points — the
:func:`~repro.sim.batchpath.replay_batch` a :class:`~repro.run.Runner`
uses for fresh specs (the direct-trace checks send it a duplicated
request so the sharing of duplicate runs is exercised too), and
the live slot :func:`~repro.sim.batchpath.replay_live` behind
``engine.replay``, which emits every table with its concrete geometry.

Fresh batches have two implementations — the native C kernel and the
Python live-slot fallback a host without a compiler runs — so batch
checks run inside :func:`batch_kernel`, which picks one and verifies
that it is the one that ran.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict
from unittest import mock

import pytest

from repro.mem.trace import MissTrace, ReferenceTrace
from repro.prefetch.base import Prefetcher
from repro.run import MissStreamCache, ResultSet, Runner, RunSpec
from repro.run.runner import annotate_stats
from repro.sim import batchpath
from repro.sim.batchpath import replay_batch, replay_live
from repro.sim.config import SimulationConfig
from repro.sim.stats import PrefetchRunStats
from repro.sim.two_phase import filter_tlb, replay_prefetcher


#: The two fresh-batch kernels every batch check runs on.
KERNELS = ("native", "python")

#: Set by ``pytest --python-kernel`` (``tests/conftest.py``): the
#: native kernel's loader reports no kernel for the whole session.
FORCE_PYTHON = False


@contextlib.contextmanager
def batch_kernel(mode: str, expect: str | None = None):
    """Replay fresh batches in the block on ``mode``'s kernel.

    ``"python"`` patches the native kernel's loader to report no
    compiler, as on a host without one. On exit, asserts that every
    batch in the block ran on ``expect`` (default: ``mode``, or
    ``"python"`` under ``--python-kernel``), read from the ``kernel``
    attribute each batch puts on its trace span. Skips the test when
    ``"native"`` is asked for and no compiler works here.
    """
    expected = expect or ("python" if FORCE_PYTHON else mode)
    if mode == "native" and not FORCE_PYTHON and batchpath._native_kernel() is None:
        pytest.skip("no working C compiler for the native batch kernel")
    ran: list[str] = []
    annotate = batchpath.annotate

    def spy(**attrs):
        ran.append(attrs["kernel"])
        annotate(**attrs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(batchpath, "annotate", spy))
        if mode == "python":
            stack.enter_context(
                mock.patch.object(batchpath, "_native_kernel", lambda: None)
            )
        yield
    assert ran and set(ran) == {expected}, f"batches ran on {ran}, expected {expected}"


class EngineDivergenceError(AssertionError):
    """The two engines disagreed; the message lists differing fields."""


def assert_identical(
    reference: PrefetchRunStats, compiled: PrefetchRunStats, context: str = ""
) -> None:
    """Raise :class:`EngineDivergenceError` unless stats match exactly."""
    ref_dict = asdict(reference)
    compiled_dict = asdict(compiled)
    if ref_dict == compiled_dict:
        return
    diffs = [
        f"  {name}: reference={ref_dict[name]!r} compiled={compiled_dict[name]!r}"
        for name in ref_dict
        if ref_dict[name] != compiled_dict.get(name, object())
    ]
    where = f" [{context}]" if context else ""
    raise EngineDivergenceError(
        "compiled engine diverged from reference engine" + where + ":\n"
        + "\n".join(diffs)
    )


class DifferentialRunner:
    """Runs identical work through both replay engines and compares.

    Uses a private miss-stream cache so phase 1 (TLB filtering, shared
    by both engines by construction) is paid once per stream while the
    two phase-2 replays stay independent.
    """

    def __init__(self) -> None:
        self.runner = Runner(cache=MissStreamCache())
        self.checked = 0

    def run_both(self, spec: RunSpec) -> tuple[PrefetchRunStats, PrefetchRunStats]:
        """Execute ``spec`` on the reference and the compiled engine."""
        reference = self.runner.run_one(spec.derive(engine="reference"))
        compiled = self.runner.run_one(spec.derive(engine="batch"))
        return reference, compiled

    def check_spec(self, spec: RunSpec) -> PrefetchRunStats:
        """Assert both engines agree on ``spec``; return the stats."""
        reference, compiled = self.run_both(spec)
        context = f"spec {spec.label} {spec.key()}"
        assert_identical(reference, compiled, context=context)
        live = replay_live(
            self.runner.miss_stream_for(spec),
            spec.build_prefetcher(),
            buffer_entries=spec.buffer_entries,
            max_prefetches_per_miss=spec.max_prefetches_per_miss,
        )
        assert_identical(
            reference, annotate_stats(live, spec), context=f"live {context}"
        )
        self.checked += 1
        return reference

    def check_batch(self, specs: list[RunSpec]) -> ResultSet:
        """Assert whole-batch ResultSets serialize identically."""
        reference = self.runner.run([spec.derive(engine="reference") for spec in specs])
        compiled = self.runner.run([spec.derive(engine="batch") for spec in specs])
        for ref_row, compiled_row in zip(reference, compiled):
            assert_identical(ref_row, compiled_row, context=ref_row.workload)
        if reference.to_json() != compiled.to_json():
            raise EngineDivergenceError(
                "ResultSet JSON differs between engines despite equal rows"
            )
        self.checked += len(specs)
        return reference

    def check_trace(
        self,
        trace: ReferenceTrace,
        prefetcher_factory,
        config: SimulationConfig,
    ) -> PrefetchRunStats:
        """Differential check for an ad-hoc trace (no registry spec).

        ``prefetcher_factory`` must build a *fresh* mechanism per call
        — each engine gets its own instance, exactly as
        :class:`~repro.run.runner.Runner` builds one per run.
        """
        miss_trace = filter_tlb(trace, config.tlb, config.warmup_fraction)
        return self.check_miss_trace(miss_trace, prefetcher_factory, config)

    def check_miss_trace(
        self,
        miss_trace: MissTrace,
        prefetcher_factory,
        config: SimulationConfig,
    ) -> PrefetchRunStats:
        """Differential check replaying an already-filtered stream."""
        reference = replay_prefetcher(
            miss_trace,
            prefetcher_factory(),
            buffer_entries=config.buffer_entries,
            max_prefetches_per_miss=config.max_prefetches_per_miss,
        )
        live = replay_live(
            miss_trace,
            prefetcher_factory(),
            buffer_entries=config.buffer_entries,
            max_prefetches_per_miss=config.max_prefetches_per_miss,
        )
        assert_identical(reference, live, context=f"live trace {miss_trace.name}")
        # The same request twice in one batch: the second shares the
        # first's run, and both must match reference.
        batch_rows = replay_batch(
            miss_trace,
            [
                (
                    prefetcher_factory(),
                    config.buffer_entries,
                    config.max_prefetches_per_miss,
                )
                for _ in range(2)
            ],
        )
        for slot, row in enumerate(batch_rows):
            assert_identical(
                reference, row, context=f"batch trace {miss_trace.name} slot {slot}"
            )
        self.checked += 1
        return reference


def fresh_factory(builder, *args, **kwargs):
    """A zero-argument factory building a fresh mechanism per call."""

    def factory() -> Prefetcher:
        return builder(*args, **kwargs)

    return factory
