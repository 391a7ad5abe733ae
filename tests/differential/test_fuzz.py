"""Randomized differential fuzzing: both engines, any scenario.

Hypothesis generates random RLE traces, mechanism configurations and
engine knobs (seeded and shrinkable — a failure replays and minimizes
deterministically), and every example must produce bit-identical
statistics on both engines, with fresh batches on the native kernel
and, in the ``*_python_kernel`` twins, on its Python fallback. The
budget (per test) is tunable for CI:

- ``DIFF_FUZZ_EXAMPLES``       — trace-level examples (default 200)
- ``DIFF_FUZZ_SPEC_EXAMPLES``  — registry-spec examples (default 25)

Run a fixed-seed short budget (the CI ``differential-smoke`` job)
with::

    DIFF_FUZZ_EXAMPLES=60 python -m pytest tests/differential -q \
        --hypothesis-seed=2002
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.trace import ReferenceTrace
from repro.prefetch.factory import create_prefetcher
from repro.run import RunSpec
from repro.sim.config import SimulationConfig, TLBConfig

from tests.differential.harness import DifferentialRunner, batch_kernel, fresh_factory

TRACE_EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "200"))
SPEC_EXAMPLES = int(os.environ.get("DIFF_FUZZ_SPEC_EXAMPLES", "25"))

#: Shared across examples so registry miss streams filter only once.
_DIFFERENTIAL = DifferentialRunner()


@st.composite
def mechanism_configs(draw) -> tuple[str, dict]:
    """A mechanism name plus randomized (always-valid) parameters."""
    name = draw(
        st.sampled_from(
            ["none", "SP", "SP-adaptive", "ASP", "MP", "RP", "DP", "DP-PC", "DP-2"]
        )
    )
    params: dict[str, int] = {}
    if name == "SP":
        params["degree"] = draw(st.integers(1, 4))
    elif name == "SP-adaptive":
        params["max_degree"] = draw(st.sampled_from([2, 8]))
        params["window"] = draw(st.sampled_from([4, 16]))
    elif name == "RP":
        params["variant_three"] = draw(st.integers(0, 1))
    elif name in ("ASP", "MP", "DP", "DP-PC", "DP-2"):
        params["rows"] = draw(st.sampled_from([8, 16, 64]))
        params["ways"] = draw(st.sampled_from([1, 2, 4, 0]))
        if name != "ASP":
            params["slots"] = draw(st.integers(1, 3))
    return name, params


@st.composite
def rle_traces(draw) -> ReferenceTrace:
    """Small random run-length-encoded traces with a few distinct PCs."""
    n = draw(st.integers(min_value=1, max_value=80))
    pcs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    pages = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return ReferenceTrace(pcs, pages, counts, name="fuzz")


@st.composite
def sim_configs(draw) -> SimulationConfig:
    entries = draw(st.sampled_from([4, 8]))
    ways = draw(st.sampled_from([0, 2]))
    return SimulationConfig(
        tlb=TLBConfig(entries=entries, ways=ways),
        buffer_entries=draw(st.sampled_from([1, 2, 4, 16])),
        warmup_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
        max_prefetches_per_miss=draw(st.sampled_from([0, 1, 2, 3])),
    )


def _check_trace(kernel, trace, mechanism, config):
    name, params = mechanism
    with batch_kernel(kernel):
        _DIFFERENTIAL.check_trace(
            trace, fresh_factory(create_prefetcher, name, **params), config
        )


@settings(max_examples=TRACE_EXAMPLES, deadline=None)
@given(trace=rle_traces(), mechanism=mechanism_configs(), config=sim_configs())
def test_fuzz_traces_bit_identical(trace, mechanism, config):
    """Random trace × random mechanism × random knobs: engines agree."""
    _check_trace("native", trace, mechanism, config)


@settings(max_examples=TRACE_EXAMPLES, deadline=None)
@given(trace=rle_traces(), mechanism=mechanism_configs(), config=sim_configs())
def test_fuzz_traces_bit_identical_python_kernel(trace, mechanism, config):
    _check_trace("python", trace, mechanism, config)


SPEC_AXES = dict(
    workload=st.sampled_from(["galgel", "epic", "anagram", "perl4"]),
    mechanism=mechanism_configs(),
    tlb_entries=st.sampled_from([32, 64]),
    page_size=st.sampled_from([4096, 8192]),
    buffer_entries=st.sampled_from([4, 16]),
    clamp=st.sampled_from([0, 2]),
    warmup=st.sampled_from([0.0, 0.2]),
)


def _check_spec(
    kernel, workload, mechanism, tlb_entries, page_size, buffer_entries, clamp, warmup
):
    name, params = mechanism
    spec = RunSpec.of(
        workload,
        name,
        scale=0.02,
        tlb=TLBConfig(entries=tlb_entries),
        page_size=page_size,
        buffer_entries=buffer_entries,
        max_prefetches_per_miss=clamp,
        warmup_fraction=warmup,
        **params,
    )
    with batch_kernel(kernel):
        _DIFFERENTIAL.check_spec(spec)


@settings(max_examples=SPEC_EXAMPLES, deadline=None)
@given(**SPEC_AXES)
def test_fuzz_specs_bit_identical(**axes):
    """Random RunSpecs over real registry workloads: engines agree."""
    _check_spec("native", **axes)


@settings(max_examples=SPEC_EXAMPLES, deadline=None)
@given(**SPEC_AXES)
def test_fuzz_specs_bit_identical_python_kernel(**axes):
    _check_spec("python", **axes)
