"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.trace import ReferenceTrace
from repro.prefetch.base import NO_EVICTION, Prefetcher


def pytest_addoption(parser):
    parser.addoption(
        "--python-kernel",
        action="store_true",
        help="replay fresh batches on the Python fallback, as on a host "
        "without a C compiler (patches the native kernel's loader)",
    )


@pytest.fixture(scope="session", autouse=True)
def _python_kernel(request):
    """Under ``--python-kernel``, no batch finds the native kernel."""
    if not request.config.getoption("--python-kernel"):
        yield
        return
    from repro.sim import batchpath

    from tests.differential import harness

    patch = pytest.MonkeyPatch()
    patch.setattr(batchpath, "_native_kernel", lambda: None)
    patch.setattr(harness, "FORCE_PYTHON", True)
    yield
    patch.undo()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


def make_trace(
    pages: list[int],
    pcs: list[int] | None = None,
    counts: list[int] | None = None,
    name: str = "test",
) -> ReferenceTrace:
    """Build a small reference trace from plain lists."""
    n = len(pages)
    return ReferenceTrace(
        pcs if pcs is not None else [0x1000] * n,
        pages,
        counts if counts is not None else [1] * n,
        name=name,
    )


def drive_misses(
    prefetcher: Prefetcher,
    pages: list[int],
    pcs: list[int] | None = None,
    evicted: list[int] | None = None,
) -> list[list[int]]:
    """Feed a raw miss sequence to a mechanism; return its prefetches.

    A low-level harness for unit-testing mechanism logic without a TLB
    or prefetch buffer in the way (``pb_hit`` is always False).
    """
    n = len(pages)
    pcs = pcs if pcs is not None else [0x1000] * n
    evicted = evicted if evicted is not None else [NO_EVICTION] * n
    return [
        prefetcher.on_miss(pcs[i], pages[i], evicted[i], False) for i in range(n)
    ]
