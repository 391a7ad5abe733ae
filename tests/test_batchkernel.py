"""The native batch kernel's build cache, loader, fallback and span tag.

``replay_batch`` builds ``sim/batchkernel.c`` on first use and caches
the library under a content-hashed name. These tests pin the cache's
behaviour under concurrency and damage, the Python fallback a host
without a working compiler gets (same rows, one warning), that forked
pool workers and scheduler workers still run native, that importing
the package never touches the compiler or the library, and that the
``replay.batch`` span says which kernel ran while rows and keys do
not.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.obs import COLLECTOR
from repro.obs.tracing import render_flame
from repro.run import MissStreamCache, Runner, RunSpec
from repro.sched import SchedulerClient, Worker
from repro.service import make_server
from repro.sim import batchpath
from repro.sim.two_phase import replay_prefetcher

from tests.differential import harness
from tests.differential.harness import batch_kernel

SRC = Path(__file__).resolve().parents[1] / "src"

#: The real loader, even when ``--python-kernel`` patches it later.
LOADER = batchpath._native_kernel

SPECS = [
    RunSpec.of(app, mechanism, scale=0.05, rows=64)
    for app in ("galgel", "swim")
    for mechanism in ("DP", "RP", "ASP", "MP")
]

#: Child process: cache kernels in argv[1], wait until wall time
#: argv[2], then report the kernel it got and the rows of one batch.
CHILD = textwrap.dedent(
    """
    import json, sys, time
    from dataclasses import asdict
    from pathlib import Path

    from repro.run import MissStreamCache, Runner, RunSpec
    from repro.sim import batchpath

    batchpath._PYCACHE = Path(sys.argv[1])
    specs = [RunSpec.of("galgel", m, scale=0.05) for m in ("DP", "RP", "MP")]
    runner = Runner(cache=MissStreamCache())
    miss_trace = runner.miss_stream_for(specs[0])
    time.sleep(max(0.0, float(sys.argv[2]) - time.time()))
    kernel = batchpath._native_kernel()
    rows = batchpath.replay_batch(
        miss_trace, [(spec.build_prefetcher(), 16, 0) for spec in specs]
    )
    print(json.dumps({
        "kernel": "python" if kernel is None else "native",
        "rows": [asdict(row) for row in rows],
    }))
    """
)


def spawn_child(cache: Path, start_at: float) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(cache), repr(start_at)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def child_result(child: subprocess.Popen) -> dict:
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def native_available():
    if harness.FORCE_PYTHON or batchpath._native_kernel() is None:
        pytest.skip("the native batch kernel is not available in this run")


@pytest.fixture
def unloaded(monkeypatch, native_available):
    """The kernel entry dropped from the cache (restored afterwards)."""
    monkeypatch.delitem(batchpath._CODE_CACHE, batchpath._KERNEL_KEY)


def reference_rows(specs):
    return Runner(cache=MissStreamCache()).run(
        [spec.derive(engine="reference") for spec in specs]
    )


def batch_spans():
    return [span for span in COLLECTOR.spans() if span.name == "replay.batch"]


class TestBuildCache:
    def test_two_concurrent_builders_both_load_a_working_library(
        self, tmp_path, native_available
    ):
        start_at = time.time() + 2.0
        children = [spawn_child(tmp_path, start_at) for _ in range(2)]
        results = [child_result(child) for child in children]
        assert [result["kernel"] for result in results] == ["native", "native"]
        assert results[0]["rows"] == results[1]["rows"]
        # One library under its content name, no temporary left behind.
        assert [path.name for path in tmp_path.iterdir()] == [
            next(tmp_path.glob("batchkernel-*.so")).name
        ]

    def test_truncated_library_is_rebuilt_not_loaded(self, tmp_path, native_available):
        first = child_result(spawn_child(tmp_path, 0.0))
        (library,) = tmp_path.glob("batchkernel-*.so")
        size = library.stat().st_size
        with library.open("r+b") as handle:
            handle.truncate(size // 3)
        again = child_result(spawn_child(tmp_path, 0.0))
        assert again["kernel"] == "native"
        assert again["rows"] == first["rows"]
        assert library.stat().st_size == size

    def test_private_directory_when_pycache_is_not_writable(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setattr(batchpath, "_PYCACHE", blocker / "__pycache__")
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        private = batchpath._kernel_dir()
        assert private.parent == tmp_path
        assert private.stat().st_mode & 0o777 == 0o700
        private.chmod(0o770)
        with pytest.raises(OSError):
            batchpath._kernel_dir()


class TestNoCompiler:
    @pytest.mark.parametrize("compiler", ["/nonexistent/cc", "false"])
    def test_fallback_rows_are_identical_with_one_warning(
        self, tmp_path, monkeypatch, caplog, compiler
    ):
        LOADER()  # so the cleanup below restores the cached entry
        monkeypatch.delitem(batchpath._CODE_CACHE, batchpath._KERNEL_KEY)
        monkeypatch.setattr(batchpath, "_PYCACHE", tmp_path)
        monkeypatch.setattr(batchpath, "_COMPILE", (compiler,))
        monkeypatch.setattr(batchpath, "_native_kernel", LOADER)
        caplog.set_level(logging.WARNING, logger="repro.sim.batchpath")
        COLLECTOR.clear()
        first = Runner(cache=MissStreamCache()).run(SPECS)
        second = Runner(cache=MissStreamCache()).run(SPECS)
        reference = reference_rows(SPECS)
        assert first.to_json() == reference.to_json() == second.to_json()
        warnings = [r for r in caplog.records if r.name == "repro.sim.batchpath"]
        assert len(warnings) == 1
        assert "native batch kernel unavailable" in warnings[0].getMessage()
        assert {span.attrs["kernel"] for span in batch_spans()} == {"python"}
        assert list(tmp_path.iterdir()) == []


class TestWorkersRunNative:
    def test_forked_runner_pool(self, unloaded):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the process pool does not fork on this platform")
        COLLECTOR.clear()
        rows = Runner(cache=MissStreamCache(), workers=2).run(SPECS)
        assert rows.to_json() == reference_rows(SPECS).to_json()
        spans = batch_spans()
        assert len(spans) == 2  # one pass per stream, one per worker task
        assert {span.attrs["kernel"] for span in spans} == {"native"}

    def test_scheduler_worker(self, tmp_path, unloaded):
        server = make_server(tmp_path / "store", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        worker = Worker(server.url, lease_seconds=5.0, poll_interval=0.02)
        loop = threading.Thread(target=worker.run, daemon=True)
        try:
            client = SchedulerClient(server.url)
            client.wait_healthy()
            loop.start()
            with batch_kernel("native"):
                results = client.submit_sweep(SPECS, poll_interval=0.02)
        finally:
            worker.stop()
            loop.join(timeout=10)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert results.to_json() == reference_rows(SPECS).to_json()


def test_threads_racing_to_load_the_kernel_get_identical_rows(unloaded):
    """More threads than cores load the kernel and replay at once."""
    miss_trace = Runner(cache=MissStreamCache()).miss_stream_for(SPECS[0])
    group = SPECS[:4]
    expected = [
        replay_prefetcher(miss_trace, spec.build_prefetcher(), spec.buffer_entries)
        for spec in group
    ]
    results = []

    def work():
        for _ in range(5):
            results.append(batchpath.replay_batch(
                miss_trace, [(spec.build_prefetcher(), spec.buffer_entries, 0) for spec in group]
            ))

    threads = [threading.Thread(target=work) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with batch_kernel("native"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 30
    assert all(rows == expected for rows in results)


def test_imports_neither_compile_nor_load_the_kernel():
    probe = textwrap.dedent(
        """
        import sys

        events = []

        def hook(event, args):
            if event == "subprocess.Popen" or (
                event == "ctypes.dlopen" and "batchkernel" in str(args[0])
            ):
                events.append(event)

        sys.addaudithook(hook)
        import repro
        import repro.cli
        import repro.service.server
        from repro.sim import batchpath

        print(events, batchpath._KERNEL_KEY in batchpath._CODE_CACHE)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False"


class TestKernelSpanAttribute:
    @pytest.mark.parametrize("kernel", harness.KERNELS)
    def test_span_names_the_kernel_rows_and_keys_do_not(self, kernel):
        COLLECTOR.clear()
        with batch_kernel(kernel):
            rows = Runner(cache=MissStreamCache()).run(SPECS)
        spans = batch_spans()
        expected = "python" if harness.FORCE_PYTHON else kernel
        assert {span.attrs["kernel"] for span in spans} == {expected}
        assert f"kernel={expected}" in render_flame(spans)
        assert rows.to_json() == reference_rows(SPECS).to_json()
        assert "kernel" not in rows.to_json()
        for spec, row in zip(SPECS, rows):
            assert row.extra["spec_key"] == spec.key()
            assert "kernel" not in asdict(row)["extra"]
