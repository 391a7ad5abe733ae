#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure7 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced cold pass, then traced passes, and
reports the per-layer metrics and the layer table.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every checked
row matched the pinned reference.

The simulator is a model: it is unvalidated against hardware, and the
paper's printed values are the only reference its outputs are compared
with.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed to give ``setup_s``; the median is reported.
SETUP_PROBES = 9

MODEL_NOTE = (
    "model unvalidated against hardware; the paper's values are the only reference"
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--commit",
        default=os.environ.get("PERFBENCH_COMMIT", "unspecified"),
        help="commit id stamped on the record (passed in, never computed)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": args.commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start": "cold: fresh process, empty miss-stream/trace/codegen caches, fresh store",
        "model": MODEL_NOTE,
    }


# -- set-up time ---------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    """Child process: set the workload up, report the time since ``--t0``."""
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, WORK / f"probe-{os.getpid()}"
    )
    ready = time.monotonic()
    try:
        print(f"SETUP {ready - args.t0!r}", flush=True)
    finally:
        workload.close()
    return 0


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Process start to first timed call, over fresh processes.

    Both clocks are the system-wide monotonic clock, so the child's
    reading minus the parent's start is the child's whole set-up:
    interpreter start, imports, spec list, store open, server up.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--t0", repr(t0),
            ],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        lines = [line for line in done.stdout.splitlines() if line.startswith("SETUP ")]
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(lines[-1].split()[1]))
    return samples


# -- passes --------------------------------------------------------------------


def run_passes(workload, seconds: float, first: list[str]) -> dict[str, list[float]]:
    """Run ``first``, then alternate cold and warm passes while they fit.

    A pass starts only if the last pass of its kind, run again, would
    end within ``seconds`` of the start.
    """
    results: dict[str, list[float]] = {"cold": [], "warm": []}
    last_wall: dict[str, float] = {}
    began = time.perf_counter()
    plan = list(first)
    kind = "cold"
    while True:
        if plan:
            kind = plan.pop(0)
        else:
            kind = "warm" if kind == "cold" else "cold"
            elapsed = time.perf_counter() - began
            if elapsed + last_wall.get(kind, 0.0) > seconds:
                break
        wall = time.perf_counter()
        results[kind].append(getattr(workload, kind)())
        last_wall[kind] = time.perf_counter() - wall
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, passes, setup_samples) -> dict[str, dict]:
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "sweep_s": {"value": statistics.median(passes["cold"]), "unit": "s"},
        "warm_s": {"value": statistics.median(passes["warm"]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def workload_extras(workload) -> dict[str, dict]:
    """End-to-end numbers only some workloads define; printed, not gated."""
    extras = {}
    if hasattr(workload, "paper_err"):
        extras["table2_paper_err"] = {"value": workload.paper_err, "unit": "accuracy"}
    if getattr(workload, "advance_ms", None):
        # The highest percentile with at least ten samples beyond it.
        samples = workload.advance_ms
        tail = min(99, int(100 * (1 - 10 / len(samples)))) if len(samples) >= 20 else 50
        extras["advance_p50_ms"] = {"value": statistics.median(samples), "unit": "ms"}
        extras[f"advance_p{tail}_ms"] = {
            "value": statistics.quantiles(samples, n=100)[tail - 1], "unit": "ms",
        }
        extras["advance_samples"] = {"value": len(samples), "unit": "count"}
        extras["stream_entries_per_s"] = {
            "value": workload.entries / workload.entries_s, "unit": "1/s",
        }
    extras["failed_frac"] = {
        "value": workload.failed / max(1, workload.attempted), "unit": "frac",
    }
    return extras


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    import layers

    stamp = provenance(args)
    print(f"perfbench {args.workload} seed={args.seed} ({MODEL_NOTE})")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    setup_samples = [] if args.trace else measure_setup(args)
    recorder = layers.make_recorder(f"{args.workload}-{args.seed}") if args.trace else None
    workload = workloads.WORKLOADS[args.workload](
        args.seed, WORK / f"run-{os.getpid()}", recorder
    )
    try:
        if args.trace:
            untraced = workload.cold()
            recorder.active = True
            passes = run_passes(workload, max(0.0, args.seconds - untraced), ["cold", "warm"])
            recorder.active = False
            metrics = layers.per_layer_metrics(recorder, workload, untraced)
            layers.print_layer_table(recorder, metrics)
            recorder.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", stamp)
        else:
            passes = run_passes(workload, args.seconds, ["cold", "warm"])
            metrics = end_to_end(workload, passes, setup_samples)
            print_metrics(
                f"end-to-end ({len(passes['cold'])} cold, {len(passes['warm'])} warm passes, "
                f"{len(setup_samples)} set-up probes)",
                metrics,
            )
            print_metrics("workload-specific (printed, not gated)", workload_extras(workload))
    except Exception:
        traceback.print_exc()
        print(
            f"perfbench: run aborted ({workload.failed}/{workload.attempted} failed)",
            file=sys.stderr,
        )
        return 1
    finally:
        if recorder is not None:
            recorder.uninstall()
        workload.close()
        try:
            WORK.rmdir()
        except OSError:
            pass
    record = {
        "provenance": stamp,
        "passes": passes,
        "setup_samples": setup_samples,
        "metrics": metrics,
        "extras": workload_extras(workload),
        "attempted": workload.attempted,
        "failed": workload.failed,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    correct = workload.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
