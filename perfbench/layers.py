"""Per-layer metrics from a traced run, and the layer table.

Layers are the program's modules: ``workloads`` (trace generation),
``two_phase`` (phase-1 TLB filter), ``batchpath`` (batch planning and
the fused replay loop), ``runner``, ``store``, ``session`` and ``ckpt``
(streaming replay and checkpoints) and ``service`` (the HTTP handler).
``client`` is the benchmark's own HTTP client: its self time is the
transport (round trip minus the handler).
"""

from __future__ import annotations

import statistics

from spans import SpanRecorder, descends_from, layer_of

#: Every per-layer metric, with its unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "workloads.get_trace_s": "s",
    "workloads.refs_per_s": "1/s",
    "two_phase.filter_tlb_s": "s",
    "two_phase.refs_per_s": "1/s",
    "two_phase.miss_rate": "frac",
    "two_phase.high_miss_rate_err": "frac",
    "batchpath.replay_batch_s": "s",
    "batchpath.plan_s": "s",
    "batchpath.loop_s": "s",
    "batchpath.spec_entries_per_s": "1/s",
    "runner.run_s": "s",
    "runner.self_s": "s",
    "session.advance_s": "s",
    "session.entries_per_s": "1/s",
    "ckpt.save_ms_p50": "ms",
    "ckpt.save_ms_p99": "ms",
    "ckpt.snapshot_ms_p50": "ms",
    "ckpt.blob_bytes_mean": "bytes",
    "store.put_stream_s": "s",
    "store.put_results_s": "s",
    "store.get_stream_s": "s",
    "store.get_result_s": "s",
    "store.put_ckpt_s": "s",
    "store.bytes_written": "bytes",
    "store.result_hit_ratio": "frac",
    "service.handle_ms_p50": "ms",
    "service.self_ms_p50": "ms",
    "service.transport_ms_p50": "ms",
    "trace.sweep_s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
}

PASS_ROOTS = ("bench.cold", "bench.warm")


def make_recorder(run_id: str) -> SpanRecorder:
    """A recorder wrapped around every layer call, with count hooks."""
    recorder = SpanRecorder(run_id)

    def trace_built(span, func, args, kwargs, trace):
        span.attrs["refs"] = trace.total_references

    def filtered(span, func, args, kwargs, miss):
        tlb = args[1] if len(args) > 1 else kwargs["tlb"]
        span.attrs.update(
            app=args[0].name,
            refs=miss.total_references,
            misses=miss.num_misses,
            tlb=(tlb.entries, tlb.ways),
        )

    def replayed(span, func, args, kwargs, rows):
        # Probe: the same call again on the same stream.  Analyses and
        # the compiled loop are cached now, so it times the loop alone;
        # the first call minus this one is planning.
        miss_trace, requests = args[0], args[1]
        span.attrs.update(entries=len(miss_trace), specs=len(requests))
        with recorder.span("batchpath.repeat", probe=True) as probe:
            again = func(*args, **kwargs)
        probe.attrs.update(entries=len(miss_trace), specs=len(requests))
        span.attrs["repeat_identical"] = again == rows

    def advanced(span, func, args, kwargs, count):
        span.attrs["entries"] = count

    def ckpt_put(span, func, args, kwargs, result):
        span.attrs["bytes"] = len(args[2])

    def handled(span, func, args, kwargs, result):
        span.attrs.update(method=args[1], route=args[2].rsplit("/", 1)[-1], status=result[0])

    recorder.install(
        {
            "workloads.get_trace": trace_built,
            "two_phase.filter_tlb": filtered,
            "batchpath.replay_batch": replayed,
            "session.advance": advanced,
            "store.put_ckpt": ckpt_put,
            "service.handle": handled,
        }
    )
    return recorder


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer_metrics(recorder: SpanRecorder, workload, untraced_sweep_s: float) -> dict:
    """Per-layer metrics of a traced run.

    Times are seconds per traced cold pass, except the store's read path
    (``get_result``, ``get_stream``): seconds per traced warm pass.
    Rates, ratios and percentiles are over the cold passes.
    """
    from workloads import high_miss_rate_err

    colds = [s for s in recorder.spans if s.name == "bench.cold"]
    warms = [s for s in recorder.spans if s.name == "bench.warm"]

    def under(root, name, probe=False):
        return [
            s for s in recorder.spans
            if s.name == name and s.probe == probe and descends_from(s, (root,))
        ]

    def seconds(spans):
        return sum(s.duration for s in spans)

    def rate(numerator, denominator):
        return numerator / denominator if denominator > 0 else 0.0

    def ms(spans, attr="duration"):
        return [getattr(s, attr) * 1e3 for s in spans]

    cold = {
        name: under("bench.cold", name)
        for name in (
            "runner.run", "workloads.get_trace", "two_phase.filter_tlb",
            "batchpath.replay_batch", "session.advance", "ckpt.save",
            "ckpt.snapshot", "store.put_stream", "store.put_results",
            "store.put_ckpt", "service.handle", "client.advance",
        )
    }
    repeats = under("bench.cold", "batchpath.repeat", probe=True)
    filters = cold["two_phase.filter_tlb"]
    handles = [s for s in cold["service.handle"] if s.attrs.get("route") == "advance"]
    n = len(colds)

    filter_refs = sum(s.attrs["refs"] for s in filters)
    miss_rates = {
        s.attrs["app"]: s.attrs["misses"] / s.attrs["refs"]
        for s in filters
        if s.attrs["tlb"] == (128, 0)
    }
    blob_sizes = [
        s.attrs["bytes"]
        for s in cold["store.put_ckpt"]
        if s.parent is not None and s.parent.name == "ckpt.save"
    ]
    store_stats = workload.store_stats() if hasattr(workload, "store_stats") else {}
    lookups = store_stats.get("result_hits", 0) + store_stats.get("result_misses", 0)
    sweep_s = statistics.median(s.duration for s in colds)
    accounted = sum(
        s.self_s
        for s in recorder.spans
        if layer_of(s.name) != "bench" and not s.probe and descends_from(s, ("bench.cold",))
    )
    values = {
        "workloads.get_trace_s": seconds(cold["workloads.get_trace"]) / n,
        "workloads.refs_per_s": rate(
            sum(s.attrs["refs"] for s in cold["workloads.get_trace"]),
            seconds(cold["workloads.get_trace"]),
        ),
        "two_phase.filter_tlb_s": seconds(filters) / n,
        "two_phase.refs_per_s": rate(filter_refs, seconds(filters)),
        "two_phase.miss_rate": rate(sum(s.attrs["misses"] for s in filters), filter_refs),
        "two_phase.high_miss_rate_err": high_miss_rate_err(miss_rates),
        "batchpath.replay_batch_s": seconds(cold["batchpath.replay_batch"]) / n,
        "batchpath.plan_s": (seconds(cold["batchpath.replay_batch"]) - seconds(repeats)) / n,
        "batchpath.loop_s": seconds(repeats) / n,
        "batchpath.spec_entries_per_s": rate(
            sum(s.attrs["entries"] * s.attrs["specs"] for s in repeats), seconds(repeats)
        ),
        "runner.run_s": seconds(cold["runner.run"]) / n,
        "runner.self_s": sum(s.self_s for s in cold["runner.run"]) / n,
        "session.advance_s": seconds(cold["session.advance"]) / n,
        "session.entries_per_s": rate(
            sum(s.attrs["entries"] for s in cold["session.advance"]),
            seconds(cold["session.advance"]),
        ),
        "ckpt.save_ms_p50": _quantile(ms(cold["ckpt.save"]), 50),
        "ckpt.save_ms_p99": _quantile(ms(cold["ckpt.save"]), 99),
        "ckpt.snapshot_ms_p50": _quantile(ms(cold["ckpt.snapshot"]), 50),
        "ckpt.blob_bytes_mean": statistics.fmean(blob_sizes) if blob_sizes else 0.0,
        "store.put_stream_s": seconds(cold["store.put_stream"]) / n,
        "store.put_results_s": seconds(cold["store.put_results"]) / n,
        "store.get_stream_s": rate(seconds(under("bench.warm", "store.get_stream")), len(warms)),
        "store.get_result_s": rate(seconds(under("bench.warm", "store.get_result")), len(warms)),
        "store.put_ckpt_s": seconds(cold["store.put_ckpt"]) / n,
        "store.bytes_written": store_stats.get("bytes_written", 0),
        "store.result_hit_ratio": rate(store_stats.get("result_hits", 0), lookups),
        "service.handle_ms_p50": _quantile(ms(handles), 50),
        "service.self_ms_p50": _quantile(ms(handles, "self_s"), 50),
        "service.transport_ms_p50": _quantile(ms(cold["client.advance"], "self_s"), 50),
        "trace.sweep_s": sweep_s,
        "trace.accounted_frac": rate(accounted, seconds(colds)),
        "trace.overhead_frac": sweep_s / untraced_sweep_s - 1.0,
    }
    replays = [s for s in recorder.spans if s.name == "batchpath.replay_batch"]
    if not all(s.attrs.get("repeat_identical", True) for s in replays):
        workload.failed += 1
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def print_layer_table(recorder: SpanRecorder, metrics: dict) -> None:
    """Calls, total and self seconds per layer, per kind of pass."""
    for root in PASS_ROOTS:
        table = recorder.layer_table(root)
        roots = [s for s in recorder.spans if s.name == root]
        if not roots:
            continue
        wall = sum(s.duration for s in roots)
        print(f"layer table: {len(roots)} traced {root.split('.')[1]} pass(es), {wall:.3f} s")
        print(f"  {'layer':<11} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>7}")
        for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            share = 100.0 * row["self_s"] / wall if wall else 0.0
            print(
                f"  {layer:<11} {row['calls']:>7} {row['total_s']:>10.3f} "
                f"{row['self_s']:>10.3f} {share:>6.1f}%"
            )
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
