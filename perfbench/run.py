"""The repository benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload clean_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced slices of the run with slices in which
every layer boundary is wrapped (see ``spans.py``), then reports the
per-layer metrics, each op's unattributed share and the tracing overhead
(traced against untraced median op latency), and writes a Chrome trace to
``perfbench/out/``.  ``--smoke`` shrinks every input so a run takes seconds.

The last line of standard output is the result object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

#: Set-up is repeated this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 3
#: Speed samples taken on each side of a set-up.
SETUP_SAMPLES = 3
#: A traced run alternates this many untraced and traced slices.
TRACE_SLICES = 6

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("detect_f1", "ratio"),
)

#: Layer self-time metrics, in the order the per-layer table prints them.
LAYER_TIMES = (
    "csvio.read_s", "csvio.write_s", "dictionary.encode_s", "index.build_s",
    "induction.induce_s", "discovery.self_s", "evaluator.match_s", "partitions.build_s",
    "partitions.patch_s", "relation.apply_s", "pfd.violations_s", "detector.self_s",
    "repair.self_s", "rwlock.read_wait_s", "rwlock.write_wait_s", "registry.mirror_s",
    "manager.checkout_s", "app.self_s", "http.dispatch_s",
)

PER_LAYER = tuple((name, "s/op") for name in LAYER_TIMES) + (
    ("dictionary.distinct_values", "count/op"),
    ("induction.calls", "count/op"),
    ("discovery.candidates", "count/op"),
    ("discovery.accept_ratio", "ratio"),
    ("evaluator.match_calls", "count/op"),
    ("evaluator.multi_scans", "count/op"),
    ("evaluator.hit_ratio", "ratio"),
    ("partitions.hit_ratio", "ratio"),
    ("pfd.violations", "count/op"),
    ("pfd.cells_per_changed_row", "ratio"),
    ("detector.errors", "count/op"),
    ("rwlock.acquisitions", "count/op"),
    ("registry.bytes_written", "B/op"),
    ("manager.rehydrations", "count/op"),
    ("http.overhead_s", "s/op"),
    ("http.response_bytes", "B/op"),
    ("op_tail_ms", "ms"),
    ("service.read_p95_ms", "ms"),
    ("service.write_p50_ms", "ms"),
    ("service.write_p95_ms", "ms"),
    ("service.write_amplification", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def quantile(values: list[float], q: float | None) -> float:
    """Inclusive-method percentile ``q``; ``None`` means the maximum."""
    if not values:
        return 0.0
    if q is None or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def ms(ops, q) -> float:
    return quantile([op.seconds for op in ops], q) * 1e3


def service_split(ops, written_bytes: int) -> dict:
    """Read/write latency split of service ops, and bytes written to files
    per byte of write-request body."""
    reads = [op for op in ops if op.kind in ("detect", "validate")]
    writes = [op for op in ops if op.kind in ("update", "ingest")]
    payload = sum(op.payload_bytes for op in writes)
    return {
        "service.read_p95_ms": ms(reads, 0.95),
        "service.write_p50_ms": ms(writes, 0.50),
        "service.write_p95_ms": ms(writes, 0.95),
        "service.write_amplification": written_bytes / payload if payload else 0.0,
        "counts": (len(reads), len(writes)),
    }


def measure_untraced(workload, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics, every time scaled to the reference machine's
    speed (``speed.py``); the raw figures are printed alongside."""
    from speed import REFERENCE_S

    probe = workload.probe
    setup_times = []
    raw_setup_times = []
    for _ in range(SETUP_REPEATS):
        first = len(probe.samples)
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        start = time.perf_counter()
        workload.setup()
        raw_setup_times.append(time.perf_counter() - start)
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        setup_times.append(raw_setup_times[-1] * probe.scale(first))
    first = len(probe.samples)
    probe.sample()
    spent = probe.spent
    start = time.perf_counter()
    ops = workload.run(seconds)
    elapsed = time.perf_counter() - start - (probe.spent - spent)
    probe.sample()
    scale = probe.scale(first)
    raw = {
        "setup_s": statistics.median(raw_setup_times),
        "ops_per_s": len(ops) / elapsed,
        "op_p50_ms": ms(ops, 0.50),
    }
    print(f"machine speed: kernel median {1e3 * REFERENCE_S / scale:.3f} ms over "
          f"{len(probe.samples) - first} samples (reference {1e3 * REFERENCE_S:.0f} ms); "
          f"raw setup_s {raw['setup_s']:.6g}, ops_per_s {raw['ops_per_s']:.6g}, "
          f"op_p50_ms {raw['op_p50_ms']:.6g}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return metrics, ops


def measure_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, list]:
    from spans import ENDPOINT_SPANS, LAYER_OF, Tracer, chrome_trace, self_times

    workload.setup()
    tracer = Tracer()
    untraced: list = []
    traced: list = []
    untraced_written = 0
    delta: dict[str, float] = {}
    # Untraced and traced slices alternate, so a drift in machine speed
    # does not pass for tracing overhead.
    for index in range(TRACE_SLICES):
        if index % 2 == 0:
            untraced += workload.run(seconds / TRACE_SLICES)
            untraced_written += getattr(workload, "written_bytes", 0)
            continue
        before = workload.counters()
        tracer.install()
        try:
            traced += workload.run(seconds / TRACE_SLICES, tracer)
        finally:
            tracer.uninstall()
        for key, value in workload.counters().items():
            delta[key] = delta.get(key, 0) + value - before.get(key, 0)

    n = len(traced)
    op_ids = {op.op_id for op in traced}
    spans = [span for span in tracer.spans if span[5] in op_ids]
    selfs = self_times(spans)
    layer_totals = dict.fromkeys(LAYER_TIMES, 0.0)
    op_time: dict[int, float] = {}
    attributed = dict.fromkeys(op_ids, 0.0)
    endpoint = dict.fromkeys(op_ids, 0.0)
    span_counts: dict[str, int] = {}
    for span in spans:
        span_id, name, start, end, _parent, op_id = span[:6]
        span_counts[name] = span_counts.get(name, 0) + 1
        if name == "op":
            op_time[op_id] = end - start
        layer = LAYER_OF.get(name)
        if layer is not None:
            layer_totals[layer] += selfs[span_id]
            attributed[op_id] += selfs[span_id]
        if name in ENDPOINT_SPANS:
            endpoint[op_id] += end - start
    counts: dict[str, float] = {}
    for op_id, name, value in tracer.counts:
        if op_id in op_ids:
            counts[name] = counts.get(name, 0) + value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    total_op_time = sum(op_time.values())
    is_service = workload.name == "service_mixed"
    unattributed = total_op_time - sum(attributed.values())
    metrics = {name: layer_totals[name] / n for name in LAYER_TIMES}
    split = service_split(untraced, untraced_written) if is_service else {}
    metrics.update({
        "dictionary.distinct_values": counts.get("dictionary.distinct_values", 0) / n,
        "induction.calls": span_counts.get("induction.induce_pattern", 0) / n,
        "discovery.candidates": counts.get("discovery.candidates", 0) / n,
        "discovery.accept_ratio": ratio(counts.get("discovery.accepted", 0),
                                        counts.get("discovery.candidates", 0)),
        "evaluator.match_calls": delta.get("evaluator.match_calls", 0) / n,
        "evaluator.multi_scans": delta.get("evaluator.multi_scans", 0) / n,
        "evaluator.hit_ratio": ratio(delta.get("evaluator.cache_hits", 0),
                                     span_counts.get("evaluator.match_column", 0)),
        "partitions.hit_ratio": ratio(
            delta.get("partitions.hits", 0),
            delta.get("partitions.hits", 0) + delta.get("partitions.misses", 0)),
        "pfd.violations": counts.get("pfd.violations", 0) / n,
        "pfd.cells_per_changed_row": ratio(counts.get("pfd.changed_cells", 0),
                                           counts.get("pfd.changed_rows", 0)),
        "detector.errors": counts.get("detector.errors", 0) / n,
        "rwlock.acquisitions": delta.get("rwlock.acquisitions", 0) / n,
        "registry.bytes_written": delta.get("registry.bytes_written", 0) / n,
        "manager.rehydrations": delta.get("manager.rehydrations", 0) / n,
        "http.overhead_s": (
            sum(op_time[i] - endpoint[i] for i in op_time) / n if is_service else 0.0),
        "http.response_bytes": counts.get("http.response_bytes", 0) / n,
        "op_tail_ms": ms(untraced, workload.tail_quantile),
        "service.read_p95_ms": split.get("service.read_p95_ms", 0.0),
        "service.write_p50_ms": split.get("service.write_p50_ms", 0.0),
        "service.write_p95_ms": split.get("service.write_p95_ms", 0.0),
        "service.write_amplification": split.get("service.write_amplification", 0.0),
        "trace.unattributed_share": ratio(unattributed, total_op_time),
        "trace.overhead_ratio": ms(traced, 0.5) / ms(untraced, 0.5) - 1,
    })

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(chrome_trace(tracer.spans)))
    print(f"traced ops: {n} (untraced {len(untraced)}), trace written to {trace_path}")
    print(f"{'layer':<24}{'self ms/op':>12}{'share':>8}")
    for name in LAYER_TIMES:
        share = ratio(layer_totals[name], total_op_time)
        print(f"{name:<24}{metrics[name] * 1e3:>12.3f}{share:>8.1%}")
    print(f"{'(unattributed)':<24}{unattributed / n * 1e3:>12.3f}"
          f"{metrics['trace.unattributed_share']:>8.1%}")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, so a run takes seconds")
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    out_dir = BENCH_DIR / "out"
    work_dir = out_dir / f"{args.workload}-{args.seed}-work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, work_dir)
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, ops = measure_traced(workload, args.seconds, trace_path)
        else:
            metrics, ops = measure_untraced(workload, args.seconds)
        checks = workload.checks()
        if not args.trace:
            metrics["detect_f1"] = workload.detect_f1
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_ops = sum(not op.ok for op in ops)
    failed_checks = sum(not ok for _name, ok in checks)
    failed = failed_ops + failed_checks
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops, "
          f"{failed_ops} failed, failed_ratio {failed / max(1, len(ops)):.4f}")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    if not args.trace:
        print(f"op_tail_ms {ms(ops, workload.tail_quantile):.6g} ms "
              f"(n={len(ops)}; bounded nowhere, reported per layer by --trace 1)")
    if args.workload == "service_mixed" and not args.trace:
        split = service_split(ops, workload.written_bytes)
        print(f"service: read_p95_ms {split['service.read_p95_ms']:.3f} "
              f"(n={split['counts'][0]}), write_p50_ms {split['service.write_p50_ms']:.3f}, "
              f"write_p95_ms {split['service.write_p95_ms']:.3f} (n={split['counts'][1]}), "
              f"write_amplification {split['service.write_amplification']:.2f}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}"
              + (f" (n={len(ops)})" if name.startswith("op_") else ""))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
