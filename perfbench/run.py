"""relkit benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload flip --seed 0 --seconds 30 --trace 0

Run from the repository root; the benchmark imports relkit from ./src.
It prints a human-readable report and, as the last line of standard output,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; the traced run also writes every span to
.perfbench-out/. Exit status is 2 when relkit or BENCHMARK.json cannot be
found, and no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import record

record.pin_threads()  # before anything imports NumPy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flip", "explain", "fit")
TRACE_DIR = ".perfbench-out"
# Per-call work unit of the functions whose per-layer time is per unit of work.
WORK_UNITS = {"netcore.train_sgd": "sample", "evalkit.pixel_flip": "forward",
              "evalkit.continuity_estimate": "heatmap",
              "heatmaptools.translation_average": "shift",
              "heatmaptools.sliding_window_explain": "window",
              "prototype.activation_maximize": "iter"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no relkit sources, no BENCHMARK.json)."""


def import_program():
    """Import relkit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "relkit" / "__init__.py").is_file():
        raise SetupError(f"no relkit sources under {src}")
    sys.path.insert(0, str(src))
    import relkit
    if Path(relkit.__file__).resolve().parent != (src / "relkit").resolve():
        raise SetupError(f"relkit imported from {relkit.__file__}, not from {src}")
    return relkit


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def computed_counts(explainers):
    """Computed (not measured) operations and bytes per forward and per LRP pass."""
    import opcount
    import workloads

    counts = {}
    for net, ex in explainers.items():
        counts[f"forward.{net}"] = opcount.forward_counts(ex.network)
        for rule in workloads.LRP_RULES:
            counts[f"lrp.{rule}.{net}"] = opcount.lrp_counts(ex.network, ex.configs[rule])
    return counts


def layer_metrics(stats, ctx, counts):
    """Every per-layer metric derivable from the traced run's spans."""
    out = {}
    for name, s in stats.items():
        function = ".".join(name.split(".")[:2])
        for stat in ("calls", "p50_us", "p99_us"):
            out[f"{name}.{stat}"] = (s[stat], "count" if stat == "calls" else "us")
        if function.startswith("modelio."):
            out[f"{name}.ms"] = (s["busy_s"] * 1e3 / s["calls"], "ms")
        unit = WORK_UNITS.get(function, "call")
        out[f"{name}.us_per_{unit}"] = (s["busy_s"] * 1e6 / s["work"], "us")
    for net, size in ctx.model_bytes.items():
        out[f"modelio.model_bytes.{net}"] = (size, "bytes")
    for net in ctx.explainers:
        s = stats[f"netcore.forward.{net}"]
        flops = counts[f"forward.{net}"]["flops"]
        out[f"netcore.forward.{net}.gflops_computed"] = (
            flops * s["calls"] / s["busy_s"] / 1e9, "GFLOP/s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relkit benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; the workload's four stages take turns in it, "
                             "one chunk at a time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None, sizes=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    machine = record.machine_record(ROOT)
    pin_problems = record.check_pins(machine)
    if pin_problems:
        print(f"perfbench: thread pin did not take effect: {pin_problems}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    tracer = tracing.Tracer(enabled=trace)
    checker = checks.Checker()
    scratch = ROOT / TRACE_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    steal_before = record.steal_ticks()
    wall_start = time.perf_counter()
    try:
        ctx = workloads.Context(args.seed, sizes or workloads.FULL, tracer, checker, workdir)
        stages, rates, setup_times = workloads.run_workload(ctx, args.workload,
                                                            args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - wall_start
    steal_after = record.steal_ticks()
    machine["steal_ticks"] = (None if steal_before is None or steal_after is None
                              else steal_after - steal_before)
    machine["wall_s"] = wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# relkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# run record: " + json.dumps(machine, sort_keys=True))
    q1, setup_s, q3 = workloads.quartiles([clock.corrected for clock in setup_times])
    end_to_end = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    print(f"setup_s {fmt(setup_s)} s  [median of {len(setup_times)} set-ups at nominal host "
          f"speed; q1 {fmt(q1)}, q3 {fmt(q3)}; raw median "
          f"{fmt(workloads.quartiles([clock.raw for clock in setup_times])[1])} s]")
    print(f"peak_rss_mb {fmt(peak_rss_mb)} MB")
    print(f"error_ratio {fmt(checker.error_ratio)} failed checks/operation  "
          f"[{checker.failed} of {checker.attempted} operations failed]")
    overheads = {}
    for stage in stages:
        chunks = rates[stage.name][False]
        q1, median, q3 = workloads.quartiles([rate * factor for rate, factor in chunks])
        raw = workloads.quartiles([rate for rate, _ in chunks])[1]
        speed = workloads.quartiles([1.0 / factor for _, factor in chunks])[1]
        end_to_end[stage.key] = (median, "1/s")
        print(f"{stage.name} {fmt(median)} {stage.unit}  [median of {len(chunks)} chunks at "
              f"nominal host speed; q1 {fmt(q1)}, q3 {fmt(q3)}; raw median {fmt(raw)} at "
              f"host speed {fmt(speed)}; reported as {stage.key}]")
        if trace:
            traced_chunks = rates[stage.name][True]
            traced = workloads.quartiles([rate * factor for rate, factor in traced_chunks])[1]
            overheads[stage.key] = 100.0 * (median - traced) / median
            print(f"  traced {fmt(traced)} {stage.unit}  "
                  f"[tracing overhead {fmt(overheads[stage.key])}%; "
                  f"{len(traced_chunks)} traced chunks]")
    for problem in checker.problems:
        print(f"check failed: {problem}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        available = report_trace(args, ctx, tracer, overheads, machine)
    else:
        available = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {m["name"]: {"value": available[m["name"]][0], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


def report_trace(args, ctx, tracer, overheads, machine):
    """Print per-layer metrics, self time and overhead; write the spans out."""
    import tracing

    stats = tracing.call_stats(tracer.spans)
    counts = computed_counts(ctx.explainers)
    metrics = layer_metrics(stats, ctx, counts)
    for key, value in overheads.items():
        metrics[f"trace.overhead.{key}.pct"] = (value, "%")
    print("# per-layer metrics (benchmark-side spans; p99 is the maximum below 100 calls)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {fmt(value)} {unit}")
    self_times = {root: tracing.self_time_by_module(tracer.spans, root)
                  for root in ("setup", "chunk:", "probe")}
    for name, count in counts.items():
        print(f"# computed per pass, from layer shapes: {name} "
              f"{count['flops']} flops, {count['bytes']} bytes")
    for root, modules in self_times.items():
        print(f"# self time in {root}* spans: " + ", ".join(f"{m} {s:.4g} s"
                                                   for m, s in modules.items()))
    out = ROOT / TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"run_record": machine, "self_time_s": self_times,
                               "computed_counts": counts,
                               "metrics": {k: v[0] for k, v in metrics.items()},
                               "span_fields": ["id", "parent", "name", "op", "start_us",
                                               "end_us", "work"],
                               "spans": tracing.export(tracer.spans)}) + "\n",
                   encoding="utf-8")
    print(f"# spans written to {out.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
