"""Run alternating parent/change pairs of the benchmark and write a BENCH_*.json.

Each pair runs `perfbench/run.py` once in the parent checkout and once in the
change checkout, one process at a time; odd pairs run the parent first, even
pairs the change first, so a slow or fast phase of the host falls on both
sides alike. Every metric is summarized per side (median, quartiles, min, max),
with the ratio of medians and the number of pairs the change won. Peak RSS is
also split into its modes, since it can sit at one of two levels for the same
code, and set-up time, which follows that mode, is split by it too. The file is
rewritten after every pair, so an interrupted session keeps the pairs it
finished.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_name.json \\
        --run fit:0:10 --run fit:1:5 --run flip:0:5 --run explain:0:5 --seconds 30

Each `--run` is WORKLOAD:SEED:PAIRS. Both directories are checkouts holding
`perfbench/` and `src/`; the metric names, units and directions come from the
change checkout's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
RSS_MODE_GAP_MB = 1.0  # peak RSS runs further apart than this sit in different modes


def run_once(checkout, workload, seed, seconds, log=None):
    """One benchmark process in `checkout`: (run record, last-line result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    if log is not None:
        log.write_text(out)
    lines = out.strip().splitlines()
    record = next(json.loads(line.split(":", 1)[1]) for line in lines
                  if line.startswith("# run record:"))
    return record, json.loads(lines[-1])


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {k: round(float(v), 4) for k, v in
            (("median", median), ("q1", q1), ("q3", q3), ("min", min(values)),
             ("max", max(values)))}


def _levels(values, gap):
    """Run indices grouped into levels: the values sorted and split wherever two
    neighbours lie more than `gap` apart."""
    groups = [[]]
    for i in np.argsort(values, kind="stable"):
        if groups[-1] and values[i] - values[groups[-1][-1]] > gap:
            groups.append([])
        groups[-1].append(i)
    return groups


def _median(values, runs):
    return round(float(np.median([values[i] for i in runs])), 4)


def modes(values, gap=RSS_MODE_GAP_MB):
    """Runs grouped into levels (see _levels); each level as its median and run count."""
    return [{"level": _median(values, g), "runs": len(g)} for g in _levels(values, gap)]


def by_rss_mode(values, rss, gap=RSS_MODE_GAP_MB):
    """`values` of the runs grouped by the peak-RSS mode each run sat in: each
    mode's RSS level, the median of its runs' values and their count."""
    return [{"rss_level": _median(rss, g), "median": _median(values, g), "runs": len(g)}
            for g in _levels(rss, gap)]


def compare(metric, runs):
    """The record of one metric over paired runs {side: [value per pair]}."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    out = {"unit": metric["unit"], "better": metric["better"]}
    out.update({side: summary(runs[side]) for side in SIDES})
    out["ratio_of_medians"] = round(out["change"]["median"] / out["parent"]["median"], 4)
    out["change_better_in_pairs"] = f"{wins}/{len(runs['parent'])}"
    if metric["name"] == "peak_rss_mb":
        out["modes"] = {side: modes(runs[side]) for side in SIDES}
    out["runs"] = {side: [round(v, 4) for v in runs[side]] for side in SIDES}
    return out


def workload_record(workload, seed, metrics, results):
    """results: one {side: last-line result} per finished pair."""
    record = {"workload": workload, "seed": seed, "pairs": len(results), "metrics": {}}
    for metric in metrics:
        runs = {side: [r[side]["metrics"][metric["name"]]["value"] for r in results]
                for side in SIDES}
        record["metrics"][metric["name"]] = compare(metric, runs)
    if {"setup_s", "peak_rss_mb"} <= record["metrics"].keys():  # set-up follows the RSS mode
        runs = {name: record["metrics"][name]["runs"] for name in ("setup_s", "peak_rss_mb")}
        record["metrics"]["setup_s"]["by_rss_mode"] = {
            side: by_rss_mode(runs["setup_s"][side], runs["peak_rss_mb"][side]) for side in SIDES}
    record["metrics"]["correct"] = {side: [r[side]["correct"] for r in results] for side in SIDES}
    record["metrics"]["failed_of_attempted"] = {
        side: [f"{r[side]['failed']}/{r[side]['attempted']}" for r in results] for side in SIDES}
    return record


def machine(record):
    mem = next((line.split()[1] for line in Path("/proc/meminfo").read_text().splitlines()
                if line.startswith("MemTotal:")), None) if Path("/proc/meminfo").exists() else None
    return (f"{record['nproc']} CPUs ({record['cpu_model']}), "
            f"{round(int(mem) / 2 ** 20, 1) if mem else '?'} GB RAM, {platform.system()} "
            f"{platform.release()}, CPython {platform.python_version()}, "
            f"NumPy {record['numpy']}, {record['openblas']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("--run", action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS, repeatable")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="parent checkout against the change, alternating pairs")
    parser.add_argument("--logs", type=Path, help="directory for each run's full output")
    args = parser.parse_args(argv)
    plan = []
    for item in args.run:
        workload, seed, pairs = item.split(":")
        plan.append((workload, int(seed), int(pairs)))
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    if args.logs:
        args.logs.mkdir(parents=True, exist_ok=True)

    doc = {"what": args.what,
           "command": f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {args.seconds} --trace 0",
           "pairing": "alternating; odd pairs run the parent first, even pairs the change first",
           "repeats": f"one {args.seconds} s run per side per pair",
           "workloads": {}}
    for workload, seed, pairs in plan:
        results = []
        for pair in range(1, pairs + 1):
            result = {}
            for side in SIDES if pair % 2 else SIDES[::-1]:
                checkout = args.parent if side == "parent" else args.change
                log = args.logs / f"{workload}-seed{seed}-pair{pair}-{side}.txt" if args.logs else None
                record, result[side] = run_once(checkout, workload, seed, args.seconds, log)
                doc.setdefault("machine", machine(record))
                doc.setdefault("thread_pins", f"{record['thread_env']}; BLAS threads reported: "
                                              f"{record['blas_threads']}")
                doc.setdefault("commits", {})[side] = record["commit"]
                doc.setdefault("src_lines", {})[side] = record["src_lines"]
                doc.setdefault("src_sha256", {})[side] = record["src_sha256"]
            results.append(result)
            doc["workloads"][f"{workload}_seed{seed}"] = workload_record(workload, seed,
                                                                          metrics, results)
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"{workload} seed {seed}: pair {pair}/{pairs} done", flush=True)


if __name__ == "__main__":
    main()
