"""The paired-run summary of tools/bench_pairs.py, on hand-made run values."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_compare_counts_wins_in_the_metric_direction():
    runs = {"parent": [10.0, 12.0, 11.0, 13.0], "change": [12.0, 11.0, 14.0, 15.0]}
    higher = bench_pairs.compare({"name": "rate", "unit": "1/s", "better": "higher"}, runs)
    lower = bench_pairs.compare({"name": "time", "unit": "s", "better": "lower"}, runs)
    assert higher["change_better_in_pairs"] == "3/4"
    assert lower["change_better_in_pairs"] == "1/4"
    assert higher["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "min": 10.0,
                                "max": 13.0}
    assert higher["ratio_of_medians"] == round(13.0 / 11.5, 4)
    assert higher["runs"] == runs and "modes" not in higher


def test_peak_rss_is_split_into_its_modes():
    runs = {"parent": [104.1, 100.3, 104.2, 104.0], "change": [103.9, 103.8, 103.9, 103.9]}
    record = bench_pairs.compare({"name": "peak_rss_mb", "unit": "MB", "better": "lower"}, runs)
    assert record["modes"] == {"parent": [{"level": 100.3, "runs": 1},
                                          {"level": 104.1, "runs": 3}],
                               "change": [{"level": 103.9, "runs": 4}]}


def test_setup_time_is_split_by_the_peak_rss_mode_of_its_run():
    setup, rss = [1.4, 1.2, 1.5, 1.3], [100.2, 104.0, 100.4, 104.1]
    assert bench_pairs.by_rss_mode(setup, rss) == [
        {"rss_level": 100.3, "median": 1.45, "runs": 2},
        {"rss_level": 104.05, "median": 1.25, "runs": 2}]
    metrics = [{"name": name, "unit": unit, "better": "lower"}
               for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB"))]
    results = [{side: {"metrics": {"setup_s": {"value": s}, "peak_rss_mb": {"value": r}},
                       "correct": True, "failed": 0, "attempted": 1}
                for side in bench_pairs.SIDES} for s, r in zip(setup, rss)]
    record = bench_pairs.workload_record("flip", 0, metrics, results)
    assert record["metrics"]["setup_s"]["by_rss_mode"]["change"] == \
        bench_pairs.by_rss_mode(setup, rss)
