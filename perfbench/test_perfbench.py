"""Tests of the benchmark itself: python3 -m pytest -q perfbench

Each workload runs at tiny sizes in a fresh interpreter (so the thread pin
happens before NumPy loads), in both modes, and must print every metric of
BENCHMARK.json with its unit. Corrupted outputs must raise the error ratio.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RATE_NAMES = {
    "flip": ["flip_p1_conv_img_per_s", "flip_p1_dense_img_per_s",
             "flip_p4_conv_img_per_s", "flip_p4_dense_img_per_s"],
    "explain": ["explain_conv_hm_per_s", "explain_dense_hm_per_s",
                "multi_explain_conv_hm_per_s", "multi_explain_dense_hm_per_s"],
    "fit": ["train_conv_samples_per_s", "train_dense_samples_per_s",
            "prototype_conv_iters_per_s", "prototype_dense_iters_per_s"]}

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relkit import explain, netcore  # noqa: E402


def run_tiny(workload, seed, trace, cwd=ROOT):
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; run.import_program(); "
            "import workloads; "
            f"sys.exit(run.main(['--workload', '{workload}', '--seed', '{seed}', "
            f"'--seconds', '0', '--trace', '{trace}'], sizes=workloads.TINY))")
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload", ["flip", "explain", "fit"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_tiny(workload, seed=1 + trace, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert "error_ratio 0 failed checks/operation" in report
    for name in RATE_NAMES[workload]:
        assert any(line.startswith(name + " ") for line in lines), name
    if trace:
        assert "tracing overhead" in report and "# self time in chunk:* spans" in report
        assert "netcore.forward.conv.calls" in report
        assert (ROOT / ".perfbench-out" / f"trace-{workload}-seed2.json").is_file()


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flip",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _net_and_maps():
    net = netcore.random_network((1, 6, 6), [("conv", 2, 3, 3, 1, 0), ("relu",),
                                             ("flatten",), ("dense", 2)], seed=3)
    x = np.random.default_rng(0).random((1, 6, 6))
    c = int(np.argmax(netcore.forward(net, x).logits))
    eps = explain.lrp_heatmap(net, x, c, explain.epsilon_config(net, 1e-9))
    taylor = explain.simple_taylor(net, x, c)
    return eps, taylor


def test_checks_accept_correct_outputs():
    eps, taylor = _net_and_maps()
    assert checks.epsilon_matches_taylor(eps, taylor) == []


def test_corrupted_heatmap_raises_error_ratio():
    eps, taylor = _net_and_maps()
    checker = checks.Checker()
    checker.record("clean", checks.epsilon_matches_taylor(eps, taylor))
    perturbed = explain.Heatmap.from_scores(taylor.scores * 1.05, taylor.explained_value,
                                            taylor.method_tag, taylor.meta)
    checker.record("perturbed", checks.epsilon_matches_taylor(eps, perturbed))
    negative = explain.Heatmap.from_scores(-np.abs(taylor.scores), 1.0, "deeptaylor")
    checker.record("negative", checks.deep_taylor("deep Taylor", negative))
    broken = explain.Heatmap.from_scores(np.full((1, 6, 6), np.nan), 1.0, "x")
    checker.record("nan", checks.heatmap("nan", broken, (1, 6, 6)))
    assert checker.attempted == 4 and checker.failed == 3
    assert checker.error_ratio == 0.75


def test_corrupted_output_in_a_workload_is_counted(monkeypatch, tmp_path):
    """A perturbed simple-Taylor heatmap inside the explain stage fails its operation."""
    real = explain.simple_taylor

    def perturbed(*args, **kwargs):
        hm = real(*args, **kwargs)
        return explain.Heatmap.from_scores(hm.scores + 0.1 * np.abs(hm.scores).max(),
                                           hm.explained_value, hm.method_tag, hm.meta)

    monkeypatch.setattr(workloads.explain, "simple_taylor", perturbed)
    ctx = workloads.Context(0, workloads.TINY, tracing.Tracer(), checks.Checker(), tmp_path)
    workloads.run_workload(ctx, "explain", 0.0, trace=False)
    assert ctx.checker.failed > 0
    assert 0 < ctx.checker.error_ratio < 1


def test_self_time_subtracts_children():
    spans = [[0, None, "chunk:x", 1, 0, 100, 1],
             [1, 0, "explain.lrp.a.conv", 1, 10, 60, 1],
             [2, 1, "netcore.forward.conv", 1, 20, 30, 1]]
    assert tracing.self_time_by_module(spans, "chunk:") == \
        {"bench": 50e-9, "explain": 40e-9, "netcore": 10e-9}


def test_tracer_call_records_work_and_nesting():
    tracer = tracing.Tracer(enabled=True)
    with tracer.span("op", op=7):
        assert tracer.call("prototype.x.conv", lambda: 5, work=lambda r: r * 2) == 5
    (_, parent, _, op, *_), (_, child_parent, name, child_op, _, _, work) = tracer.spans
    assert parent is None and child_parent == 0 and op == child_op == 7
    assert (name, work) == ("prototype.x.conv", 10)
    stats = tracing.call_stats(tracer.spans)
    assert stats["prototype.x.conv"]["calls"] == 1 and stats["prototype.x.conv"]["work"] == 10


def test_computed_forward_count_of_the_readme_net():
    import opcount

    net = workloads.init_networks(0)["conv"]
    # conv 8x1x5x5 on 24x24 outputs, bias, relu, 2x2 sum pool, dense 1152 -> 2
    expected = (2 * 8 * 25 * 24 * 24 + 8 * 24 * 24) + 8 * 24 * 24 + 4 * 8 * 12 * 12 \
        + (2 * 1152 * 2 + 2)
    assert opcount.forward_counts(net)["flops"] == expected
