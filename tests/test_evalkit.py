"""Pixel-flipping selectivity, AUC arithmetic, and continuity estimation."""

import itertools
import re

import numpy as np
import pytest

import relkit
from relkit import explain

from conftest import random_dense_network


def linear_net(weights):
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return relkit.Network((relkit.dense(w),), (w.shape[0],), 1)


def tagged_heatmap(scores, class_index=0):
    return relkit.Heatmap.from_scores(scores, float(np.sum(scores)), "test",
                                      {"class_index": class_index})


def exhaustive_min_auc(network, x, orders, fill=0.0):
    """Brute-force oracle: smallest AUC over explicit removal orders."""
    best = np.inf
    for order in orders:
        work = np.array(x, dtype=np.float64)
        values = [relkit.forward(network, work).logits[0]]
        for idx in order:
            work[idx] = fill
            values.append(relkit.forward(network, work).logits[0])
        best = min(best, relkit.auc(values))
    return best


def test_greedy_order_is_optimal_for_linear_model():
    w = [4.0, 3.0, 2.0, 1.0]
    net = linear_net(w)
    x = np.ones(4)
    heatmap = relkit.simple_taylor(net, x, 0)  # exact per-feature contributions
    curve = relkit.pixel_flip(net, x, heatmap)
    oracle = exhaustive_min_auc(net, x, itertools.permutations(range(4)))
    assert curve.auc == pytest.approx(oracle, abs=1e-12)
    assert curve.order == (0, 1, 2, 3)


def test_all_zero_heatmap_removes_in_ascending_index_order():
    net = linear_net([1.0, 1.0, 1.0])
    curve = relkit.pixel_flip(net, np.ones(3), tagged_heatmap(np.zeros(3)))
    assert curve.order == (0, 1, 2)


def test_zero_steps_returns_initial_value_only():
    net = linear_net([2.0, 1.0])
    curve = relkit.pixel_flip(net, np.ones(2), tagged_heatmap(np.ones(2)),
                              relkit.FlipConfig(max_steps=0))
    assert curve.values == (3.0,)
    assert curve.auc == 3.0


def test_auc_hand_values():
    assert relkit.auc([5.0]) == 5.0
    assert relkit.auc([2.0, 2.0, 2.0]) == 2.0
    assert relkit.auc([1.0, 0.5, 0.0]) == 0.5
    assert relkit.auc([1.0, 0.8, 0.2, 0.0]) == pytest.approx(0.5, abs=1e-15)


def test_auc_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        relkit.auc([])


def test_flip_curve_is_deterministic():
    rng = np.random.default_rng(113)
    net = random_dense_network(rng, [6, 4, 2], zero_bias=True)
    x = rng.random(6)
    heatmap = relkit.simple_taylor(net, x, 0)
    first = relkit.pixel_flip(net, x, heatmap)
    second = relkit.pixel_flip(net, x, heatmap)
    assert first.values == second.values
    assert first.order == second.order


def test_patch_flipping_tiles_and_pools():
    rng = np.random.default_rng(127)
    net = relkit.random_network(
        (1, 8, 8), [("flatten",), ("dense", 2)], seed=3)
    x = rng.random((1, 8, 8))
    scores = np.zeros((1, 8, 8))
    scores[0, 4:8, 0:4] = 1.0  # one hot patch: removed first
    curve = relkit.pixel_flip(net, x, tagged_heatmap(scores),
                              relkit.FlipConfig(patch=4, max_steps=1))
    assert curve.order == (2,)  # row-major patch id for (rows 4:8, cols 0:4)
    assert len(curve.values) == 2


def test_patch_must_tile_input():
    net = relkit.random_network((1, 6, 6), [("flatten",), ("dense", 2)], seed=3)
    with pytest.raises(ValueError, match="tile"):
        relkit.pixel_flip(net, np.ones((1, 6, 6)), tagged_heatmap(np.ones((1, 6, 6))),
                          relkit.FlipConfig(patch=4))


def test_heatmap_without_class_meta_is_rejected():
    net = linear_net([1.0, 1.0])
    bare = relkit.Heatmap.from_scores(np.ones(2), 2.0, "bare")
    with pytest.raises(ValueError, match="class_index"):
        relkit.pixel_flip(net, np.ones(2), bare)


def test_continuity_constant_explainer_is_zero():
    net = linear_net([1.0, 1.0])

    def constant(network, x):
        return np.ones(2)

    assert relkit.continuity_estimate(constant, net, [np.zeros(2)],
                                      delta=0.1, trials=5, seed=0) == 0.0


def test_continuity_linear_taylor_bounds():
    w = np.array([3.0, -1.0, 0.5])
    net = linear_net(w)

    def explainer(network, x):
        return relkit.simple_taylor(network, x, 0)

    x = np.array([1.0, 2.0, 3.0])
    estimate = relkit.continuity_estimate(explainer, net, [x],
                                          delta=0.01, trials=50, seed=1)
    # ratio = ||w . d||_1 / ||d||_2 <= max|w| * ||d||_1 / ||d||_2 <= max|w| * sqrt(n)
    assert estimate <= np.abs(w).max() * np.sqrt(w.size) + 1e-9
    # the bound max|w| is attained exactly for an axis-aligned perturbation
    delta = 1e-3
    x_axis = x.copy()
    x_axis[0] += delta
    r0 = explainer(net, x).scores
    r1 = explainer(net, x_axis).scores
    assert np.abs(r0 - r1).sum() / delta == pytest.approx(np.abs(w).max(), rel=1e-9)


def test_continuity_ordering_on_max_network(max_network):
    config = relkit.deep_taylor_config(max_network, "relu")

    def deep_taylor(network, x):
        return relkit.lrp_heatmap(network, x, 0, config)

    def taylor(network, x):
        return relkit.simple_taylor(network, x, 0)

    probe = np.array([1.0, 1.0])
    for delta in (1e-1, 1e-2, 1e-3):
        smooth = relkit.continuity_estimate(deep_taylor, max_network, [probe],
                                            delta=delta, trials=20, seed=2)
        jumpy = relkit.continuity_estimate(taylor, max_network, [probe],
                                           delta=delta, trials=20, seed=2)
        assert smooth < jumpy
    assert smooth <= 2.0
    assert jumpy > 10.0


def test_positive_relevance_stacks_are_smoother_than_gradient_explainers(digit_corpus,
                                                                         digit_classifier):
    # the paper's continuity comparison on a trained conv net: deep Taylor (relu
    # domain and the [0, 1] pixel box) and alpha1beta0 vary at least 5x less
    # under small perturbations than sensitivity and simple Taylor (measured on
    # the synthetic corpus: 53.2 and 24.2 against 1.32, 0.56 and 1.32)
    net, probes = digit_classifier, [x[None] for x in digit_corpus[2][:3]]
    c = int(np.argmax(relkit.forward(net, probes[0]).logits))
    configs = [explain.rule_config(net, explain.DEEP_TAYLOR, domain, 0.0, 1.0)
               for domain in ("relu", "pixel")] + [explain.rule_config(net, "alpha1beta0")]
    smooth = [relkit.continuity_estimate(lambda n, x, cfg=cfg: relkit.lrp_heatmap(n, x, c, cfg),
                                         net, probes, 0.01, 2, 0) for cfg in configs]
    jumpy = [relkit.continuity_estimate(lambda n, x, f=f: f(n, x, c), net, probes, 0.01, 2, 0)
             for f in (relkit.sensitivity, relkit.simple_taylor)]
    assert min(jumpy) >= 5.0 * max(smooth), (jumpy, smooth)


def test_continuity_monotone_in_trials():
    rng = np.random.default_rng(131)
    net = random_dense_network(rng, [3, 5, 2], zero_bias=True)

    def explainer(network, x):
        return relkit.simple_taylor(network, x, 0)

    probes = [rng.standard_normal(3) for _ in range(2)]
    estimates = [relkit.continuity_estimate(explainer, net, probes,
                                            delta=0.05, trials=t, seed=3)
                 for t in (1, 3, 8, 20)]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


def test_continuity_rejects_bad_arguments():
    net = linear_net([1.0])
    with pytest.raises(ValueError, match="delta"):
        relkit.continuity_estimate(lambda n, x: x, net, [np.zeros(1)], 0.0, 1, 0)
    with pytest.raises(ValueError, match="trials"):
        relkit.continuity_estimate(lambda n, x: x, net, [np.zeros(1)], 0.1, 0, 0)


@pytest.mark.parametrize("delta,trials,seed,message", [
    (np.nan, 1, 0, "delta must be finite and > 0, got nan"),
    (np.inf, 1, 0, "delta must be finite and > 0, got inf"),
    (-0.1, 1, 0, "delta must be finite and > 0, got -0.1"),
    (0.1, 2.5, 0, "trials must be an integer, got 2.5"),
    (0.1, True, 0, "trials must be an integer, got True"),
    (0.1, 0, 0, "trials must be >= 1, got 0"),
    (0.1, 1, -1, "seed must be >= 0, got -1"),
    (0.1, 1, 1.0, "seed must be an integer, got 1.0"),
])
def test_continuity_names_the_bad_argument(delta, trials, seed, message):
    net = linear_net([1.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        relkit.continuity_estimate(lambda n, x: x, net, [np.zeros(1)], delta, trials, seed)


def test_unknown_explained_output_in_heatmap_meta_is_rejected():
    net = linear_net([1.0, 2.0])
    heatmap = relkit.Heatmap.from_scores([1.0, 2.0], 3.0, "t",
                                         {"class_index": 0, "explained_output": "probability"})
    with pytest.raises(ValueError, match="explained_output.*'probability'"):
        relkit.pixel_flip(net, [1.0, 1.0], heatmap)


@pytest.mark.parametrize("fields,message", [
    ({"patch": 0}, "patch must be >= 1, got 0"),
    ({"patch": True}, "patch must be an integer, got True"),
    ({"patch": 2.0}, "patch must be an integer, got 2.0"),
    ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
    ({"max_steps": -1}, "max_steps must be >= 0, got -1"),
    ({"fill": np.nan}, "fill must be a finite number, got nan"),
    ({"fill": np.inf}, "fill must be a finite number, got inf"),
    ({"fill": "0"}, "fill must be a finite number, got '0'"),
])
def test_flip_config_names_the_bad_field(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        relkit.FlipConfig(**fields)


def test_flip_config_accepts_numpy_scalars():
    config = relkit.FlipConfig(patch=np.int64(2), fill=np.float32(0.5), max_steps=np.int32(3))
    assert (config.patch, config.fill, config.max_steps) == (2, 0.5, 3)
