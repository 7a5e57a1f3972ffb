"""Primitive propagation rules: frozen hand-computed cases, conservation and
positivity properties, and the per-edge brute-force oracle."""

import numpy as np
import pytest

import relkit
from relkit.explain import (lrp_dense_alphabeta, lrp_dense_epsilon,
                            lrp_input_wsquare, lrp_input_zb, lrp_pool)

from conftest import random_dense_network


def test_alphabeta_four_step_hand_case():
    # z = W+' a = (3, 1); s = R/z = (1, 1); c = W+ s = (1, 3); R = a*c
    a = np.array([1.0, 1.0])
    w = np.array([[1.0, -1.0], [2.0, 1.0]])
    r_upper = np.array([3.0, 1.0])
    out = lrp_dense_alphabeta(a, w, r_upper, 1.0, 0.0)
    assert np.array_equal(out, [1.0, 3.0])
    assert out.sum() == 4.0 == r_upper.sum()


def test_alphabeta_all_positive_weights_beta_branch_vanishes():
    rng = np.random.default_rng(53)
    a = rng.random(5)
    w = rng.random((5, 4))
    r_upper = rng.random(4)
    plain = lrp_dense_alphabeta(a, w, r_upper, 1.0, 0.0)
    spread = lrp_dense_alphabeta(a, w, r_upper, 2.0, 1.0)
    assert np.array_equal(plain, spread)


def test_alphabeta_zero_activations_absorb_relevance():
    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    out = lrp_dense_alphabeta(np.zeros(2), w, np.array([5.0, 7.0]), 1.0, 0.0)
    assert np.array_equal(out, [0.0, 0.0])


def test_alphabeta_parameter_constraints():
    a, w, r = np.ones(2), np.ones((2, 2)), np.ones(2)
    with pytest.raises(ValueError, match="alpha - beta"):
        lrp_dense_alphabeta(a, w, r, 2.0, 0.5)
    with pytest.raises(ValueError, match="beta"):
        lrp_dense_alphabeta(a, w, r, 0.0, -1.0)


def test_alphabeta_layer_conservation_exact():
    # no stabilized denominators -> sums preserved up to float rounding
    rng = np.random.default_rng(59)
    for _ in range(50):
        a = np.maximum(rng.standard_normal(6), 0.0)
        w = rng.standard_normal((6, 4))
        r_upper = rng.standard_normal(4)
        for alpha, beta in ((1.0, 0.0), (2.0, 1.0), (1.5, 0.5)):
            out = lrp_dense_alphabeta(a, w, r_upper, alpha, beta)
            z_pos = a @ np.maximum(w, 0.0)
            z_neg = a @ np.minimum(w, 0.0)
            kept = (np.abs(z_pos) >= 1e-9) * r_upper
            assert out.sum() == pytest.approx(kept.sum(), abs=1e-10)


def test_alphabeta_matches_plain_zplus_four_step_bitwise():
    # alpha=1, beta=0 must equal the bare excitatory four-step pass
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = np.maximum(rng.standard_normal(7), 0.0)
        w = rng.standard_normal((7, 5))
        r_upper = rng.standard_normal(5)
        w_pos = np.maximum(w, 0.0)
        z = a @ w_pos
        ok = np.abs(z) >= 1e-9
        s = np.where(ok, r_upper / np.where(ok, z, 1.0), 0.0)
        reference = a * (w_pos @ s)
        assert np.array_equal(lrp_dense_alphabeta(a, w, r_upper, 1.0, 0.0), reference)


def test_epsilon_limit_is_proportional_split():
    a = np.array([1.0, 1.0])
    w = np.array([[2.0], [3.0]])
    out = lrp_dense_epsilon(a, w, np.zeros(1), np.array([5.0]), 1e-9)
    assert np.allclose(out, [2.0, 3.0], rtol=0, atol=1e-8)


def test_epsilon_zero_denominator_stays_finite():
    a = np.array([1.0, -1.0])
    w = np.array([[1.0], [1.0]])  # z = 0 -> sign taken as +1
    out = lrp_dense_epsilon(a, w, np.zeros(1), np.array([3.0]), 0.5)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, [6.0, -6.0])  # shares R/eps * a*w


def test_epsilon_requires_positive_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        lrp_dense_epsilon(np.ones(1), np.ones((1, 1)), np.zeros(1), np.ones(1), 0.0)


def test_wsquare_hand_cases():
    out = lrp_input_wsquare(np.array([[1.0], [2.0]]), np.array([1.0]))
    assert np.allclose(out, [0.2, 0.8], rtol=0, atol=1e-15)
    out = lrp_input_wsquare(np.array([[1.0], [1.0]]), np.array([1.0]))
    assert np.array_equal(out, [0.5, 0.5])


def test_wsquare_conserves_and_drops_zero_columns():
    rng = np.random.default_rng(67)
    w = rng.standard_normal((6, 4))
    w[:, 2] = 0.0  # that unit's relevance is dropped
    r_upper = rng.standard_normal(4)
    out = lrp_input_wsquare(w, r_upper)
    expected = r_upper.sum() - r_upper[2]
    assert out.sum() == pytest.approx(expected, abs=1e-12)


def test_zbounds_hand_case():
    # l=0, h=1, w=(1,1), x=(1,0): numerator (1*1-0-0, 0*1-0-0) = (1, 0)
    out = lrp_input_zb(np.array([1.0, 0.0]), np.array([[1.0], [1.0]]),
                       np.array([1.0]), 0.0, 1.0)
    assert np.allclose(out, [1.0, 0.0], rtol=0, atol=1e-12)


def test_zbounds_all_negative_weights_nonnegative_scores():
    # x = l = 0, h = 1: numerator reduces to -h*w- >= 0
    rng = np.random.default_rng(71)
    w = -rng.random((4, 3))
    r_upper = rng.random(3)
    out = lrp_input_zb(np.zeros(4), w, r_upper, 0.0, 1.0)
    assert np.all(out >= 0.0)
    assert out.sum() == pytest.approx(r_upper.sum(), abs=1e-9)


def test_zbounds_conservation_random():
    rng = np.random.default_rng(73)
    for _ in range(20):
        x = rng.random(5)
        w = rng.standard_normal((5, 3))
        r_upper = rng.standard_normal(3)
        out = lrp_input_zb(x, w, r_upper, 0.0, 1.0)
        assert out.sum() == pytest.approx(r_upper.sum(), abs=1e-9)


def test_zbounds_rejects_bad_bounds():
    with pytest.raises(ValueError, match="low <= 0 <= high"):
        lrp_input_zb(np.ones(2), np.ones((2, 1)), np.ones(1), 0.5, 1.0)
    with pytest.raises(ValueError, match="low <= 0 <= high"):
        relkit.ZBounds(0.0, -1.0)


def _pool_layer(kind, window=(1, 2)):
    factory = {"SumPool": relkit.sum_pool, "AvgPool": relkit.avg_pool,
               "MaxPool": relkit.max_pool}[kind]
    return factory(window, stride=2)


def test_pool_proportional_hand_case():
    x = np.array([[[1.0, 3.0]]])
    layer = _pool_layer("SumPool")
    out = lrp_pool(layer, x, None, np.array([[[4.0]]]), relkit.PoolProportional())
    assert np.allclose(out, [[[1.0, 3.0]]], rtol=0, atol=1e-12)


def test_pool_winner_take_all_hand_case():
    x = np.array([[[1.0, 3.0]]])
    layer = _pool_layer("MaxPool")
    cols_net = relkit.Network((layer, relkit.flatten(), relkit.dense(np.ones((1, 1)))),
                              (1, 1, 2), 1)
    trace = relkit.forward(cols_net, x)
    out = lrp_pool(layer, x, trace.aux[0], np.array([[[4.0]]]),
                   relkit.PoolWinnerTakeAll())
    assert np.array_equal(out, [[[0.0, 4.0]]])


def test_pool_all_zero_window_absorbs():
    x = np.zeros((1, 1, 2))
    layer = _pool_layer("SumPool")
    out = lrp_pool(layer, x, None, np.array([[[4.0]]]), relkit.PoolProportional())
    assert np.array_equal(out, [[[0.0, 0.0]]])


def test_positivity_nonpositive_bias_positive_logit():
    rng = np.random.default_rng(79)
    found = 0
    for _ in range(50):
        net = random_dense_network(rng, [5, 8, 6, 3], zero_bias=False,
                                   nonpositive_bias=True)
        x = np.abs(rng.standard_normal(5))
        trace = relkit.forward(net, x)
        c = int(np.argmax(trace.logits))
        if trace.logits[c] <= 0:
            continue
        found += 1
        for config in (relkit.alphabeta_config(net, 1.0, 0.0),
                       relkit.deep_taylor_config(net, "relu")):
            hm = relkit.lrp(net, trace, c, config).heatmap()
            assert hm.scores.min() >= 0.0
    assert found >= 10


def test_scaling_covariance_zero_bias():
    rng = np.random.default_rng(83)
    net = random_dense_network(rng, [4, 7, 2], zero_bias=True)
    config = relkit.alphabeta_config(net, 1.0, 0.0)
    x = rng.standard_normal(4)
    base = relkit.lrp(net, relkit.forward(net, x), 0, config).heatmap()
    for t in (0.5, 2.0, 7.5):
        scaled = relkit.lrp(net, relkit.forward(net, t * x), 0, config).heatmap()
        assert np.allclose(scaled.scores, t * base.scores, rtol=1e-9, atol=1e-12)


def brute_force_lrp(network, trace, class_index, alpha, beta, stabilizer=1e-9):
    """Independent per-edge enumeration of relevance shares (scalar loops)."""
    relevance = np.zeros(network.class_count)
    relevance[class_index] = trace.logits[class_index]
    for idx in reversed(range(len(network.layers))):
        layer = network.layers[idx]
        if layer.kind == "ReLU":
            continue
        assert layer.kind == "Dense"
        a = trace.inputs[idx]
        w = layer.weights
        lower = np.zeros(w.shape[0])
        for k in range(w.shape[1]):
            z_pos = sum(a[j] * max(w[j, k], 0.0) for j in range(w.shape[0]))
            z_neg = sum(a[j] * min(w[j, k], 0.0) for j in range(w.shape[0]))
            if abs(z_pos) < stabilizer:
                continue  # unit absorbed
            if abs(z_neg) >= stabilizer:
                a_eff, b_eff = alpha, beta
            else:
                a_eff, b_eff = 1.0, 0.0  # empty inhibitory branch
            for j in range(w.shape[0]):
                share = a_eff * a[j] * max(w[j, k], 0.0) / z_pos * relevance[k]
                if b_eff:
                    share -= b_eff * a[j] * min(w[j, k], 0.0) / z_neg * relevance[k]
                lower[j] += share
        relevance = lower
    return relevance


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0)])
def test_engine_matches_per_edge_enumeration(alpha, beta):
    rng = np.random.default_rng(89)
    for _ in range(25):
        sizes = [3, 3, 2] if rng.random() < 0.5 else [2, 3, 3, 2]
        net = random_dense_network(rng, sizes, zero_bias=True)
        x = rng.standard_normal(sizes[0])
        trace = relkit.forward(net, x)
        config = relkit.alphabeta_config(net, alpha, beta)
        engine = relkit.lrp(net, trace, 0, config).heatmap().scores
        oracle = brute_force_lrp(net, trace, 0, alpha, beta)
        assert np.abs(engine - oracle).max() <= 1e-12


@pytest.mark.parametrize("rule_name", ["alpha1beta0", "alpha2beta1", "epsilon",
                                       "wsquare", "zbounds"])
def test_conv_spanning_its_input_equals_dense(rule_name):
    # a Conv2D whose kernel covers the whole input (stride 1, no padding) is
    # the Dense layer with the same weights on the flattened input, so every
    # weighted rule must redistribute identically through both
    rng = np.random.default_rng(79)
    shape = (2, 4, 3)
    x = rng.random(shape)
    w = rng.standard_normal((5,) + shape)
    b = -rng.random(5)
    low, high = -rng.random(shape), 1.0 + rng.random(shape)
    r_upper = rng.standard_normal(5)
    cases = {"conv": (relkit.conv2d(w, b), x, r_upper.reshape(5, 1, 1), low, high),
             "dense": (relkit.dense(w.reshape(5, -1).T, b), x.ravel(), r_upper,
                       low.ravel(), high.ravel())}
    out = {}
    for kind, (layer, a, r, lo, hi) in cases.items():
        rule = {"alpha1beta0": relkit.AlphaBeta(1.0, 0.0),
                "alpha2beta1": relkit.AlphaBeta(2.0, 1.0),
                "epsilon": relkit.Epsilon(1e-9),
                "wsquare": relkit.WSquare(),
                "zbounds": relkit.ZBounds(lo, hi)}[rule_name]
        out[kind] = relkit.explain._propagate_layer(layer, a, None, r, rule, 1e-9)
    assert out["conv"].shape == shape
    scale = np.abs(out["dense"]).max()
    assert scale > 0.0
    assert np.abs(out["conv"].ravel() - out["dense"]).max() <= 1e-12 * scale


@pytest.mark.parametrize("build,message", [
    (lambda: relkit.AlphaBeta(np.nan, np.nan), "AlphaBeta alpha must be finite, got nan"),
    (lambda: relkit.AlphaBeta(np.inf, np.inf), "AlphaBeta alpha must be finite, got inf"),
    (lambda: relkit.Epsilon(np.nan), "Epsilon epsilon must be finite, got nan"),
    (lambda: relkit.Epsilon(np.inf), "Epsilon epsilon must be finite, got inf"),
    (lambda: relkit.ZBounds(np.nan, 1.0), "ZBounds low must be finite, got nan"),
    (lambda: relkit.ZBounds(np.array([0.0, -np.inf]), 1.0),
     "ZBounds low must be finite, got -inf"),
    (lambda: relkit.ZBounds(0.0, np.array([[1.0], [np.inf]])),
     "ZBounds high must be finite, got inf"),
    (lambda: relkit.RuleConfig((), stabilizer=np.nan),
     "RuleConfig stabilizer must be finite, got nan"),
    (lambda: relkit.RuleConfig((), stabilizer=np.inf),
     "RuleConfig stabilizer must be finite, got inf"),
    # values that fail an older check keep its message
    (lambda: relkit.AlphaBeta(2.0, 0.0), "AlphaBeta requires alpha - beta = 1"),
    (lambda: relkit.AlphaBeta(0.5, -0.5), "AlphaBeta requires beta >= 0"),
    (lambda: relkit.Epsilon(-np.inf), "Epsilon requires a positive epsilon"),
    (lambda: relkit.ZBounds(np.inf, 1.0), "ZBounds requires low <= 0 <= high elementwise"),
    (lambda: relkit.RuleConfig((), stabilizer=-np.inf), "stabilizer must be positive"),
])
def test_bad_rule_parameters_are_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()
