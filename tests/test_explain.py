"""Gradient explainers and the relevance-propagation engine."""

import numpy as np
import pytest

import relkit
from relkit import explain

from conftest import random_dense_network


def linear_net(weights):
    w = np.asarray(weights, dtype=np.float64)
    return relkit.Network((relkit.dense(w),), (w.shape[0],), w.shape[1])


def test_sensitivity_linear_model():
    net = linear_net([[2.0], [-1.0]])
    hm = relkit.sensitivity(net, [7.0, 7.0], 0)
    assert np.array_equal(hm.scores, [4.0, 1.0])
    assert hm.total == 5.0
    assert hm.explained_value == 5.0


def test_sensitivity_max_network(max_network):
    hm = relkit.sensitivity(max_network, [1.0, 0.0], 0)
    assert np.array_equal(hm.scores, [1.0, 0.0])


def test_sensitivity_total_is_squared_gradient_norm():
    rng = np.random.default_rng(23)
    for _ in range(20):
        net = random_dense_network(rng, [5, 7, 3], zero_bias=False)
        x = rng.standard_normal(5)
        hm = relkit.sensitivity(net, x, 1)
        g = relkit.gradient(net, x, 1)
        assert abs(hm.total - np.sum(g * g)) <= 1e-9


def test_simple_taylor_linear_exact():
    net = linear_net([[2.0], [-1.0]])
    hm = relkit.simple_taylor(net, [1.0, 1.0], 0)
    assert np.array_equal(hm.scores, [2.0, -1.0])
    assert hm.total == 1.0
    assert hm.explained_value == 1.0
    assert hm.meta["residual"] == 0.0


def test_simple_taylor_max_network_diagonal(max_network):
    # ReLU'(0) = 0, so only the x1+x2 branch contributes at (1, 1)
    hm = relkit.simple_taylor(max_network, [1.0, 1.0], 0)
    assert np.array_equal(hm.scores, [0.5, 0.5])
    assert hm.total == 1.0


def test_simple_taylor_total_matches_f_for_zero_bias():
    rng = np.random.default_rng(29)
    for _ in range(20):
        net = random_dense_network(rng, [6, 9, 4], zero_bias=True)
        x = rng.standard_normal(6)
        hm = relkit.simple_taylor(net, x, 2)
        f = relkit.forward(net, x).logits[2]
        assert abs(hm.total - f) <= 1e-6 * max(abs(f), 1e-3)


def test_simple_taylor_residual_reported_for_biased_net():
    rng = np.random.default_rng(31)
    net = random_dense_network(rng, [4, 6, 2], zero_bias=False)
    x = rng.standard_normal(4)
    hm = relkit.simple_taylor(net, x, 0)
    assert hm.meta["residual"] == pytest.approx(hm.explained_value - hm.total)


def test_lrp_single_dense_alpha1beta0():
    # w = (2, 3), x = (1, 1): f = 5, everything redistributes along w
    net = linear_net([[2.0], [3.0]])
    trace = relkit.forward(net, [1.0, 1.0])
    config = relkit.alphabeta_config(net, 1.0, 0.0)
    hm = relkit.lrp(net, trace, 0, config).heatmap()
    assert hm.explained_value == 5.0
    assert np.allclose(hm.scores, [2.0, 3.0], rtol=0, atol=1e-12)


def test_lrp_max_network_fixture(max_network):
    config = relkit.alphabeta_config(max_network, 1.0, 0.0)
    cases = {(1.0, 1.0): [0.5, 0.5], (1.0, 0.0): [1.0, 0.0], (0.0, 1.0): [0.0, 1.0]}
    for point, expected in cases.items():
        trace = relkit.forward(max_network, point)
        hm = relkit.lrp(max_network, trace, 0, config).heatmap()
        assert np.array_equal(hm.scores, expected)


def test_relevance_trace_shapes_match_activations(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    rel = relkit.lrp(max_network, trace, 0, config)
    assert len(rel.relevances) == len(max_network.layers) + 1
    for r, x in zip(rel.relevances, trace.inputs):
        assert r.shape == x.shape
    assert rel.relevances[-1].shape == trace.logits.shape


def test_lrp_rejects_wrong_rule_count(max_network):
    config = relkit.RuleConfig((relkit.AlphaBeta(),))
    trace = relkit.forward(max_network, [1.0, 0.0])
    with pytest.raises(ValueError, match="rules"):
        relkit.lrp(max_network, trace, 0, config)


def test_lrp_rejects_missing_rule(max_network):
    config = relkit.RuleConfig((relkit.AlphaBeta(), None,
                                relkit.AlphaBeta(), relkit.PassThrough()))
    trace = relkit.forward(max_network, [1.0, 0.0])
    with pytest.raises(ValueError, match="no rule"):
        relkit.lrp(max_network, trace, 0, config)


def test_zbounds_rejected_on_hidden_layer(max_network):
    zb = relkit.ZBounds(0.0, 1.0)
    config = relkit.RuleConfig((relkit.AlphaBeta(), relkit.PassThrough(),
                                zb, relkit.PassThrough()))
    trace = relkit.forward(max_network, [1.0, 0.0])
    with pytest.raises(ValueError, match="first weighted"):
        relkit.lrp(max_network, trace, 0, config)


def test_winner_take_all_rejected_on_sum_pool():
    net = relkit.Network((relkit.sum_pool((2, 2), stride=2), relkit.flatten(),
                          relkit.dense(np.ones((1, 1)))), (1, 2, 2), 1)
    config = relkit.RuleConfig((relkit.PoolWinnerTakeAll(), relkit.PassThrough(),
                                relkit.AlphaBeta()))
    trace = relkit.forward(net, np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match="winner-take-all"):
        relkit.lrp(net, trace, 0, config)


def test_lrp_log_probability_mode(max_network):
    config = relkit.deep_taylor_config(max_network, "relu",
                                       explained_output="log_probability")
    trace = relkit.forward(max_network, [1.0, 0.0])
    rel = relkit.lrp(max_network, trace, 0, config)
    assert rel.explained_value == relkit.log_softmax(trace.logits)[0]


def test_lrp_nonpredicted_class_initializes_with_value_as_is():
    rng = np.random.default_rng(37)
    net = random_dense_network(rng, [4, 6, 3], zero_bias=True)
    x = rng.standard_normal(4)
    logits = relkit.forward(net, x).logits
    weakest = int(np.argmin(logits))
    config = relkit.alphabeta_config(net, 1.0, 0.0)
    rel = relkit.lrp(net, relkit.forward(net, x), weakest, config)
    assert rel.explained_value == logits[weakest]


def test_conv_network_conservation():
    rng = np.random.default_rng(41)
    net = relkit.random_network(
        (2, 8, 8),
        [("conv", 4, 3, 3, 1, 1), ("relu",), ("avgpool", 2, 2, 2, 0),
         ("conv", 3, 3, 3, 1, 0), ("relu",), ("flatten",), ("dense", 3)],
        seed=43)
    x = rng.random((2, 8, 8))
    trace = relkit.forward(net, x)
    f = trace.logits[0]
    for config in (relkit.alphabeta_config(net, 1.0, 0.0),
                   relkit.alphabeta_config(net, 2.0, 1.0),
                   relkit.deep_taylor_config(net, "pixel", low=0.0, high=1.0)):
        hm = relkit.lrp(net, trace, 0, config).heatmap()
        assert abs(hm.total - f) <= 1e-6 * abs(f)


def test_filter_all_ones_mask_is_identity(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    plain = relkit.lrp(max_network, trace, 0, config).heatmap()
    filtered = relkit.filter_relevance(max_network, trace, 0, config, 2,
                                       np.ones(3))
    assert np.array_equal(filtered.scores, plain.scores)


def test_filter_one_hot_mask_totals_that_neurons_relevance(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    rel = relkit.lrp(max_network, trace, 0, config)
    # relevance entering layer 2 (the second dense) sits on three hidden units
    for unit in range(3):
        mask = np.zeros(3)
        mask[unit] = 1.0
        filtered = relkit.filter_relevance(max_network, trace, 0, config, 2, mask)
        assert filtered.total == pytest.approx(rel.relevances[2][unit], abs=1e-12)


def test_filter_zero_mask_zeroes_heatmap(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    filtered = relkit.filter_relevance(max_network, trace, 0, config, 2, np.zeros(3))
    assert np.array_equal(filtered.scores, np.zeros(2))


def test_filter_rejects_bad_mask_shape(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    with pytest.raises(ValueError, match="mask shape"):
        relkit.filter_relevance(max_network, trace, 0, config, 2, np.ones(4))


def test_heatmap_total_matches_scores_sum():
    rng = np.random.default_rng(47)
    scores = rng.standard_normal((3, 5))
    hm = relkit.Heatmap.from_scores(scores, 1.0, "test")
    assert abs(hm.total - scores.sum()) <= 1e-9


@pytest.mark.parametrize("input_shape, plan", [
    ((10,), [("dense", 8), ("relu",), ("dense", 6), ("relu",), ("dense", 3)]),
    ((2, 8, 8), [("conv", 4, 3, 3, 2, 1), ("relu",), ("sumpool", 2, 2, 2, 0),
                 ("flatten",), ("dense", 3)]),
    ((1, 8, 8), [("conv", 3, 3, 3, 1, 0), ("relu",), ("avgpool", 2, 2, 2, 0),
                 ("flatten",), ("dense", 4), ("relu",), ("dense", 3)]),
], ids=["dense", "conv-stride2-pad1-sumpool", "conv-avgpool"])
def test_epsilon_lrp_equals_gradient_times_input(input_shape, plan):
    # on zero-bias ReLU nets epsilon-LRP with epsilon -> 0 is gradient x input;
    # max pool is left out because proportional pooling does not follow the
    # gradient's winner routing
    rng = np.random.default_rng(89)
    for seed in range(20):
        net = relkit.random_network(input_shape, plan, seed=seed)
        x = rng.standard_normal(input_shape)
        c = int(np.argmax(relkit.forward(net, x).logits))
        eps = relkit.lrp_heatmap(net, x, c, relkit.epsilon_config(net, 1e-12)).scores
        taylor = relkit.simple_taylor(net, x, c).scores
        assert np.abs(eps - taylor).max() <= 1e-6 * np.abs(taylor).max()


def test_pixel_bounds_of_input_shape_reach_a_flattened_first_layer():
    net = relkit.random_network((1, 28, 28), [("flatten",), ("dense", 4), ("relu",),
                                              ("dense", 2)], seed=97)
    x = np.random.default_rng(101).random((1, 28, 28))
    trace = relkit.forward(net, x)
    shaped = relkit.deep_taylor_config(net, "pixel", low=np.zeros((1, 28, 28)),
                                       high=np.ones((1, 28, 28)))
    scalar = relkit.deep_taylor_config(net, "pixel", low=0.0, high=1.0)
    got = relkit.lrp(net, trace, 0, shaped).relevances[0]
    want = relkit.lrp(net, trace, 0, scalar).relevances[0]
    assert got.shape == (1, 28, 28)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_pixel_bounds_of_another_shape_are_rejected():
    net = relkit.random_network((1, 6, 6), [("conv", 2, 3, 3, 1, 0), ("relu",),
                                            ("flatten",), ("dense", 2)], seed=103)
    with pytest.raises(ValueError, match=r"low has shape \(5,\).*\(1, 6, 6\)"):
        relkit.deep_taylor_config(net, "pixel", low=np.zeros(5), high=1.0)
    with pytest.raises(ValueError, match="high"):
        relkit.deep_taylor_config(net, "pixel", low=0.0, high=np.ones((6, 5)))


def test_hand_built_zbounds_of_the_wrong_shape_are_rejected_by_name():
    net = relkit.random_network((1, 28, 28), [("flatten",), ("dense", 4), ("relu",),
                                              ("dense", 2)], seed=97)
    rules = (relkit.PassThrough(), relkit.ZBounds(np.zeros((1, 28, 28)), 1.0),
             relkit.PassThrough(), relkit.AlphaBeta(1.0, 0.0))
    trace = relkit.forward(net, np.zeros((1, 28, 28)))
    with pytest.raises(ValueError,
                       match=r"layer 1 \(Dense\).*low .*\(1, 28, 28\).*\(784,\)"):
        relkit.lrp(net, trace, 0, relkit.RuleConfig(rules))


@pytest.mark.parametrize("explainer", [relkit.sensitivity, relkit.simple_taylor])
def test_gradient_explainers_reject_unknown_explained_output(max_network, explainer):
    with pytest.raises(ValueError, match="explained_output.*'probability'"):
        explainer(max_network, [1.0, 0.5], 0, explained_output="probability")


def _stack_summary(config):
    return (config.name, config.stabilizer, config.explained_output,
            [(type(rule).__name__, vars(rule)) for rule in config.layer_rules])


CONV_NET = relkit.random_network((1, 8, 8), [("conv", 3, 3, 3, 1, 1), ("relu",),
                                             ("maxpool", 2, 2, 2, 0), ("flatten",),
                                             ("dense", 4), ("relu",), ("dense", 2)], seed=3)


@pytest.mark.parametrize("rule", explain.LRP_RULES)
def test_every_named_stack_carries_its_name(rule):
    config = relkit.rule_config(CONV_NET, rule)
    assert config.name == rule
    kinds = [type(r).__name__ for r in config.layer_rules]
    assert kinds[1:3] == ["PassThrough", "PoolProportional"]
    assert kinds[0] == kinds[4] == kinds[6]  # the relu domain keeps the hidden rule


def test_named_stacks_equal_their_factories():
    low, high = np.zeros((1, 8, 8)), 1.0
    pairs = [(relkit.rule_config(CONV_NET, name, stabilizer=1e-6), relkit.alphabeta_config(
              CONV_NET, alpha, beta, stabilizer=1e-6)) for name, (alpha, beta)
             in explain.ALPHA_BETA.items()]
    pairs.append((relkit.rule_config(CONV_NET, explain.EPSILON, "pixel", epsilon=0.25,
                                     explained_output="log_probability"),
                  relkit.epsilon_config(CONV_NET, 0.25, explained_output="log_probability")))
    for domain in explain.INPUT_DOMAINS:
        pairs.append((relkit.rule_config(CONV_NET, explain.DEEP_TAYLOR, domain, low, high),
                      relkit.deep_taylor_config(CONV_NET, domain, low=low, high=high)))
    for got, want in pairs:
        assert repr(_stack_summary(got)) == repr(_stack_summary(want))
    dt_relu = relkit.deep_taylor_config(CONV_NET, "relu")
    alpha1beta0 = relkit.rule_config(CONV_NET, "alpha1beta0")
    assert [vars(r) for r in dt_relu.layer_rules] == [vars(r) for r in alpha1beta0.layer_rules]


def test_rule_config_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown LRP rule 'alpha3beta2'"):
        relkit.rule_config(CONV_NET, "alpha3beta2")
    with pytest.raises(ValueError, match="unknown input domain 'box'"):
        relkit.rule_config(CONV_NET, explain.DEEP_TAYLOR, "box")
    with pytest.raises(ValueError, match="pixel input domain requires low/high"):
        relkit.rule_config(CONV_NET, explain.DEEP_TAYLOR, "pixel")
