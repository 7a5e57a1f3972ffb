"""Engine dispatch paths not covered by the hand-case tests: convolutional
first-layer rules, winner-take-all through the engine, logit-level filtering,
and rank-2 sliding windows."""

import re
from pathlib import Path

import numpy as np
import pytest

import relkit


@pytest.fixture
def conv_net():
    return relkit.random_network(
        (1, 6, 6),
        [("conv", 4, 3, 3, 1, 0), ("relu",), ("flatten",), ("dense", 3)],
        seed=29)


def _positive_case(net, rng, shape):
    for _ in range(50):
        x = rng.random(shape)
        trace = relkit.forward(net, x)
        c = int(np.argmax(trace.logits))
        if trace.logits[c] > 1e-2:
            return x, trace, c
    raise AssertionError("no confident sample found")


def test_conv_wsquare_first_layer_conserves_and_ignores_input(conv_net):
    rng = np.random.default_rng(31)
    x, trace, c = _positive_case(conv_net, rng, (1, 6, 6))
    config = relkit.deep_taylor_config(conv_net, "real")
    rel = relkit.lrp(conv_net, trace, c, config)
    hm = rel.heatmap()
    f = trace.logits[c]
    assert abs(hm.total - f) <= 1e-9 * abs(f)
    # the squared-weight rule ignores the input values: same upper relevance
    # on a different input must give the same first-layer redistribution
    other = rng.random((1, 6, 6))
    other_trace = relkit.forward(conv_net, other)
    rel2 = relkit.lrp(conv_net, other_trace, c, config)
    conv_in_relevance = rel.relevances[1]  # relevance entering the ReLU = conv output
    np.testing.assert_allclose(
        relkit.explain._propagate_layer(conv_net.layers[0], x, None, conv_in_relevance,
                                        relkit.WSquare(), 1e-9),
        relkit.explain._propagate_layer(conv_net.layers[0], other, None, conv_in_relevance,
                                        relkit.WSquare(), 1e-9),
        rtol=0, atol=0)


def test_conv_epsilon_engine_path(conv_net):
    rng = np.random.default_rng(37)
    x, trace, c = _positive_case(conv_net, rng, (1, 6, 6))
    config = relkit.epsilon_config(conv_net, 1e-9)
    hm = relkit.lrp(conv_net, trace, c, config).heatmap()
    f = trace.logits[c]
    assert np.all(np.isfinite(hm.scores))
    # zero biases: the epsilon leak stays tiny
    assert abs(hm.total - f) <= 1e-6 * abs(f)


def test_winner_take_all_through_engine_conserves():
    rng = np.random.default_rng(41)
    net = relkit.random_network(
        (1, 4, 4),
        [("conv", 2, 3, 3, 1, 1), ("relu",), ("maxpool", 2, 2, 2, 0),
         ("flatten",), ("dense", 2)],
        seed=43)
    x, trace, c = _positive_case(net, rng, (1, 4, 4))
    rules = []
    for layer in net.layers:
        if layer.kind in ("Dense", "Conv2D"):
            rules.append(relkit.AlphaBeta(1.0, 0.0))
        elif layer.kind == "MaxPool":
            rules.append(relkit.PoolWinnerTakeAll())
        else:
            rules.append(relkit.PassThrough())
    config = relkit.RuleConfig(tuple(rules), name="wta")
    hm = relkit.lrp(net, trace, c, config).heatmap()
    f = trace.logits[c]
    assert abs(hm.total - f) <= 1e-9 * abs(f)


def test_filter_at_logits_selects_class_share(max_network):
    trace = relkit.forward(max_network, [2.0, 1.0])
    config = relkit.deep_taylor_config(max_network, "relu")
    mask = np.ones(1)
    filtered = relkit.filter_relevance(max_network, trace, 0, config,
                                       len(max_network.layers), mask)
    plain = relkit.lrp(max_network, trace, 0, config).heatmap()
    assert np.array_equal(filtered.scores, plain.scores)


def test_sliding_window_on_rank2_input_network():
    rng = np.random.default_rng(47)
    w = rng.standard_normal((9, 2)) / 3.0
    net = relkit.Network((relkit.flatten(), relkit.dense(w)), (3, 3), 2)
    image = rng.random((5, 7))
    config = relkit.alphabeta_config(net, 1.0, 0.0)
    slid = relkit.sliding_window_explain(net, image, 2, config, 0)
    assert slid.scores.shape == (5, 7)
    g = sum(float(relkit.forward(net, image[r:r + 3, c:c + 3]).logits[0])
            for r in range(0, 3, 2) for c in range(0, 5, 2))
    assert slid.explained_value == pytest.approx(g, abs=1e-12)
    assert abs(slid.total - g) <= 1e-6 * max(abs(g), 1e-9)


def test_layer_conservation_chain_through_mixed_network():
    # every intermediate relevance tensor sums to the explained value when no
    # denominator is absorbed (zero-bias net, positive predicted logit)
    rng = np.random.default_rng(53)
    net = relkit.random_network(
        (2, 8, 8),
        [("conv", 4, 3, 3, 1, 1), ("relu",), ("sumpool", 2, 2, 2, 0),
         ("conv", 3, 3, 3, 1, 0), ("relu",), ("flatten",), ("dense", 4)],
        seed=59)
    x, trace, c = _positive_case(net, rng, (2, 8, 8))
    f = trace.logits[c]
    for config in (relkit.alphabeta_config(net, 1.0, 0.0),
                   relkit.alphabeta_config(net, 2.0, 1.0),
                   relkit.deep_taylor_config(net, "pixel", low=0.0, high=1.0)):
        rel = relkit.lrp(net, trace, c, config)
        for layer_relevance in rel.relevances:
            assert abs(layer_relevance.sum() - f) <= 1e-9 * abs(f)


def test_rule_config_rejects_bad_explained_output(max_network):
    with pytest.raises(ValueError, match="explained_output"):
        relkit.RuleConfig((relkit.PassThrough(),) * 4, explained_output="probability")


def test_rule_config_rejects_nonpositive_stabilizer():
    with pytest.raises(ValueError, match="stabilizer"):
        relkit.RuleConfig((), stabilizer=0.0)


def test_only_netcore_names_the_weighted_layer_kinds():
    # every other module works by layer family (WEIGHTED_KINDS, POOL_KINDS, ...),
    # so a kind-specific kernel cannot grow outside netcore
    package = Path(relkit.__file__).parent
    literal = re.compile(r"""["'](Dense|Conv2D)["']""")
    offenders = [f"{path.relative_to(package)}: {match.group(0)}"
                 for path in sorted(package.rglob("*.py")) if path.name != "netcore.py"
                 for match in literal.finditer(path.read_text(encoding="utf-8"))]
    assert offenders == []
