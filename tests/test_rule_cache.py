"""The per-layer cache of input-independent LRP rule terms: cached relevances are
bitwise equal to the uncached single-layer entries, terms never go stale, and
every entry dies with the layer (and the ZBounds rule) it was computed for."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import relkit
from relkit import explain
from relkit.datagen import make_digits
from relkit.netcore import linear_pair

PLANS = {
    "dense": [("flatten",), ("dense", 30), ("relu",), ("dense", 20), ("relu",),
              ("dense", 3)],
    "maxpool": [("conv", 4, 3, 3, 2, 1), ("relu",), ("maxpool", 2, 2, 2, 0), ("flatten",),
                ("dense", 3)],
}


@pytest.fixture(scope="module", params=["conv", *PLANS])
def network(request):
    if request.param == "conv":
        return request.getfixturevalue("digit_classifier")
    return relkit.random_network((1, 28, 28), PLANS[request.param], seed=5)


@pytest.fixture(scope="module")
def images():
    x, _ = make_digits(3, seed=41)
    return x[:, None]


def fresh_copy(network):
    """The same network built from new LayerSpecs, so its cache starts cold."""
    return relkit.Network(tuple(dataclasses.replace(layer) for layer in network.layers),
                          network.input_shape, network.class_count)


def uncached_layer(layer, a, r_upper, rule, stabilizer):
    """One weighted layer's relevance from code that reads only the raw weights."""
    if layer.kind == "Conv2D":
        return explain._redistribute(linear_pair(layer, a.shape), a[None], layer.weights,
                                     layer.bias, r_upper[None], rule, stabilizer)[0]
    w = layer.weights
    if isinstance(rule, explain.AlphaBeta):
        return explain.lrp_dense_alphabeta(a, w, r_upper, rule.alpha, rule.beta, stabilizer)
    if isinstance(rule, explain.Epsilon):
        return explain.lrp_dense_epsilon(a, w, layer.bias, r_upper, rule.epsilon)
    if isinstance(rule, explain.ZBounds):
        return explain.lrp_input_zb(a, w, r_upper, rule.low, rule.high, stabilizer)
    return explain.lrp_input_wsquare(w, r_upper)


def configs(network, box):
    low, high = box
    return [explain.rule_config(network, rule, domain, low, high)
            for rule in explain.LRP_RULES for domain in explain.INPUT_DOMAINS]


@pytest.mark.parametrize("box", ["scalar", "input-shaped"])
def test_cached_relevances_equal_the_uncached_layer_entries(network, images, box):
    shape = network.input_shape
    box = (-0.5, 1.0) if box == "scalar" else (np.full(shape, -0.25), np.linspace(
        0.5, 2.0, int(np.prod(shape))).reshape(shape))
    net = fresh_copy(network)
    for config in configs(net, box):
        for x in images:
            trace = relkit.forward(net, x)
            cold = explain.lrp(net, trace, 0, config).relevances
            warm = explain.lrp(net, trace, 0, config).relevances
            for idx, layer in enumerate(net.layers):
                assert np.array_equal(cold[idx], warm[idx])
                if layer.weights is None:
                    continue
                rule = config.layer_rules[idx]
                expected = uncached_layer(layer, trace.inputs[idx], cold[idx + 1], rule,
                                          config.stabilizer)
                assert np.array_equal(cold[idx], expected), (config.name, idx)


def test_changing_the_box_never_reads_stale_offsets(network, images):
    x = images[0]
    net = fresh_copy(network)
    for low, high in [(0.0, 1.0), (-1.0, 2.0), (0.0, 1.0)]:
        config = explain.deep_taylor_config(net, "pixel", low, high)
        ref = fresh_copy(network)
        expected = explain.lrp_heatmap(ref, x, 1, explain.deep_taylor_config(
            ref, "pixel", low, high)).scores
        assert np.array_equal(explain.lrp_heatmap(net, x, 1, config).scores, expected)


def test_a_layer_shared_by_nets_of_two_input_sizes_keeps_one_w2_term_per_size():
    # the W^2 denominator of the real-domain first layer depends on the input
    # size through the padded border, so it is cached per input shape
    rng = np.random.default_rng(9)
    conv = relkit.conv2d(rng.standard_normal((2, 1, 3, 3)), padding=1)

    def net(layer, side):
        head = relkit.dense(rng.standard_normal((2 * side * side, 2)))
        return relkit.Network((layer, relkit.relu(), relkit.flatten(), head), (1, side, side), 2)

    for side in (5, 7):
        shared = net(conv, side)
        fresh = relkit.Network((dataclasses.replace(conv),) + shared.layers[1:],
                               shared.input_shape, 2)
        x = rng.random((1, side, side))
        got, want = (explain.lrp_heatmap(n, x, 1, explain.deep_taylor_config(n, "real")).scores
                     for n in (shared, fresh))
        assert np.array_equal(got, want)


def test_cached_terms_die_with_their_layer_and_their_box(images):
    net = relkit.random_network((1, 28, 28), PLANS["dense"], seed=6)
    config = explain.deep_taylor_config(net, "pixel", 0.0, 1.0)
    explain.lrp_heatmap(net, images[0], 0, explain.rule_config(net, "alpha2beta1"))
    explain.lrp_heatmap(net, images[0], 0, config)
    layer, box = net.layers[1], config.layer_rules[1]
    layer_terms = [weakref.ref(t) for t in explain._TERMS[layer].values()]
    box_terms = [weakref.ref(t) for t in explain._TERMS[box][layer][(784,)]]
    assert len(layer_terms) == 2 and len(box_terms) == 2  # W+, W-; both offsets
    del config, box
    gc.collect()
    assert all(ref() is None for ref in box_terms)
    assert all(ref() is not None for ref in layer_terms)
    layer_ref = weakref.ref(layer)
    del net, layer
    gc.collect()
    assert layer_ref() is None
    assert all(ref() is None for ref in layer_terms)


def test_training_and_prototype_ascent_add_no_terms(images):
    net = relkit.random_network((1, 28, 28), PLANS["dense"], seed=7)
    before = len(explain._TERMS)
    trained = relkit.train_sgd(net, images, np.arange(len(images)) % 3,
                               relkit.TrainConfig(epochs=2, batch_size=2, seed=0))
    relkit.activation_maximize(trained, relkit.AmObjective(0),
                               relkit.AmOptions(max_iterations=3))
    assert len(explain._TERMS) == before
    assert not any(layer in explain._TERMS for layer in net.layers + trained.layers)


def test_epsilon_and_zb_read_z_from_the_trace(network, images, monkeypatch):
    # once the z^B offsets are cached, a z^B layer makes its two transposed products and
    # an epsilon layer its one: neither recomputes the z that the forward trace holds
    calls, pair = [], explain.linear_pair

    def counted(layer, in_shape, row_stable=False):
        apply, apply_T = pair(layer, in_shape, row_stable)
        return (lambda w, a: calls.append((id(layer), "apply")) or apply(w, a),
                lambda w, s: calls.append((id(layer), "apply_T")) or apply_T(w, s))

    monkeypatch.setattr(explain, "linear_pair", counted)
    net = fresh_copy(network)
    trace = relkit.forward(net, images[0])
    for config, rule, products in [(explain.deep_taylor_config(net, "pixel", 0.0, 1.0),
                                    explain.ZBounds, (0, 2)),
                                   (explain.epsilon_config(net), explain.Epsilon, (0, 1))]:
        explain.lrp(net, trace, 0, config)  # fills the rule cache
        calls.clear()
        explain.lrp(net, trace, 0, config)
        layers = [layer for layer, r in zip(net.layers, config.layer_rules) if isinstance(r, rule)]
        assert layers
        for layer in layers:
            assert (calls.count((id(layer), "apply")),
                    calls.count((id(layer), "apply_T"))) == products
