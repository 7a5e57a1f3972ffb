"""Forward traces, gradients, log-softmax, the class-output head, the SGD trainer, and the
window maps and sparse responses that pixel-flipping reads."""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest

import relkit
from relkit import evalkit, netcore
from relkit.netcore import class_output, window_columns

from conftest import (central_difference, random_dense_network, two_blob_data,
                      with_random_biases)


def test_dense_identity_forward():
    net = relkit.Network((relkit.dense(np.eye(2)),), (2,), 2)
    trace = relkit.forward(net, [1.0, 2.0])
    assert np.array_equal(trace.logits, [1.0, 2.0])


def test_max_network_hand_values(max_network):
    # hand evaluation: f(1,0) -> only the x1-x2 and x1+x2 branches fire
    assert relkit.forward(max_network, [1.0, 0.0]).logits[0] == 1.0
    # f(1,1) -> only the x1+x2 branch is active
    assert relkit.forward(max_network, [1.0, 1.0]).logits[0] == 1.0
    assert relkit.forward(max_network, [0.0, 1.0]).logits[0] == 1.0


def test_forward_rejects_bad_shape(max_network):
    with pytest.raises(ValueError, match="input shape"):
        relkit.forward(max_network, [1.0, 2.0, 3.0])


def test_network_shape_mismatch_names_layer():
    with pytest.raises(ValueError, match="layer 1"):
        relkit.Network((relkit.dense(np.ones((2, 3))), relkit.dense(np.ones((4, 1)))),
                       (2,), 1)


def test_forward_rejects_nonfinite():
    net = relkit.Network((relkit.dense(np.eye(2)),), (2,), 2)
    with pytest.raises(ValueError, match="non-finite"):
        relkit.forward(net, [np.nan, 0.0])


def test_trace_replay_is_bit_identical():
    rng = np.random.default_rng(3)
    net = relkit.random_network(
        (2, 6, 6),
        [("conv", 3, 3, 3, 1, 1), ("relu",), ("maxpool", 2, 2, 2, 0),
         ("flatten",), ("dense", 4)],
        seed=5)
    x = rng.random((2, 6, 6))
    first = relkit.forward(net, x)
    second = relkit.forward(net, x)
    for a, b in zip(first.outputs, second.outputs):
        assert np.array_equal(a, b)
    # replaying the recorded input reproduces every recorded activation
    replay = relkit.forward(net, first.input)
    for a, b in zip(replay.outputs, first.outputs):
        assert np.array_equal(a, b)


def test_maxpool_winner_map_consistency():
    rng = np.random.default_rng(7)
    net = relkit.Network((relkit.max_pool((2, 2), stride=2),
                          relkit.flatten(), relkit.dense(np.ones((9, 1)))),
                         (1, 6, 6), 1)
    x = rng.random((1, 6, 6))
    trace = relkit.forward(net, x)
    pooled, winner = trace.outputs[0], trace.aux[0]
    gathered = x[0].ravel()[winner[0].ravel()].reshape(pooled[0].shape)
    assert np.array_equal(gathered, pooled[0])


def test_maxpool_tie_takes_lowest_linear_index():
    x = np.full((1, 2, 2), 0.5)
    cols, geom = window_columns(x, (2, 2), 2, 0)
    net = relkit.Network((relkit.max_pool((2, 2), stride=2), relkit.flatten(),
                          relkit.dense(np.ones((1, 1)))), (1, 2, 2), 1)
    trace = relkit.forward(net, x)
    assert trace.aux[0][0, 0, 0] == 0  # first cell wins the 4-way tie


def test_linear_gradient():
    net = relkit.Network((relkit.dense(np.array([[2.0], [-1.0]])),), (2,), 1)
    for x in ([0.0, 0.0], [3.0, -4.0]):
        assert np.array_equal(relkit.gradient(net, x, 0), [2.0, -1.0])


def test_max_network_gradient_hand_value(max_network):
    # chain rule by hand at (1,0): active branches x1-x2 and x1+x2, both * 0.5
    assert np.array_equal(relkit.gradient(max_network, [1.0, 0.0], 0), [1.0, 0.0])


def test_relu_derivative_at_a_zero_pre_activation_is_zero():
    # at x = (1, 1) the first hidden unit's pre-activation is exactly 0, so only
    # the second unit passes gradient; taking ReLU'(0) = 1 would give (2, 0)
    net = relkit.Network((relkit.dense(np.array([[1.0, 1.0], [-1.0, 1.0]])), relkit.relu(),
                          relkit.dense(np.array([[1.0], [1.0]]))), (2,), 1)
    assert np.array_equal(relkit.forward(net, [1.0, 1.0]).inputs[1], [0.0, 2.0])
    assert np.array_equal(relkit.gradient(net, [1.0, 1.0], 0), [1.0, 1.0])


def test_gradient_class_index_out_of_range(max_network):
    with pytest.raises(ValueError, match="class_index"):
        relkit.gradient(max_network, [1.0, 0.0], 5)


def test_gradient_matches_finite_differences_random_net():
    rng = np.random.default_rng(11)
    net = random_dense_network(rng, [6, 8, 3], zero_bias=False)
    x = rng.standard_normal(6)

    def f(v):
        return relkit.forward(net, v).logits[2]

    fd = central_difference(f, x)
    ad = relkit.gradient(net, x, 2)
    assert np.abs(fd - ad).max() / max(np.abs(ad).max(), 1e-9) < 1e-4


@pytest.mark.parametrize("plan,in_shape", [
    ([("dense", 3)], (5,)),
    ([("conv", 3, 3, 3, 1, 1), ("flatten",), ("dense", 3)], (2, 5, 5)),
    ([("conv", 2, 2, 2, 2, 0), ("relu",), ("flatten",), ("dense", 3)], (1, 6, 6)),
    ([("sumpool", 2, 2, 2, 0), ("flatten",), ("dense", 3)], (2, 4, 4)),
    ([("avgpool", 2, 2, 1, 0), ("flatten",), ("dense", 3)], (2, 4, 4)),
    ([("maxpool", 2, 2, 2, 0), ("flatten",), ("dense", 3)], (2, 4, 4)),
])
def test_gradient_every_layer_kind_against_fd(plan, in_shape):
    rng = np.random.default_rng(hash(str(plan)) % 2 ** 31)
    net = relkit.random_network(in_shape, plan, seed=13)
    x = rng.standard_normal(in_shape)

    def f(v):
        return relkit.forward(net, v).logits[1]

    fd = central_difference(f, x)
    ad = relkit.gradient(net, x, 1)
    assert np.abs(fd - ad).max() / max(np.abs(ad).max(), 1e-9) < 1e-4


def test_positive_homogeneity_zero_bias():
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_dense_network(rng, [4, 6, 5, 2], zero_bias=True)
        x = rng.standard_normal(4)
        fx = relkit.forward(net, x).logits
        for t in (0.0, 0.5, 3.0):
            ftx = relkit.forward(net, t * x).logits
            assert np.abs(ftx - t * fx).max() <= 1e-9 * max(np.abs(fx).max(), 1.0)


def test_log_softmax_symmetric_pair():
    out = relkit.log_softmax([0.0, 0.0])
    assert np.allclose(out, np.log(0.5), rtol=0, atol=1e-15)


def test_log_softmax_large_logits_stable():
    out = relkit.log_softmax([1000.0, 0.0])
    assert np.all(np.isfinite(out))
    assert abs(out[0]) < 1e-12


def test_log_softmax_matches_extended_precision():
    logits = np.array([1.0, 2.0, 3.0])
    hi = np.array(logits, dtype=np.longdouble)
    expected = hi - np.log(np.exp(hi).sum())
    out = relkit.log_softmax(logits)
    assert np.abs(out - expected.astype(np.float64)).max() < 1e-12
    assert abs(np.exp(out).sum() - 1.0) < 1e-12


def test_train_zero_learning_rate_keeps_weights():
    rng = np.random.default_rng(19)
    net = random_dense_network(rng, [2, 2])
    data, labels = two_blob_data(40, seed=1)
    config = relkit.TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0)
    trained = relkit.train_sgd(net, data, labels, config)
    assert np.array_equal(trained.layers[0].weights, net.layers[0].weights)
    assert np.array_equal(trained.layers[0].bias, net.layers[0].bias)


def test_train_two_blobs_reaches_95_percent():
    data, labels = two_blob_data(200, seed=0)
    net = relkit.random_network((2,), [("dense", 2)], seed=1)
    config = relkit.TrainConfig(learning_rate=0.5, epochs=50, batch_size=16, seed=2)
    trained = relkit.train_sgd(net, data, labels, config)
    preds = [np.argmax(relkit.forward(trained, x).logits) for x in data]
    assert np.mean(np.array(preds) == labels) >= 0.95


def test_train_is_deterministic():
    data, labels = two_blob_data(60, seed=3)
    net = relkit.random_network((2,), [("dense", 4), ("relu",), ("dense", 2)], seed=4)
    config = relkit.TrainConfig(learning_rate=0.1, epochs=5, batch_size=8, seed=9)
    first = relkit.train_sgd(net, data, labels, config)
    second = relkit.train_sgd(net, data, labels, config)
    for a, b in zip(first.layers, second.layers):
        if a.weights is not None:
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def test_train_rejects_empty_dataset():
    net = relkit.random_network((2,), [("dense", 2)], seed=0)
    with pytest.raises(ValueError, match="empty"):
        relkit.train_sgd(net, np.empty((0, 2)), np.empty((0,), dtype=int),
                         relkit.TrainConfig())


def test_train_rejects_a_zero_dimensional_input():
    # used to raise "IndexError: tuple index out of range"
    net = relkit.random_network((2,), [("dense", 2)], seed=0)
    with pytest.raises(ValueError, match=r"^inputs must be a non-empty array of samples, "
                                         r"got shape \(\)$"):
        relkit.train_sgd(net, np.float64(1.0), np.array([0]), relkit.TrainConfig())


def test_train_rejects_bad_labels():
    net = relkit.random_network((2,), [("dense", 2)], seed=0)
    with pytest.raises(ValueError, match="labels"):
        relkit.train_sgd(net, np.zeros((4, 2)), np.array([0, 1, 2, 0]),
                         relkit.TrainConfig())


@pytest.mark.parametrize("labels", [[0.0, 1.0, 1.0, 0.0], [True, False, False, True]])
def test_train_rejects_non_integer_labels(labels):
    # float and bool labels died inside NumPy while indexing the logits
    net = relkit.random_network((2,), [("dense", 2)], seed=0)
    with pytest.raises(ValueError, match="^labels must be one integer per sample$"):
        relkit.train_sgd(net, np.zeros((4, 2)), np.array(labels), relkit.TrainConfig())


def test_train_nonpositive_bias_projection():
    data, labels = two_blob_data(80, seed=5)
    net = relkit.random_network((2,), [("dense", 4), ("relu",), ("dense", 2)], seed=6)
    config = relkit.TrainConfig(learning_rate=0.2, epochs=10, batch_size=8, seed=7,
                                nonpositive_bias=True)
    trained = relkit.train_sgd(net, data, labels, config)
    for layer in trained.layers:
        if layer.bias is not None:
            assert np.all(layer.bias <= 0.0)


@pytest.mark.parametrize("plan,in_shape", [
    ([("dense", 5), ("relu",), ("dense", 3)], (6,)),
    ([("conv", 3, 3, 3, 2, 1), ("relu",), ("maxpool", 2, 2, 1, 0), ("flatten",),
      ("dense", 3)], (2, 6, 6)),
    ([("conv", 3, 3, 3, 2, 1), ("relu",), ("sumpool", 2, 2, 1, 1), ("flatten",),
      ("dense", 3)], (2, 6, 6)),
    ([("conv", 3, 3, 3, 2, 1), ("relu",), ("avgpool", 2, 2, 1, 0), ("flatten",),
      ("dense", 3)], (2, 6, 6)),
])
def test_one_sgd_step_follows_cross_entropy_gradient(plan, in_shape):
    # one sample, batch 1: theta_new = theta_old - lr * dLoss/dtheta
    rng = np.random.default_rng(43)
    net = with_random_biases(relkit.random_network(in_shape, plan, seed=41), rng)
    x, label, lr = rng.standard_normal(in_shape), 1, 0.5
    config = relkit.TrainConfig(learning_rate=lr, epochs=1, batch_size=1, seed=0)
    stepped = relkit.train_sgd(net, x[None], np.array([label]), config)

    for idx, layer in enumerate(net.layers):
        for name in ("weights", "bias") if layer.weights is not None else ():
            def loss(value, idx=idx, name=name):
                layers = list(net.layers)
                layers[idx] = dataclasses.replace(layers[idx], **{name: value})
                logits = relkit.forward(relkit.Network(layers, in_shape, 3), x).logits
                return -relkit.log_softmax(logits)[label]

            old, new = getattr(layer, name), getattr(stepped.layers[idx], name)
            np.testing.assert_allclose((old - new) / lr, central_difference(loss, old, h=1e-6),
                                       rtol=1e-5, atol=1e-8, err_msg=f"layer {idx} {name}")


@pytest.mark.parametrize("output", ["logit", "log_probability"])
def test_class_output_seed_is_the_gradient_of_its_value(output):
    logits = np.array([0.3, -1.2, 2.0, 0.7])
    for c in range(len(logits)):
        value, seed = class_output(logits, c, output)
        expected = logits[c] if output == "logit" else relkit.log_softmax(logits)[c]
        assert value == expected
        numeric = central_difference(lambda z: class_output(z, c, output)[0], logits)
        np.testing.assert_allclose(seed, numeric, rtol=1e-7, atol=1e-9)


def _flip(net, x, c):
    heatmap = relkit.Heatmap.from_scores(x, 0.0, "test", {"class_index": c})
    return relkit.pixel_flip(net, x, heatmap, relkit.FlipConfig(max_steps=1))


# every entry point that explains, scores or climbs the output of one class
CLASS_CONSUMERS = {
    "lrp": lambda net, x, c: relkit.lrp(net, relkit.forward(net, x), c,
                                        relkit.epsilon_config(net)),
    "filter_relevance": lambda net, x, c: relkit.filter_relevance(
        net, relkit.forward(net, x), c, relkit.epsilon_config(net), 0, np.ones(x.shape)),
    "sensitivity": lambda net, x, c: relkit.sensitivity(net, x, c),
    "simple_taylor": lambda net, x, c: relkit.simple_taylor(net, x, c, "log_probability"),
    "gradient": lambda net, x, c: relkit.gradient(net, x, c),
    "am_objective": lambda net, x, c: relkit.am_objective(net, relkit.AmObjective(c), x),
    "pixel_flip": _flip,
}


@pytest.mark.parametrize("class_index", [-1, 3])
@pytest.mark.parametrize("consumer", sorted(CLASS_CONSUMERS))
def test_class_index_outside_the_logits_is_rejected(consumer, class_index):
    net = relkit.random_network((4,), [("dense", 5), ("relu",), ("dense", 3)], seed=2)
    x = np.linspace(0.1, 0.4, 4)
    for c in range(3):
        CLASS_CONSUMERS[consumer](net, x, c)
    with pytest.raises(ValueError, match=rf"class_index {class_index} out of range \[0, 3\)"):
        CLASS_CONSUMERS[consumer](net, x, class_index)


@pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -3),
                                         ("epochs", -1), ("learning_rate", -0.1),
                                         ("learning_rate", float("nan")),
                                         ("learning_rate", float("inf")),
                                         ("learning_rate", "0.1"), ("learning_rate", None),
                                         ("learning_rate", True), ("nonpositive_bias", "no"),
                                         ("nonpositive_bias", 1), ("nonpositive_bias", None)])
def test_train_config_rejects_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        relkit.TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("batch_size", 2.5), ("batch_size", True),
                                         ("epochs", True), ("epochs", 1.0), ("seed", 0.5),
                                         ("seed", "0"), ("seed", -1)])
def test_train_config_counts_must_be_integers(field, value):
    with pytest.raises(ValueError, match=field):
        relkit.TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers():
    config = relkit.TrainConfig(epochs=np.int64(1), batch_size=np.int32(4), seed=np.uint8(3))
    assert (config.epochs, config.batch_size, config.seed) == (1, 4, 3)


def test_train_config_accepts_numpy_scalar_rates_and_flags():
    config = relkit.TrainConfig(learning_rate=np.float32(0.5), nonpositive_bias=np.bool_(True))
    assert config.learning_rate == 0.5 and config.nonpositive_bias
    assert relkit.TrainConfig(learning_rate=1).learning_rate == 1


WINDOWED_NET = ((2, 7, 7), [("conv", 3, 3, 3, 2, 1), ("relu",), ("maxpool", 2, 2, 1, 0),
                            ("conv", 2, 2, 2, 1, 0), ("sumpool", 2, 2, 1, 1), ("flatten",),
                            ("dense", 4), ("relu",), ("dense", 3)])


def test_train_sgd_updates_one_working_copy_and_returns_a_frozen_one():
    rng = np.random.default_rng(5)
    net = with_random_biases(relkit.random_network(*WINDOWED_NET, seed=6), rng)
    before = [(layer.weights.copy(), layer.bias.copy()) for layer in net.layers
              if layer.weights is not None]
    data, labels = rng.standard_normal((10,) + net.input_shape), rng.integers(0, 3, 10)
    config = relkit.TrainConfig(learning_rate=0.1, epochs=2, batch_size=4, seed=1,
                                nonpositive_bias=True)
    forwards, gathers = [], []
    spy_forward = lambda network, *a, **k: forwards.append(network) or real_forward(
        network, *a, **k)
    spy_gather = lambda *a, **k: gathers.append(a[1:]) or real_gather(*a, **k)
    real_forward, real_gather = netcore._forward_rows, netcore.window_columns
    with mock.patch.object(netcore, "_forward_rows", spy_forward), \
            mock.patch.object(netcore, "window_columns", spy_gather):
        trained = relkit.train_sgd(net, data, labels, config)
    # one working network for the whole run, never the caller's or the result
    working = forwards[0]
    assert len(forwards) == 6 and all(n is working for n in forwards)
    weighted = [i for i, layer in enumerate(net.layers) if layer.weights is not None]
    for i, (w, b) in zip(weighted, before):
        given, work, out = net.layers[i], working.layers[i], trained.layers[i]
        assert np.array_equal(given.weights, w) and np.array_equal(given.bias, b)
        assert np.array_equal(out.weights, work.weights) and np.array_equal(out.bias, work.bias)
        assert not out.weights.flags.writeable and not out.bias.flags.writeable
        assert (out.bias <= 0).all()
        for a in (work.weights, work.bias):
            assert not any(np.shares_memory(a, other) for other in (
                out.weights, out.bias, given.weights, given.bias))
    # each minibatch reads each windowed layer's windows once: the Conv2D weight
    # gradients read the columns the forward kept
    assert len(gathers) == 6 * 4


def test_train_sgd_overflow_names_the_non_finite_weights():
    rng = np.random.default_rng(0)
    net = relkit.random_network(*WINDOWED_NET, seed=1)
    data, labels = rng.standard_normal((20,) + net.input_shape), rng.integers(0, 3, 20)
    config = relkit.TrainConfig(learning_rate=1.7e308, epochs=3, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"(Dense|Conv2D) weights contains non-finite values"):
        relkit.train_sgd(net, data, labels, config)


@pytest.mark.parametrize("class_index", [True, False, 1.0, np.float64(0.0), [0.0, 1.0],
                                         np.array([True, False])])
@pytest.mark.parametrize("rows", [1, 2])
def test_class_index_must_be_an_integer(class_index, rows):
    # True died inside NumPy with a TypeError and 1.0 with an IndexError
    logits = np.arange(3.0 * rows).reshape(rows, 3)
    with pytest.raises(ValueError, match="^class_index must be an integer or one integer per row"):
        class_output(logits[0] if rows == 1 else logits, class_index)


def test_class_index_accepts_numpy_integers_and_per_row_integer_arrays():
    logits = np.array([[0.0, 1.0, 2.0], [5.0, 4.0, 3.0]])
    value, seed = class_output(logits[1], np.int64(2))
    assert value == 3.0 and np.array_equal(seed, [0.0, 0.0, 1.0])
    values, seeds = class_output(logits, np.array([2, 0]))
    assert np.array_equal(values, [2.0, 5.0])
    assert np.array_equal(seeds, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(class_output(logits, [2, 0], "log_probability")[0],
                          class_output(logits, np.array([2, 0], np.uint8), "log_probability")[0])


_CONV_W = np.ones((1, 1, 2, 2))


@pytest.mark.parametrize("build,message", [
    (lambda: relkit.conv2d(_CONV_W, stride=2.0), "stride must be an integer, got 2.0"),
    (lambda: relkit.conv2d(_CONV_W, stride=True), "stride must be an integer, got True"),
    (lambda: relkit.conv2d(_CONV_W, padding=True), "padding must be an integer, got True"),
    (lambda: relkit.conv2d(_CONV_W, padding=0.5), "padding must be an integer, got 0.5"),
    (lambda: relkit.conv2d(_CONV_W, stride=0), "stride must be >= 1, got 0"),
    (lambda: relkit.conv2d(_CONV_W, padding=-1), "padding must be >= 0, got -1"),
    (lambda: relkit.max_pool((2.7, 2.7)), "pool window extent must be an integer, got 2.7"),
    (lambda: relkit.sum_pool((2, True), stride=2),
     "pool window extent must be an integer, got True"),
    (lambda: relkit.avg_pool((2, 2), stride=1.5), "stride must be an integer, got 1.5"),
    (lambda: relkit.max_pool((0, 2), stride=1), "pool window must be two positive extents"),
    (lambda: relkit.LayerSpec("Conv2D", _CONV_W, window=(2, 2)), "Conv2D takes no window"),
    (lambda: relkit.LayerSpec("Dense", np.ones((2, 2)), window=(1, 1)), "Dense takes no window"),
    (lambda: relkit.LayerSpec("Dense", np.ones((2, 2)), stride=3, padding=1),
     "Dense takes no stride or padding"),
    (lambda: relkit.LayerSpec("ReLU", stride=3, padding=2), "ReLU takes no stride or padding"),
    (lambda: relkit.LayerSpec("Flatten", padding=1), "Flatten takes no stride or padding"),
    (lambda: relkit.Network((relkit.relu(),), (2.9,), 2),
     "input_shape extent must be an integer, got 2.9"),
    (lambda: relkit.Network((relkit.relu(),), (True,), 1),
     "input_shape extent must be an integer, got True"),
    (lambda: relkit.Network((relkit.relu(),), (0,), 1), "input_shape extents must be positive"),
    (lambda: relkit.random_network((2.9,), [("dense", 2)], 0),
     "input_shape extent must be an integer, got 2.9"),
    (lambda: relkit.random_network((2,), [("dense", 2.5)], 0),
     "dense out must be an integer, got 2.5"),
    (lambda: relkit.random_network((1, 4, 4), [("conv", 1, 2.0, 2, 1, 0)], 0),
     "conv kh must be an integer, got 2.0"),
    (lambda: relkit.random_network((1, 4, 4), [("maxpool", 2, 2, 2, 0.5)], 0),
     "maxpool padding must be an integer, got 0.5"),
])
def test_layer_and_network_integer_fields_must_be_integers(build, message):
    # stride 2.0 built a net with (1, 2.0, 2.0) activation shapes, padding True ran
    # as 1, a (2.7, 2.7) pool window ran as (2, 2), a Conv2D kept an unread window,
    # a Dense, ReLU or Flatten an unread stride and padding, and input_shape (2.9,)
    # became (2,), also through random_network, whose dense out of 2.5 became 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_integer_fields_accept_numpy_integers():
    pool = relkit.max_pool((np.int64(2), np.int32(2)), stride=np.int64(2), padding=np.int8(0))
    net = relkit.Network((pool, relkit.flatten()), (np.int64(1), 4, 4), 4)
    assert pool.window == (2, 2) and type(pool.window[0]) is int
    assert net.input_shape == (1, 4, 4) and type(net.input_shape[0]) is int
    assert net.activation_shapes[1] == (1, 2, 2)


@pytest.mark.parametrize("rate", [1e30, 1e300])
def test_train_sgd_divergence_names_training_and_the_learning_rate(rate):
    # the weights stay finite but huge, and the next forward's logits overflow:
    # this used to surface as "logits contains non-finite values" from log_softmax
    rng = np.random.default_rng(0)
    net = random_dense_network(rng, [6, 5, 3], zero_bias=False)
    data, labels = rng.standard_normal((20, 6)), rng.integers(0, 3, 20)
    config = relkit.TrainConfig(learning_rate=rate, epochs=3, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=(
            rf"^training diverged in epoch \d+, minibatch \d+ at learning_rate "
            rf"{re.escape(repr(rate))}: ")):
        relkit.train_sgd(net, data, labels, config)


_POOL_ON_2x2 = (relkit.max_pool((3, 3)), relkit.flatten())


@pytest.mark.parametrize("build,message", [
    (lambda: relkit.LayerSpec("Conv3D"), "unknown layer kind 'Conv3D'"),
    (lambda: relkit.dense(np.ones(3)), "Dense weights must be 2-D, got shape (3,)"),
    (lambda: relkit.conv2d(np.ones((1, 1, 2))), "Conv2D weights must be 4-D, got shape (1, 1, 2)"),
    (lambda: relkit.dense(np.ones((2, 3)), np.ones(2)),
     "Dense bias must have one entry per output unit (3), got shape (2,)"),
    (lambda: relkit.conv2d(np.ones((2, 1, 2, 2)), np.ones(3)),
     "Conv2D bias must have one entry per output unit (2), got shape (3,)"),
    (lambda: relkit.LayerSpec("MaxPool", np.ones((2, 2)), window=(2, 2)),
     "MaxPool takes no weights"),
    (lambda: relkit.LayerSpec("SumPool"), "SumPool requires a pooling window"),
    (lambda: relkit.max_pool((2, 3)), "stride required for non-square pool windows"),
    (lambda: relkit.Network(_POOL_ON_2x2, (1, 2, 2), 1),
     "layer 0 (MaxPool): window of 3 does not fit extent 2 with padding 0"),
    (lambda: relkit.Network((relkit.conv2d(np.ones((1, 1, 2, 2))),), (4,), 4),
     "layer 0 (Conv2D): Conv2D expects a (channels, height, width) input, got (4,)"),
    (lambda: relkit.Network((relkit.avg_pool((2, 2)), relkit.flatten()), (4, 4), 4),
     "layer 0 (AvgPool): AvgPool expects a (channels, height, width) input, got (4, 4)"),
    (lambda: relkit.Network((relkit.conv2d(np.ones((1, 2, 2, 2))), relkit.flatten()),
                            (1, 4, 4), 9),
     "layer 0 (Conv2D): Conv2D expects 2 input channels, got 1"),
    (lambda: relkit.random_network((1, 4, 4), [("dense", 2)], 0),
     "dense layer needs a flat input, got (1, 4, 4) (insert a flatten first)"),
    (lambda: relkit.random_network((4,), [("conv", 1, 2, 2, 1, 0)], 0),
     "conv layer needs a (c, h, w) input, got (4,)"),
    (lambda: relkit.random_network((4,), [("pool", 2, 2, 2, 0)], 0), "unknown plan item 'pool'"),
    (lambda: relkit.random_network((1, 4, 4), [("relu",)], 0),
     "plan must end with a 1-D logit vector"),
    # a scalar pool window raised a bare TypeError ("'int' object is not iterable")
    (lambda: relkit.max_pool(2), "pool window must be two positive extents"),
    (lambda: relkit.avg_pool(3.0, stride=1), "pool window must be two positive extents"),
    (lambda: relkit.LayerSpec("MaxPool", window=2), "pool window must be two positive extents"),
    # a bare string plan item was read letter by letter ("unknown plan item 'r'"), an
    # empty one died unpacking, and an int one as not iterable
    (lambda: relkit.random_network((4,), ["relu", ("dense", 2)], 0),
     "plan item 0 must be a (head, *sizes) tuple, got 'relu'"),
    (lambda: relkit.random_network((4,), [()], 0),
     "plan item 0 must be a (head, *sizes) tuple, got ()"),
    (lambda: relkit.random_network((4,), [("dense", 3), ("relu",), 2], 0),
     "plan item 2 must be a (head, *sizes) tuple, got 2"),
    (lambda: relkit.random_network((4,), [(["dense"], 2)], 0), "unknown plan item ['dense']"),
])
def test_layer_network_and_plan_errors_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_shape_only_layer_refuses_weights():
    with pytest.raises(ValueError, match="^ReLU takes no "):
        relkit.LayerSpec("ReLU", np.ones((2, 2)))


@pytest.mark.parametrize("build,message", [
    # a pool given only a bias was refused as taking no weights, and a ReLU or
    # Flatten given any of the three as taking no parameters
    (lambda: relkit.LayerSpec("AvgPool", bias=np.ones(2), window=(2, 2)), "AvgPool takes no bias"),
    (lambda: relkit.LayerSpec("ReLU", np.ones((2, 2))), "ReLU takes no weights"),
    (lambda: relkit.LayerSpec("Flatten", bias=np.ones(2)), "Flatten takes no bias"),
    (lambda: relkit.LayerSpec("Flatten", window=(2, 2)), "Flatten takes no window"),
])
def test_a_layer_names_the_field_its_kind_does_not_take(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("plan,message", [
    # each of these built a network (the extra sizes ignored) or died with an IndexError
    ([("dense", 2, 99)], "plan item 'dense' takes the sizes ('out',), got (2, 99)"),
    ([("relu", 7), ("dense", 2)], "plan item 'relu' takes the sizes (), got (7,)"),
    ([("dense",)], "plan item 'dense' takes the sizes ('out',), got ()"),
])
def test_a_plan_item_with_the_wrong_number_of_sizes_is_refused(plan, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        relkit.random_network((4,), plan, 0)


def test_a_plan_item_may_be_a_list():
    net = relkit.random_network((4,), [["dense", 3], ["relu"], ["dense", 2]], 0)
    assert net.activation_shapes == ((4,), (3,), (3,), (2,))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv_apply_is_the_conv2d_pre_activation_and_its_transpose_the_adjoint(stride,
                                                                               padding):
    rng = np.random.default_rng(29)
    w, b, x = rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), rng.random((2, 7, 7))
    conv = relkit.conv2d(w, b, stride, padding)
    out_shape = netcore.layer_output_shape(conv, x.shape)
    net = relkit.Network((conv, relkit.flatten()), x.shape, int(np.prod(out_shape)))
    z = netcore.conv_apply(w, x, stride, padding)
    assert np.array_equal(z + b[:, None, None], relkit.forward(net, x).outputs[0])
    s = rng.standard_normal(out_shape)
    back = netcore.conv_transpose_apply(w, s, stride, padding, x.shape)
    assert back.shape == x.shape
    assert np.isclose(np.sum(z * s), np.sum(x * back), rtol=1e-12, atol=0)


def test_train_sgd_verbose_prints_one_line_per_epoch(capsys):
    data, labels = two_blob_data(20, seed=1)
    net = relkit.random_network((2,), [("dense", 2)], seed=1)
    relkit.train_sgd(net, data, labels, relkit.TrainConfig(epochs=3, batch_size=8), verbose=True)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for epoch, line in enumerate(lines, 1):
        assert re.fullmatch(rf"epoch {epoch}/3: mean loss \d+\.\d{{6}}", line)


_EYE_NET = relkit.Network((relkit.dense(np.eye(2)),), (2,), 2)


@pytest.mark.parametrize("call,message", [
    (lambda: relkit.forward_batch(_EYE_NET, np.ones((0, 2))),
     "input batch of shape (0, 2) is not one or more rows of the network input (2,)"),
    (lambda: relkit.forward_batch(_EYE_NET, np.ones(2)),
     "input batch of shape (2,) is not one or more rows of the network input (2,)"),
    (lambda: relkit.seeded_gradient(_EYE_NET, relkit.forward(_EYE_NET, np.ones(2)), np.ones(3)),
     "output seed must have shape (2,)"),
    (lambda: relkit.log_softmax(np.ones((2, 2, 2))),
     "log_softmax expects a 1-D logit vector or an (N, classes) array"),
    (lambda: relkit.train_sgd(_EYE_NET, np.ones((4, 3)), np.array([0, 1, 0, 1]),
                              relkit.TrainConfig()),
     "dataset samples have shape (3,), network expects (2,)"),
])
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_param_grads_bias_gradient_of_a_batch_is_the_sum_over_its_samples():
    rng = np.random.default_rng(53)
    net = relkit.Network((relkit.conv2d(rng.standard_normal((2, 1, 2, 2)), rng.standard_normal(2)),
                          relkit.relu(), relkit.flatten(),
                          relkit.dense(rng.standard_normal((18, 3)), rng.standard_normal(3))),
                         (1, 4, 4), 3)
    x, seed = rng.random((3, 1, 4, 4)), rng.standard_normal((3, 3))
    batch = netcore._param_grads(net, netcore._forward_rows(net, x), seed, (0, 3))
    for idx in (0, 3):
        alone = [netcore._param_grads(net, netcore._forward_rows(net, x[n:n + 1]),
                                      seed[n:n + 1], (0, 3))[idx][1] for n in range(3)]
        np.testing.assert_allclose(batch[idx][1], alone[0] + alone[1] + alone[2],
                                   rtol=1e-12, atol=1e-12)


# (in_shape, kernel, stride, padding): windows that span one to three removal squares
# per axis, with and without padding
SLOT_GEOMETRIES = pytest.mark.parametrize("in_shape,kernel,stride,padding", [
    ((1, 8, 8), 5, 1, 0), ((2, 8, 8), 3, 2, 1), ((2, 8, 8), 4, 1, 1), ((1, 8, 12), 1, 2, 0)])


@SLOT_GEOMETRIES
@pytest.mark.parametrize("patch", [2, 4])
def test_slot_map_partitions_each_window_by_removal_square(in_shape, kernel, stride, padding,
                                                          patch):
    geom = netcore._window_geometry(in_shape, (kernel, kernel), stride, padding)
    regions, masks = netcore._slot_map(geom, patch)
    # the square each window cell reads, from the window index map; -1 in the padding
    y, x = np.divmod(netcore._window_index(geom), geom.pad_w)
    y, x = y - padding, x - padding
    inside = (y >= 0) & (y < in_shape[1]) & (x >= 0) & (x < in_shape[2])
    square = np.where(inside, y // patch * (in_shape[2] // patch) + x // patch, -1)
    square = np.tile(square, (in_shape[0], 1))  # one block of window cells per channel
    none = in_shape[1] // patch * (in_shape[2] // patch)
    for col in range(square.shape[1]):
        want = np.unique(square[square[:, col] >= 0, col])
        assert regions[:len(want), col].tolist() == want.tolist()
        assert (regions[len(want):, col] == none).all()
        assert np.array_equal(masks[:, :, col],
                              (square[:, col] == regions[:, col, None]).astype(float))
    assert np.array_equal(masks.sum(axis=0), square >= 0)  # each cell in the plane, once


@SLOT_GEOMETRIES
@pytest.mark.parametrize("patch", [1, 2, 4])
def test_column_responses_sum_to_the_sparse_response_rows(in_shape, kernel, stride, padding,
                                                         patch):
    """Both readers of a Conv2D's response to removal steps: column_responses, summed per
    step and per unit column, gives sparse_response's row of that step at that column."""
    rng = np.random.default_rng(kernel * 10 + patch)
    layer = relkit.conv2d(rng.standard_normal((3, in_shape[0], kernel, kernel)),
                          stride=stride, padding=padding)
    regions = evalkit._region_entries(in_shape, patch)
    entries = regions[rng.permutation(len(regions))[:len(regions) * 2 // 3]]
    values = rng.standard_normal(entries.shape)
    values[rng.random(values.shape) < 0.2] = 0.0
    want = netcore.sparse_response(layer, in_shape, entries, values)
    want = want.reshape(len(entries), 3, -1)
    got, cols = np.zeros((len(entries) + 1,) + want.shape[1:]), np.arange(want.shape[-1])
    chunks = 0
    # 200 bytes hold at most a few unit columns: every geometry splits into chunks
    for part, steps, dz in netcore.column_responses(layer, in_shape, entries, values, patch,
                                                    200):
        assert part[0] == slice(None) and (np.diff(steps, axis=0) >= 0).all()
        np.add.at(got, (steps[:, None, :], np.arange(3)[:, None], cols[part[1]]), dz)
        chunks += 1
    assert chunks > 1
    assert np.abs(got[:-1] - want).max() <= 1e-12 * np.abs(want).max()
    assert not got[-1].any()  # the slots that no step removes respond with zeros
