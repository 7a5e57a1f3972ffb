"""Property-based checks over generated architectures (hypothesis).

Every property runs a bounded, derandomized example budget so the suite stays
deterministic and fast.
"""

import dataclasses
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import relkit
from relkit import evalkit
from relkit.modelio import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ModelFormatError
from relkit.netcore import layer_output_shape, sample_bytes, window_columns, window_scatter

from conftest import central_difference, with_random_biases
from test_modelio import HAND_MODEL

BOUNDED = settings(max_examples=30, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def architectures(draw):
    """(input_shape, plan, seed): a dense stack, or a conv layer (stride 1-2,
    padding 0-1) and a pool of any kind in front of a dense head."""
    head = [("dense", draw(st.integers(1, 4))), ("relu",), ("dense", draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        return (draw(st.integers(1, 6)),), head, draw(st.integers(0, 2 ** 16))
    kernel = draw(st.integers(1, 3))
    conv = ("conv", draw(st.integers(1, 3)), kernel, kernel,
            draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    pool = (draw(st.sampled_from(["maxpool", "sumpool", "avgpool"])), 2, 2,
            draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    in_shape = (draw(st.integers(1, 2)), draw(st.integers(5, 8)), draw(st.integers(5, 8)))
    plan = [conv, ("relu",), pool, ("flatten",)] + head
    return in_shape, plan, draw(st.integers(0, 2 ** 16))


@BOUNDED
@given(architectures())
def test_generated_model_round_trips_bit_exactly(arch):
    in_shape, plan, seed = arch
    rng = np.random.default_rng(seed)
    net = with_random_biases(relkit.random_network(in_shape, plan, seed), rng)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        relkit.save_model(net, first)
        loaded = relkit.load_model_file(first).network
        relkit.save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    for x in rng.standard_normal((3,) + in_shape):
        assert np.array_equal(relkit.forward(loaded, x).logits, relkit.forward(net, x).logits)


def _model_fields():
    """Paths of the fields a model file has (or may have) at the top level, in
    a layer, and in input_bounds."""
    top = [(key,) for key in ("format_version", "input_shape", "class_count", "layers",
                              "input_bounds", "expert")]
    layer = [("layers", i, key) for i in range(7)
             for key in ("kind", "weights", "bias", "stride", "padding", "window")]
    bounds = [("input_bounds", key) for key in ("low", "high")]
    return top + layer + bounds


@FUZZ
@given(st.sampled_from(_model_fields()), JSON_VALUES)
def test_model_with_one_field_replaced_loads_or_is_a_format_error(path, value):
    doc = json.loads(HAND_MODEL)
    doc["input_bounds"] = {"low": 0.0, "high": 1.0}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        try:
            relkit.load_model_file(model)
        except ModelFormatError:
            pass


CSV_LINES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.text(alphabet="0123456789,- x", max_size=10).map(lambda t: "# shape: " + t),
    JSON_VALUES.map(lambda v: "# meta: " + json.dumps(v)),
    JSON_VALUES.map(lambda v: "# meta: " + json.dumps({"explained_value": v,
                                                       "method_tag": v})),
)


@FUZZ
@given(st.lists(CSV_LINES, max_size=8).map("\n".join))
def test_generated_tensor_or_heatmap_csv_raises_only_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tensor.csv"
        path.write_text(text, encoding="utf-8")
        for load in (relkit.load_tensor_csv, relkit.load_heatmap_csv):
            try:
                load(path)
            except ValueError:
                pass


@FUZZ
@given(st.sampled_from([None, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC]),
       st.lists(st.integers(0, 4) | st.integers(0, 2 ** 32 - 1), max_size=4),
       st.binary(max_size=40))
def test_generated_idx_bytes_raise_only_value_error(magic, dims, payload):
    header = b"" if magic is None else struct.pack(f">I{len(dims)}I", magic, *dims)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.idx"
        path.write_bytes(header + payload)
        try:
            relkit.load_idx(path)
        except ValueError:
            pass


@st.composite
def window_cases(draw):
    """(x, window, stride, padding) on a (C, H, W) input: 1-3 channels, windows
    up to 4x4, stride 1-3 (windows overlap when it is below the window) and
    zero padding 0-2."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    shape = (draw(st.integers(1, 3)), draw(st.integers(max(1, kh - 2 * padding), 9)),
             draw(st.integers(max(1, kw - 2 * padding), 9)))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 16))).standard_normal(shape)
    return x, (kh, kw), stride, padding


def _offset_columns(x, window, stride, padding):
    """Reference columns: one strided slice of the zero-padded input per window
    offset, offsets in row-major order."""
    kh, kw = window
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh, ow = ((extent - k) // stride + 1 for extent, k in zip(xp.shape[1:], window))
    return np.stack([xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride].reshape(len(x), -1)
                     for i in range(kh) for j in range(kw)], axis=1)


def _offset_scatter(cols, x_shape, window, stride, padding):
    """Reference adjoint: add each window offset's values back into its strided
    slice of a zero padded plane, offsets in row-major order, then crop."""
    (c, h, w), (kh, kw) = x_shape, window
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    oh, ow = ((extent - k) // stride + 1 for extent, k in zip(xp.shape[1:], window))
    for i in range(kh):
        for j in range(kw):
            patch = cols[:, i * kw + j].reshape(c, oh, ow)
            xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += patch
    return xp[:, padding:padding + h, padding:padding + w]


@FUZZ
@given(window_cases())
def test_window_columns_equal_the_per_offset_slices(case):
    x, window, stride, padding = case
    cols, geom = window_columns(x, window, stride, padding)
    assert np.array_equal(cols, _offset_columns(x, window, stride, padding))
    assert cols.flags.c_contiguous and cols.flags.writeable
    assert cols.shape == (geom.channels, geom.kh * geom.kw, geom.out_h * geom.out_w)


@FUZZ
@given(window_cases(), st.integers(0, 2 ** 16))
def test_window_scatter_is_the_adjoint_of_window_columns(case, seed):
    x, window, stride, padding = case
    cols, geom = window_columns(x, window, stride, padding)
    c = np.random.default_rng(seed).standard_normal(cols.shape)
    back = window_scatter(c, geom)
    assert back.shape == x.shape
    assert np.array_equal(back, _offset_scatter(c, x.shape, window, stride, padding))
    lhs, rhs = np.sum(cols * c), np.sum(x * back)
    assert abs(lhs - rhs) <= 1e-12 * max(np.sum(np.abs(cols * c)), 1e-300)


@FUZZ
@given(window_cases(), st.integers(1, 4), st.integers(0, 2 ** 16))
def test_window_helpers_on_a_batch_equal_the_stacked_per_sample_calls(case, rows, seed):
    x, window, stride, padding = case
    rng = np.random.default_rng(seed)
    batch = np.concatenate([x[None], rng.standard_normal((rows - 1,) + x.shape)])
    cols, geom = window_columns(batch, window, stride, padding)
    singles = [window_columns(sample, window, stride, padding) for sample in batch]
    assert all(g == geom for _, g in singles)
    assert np.array_equal(cols, np.stack([c for c, _ in singles]))
    values = rng.standard_normal(cols.shape)
    assert np.array_equal(window_scatter(values, geom),
                          np.stack([window_scatter(v, geom) for v in values]))


@FUZZ
@given(window_cases(), st.integers(0, 2 ** 16))
def test_padded_maxpool_winners_gather_the_pooled_values(case, seed):
    x, window, stride, padding = case
    pool = relkit.max_pool(window, stride=stride, padding=padding)
    c, oh, ow = layer_output_shape(pool, x.shape)
    net = relkit.Network((pool, relkit.flatten(), relkit.dense(np.ones((c * oh * ow, 1)))),
                         x.shape, 1)
    trace = relkit.forward(net, x)
    pooled, winner = trace.outputs[0], trace.aux[0]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    planes = xp.reshape(c, -1)
    assert np.array_equal(np.take_along_axis(planes, winner.reshape(c, -1), axis=1),
                          pooled.reshape(c, -1))
    # each winner lies inside its own window of the padded plane
    rows, cols = np.divmod(winner, xp.shape[2])
    top, left = stride * np.arange(oh)[:, None], stride * np.arange(ow)
    assert np.all((rows >= top) & (rows < top + window[0])
                  & (cols >= left) & (cols < left + window[1]))
    # winner-take-all (the max-pool gradient) adds each output onto its winner
    r = np.random.default_rng(seed).standard_normal(pooled.shape)
    expected = np.zeros(planes.shape)
    np.add.at(expected, (np.arange(c)[:, None], winner.reshape(c, -1)), r.reshape(c, -1))
    expected = expected.reshape(xp.shape)[:, padding:padding + x.shape[1],
                                          padding:padding + x.shape[2]]
    got = relkit.lrp_pool(pool, x, winner, r, relkit.PoolWinnerTakeAll())
    assert np.array_equal(got, expected)


@st.composite
def windowed_architectures(draw):
    """(input_shape, plan, seed, class): conv (stride 1-3, padding below the
    kernel, so every output reads the input), then a pool of any kind with
    windows up to 3x3, stride 1-3 and padding 0-1, then a dense ReLU head.
    The ReLU follows the conv only for the linear pools, so no ReLU reads a
    MaxPool output that is a padding zero."""
    in_shape = (draw(st.integers(1, 2)), draw(st.integers(5, 8)), draw(st.integers(5, 8)))
    k = draw(st.integers(1, 3))
    conv_stride, conv_padding = draw(st.integers(1, 3)), draw(st.integers(0, k - 1))
    conv = ("conv", draw(st.integers(1, 3)), k, k, conv_stride, conv_padding)
    oh, ow = ((e + 2 * conv_padding - k) // conv_stride + 1 for e in in_shape[1:])
    kind = draw(st.sampled_from(["maxpool", "sumpool", "avgpool"]))
    pool_padding = draw(st.integers(0, 1))
    pool = (kind, draw(st.integers(1, min(3, oh + 2 * pool_padding))),
            draw(st.integers(1, min(3, ow + 2 * pool_padding))), draw(st.integers(1, 3)),
            pool_padding)
    classes = draw(st.integers(1, 3))
    plan = ([conv] + ([("relu",)] if kind != "maxpool" else []) + [pool, ("flatten",)]
            + [("dense", draw(st.integers(1, 4))), ("relu",), ("dense", classes)])
    return in_shape, plan, draw(st.integers(0, 2 ** 16)), draw(st.integers(0, classes - 1))


def _kink_margin(net, trace):
    """Distance of a trace from a ReLU kink or a MaxPool argmax switch. A
    window's zero padding counts as one candidate, since a tie between padding
    cells moves neither the output nor the gradient."""
    margin = np.inf
    for layer, x in zip(net.layers, trace.inputs):
        if layer.kind == "ReLU":
            margin = min(margin, np.abs(x).min())
        elif layer.kind == "MaxPool":
            args = (layer.window, layer.stride, layer.padding)
            cols, _ = window_columns(x, *args)
            real, _ = window_columns(np.ones_like(x), *args)
            pad = np.where((real == 0).any(axis=1), 0.0, -np.inf)[:, None, :]
            candidates = np.concatenate([np.where(real == 1, cols, -np.inf), pad], axis=1)
            second, first = np.sort(candidates, axis=1)[:, -2:].transpose(1, 0, 2)
            margin = min(margin, (first - second).min())
    return margin


@BOUNDED
@given(windowed_architectures())
def test_gradient_matches_central_differences_on_generated_windowed_nets(arch):
    in_shape, plan, seed, c = arch
    rng = np.random.default_rng(seed)
    net = with_random_biases(relkit.random_network(in_shape, plan, seed), rng)
    for _ in range(20):
        x = rng.standard_normal(in_shape)
        if _kink_margin(net, relkit.forward(net, x)) > 1e-3:
            break
    else:
        assume(False)
    fd = central_difference(lambda v: relkit.forward(net, v).logits[c], x, h=1e-5)
    ad = relkit.gradient(net, x, c)
    assert np.abs(fd - ad).max() <= 1e-4 * max(np.abs(ad).max(), 1e-9)


@BOUNDED
@given(windowed_architectures())
def test_epsilon_lrp_tends_to_gradient_times_input_on_generated_windowed_nets(arch):
    # epsilon-LRP at epsilon -> 0 is gradient x input when max pools route by
    # their winners and sum/avg pools proportionally; the rule's z/(z+eps)
    # leaves the gradient only where a pre-activation is near 0, so such
    # inputs are skipped
    in_shape, plan, seed, c = arch
    rng = np.random.default_rng(seed)
    net = with_random_biases(relkit.random_network(in_shape, plan, seed), rng)
    weighted = [i for i, layer in enumerate(net.layers) if layer.weights is not None]
    for _ in range(20):
        x = rng.standard_normal(in_shape)
        trace = relkit.forward(net, x)
        margin = min(np.abs(trace.outputs[i]).min() for i in weighted)
        if min(margin, _kink_margin(net, trace)) > 1e-3:
            break
    else:
        assume(False)
    config = relkit.epsilon_config(net, 1e-12)
    rules = [relkit.PoolWinnerTakeAll() if layer.kind == "MaxPool" else rule
             for layer, rule in zip(net.layers, config.layer_rules)]
    config = dataclasses.replace(config, layer_rules=rules)
    eps = relkit.lrp(net, trace, c, config).relevances[0]
    taylor = relkit.simple_taylor(net, x, c).scores
    assert np.abs(eps - taylor).max() <= 1e-8 * max(np.abs(taylor).max(), 1e-300)


@st.composite
def rectified_architectures(draw):
    """(input_shape, plan, seed): conv (stride 1-2, padding 0-1), ReLU, an
    optional pool of any kind (windows up to 3x3, stride 1-2, padding 0-1),
    then a dense ReLU head. Every weighted layer reads the input or a ReLU
    output, as deep Taylor decomposition assumes."""
    in_shape = (draw(st.integers(1, 2)), draw(st.integers(5, 8)), draw(st.integers(5, 8)))
    k, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    plan = [("conv", draw(st.integers(1, 3)), k, k, stride, padding), ("relu",)]
    if draw(st.booleans()):
        oh, ow = ((e + 2 * padding - k) // stride + 1 for e in in_shape[1:])
        pool_padding = draw(st.integers(0, 1))
        plan.append((draw(st.sampled_from(["maxpool", "sumpool", "avgpool"])),
                     draw(st.integers(1, min(3, oh + 2 * pool_padding))),
                     draw(st.integers(1, min(3, ow + 2 * pool_padding))),
                     draw(st.integers(1, 2)), pool_padding))
    plan += [("flatten",), ("dense", draw(st.integers(1, 4))), ("relu",),
             ("dense", draw(st.integers(1, 3)))]
    return in_shape, plan, draw(st.integers(0, 2 ** 16))


@FUZZ
@given(rectified_architectures())
def test_deep_taylor_is_positive_and_bounded_under_nonpositive_biases(arch):
    in_shape, plan, seed = arch
    rng = np.random.default_rng(seed)
    net = relkit.random_network(in_shape, plan, seed)
    net = relkit.Network([dataclasses.replace(layer, bias=-0.1 * np.abs(
                              rng.standard_normal(layer.bias.shape)))
                          if layer.weights is not None else layer for layer in net.layers],
                         in_shape, net.class_count)
    for _ in range(20):
        trace = relkit.forward(net, rng.random(in_shape))
        c = int(np.argmax(trace.logits))
        if trace.logits[c] > 0:
            break
    else:
        assume(False)
    for config in (relkit.deep_taylor_config(net, "pixel", low=0.0, high=1.0),
                   relkit.deep_taylor_config(net, "relu"),
                   relkit.deep_taylor_config(net, "real")):
        relevances = relkit.lrp(net, trace, c, config).relevances
        assert all(r.min() >= 0.0 for r in relevances)
        assert relevances[0].sum() <= trace.logits[c] * (1 + 1e-12)


# ---- the batch axis: every batched result against a per-sample reference

BATCHED = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def generated_nets():
    """(input_shape, plan, seed, class): the dense stacks of architectures()
    and the conv + pool nets of windowed_architectures()."""
    return st.one_of(architectures().map(lambda arch: (*arch, 0)), windowed_architectures())


def _built(arch):
    in_shape, plan, seed, c = arch
    rng = np.random.default_rng(seed)
    return with_random_biases(relkit.random_network(in_shape, plan, seed), rng), rng, c


def _close(got, want, rtol=1e-12):
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


@BATCHED
@given(generated_nets(), st.integers(1, 6))
def test_batched_forward_rows_equal_single_sample_forwards(arch, rows):
    net, rng, _ = _built(arch)
    xs = rng.standard_normal((rows,) + net.input_shape)
    batch = relkit.forward_batch(net, xs)
    for i, x in enumerate(xs):
        single = relkit.forward(net, x)
        for got, want in zip(batch.outputs, single.outputs):
            assert got.shape == (rows,) + want.shape
            assert _close(got[i], want)
        for got, want in zip(batch.aux, single.aux):
            assert (got is None) == (want is None)
            if want is not None:  # MaxPool winner maps
                assert np.array_equal(got[i], want)


@st.composite
def flip_cases(draw):
    """(arch, patch, chunk rows, max_steps, fill, explained output). Patch 2
    rounds a conv net's input extents up to even ones."""
    in_shape, plan, seed, c = draw(generated_nets())
    patch = draw(st.sampled_from([1, 2])) if len(in_shape) == 3 else 1
    if patch == 2:
        in_shape = (in_shape[0],) + tuple(e + e % 2 for e in in_shape[1:])
    return ((in_shape, plan, seed, c), patch, draw(st.integers(1, 5)),
            draw(st.none() | st.integers(0, 40)), draw(st.sampled_from([0.0, 0.5, -1.0])),
            draw(st.sampled_from(relkit.netcore.EXPLAINED_OUTPUTS)))


def _reference_flip(net, x, scores, c, mode, patch, fill, max_steps):
    """One forward per removal step, regions removed one by one."""
    def value(v):
        logits = relkit.forward(net, v).logits
        return logits[c] if mode == "logit" else relkit.log_softmax(logits)[c]

    if patch == 1:
        regions = [np.unravel_index(i, x.shape) for i in range(x.size)]
    else:
        regions = [(slice(None), slice(r, r + patch), slice(k, k + patch))
                   for r in range(0, x.shape[1], patch) for k in range(0, x.shape[2], patch)]
    order = np.argsort([-scores[region].sum() for region in regions], kind="stable")
    order = order[:max_steps]
    work, values = x.copy(), [value(x)]
    for region_id in order:
        work[regions[region_id]] = fill
        values.append(value(work))
    return order, np.array(values)


@BATCHED
@given(flip_cases())
def test_pixel_flip_equals_a_per_step_forward_reference(case):
    arch, patch, rows, max_steps, fill, mode = case
    net, rng, c = _built(arch)
    x = rng.standard_normal(net.input_shape)
    scores = rng.integers(-2, 3, net.input_shape).astype(float)  # ties keep the lowest index
    heatmap = relkit.Heatmap.from_scores(scores, 1.0, "t",
                                         {"class_index": c, "explained_output": mode})
    # chunks of `rows` removal steps
    with mock.patch.object(evalkit, "_CHUNK_BYTES", rows * sample_bytes(net)):
        curve = relkit.pixel_flip(net, x, heatmap,
                                  relkit.FlipConfig(patch=patch, fill=fill, max_steps=max_steps))
    order, values = _reference_flip(net, x, scores, c, mode, patch, fill, max_steps)
    assert curve.order == tuple(order)
    assert curve.values[0] == values[0]
    assert len(curve.values) == len(values)
    assert np.abs(np.array(curve.values) - values).max() <= 1e-12 * np.abs(values).max()


def _per_sample_sgd_epoch(net, data, labels, config):
    """One epoch of the same minibatch SGD, one sample at a time: each weighted
    layer's gradient is the outer product (Dense) or the window-offset
    correlation (Conv2D) of its input with the gradient at its output."""
    order = np.random.default_rng(config.seed).permutation(len(data))
    weighted = [i for i, layer in enumerate(net.layers) if layer.weights is not None]
    params = {i: [net.layers[i].weights.copy(), net.layers[i].bias.copy()] for i in weighted}
    for start in range(0, len(data), config.batch_size):
        batch = order[start:start + config.batch_size]
        layers = [relkit.LayerSpec(layer.kind, params[i][0], params[i][1], layer.stride,
                                   layer.padding) if i in params else layer
                  for i, layer in enumerate(net.layers)]
        current = relkit.Network(layers, net.input_shape, net.class_count)
        sums = {i: [np.zeros_like(w), np.zeros_like(b)] for i, (w, b) in params.items()}
        for k in batch:
            trace = relkit.forward(current, data[k])
            seed = relkit.softmax(trace.logits) - np.eye(net.class_count)[labels[k]]
            for i in weighted:
                if i == len(layers) - 1:
                    g = seed
                else:  # gradient at layer i's output: the rest of the net, seeded
                    rest = relkit.Network(layers[i + 1:], current.activation_shapes[i + 1],
                                          net.class_count)
                    g = relkit.seeded_gradient(rest, relkit.forward(rest, trace.outputs[i]),
                                               seed)
                a, layer = trace.inputs[i], layers[i]
                if layer.kind == "Dense":
                    sums[i][0] += np.outer(a, g)
                    sums[i][1] += g
                else:
                    f, _, kh, kw = layer.weights.shape
                    cols = _offset_columns(a, (kh, kw), layer.stride, layer.padding)
                    sums[i][0] += (g.reshape(f, -1) @ cols.reshape(-1, g[0].size).T).reshape(
                        layer.weights.shape)
                    sums[i][1] += g.reshape(f, -1).sum(axis=1)
        for i, (gw, gb) in sums.items():
            params[i][0] -= config.learning_rate / len(batch) * gw
            params[i][1] -= config.learning_rate / len(batch) * gb
            if config.nonpositive_bias:
                params[i][1] = np.minimum(params[i][1], 0.0)
    return params


@BATCHED
@given(generated_nets(), st.integers(1, 9), st.integers(1, 4), st.booleans())
def test_train_sgd_epoch_equals_a_per_sample_gradient_reference(arch, samples, batch_size,
                                                                nonpositive_bias):
    net, rng, _ = _built(arch)
    data = rng.standard_normal((samples,) + net.input_shape)
    labels = rng.integers(0, net.class_count, samples)
    config = relkit.TrainConfig(learning_rate=0.1, epochs=1, batch_size=batch_size,
                                seed=int(rng.integers(2 ** 16)),
                                nonpositive_bias=nonpositive_bias)
    trained = relkit.train_sgd(net, data, labels, config)
    for i, (w, b) in _per_sample_sgd_epoch(net, data, labels, config).items():
        assert _close(trained.layers[i].weights, w)
        assert _close(trained.layers[i].bias, b)
