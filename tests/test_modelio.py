"""Model JSON round trips, IDX parsing, and the CSV tensor/curve formats."""

import dataclasses
import json
import struct

import numpy as np
import pytest

import relkit
from relkit.modelio import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ModelFormatError
from relkit.netcore import POOL_KINDS, WEIGHTED_KINDS, WINDOWED_KINDS

from conftest import with_random_biases

# floats whose shortest repr is an edge case: a signed zero, the smallest
# subnormal, and the exponent forms json and repr write
EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 1.7976931348623157e308, 0.1]


def test_max_network_round_trip_is_bit_exact(max_network, tmp_path):
    path = tmp_path / "model.json"
    relkit.save_model(max_network, path)
    loaded = relkit.load_model(path)
    rng = np.random.default_rng(199)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert np.array_equal(relkit.forward(loaded, x).logits,
                              relkit.forward(max_network, x).logits)


def test_random_network_round_trip_100_inputs(tmp_path):
    net = relkit.random_network(
        (1, 6, 6),
        [("conv", 3, 3, 3, 1, 1), ("relu",), ("maxpool", 2, 2, 2, 0),
         ("flatten",), ("dense", 4)],
        seed=23)
    path = tmp_path / "model.json"
    relkit.save_model(net, path)
    loaded = relkit.load_model(path)
    rng = np.random.default_rng(211)
    for _ in range(100):
        x = rng.random((1, 6, 6))
        assert np.array_equal(relkit.forward(loaded, x).logits,
                              relkit.forward(net, x).logits)


def test_save_is_deterministic(max_network, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    relkit.save_model(max_network, a)
    relkit.save_model(max_network, b)
    assert a.read_bytes() == b.read_bytes()


def test_expert_and_bounds_round_trip(tmp_path):
    rng = np.random.default_rng(223)
    expert = relkit.RbmExpert(rng.standard_normal((3, 4)), rng.standard_normal(3),
                              np.eye(4) * 2.0)
    net = relkit.random_network((4,), [("dense", 2)], seed=1)
    path = tmp_path / "model.json"
    relkit.save_model(net, path, expert=expert, input_bounds=(0.0, 1.0))
    loaded = relkit.load_model_file(path)
    assert np.array_equal(loaded.expert.factor_weights, expert.factor_weights)
    assert np.array_equal(loaded.expert.precision, expert.precision)
    assert loaded.input_low == 0.0
    assert loaded.input_high == 1.0


def test_truncated_file_is_structured_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1, "layers": [')
    with pytest.raises(ModelFormatError, match="malformed JSON"):
        relkit.load_model(path)


def test_unknown_layer_kind_names_the_kind(tmp_path):
    doc = {"format_version": 1, "input_shape": [2], "class_count": 2,
           "layers": [{"kind": "BatchNorm"}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="BatchNorm"):
        relkit.load_model(path)


def test_unsupported_version_rejected(tmp_path):
    doc = {"format_version": 99, "input_shape": [2], "class_count": 2, "layers": []}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format_version"):
        relkit.load_model(path)


def test_shape_inconsistency_names_layer(tmp_path):
    doc = {"format_version": 1, "input_shape": [2], "class_count": 1,
           "layers": [{"kind": "Dense", "weights": [[1.0], [1.0]], "bias": [0.0]},
                      {"kind": "Dense", "weights": [[1.0, 1.0], [1.0, 1.0]],
                       "bias": [0.0, 0.0]}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="layer 1"):
        relkit.load_model(path)


def test_idx_image_rescaling(tmp_path):
    path = tmp_path / "imgs.idx"
    payload = bytes([0, 255, 128, 0])
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + payload)
    images = relkit.load_idx(path)
    assert images.shape == (1, 2, 2)
    assert np.array_equal(images[0].ravel(), [0.0, 1.0, 128 / 255, 0.0])


def test_idx_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        relkit.load_idx(path)


def test_idx_payload_length_mismatch_rejected(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 7)
    with pytest.raises(ValueError, match="payload"):
        relkit.load_idx(path)


def test_idx_dimension_overflow_rejected(tmp_path):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2 ** 30, 2 ** 10, 2 ** 10))
    with pytest.raises(ValueError, match="overflow"):
        relkit.load_idx(path)


def test_idx_label_round_trip(tmp_path):
    path = tmp_path / "labels.idx"
    labels = np.array([0, 1, 1, 0, 1])
    relkit.save_idx_labels(path, labels)
    assert np.array_equal(relkit.load_idx(path), labels)
    raw = path.read_bytes()
    assert struct.unpack(">I", raw[:4])[0] == IDX_LABEL_MAGIC


def test_idx_image_round_trip(tmp_path):
    rng = np.random.default_rng(227)
    images = np.rint(rng.random((3, 4, 4)) * 255) / 255.0
    path = tmp_path / "imgs.idx"
    relkit.save_idx_images(path, images)
    assert np.allclose(relkit.load_idx(path), images, rtol=0, atol=1e-12)


def test_heatmap_csv_round_trip(tmp_path):
    rng = np.random.default_rng(229)
    hm = relkit.Heatmap.from_scores(rng.standard_normal((2, 3)), 1.25, "lrp:test",
                                    {"class_index": 1, "explained_output": "logit"})
    path = tmp_path / "heat.csv"
    relkit.save_heatmap_csv(path, hm)
    loaded = relkit.load_heatmap_csv(path)
    assert np.array_equal(loaded.scores, hm.scores)
    assert loaded.explained_value == hm.explained_value
    assert loaded.method_tag == hm.method_tag
    assert loaded.meta["class_index"] == 1


def test_curve_csv_contains_steps_and_auc(tmp_path):
    curve = relkit.FlipCurve((3.0, 1.0, 0.0), (1, 0), 1.25,
                             {"patch": 1, "fill": 0.0})
    path = tmp_path / "curve.csv"
    relkit.save_curve_csv(path, curve)
    text = path.read_text()
    assert "step,value" in text
    assert "0,3.0" in text and "2,0.0" in text
    assert "# auc: 1.25" in text


def test_csv_values_are_written_as_the_repr_of_each_float(tmp_path):
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES]
                      + np.random.default_rng(31).standard_normal(6).tolist())
    path = tmp_path / "t.csv"
    relkit.save_tensor_csv(path, values.reshape(4, 5), {})
    lines = path.read_bytes().split(b"\n")
    assert lines[3:] == [repr(float(v)).encode() for v in values.reshape(4, 5).ravel()] + [b""]
    curve_values = (3, np.float32(0.1), *values)
    curve = relkit.FlipCurve(curve_values, (0,), 1.0, {})
    relkit.save_curve_csv(path, curve)
    lines = path.read_bytes().split(b"\n")
    assert lines[5:] == [f"{step},{repr(float(v))}".encode()
                         for step, v in enumerate(curve_values)] + [b""]


def test_input_bounds_must_broadcast_to_the_input_shape(tmp_path):
    net = relkit.random_network((1, 6, 6), [("conv", 2, 3, 3, 1, 0), ("relu",),
                                            ("flatten",), ("dense", 2)], seed=107)
    path = tmp_path / "model.json"
    for bounds, key in [((np.zeros(5), 1.0), "low"), ((0.0, np.ones((2, 6, 6))), "high")]:
        # save_model refuses these bounds, so the document is written directly
        path.write_text(json.dumps(_tolist_document(net, input_bounds=bounds)))
        with pytest.raises(ModelFormatError, match=rf"input_bounds\.{key}") as read:
            relkit.load_model_file(path)
        with pytest.raises(ValueError) as saved:
            relkit.save_model(net, tmp_path / "saved.json", input_bounds=bounds)
        assert str(read.value) == f"{path}: {saved.value}"
    assert not (tmp_path / "saved.json").exists()
    relkit.save_model(net, path, input_bounds=(np.zeros((1, 6, 6)), np.ones(6)))
    loaded = relkit.load_model_file(path)
    assert loaded.input_low.shape == (1, 6, 6) and loaded.input_high.shape == (6,)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
def test_tensor_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "heat.csv"
    relkit.save_tensor_csv(path, np.arange(4.0).reshape(2, 2), {})
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[5] = bad
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"heat\.csv: line 6: '{bad}'"):
        relkit.load_tensor_csv(path)


# save_model's exact output for one layer of every kind
HAND_MODEL = """\
{
 "class_count": 2,
 "format_version": 1,
 "input_shape": [
  1,
  4,
  4
 ],
 "layers": [
  {
   "bias": [
    0.0,
    -0.5
   ],
   "kind": "Conv2D",
   "padding": 1,
   "stride": 1,
   "weights": [
    [
     [
      [
       0.5,
       -0.25
      ],
      [
       1.0,
       0.0
      ]
     ]
    ],
    [
     [
      [
       -1.5,
       0.75
      ],
      [
       0.125,
       2.0
      ]
     ]
    ]
   ]
  },
  {
   "kind": "ReLU"
  },
  {
   "kind": "MaxPool",
   "padding": 0,
   "stride": 1,
   "window": [
    2,
    2
   ]
  },
  {
   "kind": "SumPool",
   "padding": 0,
   "stride": 2,
   "window": [
    2,
    2
   ]
  },
  {
   "kind": "AvgPool",
   "padding": 0,
   "stride": 1,
   "window": [
    2,
    2
   ]
  },
  {
   "kind": "Flatten"
  },
  {
   "bias": [
    0.25,
    -0.125
   ],
   "kind": "Dense",
   "weights": [
    [
     1.0,
     -1.0
    ],
    [
     0.5,
     0.25
    ]
   ]
  }
 ]
}
"""
HAND_KINDS = ["Conv2D", "ReLU", "MaxPool", "SumPool", "AvgPool", "Flatten", "Dense"]


def test_hand_written_model_with_every_kind_is_saved_back_byte_for_byte(tmp_path):
    source, copy = tmp_path / "hand.json", tmp_path / "copy.json"
    source.write_text(HAND_MODEL, encoding="utf-8")
    network = relkit.load_model(source)
    assert [layer.kind for layer in network.layers] == HAND_KINDS
    assert (network.layers[0].padding, network.layers[3].stride) == (1, 2)
    relkit.save_model(network, copy)
    assert copy.read_bytes() == source.read_bytes()


@pytest.mark.parametrize("index,key", [(0, "weights"), (0, "bias"), (2, "window"),
                                       (3, "window"), (4, "window"), (6, "weights"),
                                       (6, "bias")])
def test_missing_layer_field_names_layer_and_field(tmp_path, index, key):
    doc = json.loads(HAND_MODEL)
    del doc["layers"][index][key]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=rf"layer {index}\b.*'{key}'"):
        relkit.load_model(path)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path,value,message", [
    (("layers", 3, "stride"), None, r"^layer 3: 'stride' must be an integer, got None$"),
    (("layers", 0, "stride"), 1.5, r"^layer 0: 'stride' must be an integer, got 1\.5$"),
    (("layers", 0, "padding"), True, r"^layer 0: 'padding' must be an integer"),
    (("layers", 2, "window"), [[1], [1]], r"^layer 2: 'window' must be a list of integers"),
    (("layers", 4, "window"), 2, r"^layer 4: 'window' must be a list of integers"),
    (("layers", 0, "weights"), {}, r"^layer 0: Conv2D weights is not a numeric array"),
    (("layers", 6, "bias"), [{}, 1], r"^layer 6: Dense bias is not a numeric array"),
    (("layers", 1), 7, r"^layer 1: expected a JSON object, got 7$"),
    (("layers",), 5, r"^'layers' must be a list, got 5$"),
    (("input_shape",), 5, r"^'input_shape' must be a list of integers, got 5$"),
    (("input_shape",), [1, 4.0, 4], r"^'input_shape' must be a list of integers"),
    (("class_count",), None, r"^'class_count' must be an integer, got None$"),
    (("class_count",), "2", r"^'class_count' must be an integer, got '2'$"),
    (("input_bounds",), {"low": {}, "high": 1.0}, r"^input_bounds\.low: .*not a numeric array"),
    (("input_bounds",), 5, r"^input_bounds: expected a JSON object, got 5$"),
    (("expert",), {"factor_weights": [[0.0]], "factor_biases": [0.0]},
     r"^expert: missing field 'precision'$"),
])
def test_structurally_wrong_model_field_is_a_format_error(tmp_path, path, value, message):
    doc = json.loads(HAND_MODEL)
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=message):
        relkit.load_model_file(model)


@pytest.mark.parametrize("header,message", [
    ("# shape: a,b", r"line 2: malformed header '# shape: a,b'"),
    ("# shape: -2,-2", r"line 2: malformed header .*negative extent"),
    ("# meta: {bad", r"line 2: malformed header '# meta: \{bad'"),
    ("# meta: [1, 2]", r"line 2: malformed header .*meta must be a JSON object"),
])
def test_tensor_csv_header_errors_name_file_and_line(tmp_path, header, message):
    path = tmp_path / "heat.csv"
    path.write_text(f"# relkit-tensor v1\n{header}\n# shape: 2\n1.0\n2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"heat\.csv: " + message):
        relkit.load_tensor_csv(path)


def test_heatmap_csv_explained_value_must_be_a_number(tmp_path):
    path = tmp_path / "heat.csv"
    relkit.save_tensor_csv(path, np.ones(2), {"explained_value": [1.0]})
    with pytest.raises(ValueError, match=r"heat\.csv: explained_value must be a number"):
        relkit.load_heatmap_csv(path)


def test_idx_dimensions_whose_product_wraps_in_int64_are_an_overflow(tmp_path):
    # 2**22 * 2**21 * 2**21 = 2**64, which a 64-bit product would read as 0
    path = tmp_path / "wrap.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2 ** 22, 2 ** 21, 2 ** 21))
    with pytest.raises(ValueError, match=r"wrap\.idx: dimension overflow"):
        relkit.load_idx(path)


def test_tensor_csv_extent_beyond_int64_is_a_value_error(tmp_path):
    path = tmp_path / "heat.csv"
    path.write_text("# relkit-tensor v1\n# shape: 99999999999999999999\n1.0\n")
    with pytest.raises(ValueError, match=r"heat\.csv: 1 values do not fill shape"):
        relkit.load_tensor_csv(path)


@pytest.mark.parametrize("path,value,message", [
    (("layers", 6, "weights"), [["1.0", -1.0], [0.5, 0.25]],
     r"^layer 6: 'weights' must contain only numbers, got '1\.0'$"),
    (("layers", 6, "weights"), [[1.0, -1.0], [True, 0.25]],
     r"^layer 6: 'weights' must contain only numbers, got True$"),
    (("layers", 0, "bias"), [0.0, "-0.5"], r"^layer 0: 'bias' must contain only numbers"),
    (("layers", 0, "bias"), False, r"^layer 0: 'bias' must contain only numbers, got False$"),
    (("input_bounds",), {"low": "0", "high": 1.0},
     r"^input_bounds\.low must contain only numbers, got '0'$"),
    (("input_bounds",), {"low": 0.0, "high": [[[1.0, True, 1.0, 1.0]]]},
     r"^input_bounds\.high must contain only numbers, got True$"),
    (("expert",), {"factor_weights": [[0.0]], "factor_biases": [False], "precision": [[1.0]]},
     r"^expert: 'factor_biases' must contain only numbers, got False$"),
])
def test_model_number_arrays_reject_json_strings_and_booleans(tmp_path, path, value, message):
    doc = json.loads(HAND_MODEL)
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=message):
        relkit.load_model_file(model)


def test_model_file_that_is_not_utf8_is_a_format_error_naming_the_file(tmp_path):
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff\xfe" + HAND_MODEL.encode("utf-16-le"))
    with pytest.raises(ModelFormatError, match=r"model\.json: not UTF-8 text .* at byte 0\)$"):
        relkit.load_model_file(model)


@pytest.mark.parametrize("load", [relkit.load_tensor_csv, relkit.load_heatmap_csv])
def test_csv_that_is_not_utf8_is_a_value_error_naming_the_file(tmp_path, load):
    path = tmp_path / "heat.csv"
    path.write_bytes(b"# relkit-tensor v1\n# shape: 1\n\xff\n")
    with pytest.raises(ValueError, match=r"heat\.csv: not UTF-8 text .* at byte 30\)$"):
        load(path)


@pytest.mark.parametrize("bounds,message", [
    ((np.nan, 1.0), "input_bounds: ZBounds low must be finite, got nan"),
    ((0.0, np.array([1.0, np.inf])), "input_bounds: ZBounds high must be finite, got inf"),
    ((0.5, 1.0), r"input_bounds: ZBounds requires low <= 0 <= high"),
    ((0.0, -1.0), r"input_bounds: ZBounds requires low <= 0 <= high"),
])
def test_save_model_rejects_bounds_the_box_rule_cannot_use(max_network, tmp_path, bounds,
                                                           message):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=message):
        relkit.save_model(max_network, path, input_bounds=bounds)
    assert not path.exists()


@pytest.mark.parametrize("key,value", [("low", 0.5), ("high", -0.1)])
def test_stored_bounds_the_box_rule_cannot_use_are_a_format_error(max_network, tmp_path,
                                                                   key, value):
    path = tmp_path / "model.json"
    relkit.save_model(max_network, path, input_bounds=(0.0, 1.0))
    doc = json.loads(path.read_text())
    doc["input_bounds"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError,
                       match=r"model\.json: input_bounds: ZBounds requires low <= 0 <= high"):
        relkit.load_model_file(path)


def test_class_count_is_an_integer_and_round_trips(tmp_path):
    # a float class_count used to build a net whose saved file did not load, and
    # a NumPy integer one a net that could not be saved
    layers = (relkit.dense(np.ones((3, 2))),)
    with pytest.raises(ValueError, match=r"^class_count must be an integer, got 2\.0$"):
        relkit.Network(layers, (3,), 2.0)
    net = relkit.Network(layers, (3,), np.int64(2))
    assert type(net.class_count) is int
    path = tmp_path / "model.json"
    relkit.save_model(net, path)
    loaded = relkit.load_model(path)
    assert loaded.class_count == 2
    assert np.array_equal(relkit.forward(loaded, np.ones(3)).logits,
                          relkit.forward(net, np.ones(3)).logits)


def test_metadata_writes_numpy_values_anywhere_and_rejects_other_objects(tmp_path):
    path = tmp_path / "t.csv"
    meta = {"a": np.int64(3), "b": np.float32(0.5), "c": np.arange(2), "d": [np.int32(1)]}
    relkit.save_tensor_csv(path, np.zeros(2), meta)
    assert relkit.load_tensor_csv(path)[1] == {"a": 3, "b": 0.5, "c": [0, 1], "d": [1]}
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        relkit.save_tensor_csv(path, np.zeros(2), {"bad": object()})


def test_a_network_error_in_a_model_file_starts_with_the_file(tmp_path):
    doc = {"format_version": 1, "input_shape": [2], "class_count": 3,
           "layers": [{"kind": "Dense", "weights": [[1.0], [1.0]], "bias": [0.0]}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"^\S*model\.json: network output shape"):
        relkit.load_model(path)


def _tolist_document(network, expert=None, input_bounds=None):
    """The model document with every array as nested lists, which
    json.dumps(doc, sort_keys=True, indent=1) writes as a model file."""
    layers = []
    for layer in network.layers:
        doc = {"kind": layer.kind}
        if layer.kind in WEIGHTED_KINDS:
            doc.update(weights=layer.weights.tolist(), bias=layer.bias.tolist())
        if layer.kind in POOL_KINDS:
            doc["window"] = list(layer.window)
        if layer.kind in WINDOWED_KINDS:
            doc.update(stride=layer.stride, padding=layer.padding)
        layers.append(doc)
    doc = {"format_version": 1, "input_shape": list(network.input_shape),
           "class_count": network.class_count, "layers": layers}
    if expert is not None:
        doc["expert"] = {f.name: getattr(expert, f.name).tolist()
                         for f in dataclasses.fields(expert)}
    if input_bounds is not None:
        doc["input_bounds"] = {key: np.asarray(bound, dtype=np.float64).tolist()
                               for key, bound in zip(("low", "high"), input_bounds)}
    return doc


def _generated(in_shape, plan, seed=3):
    net = relkit.random_network(in_shape, plan, seed)
    return with_random_biases(net, np.random.default_rng(seed))


def _conv_net(pool):
    return _generated((2, 7, 7), [("conv", 3, 3, 3, 2, 1), ("relu",), (pool, 2, 2, 1, 1),
                                  ("flatten",), ("dense", 4), ("relu",), ("dense", 3)])


def _edge_net():
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    conv = relkit.conv2d(np.resize(values, (2, 1, 2, 2)), values[[0, 5]])
    dense = relkit.dense(np.resize(values[::-1], (18, 2)), values[[1, 2]])
    return relkit.Network((conv, relkit.relu(), relkit.flatten(), dense), (1, 4, 4), 2)


FORMAT_CASES = {
    "dense": lambda: (_generated((6,), [("dense", 5), ("relu",), ("dense", 3)]), None, None),
    **{f"conv-{pool}": lambda pool=pool: (_conv_net(pool), None, None)
       for pool in ("maxpool", "sumpool", "avgpool")},
    "expert": lambda: (_generated((4,), [("dense", 2)]), relkit.RbmExpert(
        np.random.default_rng(5).standard_normal((3, 4)), np.array([0.5, -0.0, 1e-05]),
        np.eye(4) * 2.0), None),
    "scalar-bounds": lambda: (_conv_net("maxpool"), None, (0.0, 1.0)),
    "input-shaped-bounds": lambda: (_conv_net("sumpool"), None, (
        -np.random.default_rng(7).random((2, 7, 7)), np.linspace(0.0, 2.0, 98).reshape(2, 7, 7))),
    "edge-values": lambda: (_edge_net(), None, (-np.array(EDGE_VALUES[:4]).reshape(1, 1, 4),
                                                np.array(EDGE_VALUES[3:]).reshape(1, 1, 4))),
}


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_saved_bytes_are_json_dumps_of_the_list_document(tmp_path, case):
    network, expert, bounds = FORMAT_CASES[case]()
    path = tmp_path / "model.json"
    relkit.save_model(network, path, expert=expert, input_bounds=bounds)
    doc = _tolist_document(network, expert, bounds)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def test_edge_values_are_written_in_their_shortest_repr(tmp_path):
    path = tmp_path / "model.json"
    relkit.save_model(_edge_net(), path)
    numbers = {line.strip().rstrip(",") for line in path.read_text().splitlines()}
    assert {"-0.0", "5e-324", "1e-05", "1e+16", "1e+22", "1.7976931348623157e+308",
            "0.1", "-1e+22"} <= numbers
    weights = relkit.load_model(path).layers[0].weights
    assert np.array_equal(weights, _edge_net().layers[0].weights)
    assert np.signbit(weights.ravel()[0])


def _scores_with(bad):
    scores = np.ones((2, 3))
    scores[1, 2] = bad
    return scores


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("write,message", [
    (lambda path, bad: relkit.save_heatmap_csv(
        path, relkit.Heatmap(_scores_with(bad), 5.0, 5.0, "lrp:demo", {"class_index": 0})),
     "lrp:demo heatmap scores must be finite"),
    (lambda path, bad: relkit.save_tensor_csv(path, _scores_with(bad), {}),
     "tensor values must be finite"),
    (lambda path, bad: relkit.save_curve_csv(path, relkit.FlipCurve((1.0, bad), (0,), 1.0, {})),
     "flip curve values must be finite"),
    (lambda path, bad: relkit.save_curve_csv(path, relkit.FlipCurve((1.0, 0.0), (0,), bad, {})),
     "flip curve auc must be finite"),
], ids=["heatmap", "tensor", "curve-values", "curve-auc"])
def test_writers_refuse_non_finite_values_and_write_nothing(tmp_path, write, message, bad):
    # each used to write nan or inf, which the loaders then reject
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{message}, got {bad!r}$"):
        write(path, bad)
    assert not path.exists()


@pytest.mark.parametrize("index,key,value", [
    (6, "stride", 3), (0, "window", [2, 2]), (2, "pading", 1), (1, "weights", [[1.0]]),
])
def test_a_layer_field_its_kind_does_not_take_is_refused_by_name(tmp_path, index, key, value):
    # the field used to be dropped without a word: a Dense stride, a Conv2D window
    # or a misspelled pool padding loaded as if it were absent
    doc = json.loads(HAND_MODEL)
    doc["layers"][index][key] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    kind = HAND_KINDS[index]
    with pytest.raises(ModelFormatError, match=rf"^layer {index}: {kind} takes no field '{key}'$"):
        relkit.load_model(model)


def test_a_windowed_layer_without_stride_and_padding_takes_1_and_0(tmp_path):
    doc = json.loads(HAND_MODEL)
    for index in (2, 4):
        del doc["layers"][index]["stride"], doc["layers"][index]["padding"]
    model, copy = tmp_path / "model.json", tmp_path / "copy.json"
    model.write_text(json.dumps(doc))
    relkit.save_model(relkit.load_model(model), copy)
    assert copy.read_text(encoding="utf-8") == HAND_MODEL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("write,key", [
    (lambda path, bad: relkit.save_heatmap_csv(
        path, relkit.Heatmap.from_scores(np.ones((2, 2)), bad, "lrp:x", {"class_index": 0})),
     "explained_value"),
    (lambda path, bad: relkit.save_tensor_csv(path, np.ones(2), {"a": 1, "gaps": [0.5, bad]}),
     "gaps"),
    (lambda path, bad: relkit.save_curve_csv(
        path, relkit.FlipCurve((1.0, 0.0), (0,), 1.0, {"score": np.float64(bad)})), "score"),
], ids=["heatmap", "tensor", "curve"])
def test_metadata_writers_refuse_non_finite_values_by_key_and_write_nothing(tmp_path, write,
                                                                             key, bad):
    # json wrote them as the non-standard NaN, Infinity and -Infinity, and read them back
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^meta '{key}': Out of range float values"):
        write(path, bad)
    assert not path.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_tensor_csv_meta_refuses_non_standard_json_constants(tmp_path, constant):
    path = tmp_path / "heat.csv"
    path.write_text(f'# relkit-tensor v1\n# shape: 1\n# meta: {{"explained_value": {constant}}}'
                    "\n1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"heat\.csv: line 3: malformed header .*\({constant} "
                                         r"is not a JSON number\)$"):
        relkit.load_heatmap_csv(path)


def _idx_payload(path, header_bytes):
    return list(path.read_bytes()[header_bytes:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_idx_images_refuses_a_non_finite_value(tmp_path, bad):
    # NaN used to be written as 0 with only a RuntimeWarning, +inf as 255, -inf as 0
    images = np.full((1, 2, 2), 0.5)
    images[0, 1, 0] = bad
    path = tmp_path / "imgs.idx"
    with pytest.raises(ValueError, match="images must be finite"):
        relkit.save_idx_images(path, images)
    assert not path.exists()


def test_save_idx_images_rounds_each_value_to_the_nearest_level(tmp_path):
    # 254.6 / 255 is written as 255, 0.4 / 255 as 0, 127.5 / 255 as 128 (rint's even level)
    images = np.array([[[254.6, 0.4, 127.5, 1.6]]]) / 255.0
    path = tmp_path / "imgs.idx"
    relkit.save_idx_images(path, images)
    assert _idx_payload(path, 16) == [255, 0, 128, 2]


def test_save_idx_images_writes_uint8_and_clips_integer_images(tmp_path):
    path = tmp_path / "imgs.idx"
    relkit.save_idx_images(path, np.array([[[0, 7, 255]]], dtype=np.uint8))
    assert _idx_payload(path, 16) == [0, 7, 255]
    relkit.save_idx_images(path, np.array([[[-3, 0, 1, 9]]]))
    assert _idx_payload(path, 16) == [0, 0, 255, 255]


@pytest.mark.parametrize("labels", [np.array([1.5, 0.2]), np.array([1.0, 0.0]),
                                    np.array([True, False])])
def test_save_idx_labels_refuses_labels_that_are_not_integers(tmp_path, labels):
    # [1.5, 0.2] used to be written as [1, 0]
    with pytest.raises(ValueError, match="labels must be integers"):
        relkit.save_idx_labels(tmp_path / "labels.idx", labels)


@pytest.mark.parametrize("labels", [[0, 256], [-1, 3]])
def test_save_idx_labels_refuses_a_label_outside_a_byte(tmp_path, labels):
    with pytest.raises(ValueError, match="labels must be a 1-D array of bytes"):
        relkit.save_idx_labels(tmp_path / "labels.idx", np.array(labels))


def test_save_idx_labels_writes_255_and_any_integer_dtype(tmp_path):
    path = tmp_path / "labels.idx"
    for dtype in (np.uint8, np.int16, np.int64):
        relkit.save_idx_labels(path, np.array([255, 0, 9], dtype=dtype))
        assert _idx_payload(path, 8) == [255, 0, 9]


def test_an_empty_label_file_round_trips(tmp_path):
    path = tmp_path / "labels.idx"
    relkit.save_idx_labels(path, np.array([], dtype=np.int64))
    labels = relkit.load_idx(path)
    assert labels.shape == (0,) and np.issubdtype(labels.dtype, np.integer)
    assert path.read_bytes() == relkit.modelio.IDX_LABEL_MAGIC.to_bytes(4, "big") + bytes(4)
