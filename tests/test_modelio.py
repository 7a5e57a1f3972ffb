"""Model JSON round trips, IDX parsing, and the CSV tensor/curve formats."""

import json
import struct

import numpy as np
import pytest

import relkit
from relkit.modelio import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ModelFormatError


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


def test_input_bounds_must_broadcast_to_the_input_shape(tmp_path):
    net = relkit.random_network((1, 6, 6), [("conv", 2, 3, 3, 1, 0), ("relu",),
                                            ("flatten",), ("dense", 2)], seed=107)
    path = tmp_path / "model.json"
    relkit.save_model(net, path, input_bounds=(np.zeros(5), 1.0))
    with pytest.raises(ModelFormatError, match=r"input_bounds\.low"):
        relkit.load_model_file(path)
    relkit.save_model(net, path, input_bounds=(0.0, np.ones((2, 6, 6))))
    with pytest.raises(ModelFormatError, match=r"input_bounds\.high"):
        relkit.load_model_file(path)
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
