"""Property-based checks over generated architectures (hypothesis).

Every property runs a bounded, derandomized example budget so the suite stays
deterministic and fast.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import relkit
from relkit.modelio import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ModelFormatError

from conftest import with_random_biases
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
