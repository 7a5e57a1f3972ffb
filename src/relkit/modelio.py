"""Serialization: model JSON files, IDX image/label datasets, and the CSV
formats used for heatmaps, prototypes, and flip curves.

Model files are UTF-8 JSON with sorted keys and round-trip-exact decimal
floats, so saving is deterministic and loading reproduces forward outputs
bit-exactly. Datasets use the IDX binary container (big-endian header,
unsigned bytes rescaled to [0, 1]).
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .explain import Heatmap, ZBounds
from .netcore import (LAYER_KINDS, POOL_KINDS, WEIGHTED_KINDS, WINDOWED_KINDS, LayerSpec,
                      Network, as_tensor, broadcasts_to)
from .prototype import RbmExpert

FORMAT_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
_MAX_IDX_ELEMENTS = 1 << 28


class ModelFormatError(ValueError):
    """Raised for malformed or unsupported model files."""


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A loaded model document: the network plus optional extras."""

    network: Network
    expert: RbmExpert | None = None
    input_low: np.ndarray | None = None
    input_high: np.ndarray | None = None


def _layer_doc(layer):
    doc = {"kind": layer.kind}
    if layer.kind in WEIGHTED_KINDS:
        doc["weights"] = layer.weights.tolist()
        doc["bias"] = layer.bias.tolist()
    if layer.kind in POOL_KINDS:
        doc["window"] = list(layer.window)
    if layer.kind in WINDOWED_KINDS:
        doc["stride"] = layer.stride
        doc["padding"] = layer.padding
    return doc


def save_model(network, path, expert=None, input_bounds=None):
    """Write the network (and optional expert / input bounds) as JSON."""
    doc = {"format_version": FORMAT_VERSION,
           "input_shape": list(network.input_shape),
           "class_count": network.class_count,
           "layers": [_layer_doc(layer) for layer in network.layers]}
    if expert is not None:
        doc["expert"] = {"factor_weights": expert.factor_weights.tolist(),
                         "factor_biases": expert.factor_biases.tolist(),
                         "precision": expert.precision.tolist()}
    if input_bounds is not None:
        low, high = check_input_bounds(*input_bounds)
        doc["input_bounds"] = {"low": np.asarray(low, dtype=np.float64).tolist(),
                               "high": np.asarray(high, dtype=np.float64).tolist()}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def check_input_bounds(low, high, where="input_bounds"):
    """(low, high) as the box rule ZBounds takes them: finite, with low <= 0 <=
    high elementwise; otherwise a ValueError that names `where`."""
    try:
        box = ZBounds(low, high)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return box.low, box.high


def _require(doc, key, where):
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where}: expected a JSON object, got {reprlib.repr(doc)}")
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _is_int(value):
    # a JSON integer: bools, floats and strings do not count
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, where):
    if not _is_int(value):
        raise ModelFormatError(f"{where} must be an integer, got {reprlib.repr(value)}")
    return value


def _integers(value, where):
    if not (isinstance(value, list) and all(map(_is_int, value))):
        raise ModelFormatError(f"{where} must be a list of integers, "
                               f"got {reprlib.repr(value)}")
    return value


def _numbers(value, where):
    """Reject JSON strings and booleans anywhere in a number array: NumPy would
    quietly read "1.5" as 1.5 and true as 1. Other malformed values are left
    to as_tensor."""
    items = value if isinstance(value, list) else (value,)
    kinds = set(map(type, items))
    if kinds & {str, bool}:
        bad = next(v for v in items if type(v) in (str, bool))
        raise ModelFormatError(f"{where} must contain only numbers, got {reprlib.repr(bad)}")
    if list in kinds:
        for item in items:
            _numbers(item, where)
    return value


def _read_utf8(path, error):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_layer(doc, index):
    where = f"layer {index}"
    kind = _require(doc, "kind", where)
    if kind not in LAYER_KINDS:
        raise ModelFormatError(f"{where}: unsupported layer kind {kind!r}")
    fields = {}
    if kind in WEIGHTED_KINDS:
        for key in ("weights", "bias"):
            fields[key] = _numbers(_require(doc, key, where), f"{where}: '{key}'")
    if kind in POOL_KINDS:
        fields["window"] = _integers(_require(doc, "window", where), f"{where}: 'window'")
    if kind in WINDOWED_KINDS:
        fields["stride"] = _integer(doc.get("stride", 1), f"{where}: 'stride'")
        fields["padding"] = _integer(doc.get("padding", 0), f"{where}: 'padding'")
    try:
        return LayerSpec(kind, **fields)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def load_model_file(path):
    """Load a full model document (network, optional expert and bounds)."""
    try:
        doc = json.loads(_read_utf8(path, ModelFormatError))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed JSON in {path}: {exc}") from None
    version = _require(doc, "format_version", str(path))
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r} "
                               f"(this build reads version {FORMAT_VERSION})")
    layer_docs = _require(doc, "layers", str(path))
    if not isinstance(layer_docs, list):
        raise ModelFormatError(f"'layers' must be a list, got {reprlib.repr(layer_docs)}")
    layers = [_parse_layer(layer_doc, i) for i, layer_doc in enumerate(layer_docs)]
    input_shape = _integers(_require(doc, "input_shape", str(path)), "'input_shape'")
    class_count = _integer(_require(doc, "class_count", str(path)), "'class_count'")
    try:
        network = Network(tuple(layers), tuple(input_shape), class_count)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    expert = None
    if "expert" in doc:
        params = [_numbers(_require(doc["expert"], key, "expert"), f"expert: '{key}'")
                  for key in ("factor_weights", "factor_biases", "precision")]
        try:
            expert = RbmExpert(*params)
        except ValueError as exc:
            raise ModelFormatError(f"expert: {exc}") from None
    low = high = None
    if "input_bounds" in doc:
        b = doc["input_bounds"]
        low = _input_bound(b, "low", network.input_shape)
        high = _input_bound(b, "high", network.input_shape)
    return ModelFile(network, expert, low, high)


def _input_bound(doc, key, input_shape):
    where = f"input_bounds.{key}"
    values = _numbers(_require(doc, key, "input_bounds"), where)
    try:
        bound = as_tensor(values, "bound")
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None
    if not broadcasts_to(bound.shape, input_shape):
        raise ModelFormatError(f"{where}: shape {bound.shape} does not broadcast to the "
                               f"input shape {input_shape}")
    return bound


def load_model(path):
    """Load just the network from a model file."""
    return load_model_file(path).network


def load_idx(path):
    """Read an IDX file: images as floats in [0, 1] or labels as integers."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == IDX_LABEL_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"{path}: wrong magic 0x{magic:08X} (expected image "
                         f"0x{IDX_IMAGE_MAGIC:08X} or label 0x{IDX_LABEL_MAGIC:08X})")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = math.prod(dims)
    if count > _MAX_IDX_ELEMENTS:
        raise ValueError(f"{path}: dimension overflow ({dims})")
    payload = raw[header:]
    if len(payload) != count:
        raise ValueError(f"{path}: dimensions {dims} need {count} bytes, "
                         f"payload has {len(payload)}")
    data = np.frombuffer(payload, dtype=np.uint8)
    if magic == IDX_LABEL_MAGIC:
        return data.astype(np.int64)
    return data.reshape(dims).astype(np.float64) / 255.0


def save_idx_images(path, images):
    """Write float images in [0, 1] (or uint8) as an IDX image file."""
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError("images must be a (count, height, width) array")
    if arr.dtype != np.uint8:
        arr = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def save_idx_labels(path, labels):
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.min() < 0 or arr.max() > 255:
        raise ValueError("labels must be a 1-D array of bytes")
    header = struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0])
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def _jsonable_meta(meta):
    clean = {}
    for key, value in meta.items():
        if isinstance(value, np.ndarray):
            clean[key] = value.tolist()
        elif isinstance(value, (np.integer,)):
            clean[key] = int(value)
        elif isinstance(value, (np.floating,)):
            clean[key] = float(value)
        else:
            clean[key] = value
    return clean


def save_tensor_csv(path, array, meta):
    """Flat one-value-per-line CSV with shape and JSON metadata comments."""
    arr = np.asarray(array, dtype=np.float64)
    lines = ["# relkit-tensor v1",
             "# shape: " + ",".join(str(v) for v in arr.shape),
             "# meta: " + json.dumps(_jsonable_meta(meta), sort_keys=True)]
    lines.extend(repr(float(v)) for v in arr.ravel())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_tensor_csv(path):
    """Read back a tensor CSV; returns (array, meta)."""
    shape = None
    meta = {}
    values = []
    lines = _read_utf8(path, ValueError).splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            try:
                if body.startswith("shape:"):
                    shape = tuple(int(v) for v in body[len("shape:"):].split(",") if v.strip())
                    if min(shape, default=0) < 0:
                        raise ValueError("negative extent")
                elif body.startswith("meta:"):
                    meta = json.loads(body[len("meta:"):])
                    if not isinstance(meta, dict):
                        raise ValueError("meta must be a JSON object")
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: malformed header {line!r} "
                                 f"({exc})") from None
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {number}: {line!r} is not a finite number")
        values.append(value)
    if shape is None:
        raise ValueError(f"{path}: missing shape header")
    arr = np.array(values, dtype=np.float64)
    if arr.size != math.prod(shape):
        raise ValueError(f"{path}: {arr.size} values do not fill shape {shape}")
    return arr.reshape(shape), meta


def save_heatmap_csv(path, heatmap):
    meta = dict(heatmap.meta)
    meta["method_tag"] = heatmap.method_tag
    meta["explained_value"] = heatmap.explained_value
    meta["total"] = heatmap.total
    save_tensor_csv(path, heatmap.scores, meta)


def load_heatmap_csv(path):
    scores, meta = load_tensor_csv(path)
    method_tag = meta.pop("method_tag", "loaded")
    explained = meta.pop("explained_value", float(np.sum(scores)))
    if isinstance(explained, bool) or not isinstance(explained, (int, float)):
        raise ValueError(f"{path}: explained_value must be a number, "
                         f"got {reprlib.repr(explained)}")
    meta.pop("total", None)
    return Heatmap.from_scores(scores, explained, method_tag, meta)


def save_curve_csv(path, curve):
    """Write a flip curve as (step, value) rows with metadata comments."""
    lines = ["# relkit-flipcurve v1",
             "# meta: " + json.dumps(_jsonable_meta(curve.meta), sort_keys=True),
             "# auc: " + repr(float(curve.auc)),
             "# order: " + ",".join(str(i) for i in curve.order),
             "step,value"]
    lines.extend(f"{step},{repr(float(v))}" for step, v in enumerate(curve.values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
