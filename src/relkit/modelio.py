"""Serialization: model JSON files, IDX image/label datasets, and the CSV
formats used for heatmaps, prototypes, and flip curves.

Model files are UTF-8 JSON with sorted keys and round-trip-exact decimal floats, so saving
is deterministic and loading reproduces forward outputs bit-exactly. Loading checks the
JSON structure here and leaves the values to the constructors (LayerSpec, Network,
RbmExpert, ZBounds); any error is a ModelFormatError that starts with where in the file it
happened. Saving refuses the bounds and experts that loading refuses, by the same checks.
Metadata JSON writes NumPy arrays and scalars as lists and numbers. Datasets use the IDX
binary container (big-endian header, unsigned bytes rescaled to [0, 1]).
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .explain import Heatmap, ZBounds, _heatmap_scores
from .netcore import LAYER_FIELDS, LAYER_KINDS, LayerSpec, Network, as_tensor, require_finite
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


def save_model(network, path, expert=None, input_bounds=None):
    """Write the network (and optional expert / input bounds) as JSON."""
    doc = {"format_version": FORMAT_VERSION,
           "input_shape": network.input_shape,
           "class_count": network.class_count,
           "layers": [{"kind": layer.kind, **{key: getattr(layer, key)
                                               for key in LAYER_FIELDS[layer.kind]}}
                      for layer in network.layers]}
    if expert is not None:
        expert.require_dim(math.prod(network.input_shape))
        doc["expert"] = {f.name: getattr(expert, f.name) for f in fields(expert)}
    if input_bounds is not None:
        low, high = check_input_bounds(*input_bounds, input_shape=network.input_shape)
        doc["input_bounds"] = {"low": low, "high": high}
    Path(path).write_text(_json_text(doc) + "\n", encoding="utf-8")


def _json_text(value, depth=0):
    """json.dumps(value, sort_keys=True, indent=1), with each NumPy array written
    as nested lists whose rows are joined from float reprs, the text json gives
    a finite float; json's own indenting encoder is pure Python."""
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_json_text(value[key], depth + 1)}"
                 for key in sorted(value))
    elif isinstance(value, np.ndarray) and value.ndim == 1:
        items = map(repr, value.tolist())
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        items = (_json_text(item, depth + 1) for item in value)
    else:
        return json.dumps(value.item() if isinstance(value, np.ndarray) else value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + " " * (depth + 1)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{' ' * depth}{brackets[1]}" if body else brackets


def check_input_bounds(low, high, where="input_bounds", input_shape=None):
    """(low, high) as the box rule ZBounds takes them: finite, low <= 0 <= high elementwise,
    and broadcasting to `input_shape` if given; otherwise a ValueError naming `where`."""
    try:
        box = ZBounds(low, high)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if input_shape is not None:
        box.require_shape(input_shape, f"{where}.", "the input shape")
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


def _built(where, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError it raises as a ModelFormatError
    that starts with `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _read_utf8(path, error):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# the reader of each layer field; a missing stride or padding takes LayerSpec's 1 or 0
_FIELD_READERS = {"weights": _numbers, "bias": _numbers, "window": _integers,
                  "stride": _integer, "padding": _integer}


def _parse_layer(doc, index):
    where = f"layer {index}"
    kind = _require(doc, "kind", where)
    if kind not in LAYER_KINDS:
        raise ModelFormatError(f"{where}: unsupported layer kind {kind!r}")
    for key in doc:
        if key not in ("kind", *LAYER_FIELDS[kind]):
            raise ModelFormatError(f"{where}: {kind} takes no field {key!r}")
    fields = {key: _FIELD_READERS[key](_require(doc, key, where), f"{where}: {key!r}")
              for key in LAYER_FIELDS[kind] if key in doc or key not in ("stride", "padding")}
    return _built(where, LayerSpec, kind, **fields)


def load_model_file(path):
    """Load a full model document (network, optional expert and bounds)."""
    doc = _built(f"malformed JSON in {path}", json.loads, _read_utf8(path, ModelFormatError))
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
    network = _built(path, Network, tuple(layers), tuple(input_shape), class_count)

    expert = None
    if "expert" in doc:
        params = [_numbers(_require(doc["expert"], f.name, "expert"), f"expert: '{f.name}'")
                  for f in fields(RbmExpert)]
        expert = _built("expert", RbmExpert, *params)
        _built(path, expert.require_dim, math.prod(network.input_shape))
    low = high = None
    if "input_bounds" in doc:
        low, high = (_input_bound(doc["input_bounds"], key) for key in ("low", "high"))
        _built(path, check_input_bounds, low, high, input_shape=network.input_shape)
    return ModelFile(network, expert, low, high)


def _input_bound(doc, key):
    where = f"input_bounds.{key}"
    values = _numbers(_require(doc, key, "input_bounds"), where)
    return _built(where, as_tensor, values, "bound")


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
    """Write float images in [0, 1] (or uint8) as an IDX image file: other values are
    clipped to [0, 1] and rounded to the nearest 1/255; a non-finite one is a ValueError."""
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError("images must be a (count, height, width) array")
    if arr.dtype != np.uint8:
        require_finite("images", arr)
        arr = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def save_idx_labels(path, labels):
    """Write integer labels in [0, 255] as an IDX label file."""
    arr = np.asarray(labels)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    if arr.ndim != 1 or arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("labels must be a 1-D array of bytes")
    header = struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0])
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def _plain(value):
    """A NumPy array or scalar in metadata as the list or number json writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _meta_line(meta):
    """The `# meta:` line of a CSV: `meta` as standard JSON, where a NaN or an
    infinity is a ValueError that names its top-level key."""
    for key in sorted(meta):
        try:
            json.dumps(meta[key], default=_plain, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"meta {key!r}: {exc}") from None
    return "# meta: " + json.dumps(meta, sort_keys=True, default=_plain, allow_nan=False)


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def save_tensor_csv(path, array, meta):
    """Flat one-value-per-line CSV with shape and JSON metadata comments; refuses
    non-finite values, which load_tensor_csv would reject."""
    arr = np.asarray(array, dtype=np.float64)
    require_finite("tensor values", arr)
    lines = ["# relkit-tensor v1",
             "# shape: " + ",".join(str(v) for v in arr.shape),
             _meta_line(meta)]
    lines.extend(map(repr, arr.ravel().tolist()))
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
                    meta = json.loads(body[len("meta:"):], parse_constant=_not_json)
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
    save_tensor_csv(path, _heatmap_scores(heatmap), meta)


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
    values = np.asarray(curve.values, dtype=np.float64).ravel()
    require_finite("flip curve values", values)
    require_finite("flip curve auc", curve.auc)
    lines = ["# relkit-flipcurve v1",
             _meta_line(curve.meta),
             "# auc: " + repr(float(curve.auc)),
             "# order: " + ",".join(str(i) for i in curve.order),
             "step,value"]
    lines.extend(f"{step},{value!r}" for step, value in enumerate(values.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
