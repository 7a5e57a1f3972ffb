"""Minimal feed-forward network engine.

Dense and convolutional ReLU networks over 64-bit float tensors: forward
passes that record every intermediate activation, reverse-mode gradients,
and a small deterministic minibatch-SGD trainer. Networks and tensors are
immutable after construction; every operation here is a pure function of
its inputs, so independent calls are safe to run concurrently.

Only this module tells Dense from Conv2D; the others work by layer family
(WEIGHTED_KINDS, POOL_KINDS and the shape-only kinds). Two tables describe the
layers once: LAYER_FIELDS, the fields each kind takes, which LayerSpec checks
and model files hold, and _PLAN_SIZES, the sizes of each random_network plan
item. One loop runs the layers each way, by position (0 the input, i + 1 layer
i's output, the logits last): `_forward_rows` returns the ActivationTrace every
caller reads, and `_reverse_sweep`, which input gradients, training and LRP
share, returns one value per position. One head, `class_output`, gives every consumer the
explained value and its gradient at the logits, and rejects unknown output
names and out-of-range or non-integer classes. Every windowed layer reads its
windows as `window_columns`, a copy of one strided view of the zero-padded
input plane; one cached index map, `_window_index`, of flat positions in that
plane gives their adjoint and the MaxPool winner scatter as one `bincount`.
A weighted layer's bias-free response to sparse input changes comes one row per change
(`sparse_response`) or by unit column (`column_responses`), over the removal squares of one
cached map, `_region_entries`, that the flip's removal record and slot map (`_slot_map`) read.

Every kernel has one implementation, over batches with a leading axis of N
samples: the layer kernels, the operator pair `linear_pair`, the reverse
sweep and the weight gradient. `window_columns` and `window_scatter` take any
leading axes before (C, H, W), and only the scatter folds them into planes;
all planes share the one index map. Conv2D, and Dense with `row_stable`, multiply
in one stacked product whose slice n is bitwise the product for sample n alone;
only batched LRP (its windows' forward and its rule steps) asks for `row_stable`,
as at N=1 the Dense GEMM is bitwise the stacked product.
`forward_batch` returns the trace of N inputs; `forward`, `seeded_gradient`,
`conv_apply` and `conv_transpose_apply` are N=1 views that add and drop the
batch axis, so one input gives bitwise the same result either way. Training
runs one batched forward and one reverse sweep per minibatch, in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

LAYER_KINDS = ("Dense", "Conv2D", "ReLU", "SumPool", "AvgPool", "MaxPool", "Flatten")
WEIGHTED_KINDS = ("Dense", "Conv2D")
POOL_KINDS = ("SumPool", "AvgPool", "MaxPool")
WINDOWED_KINDS = ("Conv2D",) + POOL_KINDS  # the kinds with a stride and a padding
EXPLAINED_OUTPUTS = ("logit", "log_probability")
# the fields each layer kind takes besides `kind`, in model-file order
LAYER_FIELDS = {"Dense": ("weights", "bias"), "Conv2D": ("weights", "bias", "stride", "padding"),
                "ReLU": (), "Flatten": (),
                **dict.fromkeys(POOL_KINDS, ("window", "stride", "padding"))}
# the sizes after each random_network plan head, in order
_PLAN_SIZES = {"dense": ("out",), "conv": ("out_ch", "kh", "kw", "stride", "padding"),
               "relu": (), "flatten": (), **dict.fromkeys(
                   ("maxpool", "sumpool", "avgpool"), ("ph", "pw", "stride", "padding"))}
# weight rank and bias axis of each weighted kind
_WEIGHT_LAYOUT = {"Dense": (2, 1), "Conv2D": (4, 0)}


def as_tensor(values, name="tensor"):
    """Copy `values` into a float64 array, rejecting non-numeric and NaN/Inf entries."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric array ({exc})") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _frozen_tensor(values, name):
    arr = as_tensor(values, name)
    arr.setflags(write=False)
    return arr


def broadcasts_to(shape, target):
    """Whether an array of `shape` broadcasts to exactly the shape `target`."""
    return len(shape) <= len(target) and all(
        s in (1, t) for s, t in zip(reversed(shape), reversed(target)))


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One layer of a feed-forward network.

    Dense weights are (in, out) with one bias per output unit. Conv2D weights
    are (out_channels, in_channels, kh, kw) with one bias per output channel.
    `stride`/`padding` apply to Conv2D and pooling layers, `window` to pooling
    layers only; all three hold integers. Padding is always zero-fill.
    """

    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        taken = LAYER_FIELDS[self.kind]
        for name in ("weights", "bias", "window"):
            if name not in taken and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes no {name}")
        if self.kind in WEIGHTED_KINDS:
            rank, bias_axis = _WEIGHT_LAYOUT[self.kind]
            w = _frozen_tensor(self.weights, f"{self.kind} weights")
            if w.ndim != rank:
                raise ValueError(f"{self.kind} weights must be {rank}-D, got shape {w.shape}")
            units = w.shape[bias_axis]
            b = _frozen_tensor(np.zeros(units) if self.bias is None else self.bias,
                               f"{self.kind} bias")
            if b.shape != (units,):
                raise ValueError(f"{self.kind} bias must have one entry per output unit "
                                 f"({units}), got shape {b.shape}")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "bias", b)
        elif self.kind in POOL_KINDS:
            if self.window is None:
                raise ValueError(f"{self.kind} requires a pooling window")
            object.__setattr__(self, "window", _pool_window(self.window))
        require_int("stride", self.stride, 1)
        require_int("padding", self.padding, 0)
        if "stride" not in taken and (self.stride, self.padding) != (1, 0):
            raise ValueError(f"{self.kind} takes no stride or padding")


def dense(weights, bias=None):
    return LayerSpec("Dense", weights=weights, bias=bias)


def conv2d(weights, bias=None, stride=1, padding=0):
    return LayerSpec("Conv2D", weights=weights, bias=bias, stride=stride, padding=padding)


def relu():
    return LayerSpec("ReLU")


def flatten():
    return LayerSpec("Flatten")


def _pool_window(window):
    """`window` as a tuple of two int extents >= 1, or a ValueError naming the pool window."""
    try:
        extents = tuple(require_int("pool window extent", v) for v in window)
    except TypeError:  # not a sequence
        extents = ()
    if len(extents) != 2 or min(extents) < 1:
        raise ValueError("pool window must be two positive extents")
    return extents


def _pool(kind, window, stride, padding):
    window = _pool_window(window)
    if stride is None:
        if window[0] != window[1]:
            raise ValueError("stride required for non-square pool windows")
        stride = window[0]
    return LayerSpec(kind, stride=stride, padding=padding, window=window)


def sum_pool(window, stride=None, padding=0):
    return _pool("SumPool", window, stride, padding)


def avg_pool(window, stride=None, padding=0):
    return _pool("AvgPool", window, stride, padding)


def max_pool(window, stride=None, padding=0):
    return _pool("MaxPool", window, stride, padding)


def _out_extent(extent, k, stride, padding):
    span = extent + 2 * padding - k
    if span < 0:
        raise ValueError(f"window of {k} does not fit extent {extent} with padding {padding}")
    return span // stride + 1


def layer_output_shape(layer, in_shape):
    """Shape produced by `layer` on an input of `in_shape` (raises on mismatch)."""
    kind = layer.kind
    if kind == "Dense":
        if len(in_shape) != 1 or in_shape[0] != layer.weights.shape[0]:
            raise ValueError(f"Dense expects a ({layer.weights.shape[0]},) input, got {in_shape}")
        return (layer.weights.shape[1],)
    if kind == "ReLU":
        return tuple(in_shape)
    if kind == "Flatten":
        return (int(np.prod(in_shape)),)
    if len(in_shape) != 3:
        raise ValueError(f"{kind} expects a (channels, height, width) input, got {in_shape}")
    if kind == "Conv2D":
        channels, expected, *window = layer.weights.shape
        if expected != in_shape[0]:
            raise ValueError(f"Conv2D expects {expected} input channels, got {in_shape[0]}")
    else:
        channels, window = in_shape[0], layer.window
    geom = _window_geometry(tuple(in_shape), tuple(window), layer.stride, layer.padding)
    return (channels, geom.out_h, geom.out_w)


@dataclass(frozen=True, eq=False)
class Network:
    """Ordered layer sequence ending in a vector of `class_count` logits."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...]
    class_count: int
    activation_shapes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape",
                           tuple(require_int("input_shape extent", v) for v in self.input_shape))
        if min(self.input_shape, default=0) < 1:
            raise ValueError("input_shape extents must be positive")
        object.__setattr__(self, "class_count", require_int("class_count", self.class_count, 1))
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            try:
                shapes.append(layer_output_shape(layer, shapes[-1]))
            except ValueError as exc:
                raise ValueError(f"layer {i} ({layer.kind}): {exc}") from None
        if shapes[-1] != (self.class_count,):
            raise ValueError(
                f"network output shape {shapes[-1]} does not match ({self.class_count},) logits")
        object.__setattr__(self, "activation_shapes", tuple(shapes))


class ActivationTrace(NamedTuple):
    """Recorded activations of one forward pass, by position as in
    `Network.activation_shapes`: 0 the input, i + 1 layer i's output, the
    logits last, None below the position a pass started at. `aux[i]` holds a
    Conv2D layer i's input window columns, a MaxPool's winner map (flat index into
    the padded plane per output cell), and None for other kinds. `inputs` and `outputs`
    (the tensors entering and leaving each layer), `input` and `logits` are views.
    """

    activations: tuple
    aux: tuple
    inputs = property(lambda self: self.activations[:-1])
    outputs = property(lambda self: self.activations[1:])
    input = property(lambda self: self.activations[0])
    logits = property(lambda self: self.activations[-1])


class WindowGeom(NamedTuple):
    channels: int
    pad_h: int
    pad_w: int
    kh: int
    kw: int
    stride: int
    padding: int
    out_h: int
    out_w: int


@lru_cache(maxsize=256)
def _window_geometry(in_shape, window, stride, padding):
    """Geometry of `window` sliding over a (C, H, W) `in_shape`; both are tuples."""
    c, h, w = in_shape
    kh, kw = window
    oh = _out_extent(h, kh, stride, padding)
    ow = _out_extent(w, kw, stride, padding)
    return WindowGeom(c, h + 2 * padding, w + 2 * padding, kh, kw, stride, padding, oh, ow)


@lru_cache(maxsize=64)
def _window_index(geom):
    """Flat position in the padded (pad_h, pad_w) plane that window cell k of
    output cell j reads, as a read-only (kh*kw, out_h*out_w) array with the
    window axis row-major; the map of the scatters and the MaxPool winners."""
    rows = np.arange(geom.kh)[:, None] + geom.stride * np.arange(geom.out_h)
    cols = np.arange(geom.kw)[:, None] + geom.stride * np.arange(geom.out_w)
    index = rows[:, None, :, None] * geom.pad_w + cols[None, :, None, :]
    index = index.reshape(geom.kh * geom.kw, geom.out_h * geom.out_w)
    index.setflags(write=False)
    return index


@lru_cache(maxsize=64)
def _window_inverse(geom):
    """Read-only (pad_h*pad_w, kh*kw) inverse of _window_index: the output cell
    whose window cell k reads padded position q, or out_h*out_w if none does."""
    index = _window_index(geom)
    inverse = np.full((geom.pad_h * geom.pad_w, len(index)), index.shape[1])
    inverse[index, np.arange(len(index))[:, None]] = np.arange(index.shape[1])
    inverse.setflags(write=False)
    return inverse


@lru_cache(maxsize=64)
def _region_entries(shape, patch):
    """Read-only (regions, entries) flat indices into `shape` of each removal region: every
    entry alone (patch 1), or each p-by-p square of the last two axes across the leading
    ones, squares row-major and entries in flat order. The one map of the squares."""
    entries = np.arange(int(np.prod(shape))).reshape(-1, 1)
    if patch > 1:
        if len(shape) < 2:
            raise ValueError("patch flipping needs at least a 2-D input")
        h, w = shape[-2:]
        if h % patch or w % patch:
            raise ValueError(f"{patch}x{patch} patches do not tile a {h}x{w} input")
        squares = entries.reshape(-1, h // patch, patch, w // patch, patch)
        entries = squares.transpose(1, 3, 0, 2, 4).reshape(h * w // patch ** 2, -1)
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=64)
def _slot_map(geom, patch):
    """Read-only slots of each output cell's window at patch > 1, the squares of
    _region_entries it overlaps: (S, out_h*out_w) square ids, each column's ascending, then
    the square count for none, and (S, C*kh*kw, out_h*out_w) masks, 1.0 in each slot's square."""
    shape = (geom.channels, geom.pad_h - 2 * geom.padding, geom.pad_w - 2 * geom.padding)
    regions = _region_entries(shape, patch)
    plane, none = np.empty(regions.size, int), len(regions)  # square id - none per entry
    plane[regions] = np.arange(-none, 0)[:, None]
    ids, _ = window_columns(plane.reshape(shape), (geom.kh, geom.kw), geom.stride, geom.padding)
    ids = ids.reshape(-1, ids.shape[-1]) + none  # square id per window cell, none in the padding
    ranked = np.sort(ids, axis=0)
    ranked[1:][ranked[1:] == ranked[:-1]] = none  # each square once per column
    squares = np.sort(ranked, axis=0)[:(ranked < none).sum(axis=0).max()]
    masks = ((ids == squares[:, None]) & (ids < none)).astype(float)
    for a in (squares, masks):
        a.setflags(write=False)
    return squares, masks


def window_columns(x, window, stride, padding):
    """Extract pooling/convolution windows of a (..., C, H, W) tensor.

    Returns (cols, geom) where cols has shape (..., C, kh*kw, out_h*out_w)
    and the window axis is ordered row-major, i.e. by ascending linear index
    inside the window; `geom` describes one (C, H, W) sample.
    """
    geom = _window_geometry(x.shape[-3:], tuple(window), stride, padding)
    p, s = geom.padding, geom.stride
    xp = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p))) if p else np.ascontiguousarray(x)
    sh, sw = xp.strides[-2:]  # one (..., C, kh, kw, out_h, out_w) view of the padded planes
    view = np.ndarray(xp.shape[:-2] + (geom.kh, geom.kw, geom.out_h, geom.out_w), xp.dtype, xp,
                      strides=xp.strides[:-2] + (sh, sw, s * sh, s * sw))
    return view.copy().reshape(x.shape[:-2] + (geom.kh * geom.kw, -1)), geom


def _scatter(values, index, geom):
    """Sum values into zero (pad_h, pad_w) planes at the flat plane positions
    `index`, then crop the padding. The last two axes of `values` hold one
    plane's values and every leading axis counts planes; `index` is one map
    shared by every plane, or one per plane. Each position sums its values in
    flattened order. The one place that folds leading axes into planes."""
    lead, plane = values.shape[:-2], geom.pad_h * geom.pad_w
    values = values.reshape(-1, values.shape[-2] * values.shape[-1])
    m = len(values)
    flat = index.reshape(-1, values.shape[1]) + np.arange(0, m * plane, plane)[:, None]
    planes = np.bincount(flat.ravel(), weights=values.ravel(), minlength=m * plane)
    planes = planes.reshape(lead + (geom.pad_h, geom.pad_w))
    p = geom.padding
    return planes[..., p:geom.pad_h - p, p:geom.pad_w - p] if p else planes


def window_scatter(cols, geom):
    """Adjoint of window_columns: scatter-add (..., C, kh*kw, out_h*out_w)
    window values back to (..., C, H, W)."""
    return _scatter(cols, _window_index(geom), geom)


def _conv(weights, x, stride, padding):
    """Cross-correlate (F, C, kh, kw) weights with (N, C, H, W) tensors: one stacked
    product whose slice n is the product for sample n alone, and the columns it read."""
    f = len(weights)
    cols, geom = window_columns(x, weights.shape[2:], stride, padding)
    z = weights.reshape(f, -1) @ cols.reshape(len(x), -1, cols.shape[-1])
    return z.reshape(len(x), f, geom.out_h, geom.out_w), cols


def _conv_T(weights, s, stride, padding, in_shape):
    """Adjoint of _conv: push (N, F, oh, ow) values back to (N,) + in_shape."""
    f, c, kh, kw = weights.shape
    geom = _window_geometry(tuple(in_shape), (kh, kw), stride, padding)
    cols = weights.reshape(f, -1).T @ s.reshape(len(s), f, -1)
    return window_scatter(cols.reshape(len(s), c, kh * kw, -1), geom)


def conv_apply(weights, x, stride, padding):
    """Cross-correlate (out_ch, in_ch, kh, kw) weights with a (C, H, W) tensor (no bias)."""
    return _conv(weights, x[None], stride, padding)[0][0]


def conv_transpose_apply(weights, s, stride, padding, in_shape):
    """Adjoint of conv_apply: push (F, oh, ow) values back to the input shape."""
    return _conv_T(weights, s[None], stride, padding, in_shape)[0]


# (apply, apply_T) of a Dense layer, weights (in, out): the GEMM, and a stacked product
# whose row n is bitwise row n's alone; GEMM rows may differ in last bits (not at N=1)
DENSE_PAIR = (lambda w, a: a @ w, lambda w, s: (w @ s.T).T)
DENSE_ROW_PAIR = (lambda w, a: (a[:, None, :] @ w)[:, 0],
                  lambda w, s: (w @ s[:, :, None])[..., 0])


def linear_pair(layer, in_shape, row_stable=False):
    """Bias-free linear operator pair (apply, apply_T) of a weighted layer.

    apply(w, a) maps an (N,) + `in_shape` batch through weights `w` shaped
    like layer.weights (or any elementwise transform of them); apply_T(w, s)
    is its adjoint, pushing an output-shaped batch back to (N,) + `in_shape`.
    Dense takes the GEMM, or with `row_stable` the stacked per-row product.
    """
    if layer.kind == "Dense":
        return DENSE_ROW_PAIR if row_stable else DENSE_PAIR
    stride, padding = layer.stride, layer.padding
    return (lambda w, a: _conv(w, a, stride, padding)[0],
            lambda w, s: _conv_T(w, s, stride, padding, in_shape))


def sparse_response(layer, in_shape, entries, values):
    """Bias-free response of a weighted layer to sparse input changes: row r of
    (R, E) flat positions `entries` in `in_shape` and `values` gives row r of the
    (R,) + output batch apply(W, sum_e values[r, e] * unit(entries[r, e])). Dense
    scales rows of W; Conv2D is one bincount through the inverse window index."""
    w, rows = layer.weights, len(entries)
    if layer.kind == "Dense":
        return (values[:, None, :] @ w[entries])[:, 0]
    f, c, kh, kw = w.shape
    geom = _window_geometry(tuple(in_shape), (kh, kw), layer.stride, layer.padding)
    channel, y, x = np.unravel_index(entries, in_shape)
    p, cells = geom.padding, geom.out_h * geom.out_w
    cell = _window_inverse(geom)[(y + p) * geom.pad_w + x + p][:, :, None]  # (R, E, 1, kh*kw)
    planes = np.arange(0, rows * f * cells, cells).reshape(rows, 1, f, 1)
    flat = np.where(cell < cells, cell + planes, rows * f * cells)  # the last slot is a dump
    scaled = values[..., None, None] * w.reshape(f, c, -1).transpose(1, 0, 2)[channel]
    z = np.bincount(flat.ravel(), scaled.ravel(), minlength=rows * f * cells + 1)
    return z[:-1].reshape(rows, f, geom.out_h, geom.out_w)


def column_responses(layer, in_shape, entries, values, patch, chunk_bytes):
    """sparse_response of a Conv2D by unit column, to removal steps of one entry (patch 1)
    or one p-by-p square. Its output units form an (F, columns) grid whose column holds the
    F filters at one output cell, which read the same window. Row r of (R, E) `entries` and
    `values` is step r; a column's S slots are its window cells at patch 1, else the squares
    its window overlaps (_slot_map). Yields, per part of the grid within `chunk_bytes` per
    array, (part, steps, dz): its index into the grid, the (S, n) steps of its n columns'
    slots in ascending order (R: never removed) and the (S, F, n) response to each slot."""
    w, count = layer.weights, len(entries)
    wt, fan_in, size = w.reshape(len(w), -1), w[0].size, int(np.prod(in_shape))
    window = (w.shape[2:], layer.stride, layer.padding)
    step, change = np.zeros(size, int), np.zeros(size)  # step - R, 0 where never removed
    step[entries], change[entries] = np.arange(-count, 0)[:, None], values
    change = window_columns(change.reshape(in_shape), *window)[0].reshape(fan_in, -1)
    if patch == 1:
        step = window_columns(step.reshape(in_shape), *window)[0].reshape(fan_in, -1)
    else:  # a square's first entry holds its step
        squares, masks = _slot_map(_window_geometry(tuple(in_shape), *window), patch)
        step = np.append(step[_region_entries(tuple(in_shape), patch)[:, 0]], 0)[squares]
    s = len(step)
    n = max(1, chunk_bytes // (8 * (s + 1) * max(fan_in, len(w))))
    for lo in range(0, step.shape[1], n):
        part, cols = (slice(None), slice(lo, lo + n)), np.arange(min(n, step.shape[1] - lo))
        # each column's slots by ascending step; the slot breaks ties
        touch, order = np.divmod(np.sort(step[part] * s + np.arange(s)[:, None], axis=0), s)
        if patch == 1:  # each slot is one cell: W's column times its change
            dz = (np.take(wt, order, 1) * change[order, lo + cols]).transpose(1, 0, 2)
        else:  # W times each slot's cells' changes, taken in step order
            dz = (wt @ (masks[..., part[1]] * change[part]))[order, :, cols].transpose(0, 2, 1)
        yield part, touch + count, dz


def add_bias(z, bias):
    """Add one bias per output unit (Dense) or per output channel (Conv2D) to
    a fresh (N, ...) batch `z`, in place."""
    z += bias.reshape((-1,) + (1,) * (z.ndim - 2))
    return z


def _layer_forward(layer, x, row_stable=False):
    """Output of `layer` on an (N, ...) batch, and its trace `aux` entry: the
    window columns of a Conv2D, the winner map of a MaxPool, None otherwise."""
    kind = layer.kind
    if kind == "Conv2D":
        z, cols = _conv(layer.weights, x, layer.stride, layer.padding)
        return add_bias(z, layer.bias), cols
    if kind == "Dense":
        apply, _ = linear_pair(layer, x.shape[1:], row_stable)
        return add_bias(apply(layer.weights, x), layer.bias), None
    if kind == "ReLU":
        return np.maximum(x, 0.0), None
    if kind == "Flatten":
        return x.reshape(len(x), -1), None
    cols, geom = window_columns(x, layer.window, layer.stride, layer.padding)
    out_shape = x.shape[:2] + (geom.out_h, geom.out_w)
    if kind == "SumPool":
        return cols.sum(axis=-2).reshape(out_shape), None
    if kind == "AvgPool":
        return cols.mean(axis=-2).reshape(out_shape), None
    # MaxPool; argmax takes the first maximum = lowest in-window linear index
    arg = cols.argmax(axis=-2)
    pooled = np.take_along_axis(cols, arg[..., None, :], axis=-2)
    winner = _window_index(geom)[arg, np.arange(arg.shape[-1])]
    return pooled.reshape(out_shape), winner.reshape(out_shape)


def _layer_backward(layer, x, extra, g):
    """Gradient at the (N, ...) input `x` of `layer`, given the gradient `g`
    at its output and the winner map `extra` of a MaxPool."""
    kind = layer.kind
    if kind in WEIGHTED_KINDS:
        _, apply_T = linear_pair(layer, x.shape[1:])
        return apply_T(layer.weights, g)
    if kind == "ReLU":
        # derivative at 0 is taken as 0
        return g * (x > 0.0)
    if kind == "Flatten":
        return g.reshape(x.shape)
    geom = _window_geometry(x.shape[1:], layer.window, layer.stride, layer.padding)
    if kind == "MaxPool":
        return _scatter(g.reshape(extra.shape), extra, geom)
    share = g if kind == "SumPool" else g / (geom.kh * geom.kw)
    cols = share.reshape(x.shape[:2] + (1, -1))
    return window_scatter(np.broadcast_to(cols, x.shape[:2] + (geom.kh * geom.kw, cols.shape[-1])),
                          geom)


def _forward_rows(network, x, start=0, row_stable=False, stop=None):
    """The trace of a validated (N, ...) batch `x` entering at position
    `start`: every activation and `aux` entry from there on, and None
    below it, so an index always names the same position. With `stop`, the
    pass ends at position `stop`, whose activation is then the last one (not
    the logits). With `row_stable`, row n is bitwise the trace of row n alone."""
    acts, aux = [None] * start + [x], [None] * start
    for layer in network.layers[start:stop]:
        y, extra = _layer_forward(layer, acts[-1], row_stable)
        acts.append(y)
        aux.append(extra)
    return ActivationTrace(tuple(acts), tuple(aux))


def _take(trace, pick):
    """The trace of `t[pick]` of every tensor (None stays None): pick 0 drops
    an N=1 batch axis, pick None adds one."""
    return ActivationTrace(tuple([None if t is None else t[pick] for t in trace.activations]),
                           tuple([None if t is None else t[pick] for t in trace.aux]))


def _batch_of_one(network, trace):
    """The N=1 batch of `trace`, checked to be one sample's trace of `network`: one
    activation per position, each of the network's activation shape. A trace of
    another network with the same shapes passes this check."""
    shapes = network.activation_shapes
    if len(trace.activations) != len(shapes):
        raise ValueError(f"trace has {len(trace.activations)} positions, the network "
                         f"{len(shapes)} (its input and one output per layer)")
    for i, (a, shape) in enumerate(zip(trace.activations, shapes)):
        if np.shape(a) != shape:
            raise ValueError(f"trace position {i} has shape {np.shape(a)}, the network's "
                             f"activation there has shape {shape}; a trace must be "
                             f"forward(network, x) of the same network")
    return _take(trace, None)


# Bytes a chunk of rows of pixel_flip or batched explain may spend on one row's
# widest tensor (sample_bytes), and a chunk of column_responses on each array, so
# memory per chunk stays flat. 1 MiB was at or near the fastest flip of the README
# conv net and a 784-300-100-10 dense net.
_CHUNK_BYTES = 1 << 20


def sample_bytes(network, start=0, entries=0):
    """Bytes of the widest tensor one sample makes in a forward pass from
    position `start`: an activation, a windowed layer's window columns, or the
    sparse_response of layer start - 1 to `entries` > 0 entries (their rows of
    Dense W, or F*kh*kw Conv2D weights each)."""
    shapes = network.activation_shapes[start:]
    widest = max(int(np.prod(shape)) for shape in shapes)
    for layer, shape in zip(network.layers[start:], shapes):
        if layer.kind in WINDOWED_KINDS:
            window = layer.weights.shape[2:] if layer.kind == "Conv2D" else layer.window
            g = _window_geometry(shape, window, layer.stride, layer.padding)
            widest = max(widest, g.channels * g.kh * g.kw * g.out_h * g.out_w)
    if entries:
        layer = network.layers[start - 1]
        w = layer.weights[0] if layer.kind == "Dense" else layer.weights[:, 0]
        widest = max(widest, entries * w.size)
    return 8 * widest


def forward_batch(network, x):
    """Run the network on an (N,) + input_shape batch; every tensor of the
    returned trace has the leading batch axis."""
    x = as_tensor(x, "input batch")
    if x.ndim == 0 or x.shape[1:] != network.input_shape or len(x) == 0:
        raise ValueError(f"input batch of shape {x.shape} is not one or more rows of the "
                         f"network input {network.input_shape}")
    return _forward_rows(network, x)


def _as_input(network, x, name="input"):
    """One input (`name` in messages) as a float64 tensor of the network input shape."""
    x = as_tensor(x, name)
    if x.shape != network.input_shape:
        raise ValueError(f"{name} shape {x.shape} does not match network input "
                         f"{network.input_shape}")
    return x


def forward(network, x):
    """Run the network on one input, recording every intermediate activation.
    This is the N=1 batch, returned without the batch axis."""
    return _take(_forward_rows(network, _as_input(network, x)[None]), 0)


def _reverse_sweep(network, inputs, aux, seed, step=None, stop=0):
    """The one backward layer loop, over the (N, ...) layer `inputs` (or a trace's
    activations) and winner maps `aux` of a batched forward. Returns the value at
    every position 0..L (position i is layer i's input, position L the logits,
    where it is `seed`), None below `stop`; position idx gets step(idx, value at
    idx + 1), by default the gradient of `seed . logits` at layer idx's input."""
    if step is None:
        step = lambda idx, g: _layer_backward(network.layers[idx], inputs[idx], aux[idx], g)
    values = [None] * len(network.layers) + [seed]
    for idx in reversed(range(stop, len(network.layers))):
        values[idx] = step(idx, values[idx + 1])
    return values


def seeded_gradient(network, trace, output_seed):
    """Gradient of `output_seed . logits` with respect to the network input, at the
    `trace` of forward(network, x). A trace of another network is a ValueError when
    its positions or shapes differ, and cannot be told apart when they agree."""
    g = as_tensor(output_seed, "output seed")
    if g.shape != (network.class_count,):
        raise ValueError(f"output seed must have shape ({network.class_count},)")
    batch = _batch_of_one(network, trace)
    return _reverse_sweep(network, batch.activations, batch.aux, g[None])[0][0]


def _value_and_gradient(network, x, class_index, explained_output="logit"):
    """(x, f_c, df_c/dx) of one input: the checked input, the explained value
    of class c and its gradient at the input, from one N=1 batch."""
    x = _as_input(network, x)
    trace = _forward_rows(network, x[None])
    value, seed = class_output(trace.logits, class_index, explained_output)
    return x, float(value[0]), _reverse_sweep(network, trace.activations, trace.aux, seed)[0][0]


def gradient(network, x, class_index=0):
    """Gradient of the selected logit with respect to the input."""
    return _value_and_gradient(network, x, class_index)[2]


def log_softmax(logits):
    """Numerically stable log-probabilities of a 1-D logit vector, or of each
    row of an (N, classes) array."""
    v = as_tensor(logits, "logits")
    if v.ndim not in (1, 2):
        raise ValueError("log_softmax expects a 1-D logit vector or an (N, classes) array")
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits):
    return np.exp(log_softmax(logits))


def check_explained_output(name):
    if name not in EXPLAINED_OUTPUTS:
        raise ValueError(f"explained_output must be one of {EXPLAINED_OUTPUTS}, got {name!r}")


def class_output(logits, class_index, explained_output="logit"):
    """(f_c, df_c/dlogits) of class c: the logit (one-hot gradient) or log p(c | x)
    (one-hot minus softmax). Rejects an unknown output name and c outside
    [0, classes). On (N, classes) logits, `class_index` is one class for every
    row or one per row, and the result is (N,) values and (N, classes) seeds."""
    check_explained_output(explained_output)
    logits = np.asarray(logits)
    if logits.ndim == 1:  # row 0 of the batch case
        value, seed = class_output(logits[None], class_index, explained_output)
        return float(value[0]), seed[0]
    classes = logits.shape[-1]
    if isinstance(class_index, (int, np.integer)) and not isinstance(class_index, bool):
        pick, in_range = (slice(None), class_index), 0 <= class_index < classes
    else:  # one class per row
        if np.asarray(class_index).dtype.kind not in "iu":
            raise ValueError(f"class_index must be an integer or one integer per row, "
                             f"got {class_index!r}")
        pick = (np.arange(len(logits)), class_index)
        in_range = all(0 <= c < classes for c in np.ravel(class_index).tolist())
    if not in_range:
        raise ValueError(f"class_index {class_index} out of range [0, {classes})")
    seed = np.zeros(logits.shape)
    seed[pick] = 1.0
    if explained_output == "log_probability":
        logits = log_softmax(logits)
        seed -= np.exp(logits)
    return logits[pick].copy(), seed


def require_finite(name, value):
    """Raise a ValueError naming `name` unless every entry of `value` is finite."""
    value = np.asarray(value, dtype=np.float64)
    bad = value[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")


def finite_number(value):
    """True for a finite int or float (NumPy scalars too), False for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return bool(np.isfinite(value))


def _require_real(name, value):
    """`value`, unless it is not a real number (a bool is not one): then a ValueError
    naming the field. NaN and Inf pass, for the caller's own range and finite checks."""
    if not (finite_number(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def require_int(name, value, minimum=None):
    """`value` as an int; reject a `value` that is not an integer (bool and
    float are not) or is below `minimum`, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    nonpositive_bias: bool = False

    def __post_init__(self):
        if not finite_number(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not isinstance(self.nonpositive_bias, (bool, np.bool_)):
            raise ValueError(f"nonpositive_bias must be a bool, got {self.nonpositive_bias!r}")
        require_int("epochs", self.epochs, 0)
        require_int("batch_size", self.batch_size, 1)
        require_int("seed", self.seed, 0)


def _weight_and_bias_grad(layer, x, g):
    """Gradients of `sum_n g_n . output_n` with respect to the weights and the bias of a
    weighted layer, over an (N, ...) batch `x`: its inputs, or for Conv2D their window columns."""
    gb = g.reshape(len(x), len(layer.bias), -1).sum(axis=(0, 2))
    if layer.kind == "Dense":
        return x.T @ g, gb
    cols = x.reshape(len(x), -1, x.shape[-1])
    # one product per sample, summed over the batch in order
    gw = (g.reshape(len(x), len(layer.weights), -1) @ cols.transpose(0, 2, 1)).sum(axis=0)
    return gw.reshape(layer.weights.shape), gb


def _param_grads(network, trace, seed, weighted):
    """{idx: (weight gradient, bias gradient)} of `sum_n seed_n . logits_n` for
    the layers in `weighted`, from one reverse sweep over the batched `trace`
    that stops above the first of them."""
    acts, aux = trace.activations, trace.aux
    grads = _reverse_sweep(network, acts, aux, seed, stop=min(weighted, default=0) + 1)
    return {idx: _weight_and_bias_grad(network.layers[idx], acts[idx] if aux[idx] is None
                                       else aux[idx], grads[idx + 1]) for idx in weighted}


def train_sgd(network, inputs, labels, config, verbose=False):
    """Minibatch SGD on cross-entropy over log-softmax; returns a new Network.

    Deterministic for a fixed config seed. With `nonpositive_bias` set, biases
    are projected to <= 0 after every update.
    """
    data = as_tensor(inputs, "inputs")
    targets = np.asarray(labels)
    if data.ndim == 0 or len(data) == 0:
        raise ValueError(f"inputs must be a non-empty array of samples, got shape {data.shape}")
    if data.shape[1:] != network.input_shape:
        raise ValueError(f"dataset samples have shape {data.shape[1:]}, "
                         f"network expects {network.input_shape}")
    if targets.shape != (data.shape[0],) or targets.dtype.kind not in "iu":
        raise ValueError("labels must be one integer per sample")
    if targets.min() < 0 or targets.max() >= network.class_count:
        raise ValueError(f"labels must lie in [0, {network.class_count})")

    # one working network, updated in place: its layers' own weight copies, made writable
    net = Network(tuple(map(replace, network.layers)), network.input_shape, network.class_count)
    params = {idx: (layer.weights, layer.bias) for idx, layer in enumerate(net.layers)
              if layer.kind in WEIGHTED_KINDS}
    for array in (a for pair in params.values() for a in pair):
        array.setflags(write=True)
    rng = np.random.default_rng(config.seed)
    n = data.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for step, start in enumerate(range(0, n, config.batch_size), 1):
            batch = order[start:start + config.batch_size]
            trace = _forward_rows(net, data[batch])
            if not np.isfinite(trace.logits).all():
                bad = (f"layer {idx} {net.layers[idx].kind} {name}" for idx, pair in params.items()
                       for name, a in zip(("weights", "bias"), pair) if not np.isfinite(a).all())
                raise ValueError(f"training diverged in epoch {epoch + 1}, minibatch {step} at "
                                 f"learning_rate {config.learning_rate!r}: "
                                 f"{next(bad, 'logits')} contains non-finite values")
            logp, seed = class_output(trace.logits, targets[batch], "log_probability")
            losses.extend(-logp)
            grads = _param_grads(net, trace, -seed, params)
            scale = config.learning_rate / len(batch)
            for idx, (gw, gb) in grads.items():
                w, b = params[idx]
                gw *= scale  # in place: one weight-sized temporary fewer
                w -= gw
                b -= scale * gb
                if config.nonpositive_bias:
                    np.minimum(b, 0.0, out=b)
        if verbose:
            print(f"epoch {epoch + 1}/{config.epochs}: mean loss {np.mean(losses):.6f}")
    # the trained layers, validated, with read-only copies of their weights
    return Network(tuple(map(replace, net.layers)), network.input_shape, network.class_count)


def random_network(input_shape, plan, seed):
    """Build a He-initialized network from a compact layer plan.

    Plan items: ("dense", out), ("conv", out_ch, kh, kw, stride, padding),
    ("relu",), ("flatten",), ("maxpool"|"sumpool"|"avgpool", ph, pw, stride, padding).
    The final layer must produce a 1-D vector, which becomes the logits.
    """
    rng = np.random.default_rng(seed)
    shape = in_shape = tuple(require_int("input_shape extent", v) for v in input_shape)
    layers = []
    for position, item in enumerate(plan):
        if not isinstance(item, (tuple, list)) or not item:
            raise ValueError(f"plan item {position} must be a (head, *sizes) tuple, got {item!r}")
        head, *sizes = item
        if not isinstance(head, str) or head not in _PLAN_SIZES:
            raise ValueError(f"unknown plan item {head!r}")
        names = _PLAN_SIZES[head]
        if len(sizes) != len(names):
            raise ValueError(f"plan item {head!r} takes the sizes {names}, got {tuple(sizes)}")
        sizes = [require_int(f"{head} {name}", v) for name, v in zip(names, sizes)]
        if head == "dense":
            if len(shape) != 1:
                raise ValueError(f"dense layer needs a flat input, got {shape} "
                                 "(insert a flatten first)")
            w = rng.standard_normal((shape[0], sizes[0])) * np.sqrt(2.0 / shape[0])
            layers.append(dense(w))
        elif head == "conv":
            if len(shape) != 3:
                raise ValueError(f"conv layer needs a (c, h, w) input, got {shape}")
            out_ch, kh, kw, stride, padding = sizes
            fan_in = shape[0] * kh * kw
            w = rng.standard_normal((out_ch, shape[0], kh, kw)) * np.sqrt(2.0 / fan_in)
            layers.append(conv2d(w, stride=stride, padding=padding))
        elif head in ("relu", "flatten"):
            layers.append(relu() if head == "relu" else flatten())
        else:  # "maxpool" is a MaxPool, and so on
            layers.append(_pool(f"{head[:3].capitalize()}Pool", sizes[:2], *sizes[2:]))
        shape = layer_output_shape(layers[-1], shape)
    if len(shape) != 1:
        raise ValueError("plan must end with a 1-D logit vector")
    return Network(tuple(layers), in_shape, shape[0])
