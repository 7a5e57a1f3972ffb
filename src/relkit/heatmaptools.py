"""Heatmap post-processing: region pooling, translation averaging, sliding
window explanation of oversized images, pattern masking, and PPM rendering.
Scores are read through explain._heatmap_scores: a non-finite score, or a map that is not
the image's shape, is a ValueError, never a NaN sum, average, image or misshapen map."""

from __future__ import annotations

import warnings

import numpy as np

from .explain import Heatmap, _explanation_meta, _heatmap_scores, _lrp_rows
from .netcore import as_tensor, finite_number, require_int


def pool_relevance(heatmap, partition):
    """Sum heatmap scores per region id; region sums preserve the total.

    `partition` assigns a non-negative integer region id to every feature and
    must have the heatmap's shape. Returns an array indexed by region id.
    """
    ids = np.asarray(partition)
    scores = _heatmap_scores(heatmap)
    if ids.shape != scores.shape:
        raise ValueError(f"partition shape {ids.shape} does not cover the "
                         f"heatmap shape {scores.shape}")
    if not np.issubdtype(ids.dtype, np.integer) or ids.min() < 0:
        raise ValueError("region ids must be non-negative integers")
    return np.bincount(ids.ravel(), weights=scores.ravel())


def pixel_partition(shape):
    """One region per spatial position, pooling channels together."""
    if len(shape) < 2:
        raise ValueError("pixel partition needs at least a 2-D shape")
    h, w = shape[-2], shape[-1]
    plane = np.arange(h * w).reshape(h, w)
    return np.broadcast_to(plane, shape).copy()


def quadrant_partition(shape):
    """Four regions: top-left 0, top-right 1, bottom-left 2, bottom-right 3."""
    if len(shape) < 2:
        raise ValueError("quadrant partition needs at least a 2-D shape")
    h, w = shape[-2], shape[-1]
    rows = (np.arange(h) >= (h + 1) // 2).astype(int)
    cols = (np.arange(w) >= (w + 1) // 2).astype(int)
    plane = rows[:, None] * 2 + cols[None, :]
    return np.broadcast_to(plane, shape).copy()


def shift_image(image, shift):
    """Shift the last two axes by integer (dy, dx), filling with zeros."""
    dy, dx = (require_int("shift component", v) for v in shift)
    out = np.zeros_like(image)
    h, w = image.shape[-2], image.shape[-1]
    src_r = slice(max(0, -dy), min(h, h - dy))
    src_c = slice(max(0, -dx), min(w, w - dx))
    dst_r = slice(max(0, dy), min(h, h + dy))
    dst_c = slice(max(0, dx), min(w, w + dx))
    out[..., dst_r, dst_c] = image[..., src_r, src_c]
    return out


def translation_average(explainer, network, image, shifts):
    """Average inverse-shifted explanations of shifted copies of the image.

    Content moved outside the frame is zero-filled and contributes nothing on
    the way back, so shifts should be small relative to the image content.
    """
    image = as_tensor(image, "image")
    shifts = [tuple(require_int("shift component", v) for v in s) for s in shifts]
    if not shifts:
        raise ValueError("shift set is empty")
    if (0, 0) not in shifts:
        raise ValueError("shift set lacks the identity shift")
    maps = [explainer(network, shift_image(image, s)) for s in shifts]
    for hm in maps:
        if not isinstance(hm, Heatmap):
            raise ValueError(f"translation_average needs an explainer that returns a Heatmap, "
                             f"got {type(hm).__name__}")
    restored = [shift_image(_heatmap_scores(hm, image.shape, "image"), (-dy, -dx))
                for hm, (dy, dx) in zip(maps, shifts)]
    meta = dict(maps[0].meta)
    meta["shifts"] = shifts
    return Heatmap.from_scores(sum(restored[1:], restored[0]) / len(shifts),
                               sum(hm.explained_value for hm in maps) / len(shifts),
                               f"translation_average:{maps[0].method_tag}", meta)


def sliding_window_explain(network, big_image, stride, rule_config, class_index):
    """Explain an oversized image by accumulating per-window relevance.

    The network's input shape is slid over the image at the given stride;
    every window is explained independently and the heatmaps are added, so
    the result decomposes the sum of the per-window outputs. Metadata carries
    the per-pixel coverage counts for an optional normalized display. Windows
    run as row-stable batches, each bitwise its own lrp_heatmap, and add back
    one slice per window in window order.
    """
    big = as_tensor(big_image, "image")
    window = network.input_shape
    if big.ndim != len(window):
        raise ValueError(f"image rank {big.ndim} does not match network input "
                         f"rank {len(window)}")
    if big.ndim not in (2, 3):
        raise ValueError("sliding window expects a 2-D or (channels, h, w) image")
    if big.ndim == 3 and big.shape[0] != window[0]:
        raise ValueError(f"image has {big.shape[0]} channels, network expects {window[0]}")
    (wh, ww), (h, w) = window[-2:], big.shape[-2:]
    require_int("stride", stride, 1)
    if h < wh or w < ww:
        raise ValueError(f"image {big.shape} is smaller than the network window {window}")

    regions = [(..., slice(top, top + wh), slice(left, left + ww))
               for top in range(0, h - wh + 1, stride) for left in range(0, w - ww + 1, stride)]
    acc = np.zeros_like(big)
    coverage = np.zeros(big.shape, dtype=np.int64)
    total_value = 0.0
    windows = _lrp_rows(network, [big[region] for region in regions], class_index, rule_config)
    for region, (window_scores, value) in zip(regions, windows):
        acc[region] += window_scores
        coverage[region] += 1
        total_value += value
    meta = dict(_explanation_meta(class_index, rule_config), stride=stride,
                windows=len(regions), coverage=coverage)
    return Heatmap.from_scores(acc, total_value, f"sliding_window:{rule_config.name}", meta)


def pattern(image, heatmap, normalization="clip", percentile=99.0):
    """Mask the image by its normalized heatmap: P = x * R_normalized.

    Negative scores are clipped to zero first. "clip" caps scores at the given
    percentile before rescaling to [0, 1]; "rescale" divides by the maximum
    directly. The result stays inside the image's value range.
    """
    image = as_tensor(image, "image")
    scores = _heatmap_scores(heatmap, image.shape, "image")
    if normalization not in ("rescale", "clip"):
        raise ValueError('normalization must be "rescale" or "clip"')
    if not (finite_number(percentile) and 0 <= percentile <= 100):
        raise ValueError(f"percentile must be a number in [0, 100], got {percentile!r}")
    mask = np.maximum(scores, 0.0)
    if normalization == "clip":
        mask = np.minimum(mask, np.percentile(mask, percentile))
    top = mask.max()
    if top == 0.0:
        warnings.warn("all-zero heatmap: pattern is a zero image")
        return np.zeros_like(image)
    return image * (mask / top)


def render_heatmap(heatmap, colormap="diverging"):
    """Render a 2-D (or channel-pooled) heatmap as binary PPM (P6) bytes.

    The diverging map is symmetric around zero (positive red, negative blue,
    zero white), so negating the heatmap swaps the red and blue channels
    exactly. The sequential map runs black to red over [min, max].
    """
    scores = _heatmap_scores(heatmap)
    if scores.ndim == 3:
        scores = scores.sum(axis=0)
    if scores.ndim != 2:
        raise ValueError("rendering needs a 2-D or (channels, h, w) heatmap")
    h, w = scores.shape
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    if colormap == "diverging":
        limit = np.abs(scores).max()
        t = scores / limit if limit > 0 else np.zeros_like(scores)
        fade_pos = np.rint(255.0 * (1.0 - np.maximum(t, 0.0))).astype(np.uint8)
        fade_neg = np.rint(255.0 * (1.0 + np.minimum(t, 0.0))).astype(np.uint8)
        rgb[..., 0] = np.where(t >= 0, 255, fade_neg)
        rgb[..., 1] = np.where(t >= 0, fade_pos, fade_neg)
        rgb[..., 2] = np.where(t >= 0, fade_pos, 255)
    elif colormap == "sequential":
        lo, hi = scores.min(), scores.max()
        t = (scores - lo) / (hi - lo) if hi > lo else np.zeros_like(scores)
        rgb[..., 0] = np.rint(255.0 * t).astype(np.uint8)
        rgb[..., 1] = 0
        rgb[..., 2] = 0
    else:
        raise ValueError(f"unknown colormap {colormap!r}")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + rgb.tobytes()
