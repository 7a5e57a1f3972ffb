"""Quantitative explanation-quality metrics.

pixel_flip measures selectivity: features (or square patches) are removed in
descending order of their heatmap relevance, the model output is re-recorded
after every removal, and the area under the resulting curve summarizes how
fast the output collapses (lower is more selective). continuity_estimate
probes how violently an explanation can change under small input
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import (as_tensor, class_output, forward, forward_batch, require_int,
                      sample_bytes, window_columns)

# Bytes one chunk of removal steps may spend on its widest tensor (an
# activation or a window-column tensor): a chunk holds this budget divided by
# one sample's widest tensor, so memory per chunk stays flat. 1 MiB (9 rows of
# the README conv net, 167 of a 784-300-100-10 dense net) was at or near the
# fastest patch-1 flip on both nets; larger budgets gained nothing.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class FlipConfig:
    """Removal granularity and fill value for pixel-flipping.

    patch=1 removes single features; patch=p removes p-by-p squares (which
    must tile the spatial extent exactly). Removed entries are set to `fill`.
    """

    patch: int = 1
    fill: float = 0.0
    max_steps: int | None = None

    def __post_init__(self):
        require_int("patch", self.patch, 1)
        if self.max_steps is not None:
            require_int("max_steps", self.max_steps, 0)
        number = isinstance(self.fill, (int, float, np.integer, np.floating))
        if isinstance(self.fill, bool) or not number or not np.isfinite(self.fill):
            raise ValueError(f"fill must be a finite number, got {self.fill!r}")


@dataclass(frozen=True)
class FlipCurve:
    """Recorded output values after 0..n removals, plus the removal order."""

    values: tuple[float, ...]
    order: tuple[int, ...]
    auc: float
    meta: dict


def auc(curve):
    """Step-averaged trapezoid area: a constant curve of value c scores c."""
    values = np.asarray(curve.values if isinstance(curve, FlipCurve) else curve,
                        dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need at least one recorded value")
    if values.size == 1:
        return float(values[0])
    area = values[1:-1].sum() + 0.5 * (values[0] + values[-1])
    return float(area / (values.size - 1))


def _region_entries(a, patch):
    """(regions, entries) array of the entries of `a` in each removal region:
    every entry alone (patch 1), or each p-by-p square of the last two axes,
    squares in row-major order and entries in the order of `a`."""
    if patch == 1:
        return a.reshape(-1, 1)
    if a.ndim < 2:
        raise ValueError("patch flipping needs at least a 2-D input")
    h, w = a.shape[-2:]
    if h % patch or w % patch:
        raise ValueError(f"{patch}x{patch} patches do not tile a {h}x{w} input")
    cols, _ = window_columns(a.reshape(-1, h, w), (patch, patch), patch, 0)
    return cols.transpose(2, 0, 1).reshape(cols.shape[-1], -1)


def pixel_flip(network, x, heatmap, config=FlipConfig()):
    """Greedy removal by descending relevance of the original heatmap.

    The order is fixed up front from the given heatmap (ties broken by lowest
    linear index) and never re-derived from the mutated input. The explained
    class and output mode are taken from the heatmap metadata. The inputs
    after 1..n removals run through the network as batches of a few rows.
    """
    x = as_tensor(x, "input")
    scores = np.asarray(heatmap.scores, dtype=np.float64)
    if scores.shape != x.shape:
        raise ValueError(f"heatmap shape {scores.shape} does not match input {x.shape}")
    if "class_index" not in heatmap.meta:
        raise ValueError("heatmap metadata lacks class_index")
    class_index = int(heatmap.meta["class_index"])
    mode = heatmap.meta.get("explained_output", "logit")
    values = [class_output(forward(network, x).logits, class_index, mode)[0]]

    pooled = _region_entries(scores, config.patch).sum(axis=1)
    order = np.argsort(-pooled, kind="stable")  # stable: ties keep ascending index
    steps = len(pooled) if config.max_steps is None else min(config.max_steps, len(pooled))
    # removed_at[i]: the step that removes entry i (steps + 1: never)
    step_of_region = np.full(len(pooled), steps + 1)
    step_of_region[order[:steps]] = np.arange(1, steps + 1)
    entries = _region_entries(np.arange(x.size).reshape(x.shape), config.patch)
    removed_at = np.empty(x.size, dtype=np.int64)
    removed_at[entries] = step_of_region[:, None]
    rows = max(1, _CHUNK_BYTES // sample_bytes(network))
    for first in range(1, steps + 1, rows):
        step = np.arange(first, min(first + rows, steps + 1))[:, None]
        batch = np.where(removed_at <= step, config.fill, x.ravel())
        logits = forward_batch(network, batch.reshape((-1,) + x.shape)).logits
        values.extend(class_output(logits, class_index, mode)[0])
    meta = {"auc_normalization": "step-averaged trapezoid over unit-spaced removals",
            "patch": config.patch,
            "fill": config.fill,
            "class_index": class_index,
            "explained_output": mode,
            "method_tag": heatmap.method_tag}
    return FlipCurve(tuple(float(v) for v in values),
                     tuple(int(i) for i in order[:steps]),
                     auc(values), meta)


def _heatmap_scores(result):
    return np.asarray(getattr(result, "scores", result), dtype=np.float64)


def continuity_estimate(explainer, network, probes, delta, trials, seed):
    """Sampled lower bound of the explanation's worst variation ratio.

    For each probe, `trials` random perturbations of L2 norm `delta` are
    drawn and the largest ||R(x) - R(x')||_1 / ||x - x'||_2 is returned.
    Deterministic for a fixed seed; trials are drawn in an outer loop so a
    longer run extends (never reshuffles) the sample stream.
    """
    if not np.isfinite(delta) or delta <= 0:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    probes = [as_tensor(p, "probe") for p in probes]
    base = [_heatmap_scores(explainer(network, p)) for p in probes]
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        for p, r0 in zip(probes, base):
            direction = rng.standard_normal(p.shape)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            perturbed = p + (delta / norm) * direction
            r1 = _heatmap_scores(explainer(network, perturbed))
            ratio = np.abs(r0 - r1).sum() / np.linalg.norm(p - perturbed)
            best = max(best, float(ratio))
    return best
