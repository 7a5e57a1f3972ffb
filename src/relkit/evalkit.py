"""Quantitative explanation-quality metrics.

pixel_flip measures selectivity: features (or p-by-p squares) are removed in
descending order of their heatmap relevance, the model output is re-recorded
after every removal, and the area under the resulting curve summarizes how
fast the output collapses (lower is more selective). The squares are one cached
map, netcore's `_region_entries`, read by the removal record, the slot map and the
unit path. No removal step runs a whole forward: the layers past the last ReLU or
MaxPool are affine, one product a @ M + offset, and each step's state is the last
step's plus a row of changes from one removal record: the output z_0 of a first
weighted layer that the input reaches unchanged or flattened plus sparse responses,
or, in a net that starts with a ReLU or a pool, the input plus fill - x at the
removed entries. The net picks the path:
- if that layer is a Conv2D and only a ReLU or nothing lies between it and the
  affine layers (the README conv net), the unit path runs each unit column over
  the removal regions its window overlaps, units x fan-in work in chunks of columns;
- otherwise the row path runs chunks of steps through the nonlinear middle,
  steps x the middle's forward.
A step whose removed entries already hold `fill` changes nothing: no path runs
it, and its value repeats the last one bitwise.
continuity_estimate probes how violently an explanation can change under small input
perturbations. Both read scores through explain._heatmap_scores, which checks their shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .explain import _explanation_meta, _heatmap_scores, _term
from .netcore import (WEIGHTED_KINDS, WINDOWED_KINDS, _CHUNK_BYTES, _forward_rows, _reverse_sweep,
                      _region_entries, as_tensor, class_output, column_responses, finite_number,
                      forward, require_finite, require_int, sample_bytes, sparse_response)


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
        if not finite_number(self.fill):
            raise ValueError(f"fill must be a finite number, got {self.fill!r}")


@dataclass(frozen=True)
class FlipCurve:
    """Recorded output values after 0..n removals, plus the removal order."""

    values: tuple[float, ...]
    order: tuple[int, ...]
    auc: float
    meta: dict


def auc(values):
    """Step-averaged trapezoid area of curve values: a constant c scores c."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need at least one recorded value")
    require_finite("curve values", values)
    if values.size == 1:
        return float(values[0])
    area = values[1:-1].sum() + 0.5 * (values[0] + values[-1])
    return float(area / (values.size - 1))


def pixel_flip(network, x, heatmap, config=FlipConfig()):
    """Greedy removal by descending relevance of the original heatmap.

    The order is fixed up front from the given heatmap (ties broken by lowest
    linear index) and never re-derived from the mutated input. The explained
    class and output mode are taken from the heatmap metadata. values[0] is
    bitwise the forward value, values[1:] within 1e-12 of max |f| of a forward
    per step. Every path reads one removal record, the entries each step removes and
    their change fill - x. The net's structure picks the path (see the module
    docstring): the unit path (netcore.column_responses) moves the logits by M's rows
    times the change of the activations of the units each step touches, and the row
    path adds each chunk of steps' rows to a running state, the first weighted layer's
    output or the input, and runs them through the nonlinear middle. M, the logits'
    Jacobian past the last ReLU or MaxPool, and offset, the logits of a zero activation
    there, are found once per net. Only the steps whose change has a nonzero entry run;
    a step whose removed entries already equal fill does no work and repeats the last
    value bitwise.
    """
    x = as_tensor(x, "input")
    scores = _heatmap_scores(heatmap, x.shape)
    if "class_index" not in heatmap.meta:
        raise ValueError("heatmap metadata lacks class_index")
    class_index = require_int("class_index", heatmap.meta["class_index"])
    mode = heatmap.meta.get("explained_output", "logit")
    trace = forward(network, x)
    values = [[class_output(trace.logits, class_index, mode)[0]]]

    entries = _region_entries(x.shape, config.patch)
    pooled = scores.ravel()[entries].sum(axis=1)
    order = np.argsort(-pooled, kind="stable")  # stable: ties keep ascending index
    steps = len(pooled) if config.max_steps is None else min(config.max_steps, len(pooled))
    removed = entries[order[:steps]]  # removed[i]: the entries step i + 1 removes
    change = config.fill - x.ravel()[removed]
    live = np.flatnonzero(change.any(axis=1))  # the steps that change the input
    removed, change = removed[live], change[live]
    layers = network.layers
    first = next((i for i, layer in enumerate(layers) if layer.kind != "Flatten"), len(layers))
    start = first + 1 if first < len(layers) and layers[first].kind in WEIGHTED_KINDS else 0
    z = trace.activations[start]
    tail = max([start] + [i + 1 for i, layer in enumerate(layers)
                          if layer.kind in ("ReLU", "MaxPool")])
    m, offset = _term((network,), ("affine tail", tail), lambda: _affine_tail(network, tail))
    if start and layers[first].kind in WINDOWED_KINDS and all(
            layer.kind == "ReLU" for layer in layers[start:tail]):
        values.append(_unit_curve(network, first, tail > start, trace, removed, change,
                                  config.patch, m, class_index, mode))
    else:
        rows = max(1, _CHUNK_BYTES // sample_bytes(network, start, start and removed.shape[1]))
        for lo in range(0, len(live), rows):
            hi = min(lo + rows, len(live))
            if start:
                batch = sparse_response(layers[first], network.activation_shapes[first],
                                        removed[lo:hi], change[lo:hi])
            else:  # each row holds its step's change at the entries it removes
                batch = np.zeros((hi - lo,) + x.shape)
                np.put_along_axis(batch.reshape(hi - lo, -1), removed[lo:hi], change[lo:hi], 1)
            z = _running_sum(batch, z)
            a = _forward_rows(network, batch, start, stop=tail).activations[tail]
            values.append(class_output(a.reshape(len(a), -1) @ m + offset, class_index, mode)[0])
    moved = np.zeros(steps + 1, dtype=np.intp)  # a step that removes nothing repeats the
    moved[live + 1] = 1                         # value of the last live step before it
    values = np.concatenate(values)[moved.cumsum()]
    meta = dict(_explanation_meta(class_index, mode), patch=config.patch, fill=config.fill,
                auc_normalization="step-averaged trapezoid over unit-spaced removals",
                method_tag=heatmap.method_tag)
    return FlipCurve(tuple(values.tolist()), tuple(order[:steps].tolist()),
                     auc(values), meta)


def _running_sum(rows, start):
    """Add `start` and every earlier row to each of `rows`, in place, and return the
    last. As a loop over rows this is 8x faster than np.cumsum on conv chunks, and the
    row and unit paths add each unit's changes in the same order, bitwise."""
    for row in rows:
        row += start
        start = row
    return start


def _unit_curve(network, first, rectify, trace, removed, change, patch, m, class_index, mode):
    """Values 1.. of the curve of a net whose first weighted layer, `first`, a Conv2D,
    is followed by a ReLU (`rectify`) or by nothing, then by the affine layers of `m`:
    the forward logits plus, over the steps so far, m's rows times the activation
    changes they make."""
    cols = [class_index] if mode == "logit" else slice(None)
    m, count = m[:, cols], len(removed)
    k, f = m.shape[1], network.activation_shapes[first + 1][0]  # the (F, columns) unit grid
    z0, m = trace.activations[first + 1].reshape(f, -1), m.reshape(f, -1, k)
    moves = np.zeros((count + 1, k))  # by step and class; step `count` touches nothing
    for part, steps, dz in column_responses(network.layers[first],
                                            network.activation_shapes[first],
                                            removed, change, patch, _CHUNK_BYTES):
        z = np.empty((len(dz) + 1,) + dz.shape[1:])  # C order: dz may be a transposed view
        z[0], z[1:] = z0[part], dz
        _running_sum(z[1:], z[0])
        a = np.maximum(z, 0.0, out=z) if rectify else z
        delta = (a[1:] - a[:-1]).transpose(2, 0, 1) @ m[part].transpose(1, 0, 2)  # (n, S, k)
        index = steps.T[..., None] * k + np.arange(k)
        moves += np.bincount(index.ravel(), delta.ravel(), minlength=moves.size).reshape(-1, k)
    logits = trace.logits[cols] + moves[:-1].cumsum(axis=0)
    return class_output(logits, 0 if mode == "logit" else class_index, mode)[0]


def _affine_tail(network, tail):
    """(m, offset) of the affine layers from `tail` on: logits = a @ m + offset, offset
    the logits of a zero activation, m their Jacobian, swept back from the identity
    over the zero trace broadcast to one row per class (affine adjoints read shapes)."""
    eye = np.eye(network.class_count)
    zero = _forward_rows(network, np.zeros((1,) + network.activation_shapes[tail]), tail)
    wide = [None if a is None else np.broadcast_to(a, eye.shape[:1] + a.shape[1:])
            for a in zero.activations]
    m = _reverse_sweep(network, wide, zero.aux, eye, stop=tail)[tail]
    return m.reshape(len(eye), -1).T, zero.logits


def continuity_estimate(explainer, network, probes, delta, trials, seed):
    """Sampled lower bound of the explanation's worst variation ratio.

    For each probe, `trials` random perturbations of L2 norm `delta` are
    drawn and the largest ||R(x) - R(x')||_1 / ||x - x'||_2 is returned.
    Deterministic for a fixed seed; trials are drawn in an outer loop so a
    longer run extends (never reshuffles) the sample stream.
    """
    if not finite_number(delta) or delta <= 0:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    probes = [as_tensor(p, "probe") for p in probes]
    if not probes:
        raise ValueError("probes must hold at least one probe")
    base = [_heatmap_scores(explainer(network, p), p.shape) for p in probes]
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        for p, r0 in zip(probes, base):
            direction = rng.standard_normal(p.shape)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            perturbed = p + (delta / norm) * direction
            r1 = _heatmap_scores(explainer(network, perturbed), p.shape)
            ratio = np.abs(r0 - r1).sum() / np.linalg.norm(p - perturbed)
            best = max(best, float(ratio))
    return best
