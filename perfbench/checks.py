"""Output checks. An operation fails when any check on its outputs fails;
failures over operations attempted is the run's error ratio.

Each check returns a list of problems (empty when the output is right).
Tolerances, with what the code at the time of writing measured:

- EPSILON_TAYLOR_*: epsilon-LRP at epsilon=1e-9 equals gradient x input on
  these ReLU nets except where a unit's pre-activation z is within a few
  orders of epsilon of 0, whose share shrinks by epsilon / (z + epsilon).
  Such units are rare but do occur, so the check bounds the median pixel
  gap tightly and the L1 gap with a margin. Over 6000 conv images (seeds
  0-3), the median gap reached 6e-10 of max|taylor|, and the L1 gap reached
  4.2e-5 of ||taylor||_1 (above 1e-5 on 0.12% of images); the L1 bound of
  1e-3 is 24 times that largest gap. The largest single-pixel gap reached
  3.7e-4 of max|taylor|: too heavy-tailed to bound.
- DEEP_TAYLOR_RTOL: deep-Taylor scores are non-negative and sum to at most
  the explained value, up to rounding relative to that value.
- ACCURACY_FLOOR, CHUNK_ACCURACY_FLOOR: accuracy on 100 held-out images of
  the nets trained on all 600 set-up images (1.0 at the time of writing) and of
  those trained on one 96-image chunk of `fit` (0.91 to 1.0 over ten seeds
  and three chunks each).
"""

from __future__ import annotations

import numpy as np

from relkit import evalkit, netcore

EPSILON_TAYLOR_MEDIAN_RTOL = 1e-6
EPSILON_TAYLOR_L1_RTOL = 1e-3
DEEP_TAYLOR_RTOL = 1e-9
ACCURACY_FLOOR = 0.95
CHUNK_ACCURACY_FLOOR = 0.8


class Checker:
    """Counts operations attempted and failed, keeping the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def error_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def finite(name, values):
    arr = np.asarray(values, dtype=np.float64)
    return [] if np.all(np.isfinite(arr)) else [f"{name} is not finite"]


def heatmap(name, hm, shape):
    problems = finite(name, hm.scores)
    if np.shape(hm.scores) != tuple(shape):
        problems.append(f"{name} has shape {np.shape(hm.scores)}, expected {tuple(shape)}")
    return problems


def deep_taylor(name, hm):
    """Deep Taylor on non-positive-bias nets: R >= 0 and sum(R) <= f(x) for f(x) > 0."""
    problems = finite(name, hm.scores)
    value = hm.explained_value
    if problems or value <= 0:
        return problems
    slack = DEEP_TAYLOR_RTOL * value
    if hm.scores.min() < -slack:
        problems.append(f"{name} has a negative score {hm.scores.min():.3g}")
    if hm.total > value + slack:
        problems.append(f"{name} total {hm.total!r} exceeds explained value {value!r}")
    return problems


def epsilon_matches_taylor(eps_hm, taylor_hm):
    problems = finite("epsilon heatmap", eps_hm.scores) + finite("taylor heatmap",
                                                                 taylor_hm.scores)
    if problems:
        return problems
    gap = np.abs(eps_hm.scores - taylor_hm.scores)
    taylor = np.abs(taylor_hm.scores)
    if np.median(gap) > EPSILON_TAYLOR_MEDIAN_RTOL * taylor.max():
        problems.append(f"epsilon differs from gradient x input by a median "
                        f"{np.median(gap):.3g} per pixel (max |taylor| {taylor.max():.3g})")
    if gap.sum() > EPSILON_TAYLOR_L1_RTOL * taylor.sum():
        problems.append(f"epsilon differs from gradient x input by {gap.sum():.3g} in L1 "
                        f"(|taylor|_1 {taylor.sum():.3g})")
    return problems


def flip_curve(name, curve, steps, start_value):
    """Length steps + 1, first value = the unmodified output, AUC recomputes exactly."""
    problems = finite(name, curve.values)
    if len(curve.values) != steps + 1:
        problems.append(f"{name} has {len(curve.values)} values, expected {steps + 1}")
    elif curve.values[0] != start_value:
        problems.append(f"{name} starts at {curve.values[0]!r}, forward gave {start_value!r}")
    if not problems and curve.auc != evalkit.auc(curve.values):
        problems.append(f"{name} AUC {curve.auc!r} != auc(values)")
    return problems


def trained(name, network, images, labels, floor=ACCURACY_FLOOR):
    problems = []
    for idx, layer in enumerate(network.layers):
        if layer.weights is not None:
            problems += finite(f"{name} layer {idx} weights", layer.weights)
            problems += finite(f"{name} layer {idx} bias", layer.bias)
            if np.any(layer.bias > 0):
                problems.append(f"{name} layer {idx} has a positive bias")
    if problems:
        return problems
    hits = sum(int(np.argmax(netcore.forward(network, x).logits) == y)
               for x, y in zip(images, labels))
    accuracy = hits / len(labels)
    if accuracy < floor:
        problems.append(f"{name} accuracy {accuracy:.3f} below {floor}")
    return problems


def prototype(name, result, shape):
    problems = finite(f"{name} prototype", result.prototype)
    problems += finite(f"{name} trajectory", result.trajectory)
    if np.shape(result.prototype) != tuple(shape):
        problems.append(f"{name} prototype has shape {np.shape(result.prototype)}")
    if np.any(np.diff(result.trajectory) < 0):
        problems.append(f"{name} trajectory decreases")
    return problems
