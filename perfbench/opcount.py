"""Computed operation counts for one forward pass and one LRP pass.

Counts follow from the layer shapes alone; nothing here is measured. A
multiply-add is two operations. Bytes are the float64 weights and
activations each pass must touch at least once, ignoring caches and
temporaries, so they are a lower bound on memory traffic.
"""

from __future__ import annotations

import math

from relkit import explain

_FLOAT = 8


def _layer_terms(layer, in_shape, out_shape):
    """(multiply-adds of the weighted product, elementwise ops, weight count)."""
    n_in, n_out = math.prod(in_shape), math.prod(out_shape)
    if layer.kind == "Dense":
        return n_in * n_out, n_out, layer.weights.size + layer.bias.size
    if layer.kind == "Conv2D":
        # every output cell takes one weight row of in_channels x kh x kw
        macs = n_out * math.prod(layer.weights.shape[1:])
        return macs, n_out, layer.weights.size + layer.bias.size
    if layer.kind in ("SumPool", "AvgPool", "MaxPool"):
        return 0, math.prod(layer.window) * n_out, 0
    if layer.kind == "ReLU":
        return 0, n_in, 0
    return 0, 0, 0  # Flatten is a reshape


def forward_counts(network):
    """Computed operations and bytes of one forward pass."""
    flops = bytes_ = 0
    shapes = network.activation_shapes
    for layer, in_shape, out_shape in zip(network.layers, shapes, shapes[1:]):
        macs, elementwise, weights = _layer_terms(layer, in_shape, out_shape)
        flops += 2 * macs + elementwise
        bytes_ += _FLOAT * (weights + math.prod(in_shape) + math.prod(out_shape))
    return {"flops": flops, "bytes": bytes_}


def _weighted_passes(rule):
    # Weighted-product passes (forward plus backward) each rule runs per layer.
    if isinstance(rule, explain.AlphaBeta):
        return 2 if rule.beta == 0.0 else 4
    if isinstance(rule, explain.ZBounds):
        return 6  # x.W, low.W+, high.W- forward; W, W+, W- backward
    return 2  # Epsilon and WSquare: one forward, one backward product


def lrp_counts(network, config):
    """Computed operations and bytes of one relevance pass under `config`."""
    flops = bytes_ = 0
    shapes = network.activation_shapes
    for layer, rule, in_shape, out_shape in zip(network.layers, config.layer_rules,
                                                shapes, shapes[1:]):
        macs, elementwise, weights = _layer_terms(layer, in_shape, out_shape)
        activations = math.prod(in_shape) + math.prod(out_shape)
        if macs:
            passes = _weighted_passes(rule)
            flops += passes * 2 * macs + 3 * activations
            bytes_ += _FLOAT * (passes * weights + 2 * activations)
        else:
            flops += 3 * elementwise
            bytes_ += _FLOAT * 2 * activations
    return {"flops": flops, "bytes": bytes_}
