"""Explanation of individual predictions by relevance decomposition.

Backward relevance propagation with per-layer rules (alpha/beta excitatory
split, epsilon-stabilized, squared-weight and bounded-input first-layer
rules, pooling policies), plus the gradient-based sensitivity and simple
Taylor explainers. All explainers emit input-shaped Heatmaps. The paper's rule
stacks are named once, in LRP_RULES, ALPHA_BETA and INPUT_DOMAINS, and built by
rule_config, which deep_taylor_config, alphabeta_config and epsilon_config enter.

Each weighted-layer rule is written once, against the layer's bias-free
linear operator pair (apply, apply_T) from netcore.linear_pair, as the
four-step scheme z <- apply(rho(w), a); s <- R / z; c <- apply_T(rho(w), s);
R <- a * c, where rho is the rule's weight transform (W+, W-, W^2 or W
itself). Dense and Conv2D layers differ only in their operator pair.
The rules, the pool rule and the backward sweep work on (N, ...) batches over
netcore's batch kernels; `lrp`, `filter_relevance` and the single-layer
entries (`lrp_pool`, `lrp_dense_*`, `lrp_input_*`) run one sample as the N=1
batch. Denominators smaller in magnitude than the stabilizer absorb their
unit's relevance instead of being inflated; when the inhibitory branch of the
alpha/beta rule is empty the unit falls back to purely excitatory
redistribution so that layer conservation survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netcore import (DENSE_PAIR, POOL_KINDS, WEIGHTED_KINDS, add_bias, as_tensor,
                      broadcasts_to, check_explained_output, class_output, forward,
                      linear_pair, window_columns, window_scatter, _layer_backward,
                      _take, _value_and_gradient)


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Input-shaped relevance scores plus what they decompose."""

    scores: np.ndarray
    total: float
    explained_value: float
    method_tag: str
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_scores(cls, scores, explained_value, method_tag, meta=None):
        scores = np.asarray(scores, dtype=np.float64)
        return cls(scores, float(np.sum(scores)), float(explained_value),
                   method_tag, dict(meta or {}))


def _require_finite(name, value):
    """Raise a ValueError naming `name` unless every entry of `value` is finite."""
    value = np.asarray(value, dtype=np.float64)
    bad = value[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")


@dataclass(frozen=True)
class AlphaBeta:
    """Split redistribution into excitatory/inhibitory parts; alpha - beta = 1."""

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if abs(self.alpha - self.beta - 1.0) > 1e-12:
            raise ValueError("AlphaBeta requires alpha - beta = 1")
        if self.beta < 0:
            raise ValueError("AlphaBeta requires beta >= 0")
        _require_finite("AlphaBeta alpha", self.alpha)
        _require_finite("AlphaBeta beta", self.beta)


@dataclass(frozen=True)
class Epsilon:
    """Sign-stabilized proportional redistribution; includes the bias in z."""

    epsilon: float = 1e-9

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("Epsilon requires a positive epsilon")
        _require_finite("Epsilon epsilon", self.epsilon)


@dataclass(frozen=True)
class WSquare:
    """First-layer rule for unbounded real inputs: shares by squared weight."""


@dataclass(frozen=True, eq=False)
class ZBounds:
    """First-layer rule for box-bounded inputs with low <= 0 <= high."""

    low: np.ndarray | float
    high: np.ndarray | float

    def __post_init__(self):
        low = np.array(self.low, dtype=np.float64)
        high = np.array(self.high, dtype=np.float64)
        if np.any(low > 0) or np.any(high < 0):
            raise ValueError("ZBounds requires low <= 0 <= high elementwise")
        _require_finite("ZBounds low", low)
        _require_finite("ZBounds high", high)
        low.setflags(write=False)
        high.setflags(write=False)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)


@dataclass(frozen=True)
class PoolProportional:
    """Redistribute pool relevance proportionally to the pooled activations."""


@dataclass(frozen=True)
class PoolWinnerTakeAll:
    """Give all pool relevance to the recorded maximum (MaxPool only)."""


@dataclass(frozen=True)
class PassThrough:
    """Shape-only layers (ReLU, Flatten) hand relevance through unchanged."""


_HIDDEN_RULES = (AlphaBeta, Epsilon)
_INPUT_ONLY_RULES = (WSquare, ZBounds)
_POOL_RULES = (PoolProportional, PoolWinnerTakeAll)


@dataclass(frozen=True, eq=False)
class RuleConfig:
    """Per-layer rule assignment for one relevance propagation run."""

    layer_rules: tuple
    stabilizer: float = 1e-9
    explained_output: str = "logit"
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "layer_rules", tuple(self.layer_rules))
        if self.stabilizer <= 0:
            raise ValueError("stabilizer must be positive")
        _require_finite("RuleConfig stabilizer", self.stabilizer)
        check_explained_output(self.explained_output)


@dataclass(frozen=True, eq=False)
class RelevanceTrace:
    """Per-layer relevance tensors from the output back to the input.

    relevances[i] is aligned with the input of layer i; the final entry is the
    one-hot initialization at the logits.
    """

    relevances: tuple
    explained_value: float
    class_index: int
    method_tag: str
    meta: dict

    def heatmap(self):
        scores = self.relevances[0]
        meta = dict(self.meta)
        hm = Heatmap.from_scores(scores, self.explained_value, self.method_tag, meta)
        hm.meta["conservation_gap"] = self.explained_value - hm.total
        return hm


def safe_divide(numerator, denominator, stabilizer):
    """Divide elementwise, zeroing entries whose |denominator| < stabilizer."""
    ok = np.abs(denominator) >= stabilizer
    return np.where(ok, numerator / np.where(ok, denominator, 1.0), 0.0)


def _redistribute(pair, a, w, bias, r_upper, rule, stabilizer):
    """Four-step pass z = apply(rho(w), a); s = R / z; c = apply_T(rho(w), s);
    R = a * c of one weighted-layer rule over the layer's operator pair, for
    an (N, ...) batch of layer inputs `a` and upper relevances `r_upper`."""
    apply, apply_T = pair
    if isinstance(rule, Epsilon):
        z = add_bias(apply(w, a), bias)
        # sign(0) is taken as +1 so a zero denominator stays finite
        denom = np.where(z >= 0, z + rule.epsilon, z - rule.epsilon)
        return a * apply_T(w, r_upper / denom)
    if isinstance(rule, WSquare):
        w2 = w ** 2
        z = apply(w2, np.ones_like(a))
        ok = z > 0.0  # all-zero weight columns drop their unit's relevance
        return apply_T(w2, np.where(ok, r_upper / np.where(ok, z, 1.0), 0.0))
    w_pos = np.maximum(w, 0.0)
    if isinstance(rule, ZBounds):
        w_neg = np.minimum(w, 0.0)
        low = np.broadcast_to(rule.low, a.shape)
        high = np.broadcast_to(rule.high, a.shape)
        z = apply(w, a) - apply(w_pos, low) - apply(w_neg, high)
        s = safe_divide(r_upper, z, stabilizer)
        return a * apply_T(w, s) - low * apply_T(w_pos, s) - high * apply_T(w_neg, s)
    # AlphaBeta: the positive part, mirrored over the negative part. Units
    # whose positive denominator vanishes absorb their relevance; units with
    # an empty negative branch redistribute with alpha_eff = 1 so the layer
    # total is conserved.
    z_pos = apply(w_pos, a)
    if rule.beta == 0.0:
        return a * apply_T(w_pos, safe_divide(r_upper, z_pos, stabilizer))
    w_neg = np.minimum(w, 0.0)
    z_neg = apply(w_neg, a)
    alpha_eff = np.where(np.abs(z_neg) >= stabilizer, rule.alpha, 1.0)
    s_pos = safe_divide(alpha_eff * r_upper, z_pos, stabilizer)
    s_neg = np.where(np.abs(z_pos) >= stabilizer,
                     safe_divide(rule.beta * r_upper, z_neg, stabilizer), 0.0)
    return a * apply_T(w_pos, s_pos) - a * apply_T(w_neg, s_neg)


def _dense_rule(a, weights, bias, r_upper, rule, stabilizer=1e-9):
    return _redistribute(DENSE_PAIR, np.asarray(a, dtype=np.float64)[None],
                         np.asarray(weights, dtype=np.float64), bias,
                         np.asarray(r_upper, dtype=np.float64)[None], rule, stabilizer)[0]


def lrp_dense_alphabeta(a, weights, r_upper, alpha, beta, stabilizer=1e-9):
    """Alpha/beta redistribution through one dense layer (bias excluded)."""
    return _dense_rule(a, weights, None, r_upper, AlphaBeta(alpha, beta), stabilizer)


def lrp_dense_epsilon(a, weights, bias, r_upper, epsilon):
    """Epsilon-stabilized redistribution; z includes the bias term."""
    return _dense_rule(a, weights, np.asarray(bias, dtype=np.float64), r_upper,
                       Epsilon(epsilon))


def lrp_input_wsquare(weights, r_upper):
    """Input-independent first-layer shares proportional to squared weights."""
    return _dense_rule(np.ones(np.shape(weights)[0]), weights, None, r_upper, WSquare())


def lrp_input_zb(x, weights, r_upper, low, high, stabilizer=1e-9):
    """First-layer rule for inputs confined to [low, high] boxes."""
    return _dense_rule(x, weights, None, r_upper, ZBounds(low, high), stabilizer)


def _pool_rule(layer, x, winner, r_upper, policy, stabilizer):
    """Pool relevance of an (N, C, H, W) batch back over the pool windows."""
    if isinstance(policy, PoolWinnerTakeAll):
        if layer.kind != "MaxPool" or winner is None:
            raise ValueError("winner-take-all needs a MaxPool winner map")
        # the max-pool gradient is exactly the scatter onto the recorded winners
        return _layer_backward(layer, x, winner, r_upper)
    if not isinstance(policy, PoolProportional):
        raise ValueError(f"unknown pool policy {policy!r}")
    cols, geom = window_columns(x, layer.window, layer.stride, layer.padding)
    s = safe_divide(r_upper.reshape(cols.shape[:2] + (-1,)), cols.sum(axis=-2), stabilizer)
    return window_scatter(cols * s[..., None, :], geom)


def lrp_pool(layer, x, winner, r_upper, policy, stabilizer=1e-9):
    """Redistribute pooled relevance back over the pool windows."""
    if layer.kind not in POOL_KINDS:
        raise ValueError(f"lrp_pool applies to pooling layers, not {layer.kind}")
    return _propagate_layer(layer, x, winner, np.asarray(r_upper, dtype=np.float64), policy,
                            stabilizer)


def _first_weighted_index(network):
    for idx, layer in enumerate(network.layers):
        if layer.kind in WEIGHTED_KINDS:
            return idx
    return None


def _check_rules(network, config):
    if len(config.layer_rules) != len(network.layers):
        raise ValueError(f"rule config assigns {len(config.layer_rules)} rules "
                         f"to a network with {len(network.layers)} layers")
    first_weighted = _first_weighted_index(network)
    for idx, (layer, rule) in enumerate(zip(network.layers, config.layer_rules)):
        if rule is None:
            raise ValueError(f"layer {idx} ({layer.kind}) has no rule assigned")
        ok: bool
        if layer.kind in WEIGHTED_KINDS:
            ok = isinstance(rule, _HIDDEN_RULES + _INPUT_ONLY_RULES)
            if isinstance(rule, _INPUT_ONLY_RULES) and idx != first_weighted:
                raise ValueError(f"layer {idx} ({layer.kind}): "
                                 f"{type(rule).__name__} applies only to the first "
                                 "weighted layer")
            for name in ("low", "high") if isinstance(rule, ZBounds) else ():
                shape, target = getattr(rule, name).shape, network.activation_shapes[idx]
                if not broadcasts_to(shape, target):
                    raise ValueError(f"layer {idx} ({layer.kind}): ZBounds {name} has shape "
                                     f"{shape}, which does not broadcast to the layer's "
                                     f"input shape {target}")
        elif layer.kind in POOL_KINDS:
            ok = isinstance(rule, _POOL_RULES)
            if isinstance(rule, PoolWinnerTakeAll) and layer.kind != "MaxPool":
                raise ValueError(f"layer {idx} ({layer.kind}): winner-take-all "
                                 "needs a MaxPool layer")
        else:
            ok = isinstance(rule, PassThrough)
        if not ok:
            raise ValueError(f"layer {idx} ({layer.kind}): rule "
                             f"{type(rule).__name__} does not apply to this layer kind")


def _propagate(layer, x, extra, r_upper, rule, stabilizer):
    """Relevance at the (N, ...) input `x` of one layer under its rule."""
    if layer.kind in WEIGHTED_KINDS:
        return _redistribute(linear_pair(layer, x.shape[1:]), x, layer.weights, layer.bias,
                             r_upper, rule, stabilizer)
    if layer.kind in POOL_KINDS:
        return _pool_rule(layer, x, extra, r_upper, rule, stabilizer)
    return r_upper.reshape(x.shape)  # ReLU and Flatten hand relevance through


def _propagate_layer(layer, x, extra, r_upper, rule, stabilizer):
    """_propagate of one sample: the N=1 batch."""
    extra = None if extra is None else extra[None]
    return _propagate(layer, x[None], extra, r_upper[None], rule, stabilizer)[0]


def _backward_sweep(network, inputs, aux, logits, class_index, config, mask_at=None,
                    mask=None):
    """Per-layer relevances of a batched forward (the layer `inputs`, MaxPool
    winner maps `aux` and `logits`, each (N, ...)) for one class of every row,
    the explained values, and the total the mask at layer `mask_at` keeps."""
    value, _ = class_output(logits, class_index, config.explained_output)
    r = np.zeros_like(logits)
    r[:, class_index] = value
    masked_total = None
    if mask_at == len(network.layers):
        r = r * mask
        masked_total = float(np.sum(r))
    rels = [r]
    for idx in reversed(range(len(network.layers))):
        r = _propagate(network.layers[idx], inputs[idx], aux[idx], r,
                       config.layer_rules[idx], config.stabilizer)
        if idx == mask_at:
            r = r * mask
            masked_total = float(np.sum(r))
        rels.append(r)
    rels.reverse()
    return rels, value, masked_total


def _single_sweep(network, trace, class_index, config, mask_at=None, mask=None):
    """_backward_sweep of a single-sample trace, run as the N=1 batch."""
    rels, value, masked_total = _backward_sweep(
        network, _take(trace.inputs, None), _take(trace.aux, None), trace.logits[None],
        class_index, config, mask_at, mask)
    return _take(rels, 0), float(value[0]), masked_total


def lrp(network, trace, class_index, config):
    """Propagate the selected output back to the input under `config` rules.

    The output layer starts with the explained value at `class_index` and zero
    elsewhere; every layer is then propagated by its assigned rule.
    """
    _check_rules(network, config)
    rels, value, _ = _single_sweep(network, trace, class_index, config)
    meta = {"class_index": class_index,
            "explained_output": config.explained_output,
            "rules": config.name,
            "stabilizer": config.stabilizer}
    return RelevanceTrace(rels, value, class_index, f"lrp:{config.name}", meta)


def lrp_heatmap(network, x, class_index, config):
    """Forward pass plus relevance propagation, packaged as a Heatmap."""
    trace = forward(network, x)
    return lrp(network, trace, class_index, config).heatmap()


def filter_relevance(network, trace, class_index, config, layer_index, mask):
    """Keep only relevance flowing through the masked part of one layer.

    The mask (entries in [0, 1]) multiplies the relevance tensor aligned with
    the input of `layer_index` before propagation continues; passing
    len(network.layers) masks the logits themselves.
    """
    _check_rules(network, config)
    if not 0 <= layer_index <= len(network.layers):
        raise ValueError(f"layer_index {layer_index} out of range")
    mask = as_tensor(mask, "mask")
    expected = (trace.logits.shape if layer_index == len(network.layers)
                else trace.inputs[layer_index].shape)
    if mask.shape != expected:
        raise ValueError(f"mask shape {mask.shape} does not match the layer's "
                         f"relevance shape {expected}")
    if mask.min() < 0 or mask.max() > 1:
        raise ValueError("mask entries must lie in [0, 1]")
    rels, value, masked_total = _single_sweep(network, trace, class_index, config,
                                              mask_at=layer_index, mask=mask)
    meta = {"class_index": class_index,
            "explained_output": config.explained_output,
            "rules": config.name,
            "filter_layer": layer_index,
            "masked_layer_total": masked_total}
    hm = Heatmap.from_scores(rels[0], value, f"lrp-filtered:{config.name}", meta)
    hm.meta["conservation_gap"] = masked_total - hm.total
    return hm


def sensitivity(network, x, class_index, explained_output="logit"):
    """Squared partial derivatives; decomposes the squared gradient norm."""
    _, _, g = _value_and_gradient(network, x, class_index, explained_output)
    scores = g * g
    meta = {"class_index": class_index, "explained_output": explained_output}
    return Heatmap.from_scores(scores, float(np.sum(scores)), "sensitivity", meta)


def simple_taylor(network, x, class_index, explained_output="logit"):
    """Gradient times input; exact for zero-bias ReLU networks.

    The unexplained part explained_value - total is reported under the
    "residual" metadata key (zero only in the homogeneous case).
    """
    trace, value, g = _value_and_gradient(network, x, class_index, explained_output)
    scores = g * trace.input
    hm = Heatmap.from_scores(scores, value, "simple_taylor",
                             {"class_index": class_index,
                              "explained_output": explained_output})
    hm.meta["residual"] = value - hm.total
    return hm


def _first_layer_bound(network, bound, name):
    # A scalar bound applies as is; one that broadcasts to the input shape is
    # carried through the shape-only layers to the first weighted layer.
    bound = np.asarray(bound, dtype=np.float64)
    idx = _first_weighted_index(network)
    if bound.ndim == 0 or idx is None:
        return bound
    target = network.activation_shapes[idx]
    if (np.prod(target) == np.prod(network.input_shape)
            and broadcasts_to(bound.shape, network.input_shape)):
        return np.broadcast_to(bound, network.input_shape).reshape(target)
    raise ValueError(f"pixel bound {name} has shape {bound.shape}, which does not carry "
                     f"to the first weighted layer's input {target}; expected a scalar "
                     f"or the input shape {network.input_shape}")


# Named LRP rule stacks (alpha/beta ones with their (alpha, beta)) and input domains
ALPHA_BETA = {"alpha1beta0": (1.0, 0.0), "alpha2beta1": (2.0, 1.0)}
DEEP_TAYLOR, EPSILON = "deeptaylor", "epsilon"
LRP_RULES = (DEEP_TAYLOR, *ALPHA_BETA, EPSILON)
INPUT_DOMAINS = ("relu", "pixel", "real")


def rule_config(network, rule, input_domain="relu", low=None, high=None, epsilon=1e-9,
                stabilizer=1e-9, explained_output="logit"):
    """The stack `rule` of LRP_RULES: an alpha/beta rule or epsilon on every weighted
    layer, or deeptaylor, the excitatory-only rule under the first-layer rule that
    _stack picks by input domain; only deeptaylor reads input_domain, low, high."""
    if rule in ALPHA_BETA:
        return alphabeta_config(network, *ALPHA_BETA[rule], stabilizer, explained_output)
    if rule == EPSILON:
        return _stack(network, Epsilon(epsilon), rule, stabilizer, explained_output)
    if rule != DEEP_TAYLOR:
        raise ValueError(f"unknown LRP rule {rule!r}")
    return _stack(network, AlphaBeta(), rule, stabilizer, explained_output, input_domain,
                  low, high)


def _stack(network, hidden_rule, name, stabilizer, explained_output, input_domain="relu",
           low=None, high=None):
    """RuleConfig `name`: `hidden_rule` on the weighted layers, proportional pools,
    pass-through shape-only layers; the first weighted layer keeps it for "relu"
    inputs, takes z^B for "pixel" inputs in [low, high] and w^2 for "real" ones."""
    input_rule = hidden_rule
    if input_domain == "pixel":
        if low is None or high is None:
            raise ValueError("pixel input domain requires low/high bounds")
        input_rule = ZBounds(_first_layer_bound(network, low, "low"),
                             _first_layer_bound(network, high, "high"))
    elif input_domain == "real":
        input_rule = WSquare()
    elif input_domain not in INPUT_DOMAINS:
        raise ValueError(f"unknown input domain {input_domain!r}")
    first = _first_weighted_index(network)
    rules = [(input_rule if idx == first else hidden_rule) if layer.kind in WEIGHTED_KINDS
             else PoolProportional() if layer.kind in POOL_KINDS else PassThrough()
             for idx, layer in enumerate(network.layers)]
    return RuleConfig(rules, stabilizer, explained_output, name)


def deep_taylor_config(network, input_domain="relu", low=None, high=None,
                       stabilizer=1e-9, explained_output="logit"):
    """rule_config's deeptaylor stack."""
    return rule_config(network, DEEP_TAYLOR, input_domain, low, high,
                       stabilizer=stabilizer, explained_output=explained_output)


def alphabeta_config(network, alpha, beta, stabilizer=1e-9, explained_output="logit"):
    """Uniform alpha/beta rule on every weighted layer, named as in ALPHA_BETA."""
    return _stack(network, AlphaBeta(alpha, beta), f"alpha{alpha:g}beta{beta:g}",
                  stabilizer, explained_output)


def epsilon_config(network, epsilon=1e-9, stabilizer=1e-9, explained_output="logit"):
    """rule_config's epsilon stack."""
    return rule_config(network, EPSILON, epsilon=epsilon, stabilizer=stabilizer,
                       explained_output=explained_output)
