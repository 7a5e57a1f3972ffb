"""Explanation of individual predictions by relevance decomposition.

Backward relevance propagation with per-layer rules (alpha/beta excitatory split,
epsilon-stabilized, squared-weight and bounded-input first-layer rules, pooling policies),
plus the gradient-based sensitivity and simple Taylor explainers. All explainers emit
input-shaped Heatmaps, whose every reader checks the scores in _heatmap_scores: finite,
and of the shape the reader gives. The paper's rule stacks and gradient explainers are
named once, in LRP_RULES, ALPHA_BETA, INPUT_DOMAINS and GRADIENT_EXPLAINERS; rule_config
builds the stacks, and deep_taylor_config, alphabeta_config and epsilon_config enter it.

Each weighted-layer rule is written once, against the layer's bias-free
linear operator pair (apply, apply_T) from netcore.linear_pair, as the
four-step scheme z <- apply(rho(w), a); s <- R / z; c <- apply_T(rho(w), s);
R <- a * c, where rho is the rule's weight transform (W+, W-, W^2 or W
itself). Dense and Conv2D layers differ only in their operator pair.
Epsilon and z^B take z from the trace's layer output W a + b (z^B subtracts b, W+ l and
W- h), and z^B returns the root-point form (a - l) * apply_T(W+, s) + (a - h) *
apply_T(W-, s): one weight product per epsilon layer, two per z^B layer.
W+, W-, W^2, the W^2 denominator and the z^B box offsets are computed once per
layer on first use and live as long as the LayerSpec (and the ZBounds) does.
The rules, the pool rule and the backward sweep work on (N, ...) batches over
netcore's batch kernels; the backward sweep is netcore's one reverse layer
loop with each layer's rule, then the filter mask, as its step, so relevances
are indexed by position like the activations. The sweep is the one checked
pass: it checks the rule config and explains N rows, one class each, over the
row-stable operator pairs. `_lrp_trace` runs it as the N=1 batch for `lrp`,
`filter_relevance` and `lrp_heatmap`, and `_lrp_rows` in chunks of rows for
sliding windows, each row bitwise one window explained alone. Every explanation
carries `_explanation_meta`: `class_index`, `explained_output` and, for LRP,
`rules` and `stabilizer`. The single-layer entries (`lrp_pool`, `lrp_dense_*`,
`lrp_input_*`) run the sweep's layer step on one sample over one layer, a `dense`
one for the Dense entries, and reject non-finite arrays, naming the argument, and
arrays that do not fit the layer: the input, `r_upper`, a z^B box and a MaxPool
winner map, whose every entry must be a padded-plane position of its own window.
Denominators smaller in magnitude than the stabilizer absorb their
unit's relevance instead of being inflated; when the inhibitory branch of the
alpha/beta rule is empty the unit falls back to purely excitatory redistribution
so that layer conservation survives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .netcore import (POOL_KINDS, WEIGHTED_KINDS, _CHUNK_BYTES, add_bias, as_tensor, broadcasts_to,
                      check_explained_output, class_output, dense, layer_output_shape, linear_pair,
                      require_finite, require_int, sample_bytes, window_columns, window_scatter,
                      _as_input, _batch_of_one, _forward_rows, _layer_backward, _require_real,
                      _reverse_sweep, _value_and_gradient, _window_geometry, _window_index)


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


def _heatmap_scores(result, shape=None, noun="input"):
    """Scores (a Heatmap's or an array) as float64: finite, of `shape` (the `noun`'s) if given."""
    scores = np.asarray(getattr(result, "scores", result), dtype=np.float64)
    require_finite(f"{getattr(result, 'method_tag', 'explainer')} heatmap scores", scores)
    if shape is not None and scores.shape != shape:
        raise ValueError(f"heatmap shape {scores.shape} does not match {noun} {shape}")
    return scores


@dataclass(frozen=True)
class AlphaBeta:
    """Split redistribution into excitatory/inhibitory parts; alpha - beta = 1."""

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        _require_real("AlphaBeta alpha", self.alpha)
        _require_real("AlphaBeta beta", self.beta)
        if abs(self.alpha - self.beta - 1.0) > 1e-12:
            raise ValueError("AlphaBeta requires alpha - beta = 1")
        if self.beta < 0:
            raise ValueError("AlphaBeta requires beta >= 0")
        require_finite("AlphaBeta alpha", self.alpha)
        require_finite("AlphaBeta beta", self.beta)


@dataclass(frozen=True)
class Epsilon:
    """Sign-stabilized proportional redistribution; includes the bias in z."""

    epsilon: float = 1e-9

    def __post_init__(self):
        if _require_real("Epsilon epsilon", self.epsilon) <= 0:
            raise ValueError("Epsilon requires a positive epsilon")
        require_finite("Epsilon epsilon", self.epsilon)


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
        require_finite("ZBounds low", low)
        require_finite("ZBounds high", high)
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


_INPUT_ONLY_RULES = (WSquare, ZBounds)
# the rules each layer family accepts; shape-only layers take PassThrough
_FAMILY_RULES = {**dict.fromkeys(WEIGHTED_KINDS, (AlphaBeta, Epsilon) + _INPUT_ONLY_RULES),
                 **dict.fromkeys(POOL_KINDS, (PoolProportional, PoolWinnerTakeAll))}


@dataclass(frozen=True, eq=False)
class RuleConfig:
    """Per-layer rule assignment for one relevance propagation run."""

    layer_rules: tuple
    stabilizer: float = 1e-9
    explained_output: str = "logit"
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "layer_rules", tuple(self.layer_rules))
        if _require_real("RuleConfig stabilizer", self.stabilizer) <= 0:
            raise ValueError("stabilizer must be positive")
        require_finite("RuleConfig stabilizer", self.stabilizer)
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
        hm = Heatmap.from_scores(self.relevances[0], self.explained_value, self.method_tag,
                                 self.meta)
        hm.meta["conservation_gap"] = self.explained_value - hm.total
        return hm


def safe_divide(numerator, denominator, stabilizer):
    """Divide elementwise, zeroing entries whose |denominator| < stabilizer."""
    ok = np.abs(denominator) >= stabilizer
    return np.where(ok, numerator / np.where(ok, denominator, 1.0), 0.0)


_TERMS = weakref.WeakKeyDictionary()  # the cached rule terms, see _term


def _term(owners, key, make):
    """make(), computed once per `key` and `owners` (a LayerSpec or a Network, or a ZBounds
    rule then a LayerSpec) in weak dictionaries nested by owner, so the entry dies with
    either owner; a None owner (raw weights, no layer) computes it afresh."""
    if None in owners:
        return make()
    table = _TERMS  # get() first, so a lookup of filled tables builds no dictionary
    for owner in owners[:-1]:
        table = table.get(owner) or table.setdefault(owner, weakref.WeakKeyDictionary())
    terms = table.get(owners[-1]) or table.setdefault(owners[-1], {})
    return terms[key] if key in terms else terms.setdefault(key, make())


def _redistribute(pair, a, w, bias, r_upper, rule, stabilizer, layer=None, out=None):
    """Four-step pass z = apply(rho(w), a); s = R / z; c = apply_T(rho(w), s);
    R = a * c of one weighted-layer rule over the layer's operator pair, for
    an (N, ...) batch of layer inputs `a` and upper relevances `r_upper`. The
    terms that do not depend on `a` are computed at N=1 and cached on `layer`.
    Epsilon and z^B read their z from `out`, the layer output add_bias(apply(w, a),
    bias) that a forward trace holds, and compute it only when it is not given."""
    apply, apply_T = pair
    in_shape = a.shape[1:]
    if out is None and isinstance(rule, (Epsilon, ZBounds)):
        out = add_bias(apply(w, a), bias)
    if isinstance(rule, Epsilon):
        z = out  # epsilon's z includes the bias
        # sign(0) is taken as +1 so a zero denominator stays finite
        denom = np.where(z >= 0, z + rule.epsilon, z - rule.epsilon)
        return a * apply_T(w, r_upper / denom)
    if isinstance(rule, WSquare):
        w2 = _term((layer,), "w2", lambda: w ** 2)
        z = _term((layer,), ("w2z", in_shape), lambda: apply(w2, np.ones((1,) + in_shape)))
        ok = z > 0.0  # all-zero weight columns drop their unit's relevance
        return apply_T(w2, np.where(ok, r_upper / np.where(ok, z, 1.0), 0.0))
    w_pos = _term((layer,), "w+", lambda: np.maximum(w, 0.0))
    if isinstance(rule, ZBounds):
        w_neg = _term((layer,), "w-", lambda: np.minimum(w, 0.0))
        # apply(W+, low) and apply(W-, high), one row broadcast over the batch
        offset = _term((rule, layer), in_shape, lambda: (
            apply(w_pos, np.broadcast_to(rule.low, (1,) + in_shape)),
            apply(w_neg, np.broadcast_to(rule.high, (1,) + in_shape))))
        z = add_bias(out - offset[0] - offset[1], -bias)
        s = safe_divide(r_upper, z, stabilizer)
        # the root-point form: input i's share of unit j is (a_i - l_i) w+_ij + (a_i - h_i) w-_ij
        return (a - rule.low) * apply_T(w_pos, s) + (a - rule.high) * apply_T(w_neg, s)
    # AlphaBeta: the positive part, mirrored over the negative part. Units
    # whose positive denominator vanishes absorb their relevance; units with
    # an empty negative branch redistribute with alpha_eff = 1 so the layer
    # total is conserved.
    z_pos = apply(w_pos, a)
    if rule.beta == 0.0:
        return a * apply_T(w_pos, safe_divide(r_upper, z_pos, stabilizer))
    w_neg = _term((layer,), "w-", lambda: np.minimum(w, 0.0))
    z_neg = apply(w_neg, a)
    alpha_eff = np.where(np.abs(z_neg) >= stabilizer, rule.alpha, 1.0)
    s_pos = safe_divide(alpha_eff * r_upper, z_pos, stabilizer)
    s_neg = np.where(np.abs(z_pos) >= stabilizer,
                     safe_divide(rule.beta * r_upper, z_neg, stabilizer), 0.0)
    return a * apply_T(w_pos, s_pos) - a * apply_T(w_neg, s_neg)


def lrp_dense_alphabeta(a, weights, r_upper, alpha, beta, stabilizer=1e-9):
    """Alpha/beta redistribution through one dense layer (bias excluded)."""
    return _propagate_layer(dense(weights), as_tensor(a, "a"), None, r_upper,
                            AlphaBeta(alpha, beta), stabilizer)


def lrp_dense_epsilon(a, weights, bias, r_upper, epsilon):
    """Epsilon-stabilized redistribution; z includes the bias term."""
    return _propagate_layer(dense(weights, as_tensor(bias, "bias")), as_tensor(a, "a"), None,
                            r_upper, Epsilon(epsilon), 1e-9)


def lrp_input_wsquare(weights, r_upper):
    """Input-independent first-layer shares proportional to squared weights."""
    layer = dense(weights)
    return _propagate_layer(layer, np.ones(len(layer.weights)), None, r_upper, WSquare(), 1e-9)


def lrp_input_zb(x, weights, r_upper, low, high, stabilizer=1e-9):
    """First-layer rule for inputs confined to [low, high] boxes."""
    return _propagate_layer(dense(weights), as_tensor(x, "x"), None, r_upper,
                            ZBounds(low, high), stabilizer)


def _pool_rule(layer, x, winner, r_upper, policy, stabilizer):
    """Pool relevance of an (N, C, H, W) batch back over the pool windows."""
    if isinstance(policy, PoolWinnerTakeAll):
        # the max-pool gradient is exactly the scatter onto the recorded winners
        return _layer_backward(layer, x, winner, r_upper)
    cols, geom = window_columns(x, layer.window, layer.stride, layer.padding)
    s = safe_divide(r_upper.reshape(cols.shape[:2] + (-1,)), cols.sum(axis=-2), stabilizer)
    return window_scatter(cols * s[..., None, :], geom)


def lrp_pool(layer, x, winner, r_upper, policy, stabilizer=1e-9):
    """Redistribute pooled relevance back over the pool windows."""
    if layer.kind not in POOL_KINDS:
        raise ValueError(f"lrp_pool applies to pooling layers, not {layer.kind}")
    return _propagate_layer(layer, as_tensor(x, "x"), winner, r_upper, policy, stabilizer)


def _first_weighted_index(network):
    for idx, layer in enumerate(network.layers):
        if layer.kind in WEIGHTED_KINDS:
            return idx
    return None


def _check_rules(network, config):
    if len(config.layer_rules) != len(network.layers):
        raise ValueError(f"rule config assigns {len(config.layer_rules)} rules "
                         f"to a network with {len(network.layers)} layers")
    for idx, (layer, rule) in enumerate(zip(network.layers, config.layer_rules)):
        if rule is None:
            raise ValueError(f"layer {idx} ({layer.kind}) has no rule assigned")
        if not isinstance(rule, _FAMILY_RULES.get(layer.kind, PassThrough)):
            raise ValueError(f"layer {idx} ({layer.kind}): rule "
                             f"{type(rule).__name__} does not apply to this layer kind")
        if isinstance(rule, _INPUT_ONLY_RULES) and idx != _first_weighted_index(network):
            raise ValueError(f"layer {idx} ({layer.kind}): {type(rule).__name__} applies "
                             "only to the first weighted layer")
        if isinstance(rule, PoolWinnerTakeAll) and layer.kind != "MaxPool":
            raise ValueError(f"layer {idx} ({layer.kind}): winner-take-all "
                             "needs a MaxPool layer")
        if isinstance(rule, ZBounds):
            _check_box(rule, network.activation_shapes[idx], f"layer {idx} ({layer.kind}): ")


def _check_box(rule, in_shape, where=""):
    """Refuse a ZBounds bound that does not broadcast to the layer input shape
    `in_shape`, in a message that starts with `where`."""
    for name in ("low", "high"):
        shape = getattr(rule, name).shape
        if not broadcasts_to(shape, in_shape):
            raise ValueError(f"{where}ZBounds {name} has shape {shape}, which does not "
                             f"broadcast to the layer's input shape {in_shape}")


def _propagate(layer, x, extra, r_upper, rule, stabilizer, out=None):
    """Relevance at the (N, ...) input `x` of one layer under its rule; a weighted
    layer reads its output `out` from the trace, when there is one."""
    if layer.kind in WEIGHTED_KINDS:
        return _redistribute(linear_pair(layer, x.shape[1:], row_stable=True), x,
                             layer.weights, layer.bias, r_upper, rule, stabilizer, layer, out)
    if layer.kind in POOL_KINDS:
        return _pool_rule(layer, x, extra, r_upper, rule, stabilizer)
    return r_upper.reshape(x.shape)  # ReLU and Flatten hand relevance through


def _propagate_layer(layer, x, extra, r_upper, rule, stabilizer):
    """_propagate of one sample, the N=1 batch; `x`, `r_upper`, a z^B box and a
    winner-take-all pool's winner map `extra` must fit the layer."""
    r_upper, out = as_tensor(r_upper, "r_upper"), layer_output_shape(layer, x.shape)
    if r_upper.shape != out:
        raise ValueError(f"r_upper has shape {r_upper.shape}, not the {layer.kind} output's {out}")
    if isinstance(rule, ZBounds):
        _check_box(rule, x.shape)
    if layer.kind in POOL_KINDS and not isinstance(rule, _FAMILY_RULES[layer.kind]):
        raise ValueError(f"unknown pool policy {rule!r}")
    if isinstance(rule, PoolWinnerTakeAll):
        if layer.kind != "MaxPool" or extra is None:
            raise ValueError("winner-take-all needs a MaxPool winner map")
        extra = np.asarray(extra)
        if extra.shape != out or not np.issubdtype(extra.dtype, np.integer):
            raise ValueError(f"winner map must be the MaxPool output's {out} integer map, "
                             f"got shape {extra.shape} and dtype {extra.dtype}")
        cells = _window_index(_window_geometry(x.shape, layer.window, layer.stride, layer.padding))
        own = (extra.reshape(len(extra), 1, -1) == cells).any(axis=1).reshape(out)
        if not own.all():
            at = tuple(np.argwhere(~own)[0].tolist())
            raise ValueError(f"winner map entry {at} is {extra[at]}, not a padded-plane "
                             "position of its own MaxPool window")
    extra = None if extra is None else extra[None]
    return _propagate(layer, x[None], extra, r_upper[None], rule, stabilizer)[0]


def _backward_sweep(network, batch, class_index, config, mask_at=None, mask=None):
    """The one checked LRP pass: check `config` against the network, then give the
    (N, ...) per-layer relevances of the batched trace `batch` for one class per
    row (or one for every row) and the (N,) explained values, from netcore's
    reverse sweep with each layer's rule as its step. The relevance at position
    `mask_at` (a layer input, or the logits at len(network.layers)) is
    multiplied by `mask`."""
    _check_rules(network, config)
    inputs, aux, logits = batch.activations, batch.aux, batch.logits
    value, _ = class_output(logits, class_index, config.explained_output)
    r = np.zeros_like(logits)
    r[np.arange(len(r)), class_index] = value

    def step(idx, r_upper):
        r = _propagate(network.layers[idx], inputs[idx], aux[idx], r_upper,
                       config.layer_rules[idx], config.stabilizer, inputs[idx + 1])
        return r * mask if idx == mask_at else r

    seed = r * mask if mask_at == len(network.layers) else r
    return _reverse_sweep(network, inputs, aux, seed, step), value


def _explanation_meta(class_index, output):
    """The metadata every explanation carries: the explained class and output, and,
    when `output` is an LRP RuleConfig, its rule stack's name and stabilizer."""
    if isinstance(output, RuleConfig):
        return {"class_index": class_index, "explained_output": output.explained_output,
                "rules": output.name, "stabilizer": output.stabilizer}
    return {"class_index": class_index, "explained_output": output}


def _lrp_trace(network, batch, class_index, config, mask_at=None, mask=None):
    """The RelevanceTrace of the N=1 `batch`, the relevance at `mask_at` times `mask`."""
    rels, value = _backward_sweep(network, batch, class_index, config, mask_at, mask)
    return RelevanceTrace(tuple([r[0] for r in rels]), float(value[0]), class_index,
                          f"lrp:{config.name}", _explanation_meta(class_index, config))


def lrp(network, trace, class_index, config):
    """Propagate the selected output back to the input under `config` rules.

    The output layer starts with the explained value at `class_index` and zero
    elsewhere; every layer is then propagated by its assigned rule. `trace` is
    forward(network, x): a trace of another network is a ValueError when its
    positions or shapes differ, and cannot be told apart when they agree.
    """
    return _lrp_trace(network, _batch_of_one(network, trace), class_index, config)


def lrp_heatmap(network, x, class_index, config):
    """Forward pass plus relevance propagation, packaged as a Heatmap."""
    batch = _forward_rows(network, _as_input(network, x)[None])
    return _lrp_trace(network, batch, class_index, config).heatmap()


def _lrp_rows(network, x, class_index, config):
    """Yield (input relevance, explained value) for each of the N inputs `x`,
    one class per input (or one for all), from row-stable chunks of the byte
    budget: row n is bitwise lrp_heatmap(network, x[n], c_n, config)'s."""
    rows = max(1, _CHUNK_BYTES // sample_bytes(network))
    for lo in range(0, len(x), rows):
        c = class_index if np.ndim(class_index) == 0 else np.asarray(class_index)[lo:lo + rows]
        batch = _forward_rows(network, np.stack(x[lo:lo + rows]), row_stable=True)
        rels, values = _backward_sweep(network, batch, c, config)
        yield from zip(rels[0], values.tolist())


def filter_relevance(network, trace, class_index, config, layer_index, mask):
    """Keep only relevance flowing through the masked part of one layer.

    The mask (entries in [0, 1]) multiplies the relevance tensor aligned with
    the input of `layer_index` before propagation continues; passing
    len(network.layers) masks the logits themselves. `trace` is checked as in lrp,
    so a trace of another network with the same shapes cannot be told apart.
    """
    require_int("layer_index", layer_index)
    if not 0 <= layer_index <= len(network.layers):
        raise ValueError(f"layer_index {layer_index} out of range")
    mask = as_tensor(mask, "mask")
    expected = network.activation_shapes[layer_index]
    if mask.shape != expected:
        raise ValueError(f"mask shape {mask.shape} does not match the layer's "
                         f"relevance shape {expected}")
    if mask.min() < 0 or mask.max() > 1:
        raise ValueError("mask entries must lie in [0, 1]")
    result = _lrp_trace(network, _batch_of_one(network, trace), class_index, config,
                        layer_index, mask)
    masked_total = float(np.sum(result.relevances[layer_index]))
    result.meta.update(filter_layer=layer_index, masked_layer_total=masked_total)
    hm = Heatmap.from_scores(result.relevances[0], result.explained_value,
                             f"lrp-filtered:{config.name}", result.meta)
    hm.meta["conservation_gap"] = masked_total - hm.total
    return hm


def sensitivity(network, x, class_index, explained_output="logit"):
    """Squared partial derivatives; decomposes the squared gradient norm."""
    _, _, g = _value_and_gradient(network, x, class_index, explained_output)
    scores = g * g
    return Heatmap.from_scores(scores, float(np.sum(scores)), "sensitivity",
                               _explanation_meta(class_index, explained_output))


def simple_taylor(network, x, class_index, explained_output="logit"):
    """Gradient times input; exact for zero-bias ReLU networks.

    The unexplained part explained_value - total is reported under the
    "residual" metadata key (zero only in the homogeneous case).
    """
    x, value, g = _value_and_gradient(network, x, class_index, explained_output)
    scores = g * x
    meta = _explanation_meta(class_index, explained_output)
    meta["residual"] = value - float(np.sum(scores))
    return Heatmap.from_scores(scores, value, "simple_taylor", meta)


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


# Named LRP rule stacks (alpha/beta ones with (alpha, beta)), input domains, gradient explainers
ALPHA_BETA = {"alpha1beta0": (1.0, 0.0), "alpha2beta1": (2.0, 1.0)}
DEEP_TAYLOR, EPSILON = "deeptaylor", "epsilon"
LRP_RULES = (DEEP_TAYLOR, *ALPHA_BETA, EPSILON)
INPUT_DOMAINS = ("relu", "pixel", "real")
GRADIENT_EXPLAINERS = {"sensitivity": sensitivity, "taylor": simple_taylor}


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
