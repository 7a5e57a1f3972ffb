"""Class prototypes by gradient ascent on the class log-probability.

The objective is log p(class | x) plus an optional regularizer: a plain or
mean-anchored squared-norm penalty, or the log-density of a Gaussian-RBM
data model ("expert") with given parameters. A localization penalty pulls
the search toward a reference point. The optimizer is fixed-step ascent
with step halving whenever a step would decrease the objective, so the
recorded trajectory is non-decreasing and the whole search is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import (as_tensor, forward, require_finite, require_int, softmax,
                      _value_and_gradient)


@dataclass(frozen=True, eq=False)
class RbmExpert:
    """Gaussian RBM log-density model, up to an additive constant.

    log p(x) = sum_j softplus(w_j . x + b_j) - x' P x / 2 + const, with P a
    symmetric positive-definite precision matrix. Parameters are supplied,
    not trained here.
    """

    factor_weights: np.ndarray  # (factors, dim)
    factor_biases: np.ndarray   # (factors,)
    precision: np.ndarray       # (dim, dim)

    def __post_init__(self):
        w = as_tensor(self.factor_weights, "factor weights")
        b = as_tensor(self.factor_biases, "factor biases")
        p = as_tensor(self.precision, "precision")
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("factor weights must be (factors, dim) with one bias per factor")
        if p.shape != (w.shape[1], w.shape[1]):
            raise ValueError("precision matrix must be (dim, dim)")
        if np.abs(p - p.T).max() > 1e-12:
            raise ValueError("precision matrix must be symmetric")
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise ValueError("precision matrix must be positive definite") from None
        for arr in (w, b, p):
            arr.setflags(write=False)
        object.__setattr__(self, "factor_weights", w)
        object.__setattr__(self, "factor_biases", b)
        object.__setattr__(self, "precision", p)

    @property
    def dim(self):
        return self.factor_weights.shape[1]


def _sigmoid(z):
    # tanh form stays finite for any float input
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def rbm_log_density(expert, x):
    """Log-density (up to the constant) and its gradient at a flat point x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != expert.dim:
        raise ValueError(f"expert expects dimension {expert.dim}, got {x.shape[0]}")
    pre = expert.factor_weights @ x + expert.factor_biases
    value = float(np.logaddexp(0.0, pre).sum() - 0.5 * x @ (expert.precision @ x))
    grad = expert.factor_weights.T @ _sigmoid(pre) - expert.precision @ x
    return value, grad


@dataclass(frozen=True)
class L2Penalty:
    """Subtract weight * ||x||^2 from the objective."""

    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("penalty weight must be non-negative")
        require_finite(f"{type(self).__name__} weight", self.weight)


@dataclass(frozen=True, eq=False)
class MeanAnchoredL2:
    """Subtract weight * ||x - mean||^2, anchoring the search at a data mean."""

    weight: float
    mean: np.ndarray

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("penalty weight must be non-negative")
        require_finite(f"{type(self).__name__} weight", self.weight)
        mean = as_tensor(self.mean, "anchor mean")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True)
class ExpertPrior:
    """Add the expert's log-density to the objective."""

    expert: RbmExpert


@dataclass(frozen=True, eq=False)
class Localization:
    """Subtract weight * ||x - reference||^2 to keep the prototype local."""

    weight: float
    reference: np.ndarray

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("localization weight must be non-negative")
        require_finite(f"{type(self).__name__} weight", self.weight)
        ref = as_tensor(self.reference, "localization reference")
        ref.setflags(write=False)
        object.__setattr__(self, "reference", ref)


@dataclass(frozen=True, eq=False)
class AmObjective:
    """What to maximize: always the class log-probability, plus extras."""

    class_index: int
    regularizer: L2Penalty | MeanAnchoredL2 | ExpertPrior | None = None
    localization: Localization | None = None


def _penalize(value, grad, weight, d):
    """Subtract the penalty weight * ||d||^2 (d = x - anchor) and its gradient."""
    return value - weight * float(np.sum(d * d)), grad - 2.0 * weight * d


def _from_anchor(x, anchor, name):
    """x - anchor, for an `anchor` of exactly the input's shape."""
    if anchor.shape != x.shape:
        raise ValueError(f"{name} has shape {anchor.shape}, not the input's {x.shape}")
    return x - anchor


def am_objective(network, objective, x):
    """Objective value and gradient at x for the configured maximization."""
    x = np.asarray(x, dtype=np.float64)
    _, value, grad = _value_and_gradient(network, x, objective.class_index, "log_probability")

    reg = objective.regularizer
    if isinstance(reg, L2Penalty):
        value, grad = _penalize(value, grad, reg.weight, x)
    elif isinstance(reg, MeanAnchoredL2):
        value, grad = _penalize(value, grad, reg.weight, _from_anchor(x, reg.mean, "anchor mean"))
    elif isinstance(reg, ExpertPrior):
        density, dgrad = rbm_log_density(reg.expert, x.reshape(-1))
        value += density
        grad = grad + dgrad.reshape(x.shape)
    elif reg is not None:
        raise ValueError(f"unknown regularizer {reg!r}")

    loc = objective.localization
    if loc is not None:
        d = _from_anchor(x, loc.reference, "localization reference")
        value, grad = _penalize(value, grad, loc.weight, d)
    return value, grad


@dataclass(frozen=True, eq=False)
class AmOptions:
    step_size: float = 0.1
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    init: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        require_int("max_iterations", self.max_iterations, 0)
        if not np.isfinite(self.gradient_tolerance) or self.gradient_tolerance < 0:
            raise ValueError(f"gradient_tolerance must be finite and >= 0, "
                             f"got {self.gradient_tolerance}")


@dataclass(frozen=True, eq=False)
class AmResult:
    prototype: np.ndarray
    trajectory: tuple[float, ...]
    final_probability: float
    iterations: int


def activation_maximize(network, objective, options=AmOptions()):
    """Gradient ascent with step halving; the trajectory never decreases.

    Stops at max_iterations, when the gradient norm falls below the
    tolerance, or when halving can no longer find an improving step.
    """
    if options.init is None:
        x = np.zeros(network.input_shape)
    else:
        x = as_tensor(options.init, "init")
        if x.shape != network.input_shape:
            raise ValueError(f"init shape {x.shape} does not match network input "
                             f"{network.input_shape}")
    value, grad = am_objective(network, objective, x)
    if not np.isfinite(value):
        raise ValueError("objective is not finite at the initial point")
    trajectory = [value]
    step = options.step_size
    min_step = options.step_size * 2.0 ** -60
    for _ in range(options.max_iterations):
        if np.linalg.norm(grad) < options.gradient_tolerance:
            break
        while True:
            candidate = x + step * grad
            cand_value, cand_grad = am_objective(network, objective, candidate)
            if cand_value >= value or step <= min_step:
                break
            step *= 0.5
        if not cand_value >= value:  # also rejects NaN
            break
        x, value, grad = candidate, cand_value, cand_grad
        trajectory.append(value)
    probability = float(softmax(forward(network, x).logits)[objective.class_index])
    return AmResult(x, tuple(trajectory), probability, len(trajectory) - 1)
