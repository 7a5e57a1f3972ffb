"""Class prototypes by gradient ascent on the class log-probability.

The objective is log p(class | x) plus up to two terms: a regularizer and a
localization penalty. Three of the terms are one squared-distance penalty,
weight * ||x - anchor||^2, anchored at the origin (L2Penalty), at a data mean
(MeanAnchoredL2) or at a reference point that keeps the search local
(Localization). The fourth, ExpertPrior, adds the log-density of a Gaussian-RBM
data model ("expert") with given parameters. The optimizer is fixed-step ascent
with step halving whenever a step would decrease the objective, so the
recorded trajectory is non-decreasing and the whole search is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import (finite_number, forward, require_finite, require_int, softmax,
                      _as_input, _frozen_tensor, _require_real, _value_and_gradient)


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
        w = _frozen_tensor(self.factor_weights, "factor weights")
        b = _frozen_tensor(self.factor_biases, "factor biases")
        p = _frozen_tensor(self.precision, "precision")
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
        object.__setattr__(self, "factor_weights", w)
        object.__setattr__(self, "factor_biases", b)
        object.__setattr__(self, "precision", p)

    @property
    def dim(self):
        return self.factor_weights.shape[1]

    def require_dim(self, size):
        if size != self.dim:
            raise ValueError(f"expert expects dimension {self.dim}, got {size}")


def _sigmoid(z):
    # tanh form stays finite for any float input
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def rbm_log_density(expert, x):
    """Log-density (up to the constant) and its gradient at a flat point x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    expert.require_dim(x.shape[0])
    pre = expert.factor_weights @ x + expert.factor_biases
    value = float(np.logaddexp(0.0, pre).sum() - 0.5 * x @ (expert.precision @ x))
    grad = expert.factor_weights.T @ _sigmoid(pre) - expert.precision @ x
    return value, grad


class _SquaredDistance:
    """weight * ||x - anchor||^2, subtracted from the objective; the anchor is the
    origin or the input-shaped array in the field `_anchor` names."""

    _anchor = None  # (field, its name in messages)

    def __post_init__(self):
        name = f"{type(self).__name__} weight"
        if _require_real(name, self.weight) < 0:
            raise ValueError(f"{name} must be non-negative")
        require_finite(name, self.weight)
        if self._anchor:
            key, label = self._anchor
            object.__setattr__(self, key, _frozen_tensor(getattr(self, key), label))

    def _add(self, value, grad, x):
        d = x
        if self._anchor:
            anchor, label = getattr(self, self._anchor[0]), self._anchor[1]
            if anchor.shape != x.shape:
                raise ValueError(f"{label} has shape {anchor.shape}, not the input's {x.shape}")
            d = x - anchor
        return value - self.weight * float(np.sum(d * d)), grad - 2.0 * self.weight * d


@dataclass(frozen=True)
class L2Penalty(_SquaredDistance):
    """Subtract weight * ||x||^2 from the objective."""

    weight: float


@dataclass(frozen=True, eq=False)
class MeanAnchoredL2(_SquaredDistance):
    """Subtract weight * ||x - mean||^2, anchoring the search at a data mean."""

    weight: float
    mean: np.ndarray
    _anchor = ("mean", "anchor mean")


@dataclass(frozen=True)
class ExpertPrior:
    """Add the expert's log-density to the objective."""

    expert: RbmExpert

    def _add(self, value, grad, x):
        density, dgrad = rbm_log_density(self.expert, x.reshape(-1))
        return value + density, grad + dgrad.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class Localization(_SquaredDistance):
    """Subtract weight * ||x - reference||^2 to keep the prototype local."""

    weight: float
    reference: np.ndarray
    _anchor = ("reference", "localization reference")


@dataclass(frozen=True, eq=False)
class AmObjective:
    """What to maximize: always the class log-probability, plus extras."""

    class_index: int
    regularizer: L2Penalty | MeanAnchoredL2 | ExpertPrior | None = None
    localization: Localization | None = None


def am_objective(network, objective, x):
    """Objective value and gradient at x for the configured maximization."""
    x, value, grad = _value_and_gradient(network, x, objective.class_index, "log_probability")
    for term in (objective.regularizer, objective.localization):
        if term is not None:
            value, grad = term._add(value, grad, x)
    return value, grad


@dataclass(frozen=True, eq=False)
class AmOptions:
    step_size: float = 0.1
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    init: np.ndarray | None = None

    def __post_init__(self):
        if not finite_number(self.step_size) or self.step_size <= 0:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size!r}")
        require_int("max_iterations", self.max_iterations, 0)
        if not finite_number(self.gradient_tolerance) or self.gradient_tolerance < 0:
            raise ValueError(f"gradient_tolerance must be finite and >= 0, "
                             f"got {self.gradient_tolerance!r}")


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
    x = (np.zeros(network.input_shape) if options.init is None
         else _as_input(network, options.init, "init"))
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
