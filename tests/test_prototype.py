"""RBM expert density, the ascent objective, and prototype search."""

import numpy as np
import pytest

import relkit
from relkit.prototype import _sigmoid

from conftest import central_difference


def identity_logits_network(dim=2):
    return relkit.Network((relkit.dense(np.eye(dim)),), (dim,), dim)


def random_expert(rng, dim=4, factors=3):
    w = rng.standard_normal((factors, dim))
    b = rng.standard_normal(factors)
    m = rng.standard_normal((dim, dim))
    precision = m @ m.T + dim * np.eye(dim)
    return relkit.RbmExpert(w, b, precision)


def test_expert_without_factors_is_gaussian():
    expert = relkit.RbmExpert(np.empty((0, 3)), np.empty(0), np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    value, grad = relkit.rbm_log_density(expert, x)
    assert value == pytest.approx(-0.5 * np.sum(x * x), abs=1e-12)
    assert np.allclose(grad, -x, rtol=0, atol=1e-12)


def test_expert_gradient_at_origin():
    rng = np.random.default_rng(97)
    expert = random_expert(rng)
    _, grad = relkit.rbm_log_density(expert, np.zeros(4))
    expected = expert.factor_weights.T @ _sigmoid(expert.factor_biases)
    assert np.allclose(grad, expected, rtol=0, atol=1e-12)


def test_expert_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    expert = random_expert(rng)
    x = rng.standard_normal(4)

    def value(v):
        return relkit.rbm_log_density(expert, v)[0]

    fd = central_difference(value, x)
    _, grad = relkit.rbm_log_density(expert, x)
    assert np.abs(fd - grad).max() / max(np.abs(grad).max(), 1e-9) < 1e-4


def test_expert_softplus_is_overflow_safe():
    expert = relkit.RbmExpert(np.array([[1000.0]]), np.array([0.0]), np.eye(1))
    value, grad = relkit.rbm_log_density(expert, np.array([5.0]))
    assert np.isfinite(value) and np.all(np.isfinite(grad))


def test_expert_rejects_asymmetric_precision():
    with pytest.raises(ValueError, match="symmetric"):
        relkit.RbmExpert(np.empty((0, 2)), np.empty(0),
                         np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_expert_rejects_non_spd_precision():
    with pytest.raises(ValueError, match="positive definite"):
        relkit.RbmExpert(np.empty((0, 2)), np.empty(0),
                         np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_strong_l2_drives_prototype_to_origin():
    net = identity_logits_network()
    objective = relkit.AmObjective(0, relkit.L2Penalty(50.0))
    result = relkit.activation_maximize(
        net, objective, relkit.AmOptions(step_size=0.05, max_iterations=400,
                                         init=np.array([0.5, -0.5])))
    assert np.linalg.norm(result.prototype) < 0.02


def test_strong_localization_pins_prototype_to_reference(two_blob_classifier):
    net, data, _ = two_blob_classifier
    x0 = np.array([0.5, -0.25])
    init = x0 + np.array([1.0, 1.0])
    objective = relkit.AmObjective(1, None, relkit.Localization(100.0, x0))
    result = relkit.activation_maximize(
        net, objective, relkit.AmOptions(step_size=0.05, max_iterations=500, init=init))
    assert np.linalg.norm(result.prototype - x0) < 0.05 * np.linalg.norm(init - x0)


def test_two_blob_prototype_is_classified_with_certainty(two_blob_classifier):
    net, data, labels = two_blob_classifier
    mean = data.mean(axis=0)
    for class_index in (0, 1):
        objective = relkit.AmObjective(class_index, relkit.L2Penalty(0.01))
        result = relkit.activation_maximize(
            net, objective,
            relkit.AmOptions(step_size=0.2, max_iterations=600, init=mean))
        assert result.final_probability > 0.99


def _objective_cases(rng):
    expert = random_expert(rng, dim=4)
    mean = rng.standard_normal(4)
    x0 = rng.standard_normal(4)
    yield relkit.AmObjective(1, None, None)
    yield relkit.AmObjective(1, relkit.L2Penalty(0.3), None)
    yield relkit.AmObjective(0, relkit.MeanAnchoredL2(0.2, mean), None)
    yield relkit.AmObjective(1, relkit.ExpertPrior(expert), None)
    yield relkit.AmObjective(0, relkit.L2Penalty(0.1), relkit.Localization(0.5, x0))
    yield relkit.AmObjective(1, relkit.ExpertPrior(expert), relkit.Localization(2.0, x0))


def test_objective_gradient_matches_fd_for_every_regularizer():
    rng = np.random.default_rng(103)
    net = relkit.random_network((4,), [("dense", 6), ("relu",), ("dense", 2)], seed=7)
    x = rng.standard_normal(4) * 0.5
    for objective in _objective_cases(rng):
        def value(v, objective=objective):
            return relkit.am_objective(net, objective, v)[0]

        _, grad = relkit.am_objective(net, objective, x)
        fd = central_difference(value, x)
        assert np.abs(fd - grad).max() / max(np.abs(grad).max(), 1e-6) < 1e-4


def test_trajectory_is_non_decreasing():
    rng = np.random.default_rng(107)
    net = relkit.random_network((4,), [("dense", 5), ("relu",), ("dense", 3)], seed=9)
    for objective in _objective_cases(rng):
        result = relkit.activation_maximize(
            net, objective,
            relkit.AmOptions(step_size=0.5, max_iterations=60,
                             init=rng.standard_normal(4)))
        diffs = np.diff(result.trajectory)
        assert np.all(diffs >= 0.0)


def test_activation_maximize_is_deterministic():
    net = identity_logits_network(3)
    objective = relkit.AmObjective(2, relkit.L2Penalty(0.05))
    options = relkit.AmOptions(step_size=0.1, max_iterations=100,
                               init=np.array([0.1, 0.2, 0.3]))
    first = relkit.activation_maximize(net, objective, options)
    second = relkit.activation_maximize(net, objective, options)
    assert np.array_equal(first.prototype, second.prototype)
    assert first.trajectory == second.trajectory
    assert first.iterations == second.iterations


def test_trajectory_records_accepted_steps():
    net = identity_logits_network()
    objective = relkit.AmObjective(0, relkit.L2Penalty(1.0))
    result = relkit.activation_maximize(
        net, objective, relkit.AmOptions(step_size=0.05, max_iterations=25,
                                         init=np.array([1.0, 0.0])))
    assert len(result.trajectory) == result.iterations + 1


def test_rejects_non_finite_init():
    net = identity_logits_network()
    objective = relkit.AmObjective(0)
    with pytest.raises(ValueError, match="non-finite"):
        relkit.activation_maximize(net, objective,
                                   relkit.AmOptions(init=np.array([np.inf, 0.0])))


def test_rejects_wrong_init_shape():
    net = identity_logits_network()
    objective = relkit.AmObjective(0)
    with pytest.raises(ValueError, match="init shape"):
        relkit.activation_maximize(net, objective,
                                   relkit.AmOptions(init=np.zeros(3)))


@pytest.mark.parametrize("field,value", [
    ("step_size", 0.0), ("step_size", -0.1), ("step_size", float("nan")),
    ("step_size", float("inf")), ("max_iterations", -1), ("max_iterations", 2.0),
    ("max_iterations", True), ("gradient_tolerance", -1e-6),
    ("gradient_tolerance", float("nan")), ("gradient_tolerance", float("inf"))])
def test_am_options_reject_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        relkit.AmOptions(**{field: value})


def test_am_options_accept_numpy_integers_and_zero_budgets():
    options = relkit.AmOptions(max_iterations=np.int64(0), gradient_tolerance=0.0)
    result = relkit.activation_maximize(identity_logits_network(), relkit.AmObjective(0),
                                        options)
    assert result.iterations == 0


@pytest.mark.parametrize("objective,field", [
    (relkit.AmObjective(0, relkit.MeanAnchoredL2(0.1, np.zeros((2, 6, 6)))), "anchor mean"),
    (relkit.AmObjective(0, relkit.MeanAnchoredL2(0.1, np.zeros((6, 6)))), "anchor mean"),
    (relkit.AmObjective(0, None, relkit.Localization(0.1, np.zeros(6))),
     "localization reference"),
    (relkit.AmObjective(0, None, relkit.Localization(0.1, 0.0)), "localization reference")])
def test_anchor_must_have_the_input_shape(objective, field):
    # a wrong-shaped anchor used to broadcast: a (2, 6, 6) mean gave a
    # (2, 6, 6) gradient, and a (6,) reference was accepted
    net = relkit.random_network((1, 6, 6), [("flatten",), ("dense", 2)], seed=0)
    with pytest.raises(ValueError, match=rf"^{field} has shape .*, not the input's \(1, 6, 6\)$"):
        relkit.am_objective(net, objective, np.zeros((1, 6, 6)))


@pytest.mark.parametrize("cls,extra", [
    (relkit.L2Penalty, ()), (relkit.MeanAnchoredL2, (np.zeros(2),)),
    (relkit.Localization, (np.zeros(2),))], ids=["L2Penalty", "MeanAnchoredL2", "Localization"])
def test_regularizer_weights_must_be_finite_and_non_negative(cls, extra):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError,
                           match=f"^{cls.__name__} weight must be finite, got {bad}$"):
            cls(bad, *extra)
    with pytest.raises(ValueError, match="weight must be non-negative"):
        cls(-1.0, *extra)
    assert cls(0.0, *extra).weight == 0.0


@pytest.mark.parametrize("bad", ["0.1", None, True])
@pytest.mark.parametrize("build,message", [
    (lambda v: relkit.AmOptions(step_size=v), "step_size must be finite and > 0"),
    (lambda v: relkit.AmOptions(gradient_tolerance=v),
     "gradient_tolerance must be finite and >= 0"),
    (lambda v: relkit.L2Penalty(v), "L2Penalty weight must be a real number"),
    (lambda v: relkit.MeanAnchoredL2(v, np.zeros(2)),
     "MeanAnchoredL2 weight must be a real number"),
    (lambda v: relkit.Localization(v, np.zeros(2)), "Localization weight must be a real number")],
    ids=["step_size", "gradient_tolerance", "L2Penalty", "MeanAnchoredL2", "Localization"])
def test_search_settings_and_weights_must_be_real_numbers(build, message, bad):
    # "0.1" and None died with a TypeError from a comparison, and True counted as 1
    with pytest.raises(ValueError, match=f"^{message}, got {bad!r}$"):
        build(bad)


def _flat_class_network():
    # zero weights: log p(class | x) = log 1/2 everywhere, so the penalty alone moves x
    return relkit.Network((relkit.dense(np.zeros((2, 2))),), (2,), 2)


def test_activation_maximize_takes_a_step_that_leaves_the_objective_unchanged():
    # weight 1 and step 1 map x to -x, where ||x||^2 is the same: the trajectory does not
    # decrease, so each step is taken, and x swaps sign at every iteration
    init = np.array([1.0, -2.0])
    objective = relkit.AmObjective(0, regularizer=relkit.L2Penalty(1.0))
    result = relkit.activation_maximize(_flat_class_network(), objective,
                                        relkit.AmOptions(step_size=1.0, max_iterations=3,
                                                         init=init))
    assert result.iterations == 3
    assert len(set(result.trajectory)) == 1
    assert np.array_equal(result.prototype, -init)


def test_activation_maximize_halves_the_step_far_below_a_sixty_fourth():
    # with weight 1, a step improves only below 1 (x -> (1 - 2 step) x), which takes
    # eight halvings of 192: 0.75, taking x to -x / 2
    init = np.array([1.0, -2.0])
    objective = relkit.AmObjective(0, regularizer=relkit.L2Penalty(1.0))
    result = relkit.activation_maximize(_flat_class_network(), objective,
                                        relkit.AmOptions(step_size=192.0, max_iterations=1,
                                                         init=init))
    assert result.iterations == 1
    assert np.array_equal(result.prototype, -0.5 * init)
