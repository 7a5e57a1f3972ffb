"""The single-layer LRP entries check their arrays against the layer they run.

Each entry runs the backward sweep's layer step on one layer, so an input, an
upper relevance or a bias that does not fit that layer is a ValueError instead
of a silent broadcast (a one-entry r_upper used to be spread over every unit).
"""

import numpy as np
import pytest

import relkit
from relkit.explain import (lrp_dense_alphabeta, lrp_dense_epsilon, lrp_input_wsquare,
                            lrp_input_zb, lrp_pool)

_W = np.array([[1.0, -0.5], [0.5, 1.0], [2.0, 0.25]])  # a 3-in, 2-out Dense layer
_A = np.array([1.0, 2.0, 0.5])
_R = np.array([1.0, 2.0])


@pytest.mark.parametrize("call", [
    lambda r: lrp_dense_alphabeta(_A, _W, r, 1.0, 0.0),
    lambda r: lrp_dense_alphabeta(_A, _W, r, 2.0, 1.0),
    lambda r: lrp_dense_epsilon(_A, _W, np.zeros(2), r, 1e-9),
    lambda r: lrp_input_wsquare(_W, r),
    lambda r: lrp_input_zb(_A, _W, r, 0.0, 1.0),
    lambda r: lrp_pool(relkit.sum_pool((2, 2)), np.ones((1, 4, 4)), None, r,
                       relkit.PoolProportional()),
], ids=["alpha1beta0", "alpha2beta1", "epsilon", "wsquare", "zb", "pool"])
def test_a_one_entry_r_upper_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"r_upper has shape \(1,\)"):
        call(np.ones(1))


@pytest.mark.parametrize("call", [
    lambda a: lrp_dense_alphabeta(a, _W, _R, 1.0, 0.0),
    lambda a: lrp_dense_epsilon(a, _W, np.zeros(2), _R, 1e-9),
    lambda a: lrp_input_zb(a, _W, _R, 0.0, 1.0),
], ids=["alphabeta", "epsilon", "zb"])
@pytest.mark.parametrize("length", [1, 2, 4])
def test_an_input_of_the_wrong_length_is_refused_against_the_layer(call, length):
    with pytest.raises(ValueError, match=r"Dense expects a \(3,\) input"):
        call(np.ones(length))


def test_a_one_entry_epsilon_bias_is_refused():
    # it used to add 0.5 to both units' z
    with pytest.raises(ValueError, match="bias must have one entry per output unit"):
        lrp_dense_epsilon(_A, _W, np.array([0.5]), _R, 1e-9)


_POOL_X = np.arange(16.0).reshape(1, 4, 4)  # one channel through a 2x2 MaxPool: (1, 2, 2) out


@pytest.mark.parametrize("winner,got", [
    (np.array([[[5, 7, 13, 15]]]), r"shape \(1, 1, 4\) and dtype int64"),
    (np.array([[[5.0, 7.0], [13.0, 15.0]]]), r"shape \(1, 2, 2\) and dtype float64"),
], ids=["wrong-shape", "float"])
def test_a_winner_map_that_does_not_fit_the_pool_is_refused_by_name(winner, got):
    with pytest.raises(ValueError, match=r"^winner map must be the MaxPool output's "
                                         rf"\(1, 2, 2\) integer map, got {got}$"):
        lrp_pool(relkit.max_pool((2, 2)), _POOL_X, winner, np.ones((1, 2, 2)),
                 relkit.PoolWinnerTakeAll())


@pytest.mark.parametrize("winner,at,value", [
    ([[[-1, 7], [13, 15]]], (0, 0, 0), -1),  # below the plane
    ([[[5, 100], [13, 15]]], (0, 0, 1), 100),  # past the plane
    ([[[5, 7], [13, 0]]], (0, 1, 1), 0),  # the top-left window's cell
], ids=["negative", "past-the-plane", "another-window"])
def test_a_winner_outside_its_own_pool_window_is_refused_by_name(winner, at, value):
    with pytest.raises(ValueError, match=rf"^winner map entry \({at[0]}, {at[1]}, {at[2]}\) is "
                                         rf"{value}, not a padded-plane position of its own "
                                         r"MaxPool window$"):
        lrp_pool(relkit.max_pool((2, 2)), _POOL_X, np.array(winner), np.ones((1, 2, 2)),
                 relkit.PoolWinnerTakeAll())


def test_a_winner_in_the_padding_of_its_own_window_is_accepted():
    # a 3x3 stride-2 pool with padding 1 reads a 6x6 padded plane, whose position 0 is
    # padding in the top-left window; the crop drops the relevance sent there
    pool = relkit.max_pool((3, 3), stride=2, padding=1)
    winner = relkit.netcore._layer_forward(pool, _POOL_X[None])[1][0].copy()
    winner[0, 0, 0] = 0
    r = lrp_pool(pool, _POOL_X, winner, np.ones((1, 2, 2)), relkit.PoolWinnerTakeAll())
    assert r.sum() == 3.0


@pytest.mark.parametrize("name", ["low", "high"])
def test_a_zb_box_that_does_not_broadcast_to_x_is_refused_by_name(name):
    bounds = {"low": 0.0, "high": 1.0, name: (-1.0 if name == "low" else 1.0) * np.ones(2)}
    with pytest.raises(ValueError, match=rf"^ZBounds {name} has shape \(2,\), which does not "
                                         r"broadcast to the layer's input shape \(3,\)$"):
        lrp_input_zb(_A, _W, _R, bounds["low"], bounds["high"])
