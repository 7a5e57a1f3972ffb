"""Checks that two readers share are made in one place: every score reader checks
a heatmap's shape through explain._heatmap_scores, and save_model refuses the
input bounds and experts that load_model_file refuses, with the same text."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relkit
from relkit.modelio import ModelFormatError

from test_modelio import _tolist_document

BOUNDED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
PROBE = np.linspace(0.0, 1.0, 36).reshape(1, 6, 6)


def _map(scores):
    return relkit.Heatmap.from_scores(scores, 0.0, "demo", {"class_index": 0})


def _perturbed_maps_only(network, x):
    # the probe's own map fits; the maps of its perturbed copies do not
    return _map(np.zeros(x.shape if np.array_equal(x, PROBE) else (3, 3)))


@pytest.mark.parametrize("call,noun", [
    (lambda: relkit.continuity_estimate(lambda net, x: _map(np.ones((3, 3))), None, [PROBE],
                                        0.1, 2, 0), "input"),
    (lambda: relkit.continuity_estimate(_perturbed_maps_only, None, [PROBE], 0.1, 2, 0),
     "input"),
    (lambda: relkit.translation_average(lambda net, x: _map(np.ones((3, 3))), None, PROBE,
                                        [(0, 0), (1, 0)]), "image"),
], ids=["continuity-base", "continuity-perturbed", "translation"])
def test_continuity_and_translation_refuse_a_heatmap_of_another_shape(call, noun):
    # a (3, 3) map for a (1, 6, 6) input used to give a continuity of 0.0 and a
    # (3, 3) translation average; the message is pixel_flip's and pattern's
    message = f"heatmap shape (3, 3) does not match {noun} (1, 6, 6)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _flat_net():
    return relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=1)


def _expert(dim, seed=0):
    rng = np.random.default_rng(seed)
    return relkit.RbmExpert(rng.standard_normal((3, dim)), rng.standard_normal(3), np.eye(dim))


def test_save_model_refuses_an_expert_of_another_size_than_the_input(tmp_path):
    # a 5-dimension expert for a 16-entry input used to save, load, and fail only
    # at the first prototype step
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=r"^expert expects dimension 5, got 16$"):
        relkit.save_model(_flat_net(), path, expert=_expert(5))
    assert not path.exists()


def test_load_model_file_refuses_an_expert_of_another_size_than_the_input(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_tolist_document(_flat_net(), _expert(5))))
    with pytest.raises(ModelFormatError,
                       match=r"^\S*model\.json: expert expects dimension 5, got 16$"):
        relkit.load_model_file(path)


def _refusal(call):
    """The text of the ValueError `call` raises, or None when it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


# bound shapes for the (2, 3, 4) input: its trailing axes with some set to 1 (the
# scalar shape among them), which broadcast, or any small shape, which mostly does not
BROADCASTING = st.integers(0, 3).flatmap(
    lambda rank: st.tuples(*(st.sampled_from([1, n]) for n in (2, 3, 4)[3 - rank:])))
BOUND_SHAPES = BROADCASTING | st.lists(st.integers(1, 5), max_size=4).map(tuple)
# no expert, one of the input's size 24, or one of any size
EXPERT_DIMS = st.none() | st.just(24) | st.integers(1, 30)


@BOUNDED
@given(BOUND_SHAPES, BOUND_SHAPES, EXPERT_DIMS)
@example((), (), None)            # scalar bounds
@example((1, 4), (2, 3, 4), 24)   # broadcasting and input-shaped bounds, a fitting expert
@example((3,), (), None)          # a low that does not broadcast
@example((), (2, 1, 4, 1), None)  # a high of higher rank
@example((), (), 23)              # an expert one entry short
def test_save_model_writes_exactly_what_load_model_file_reads(low_shape, high_shape, dim):
    net = relkit.random_network((2, 3, 4), [("flatten",), ("dense", 2)], seed=2)
    rng = np.random.default_rng(3)
    low, high = -rng.random(low_shape), rng.random(high_shape)
    expert = None if dim is None else _expert(dim)
    with tempfile.TemporaryDirectory() as tmp:
        saved, written = Path(tmp) / "saved.json", Path(tmp) / "written.json"
        written.write_text(json.dumps(_tolist_document(net, expert, (low, high))))
        refused = _refusal(lambda: relkit.save_model(net, saved, expert, (low, high)))
        unread = _refusal(lambda: relkit.load_model_file(written))
        assert unread == (None if refused is None else f"{written}: {refused}")
        assert saved.exists() == (refused is None)
        if refused is None:
            loaded = relkit.load_model_file(saved)
            for got, want in [(loaded.input_low, low), (loaded.input_high, high)]:
                assert got.shape == np.shape(want) and np.array_equal(got, want)
            assert (loaded.expert is None) == (expert is None)
            if expert is not None:
                assert np.array_equal(loaded.expert.factor_weights, expert.factor_weights)
                assert np.array_equal(loaded.expert.precision, expert.precision)
