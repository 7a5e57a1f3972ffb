"""Property-based checks over generated architectures (hypothesis).

Every property runs a bounded, derandomized example budget so the suite stays
deterministic and fast.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import relkit

from conftest import with_random_biases

BOUNDED = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def architectures(draw):
    """(input_shape, plan, seed): a dense stack, or a conv layer (stride 1-2,
    padding 0-1) and a pool of any kind in front of a dense head."""
    head = [("dense", draw(st.integers(1, 4))), ("relu",), ("dense", draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        return (draw(st.integers(1, 6)),), head, draw(st.integers(0, 2 ** 16))
    kernel = draw(st.integers(1, 3))
    conv = ("conv", draw(st.integers(1, 3)), kernel, kernel,
            draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    pool = (draw(st.sampled_from(["maxpool", "sumpool", "avgpool"])), 2, 2,
            draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    in_shape = (draw(st.integers(1, 2)), draw(st.integers(5, 8)), draw(st.integers(5, 8)))
    plan = [conv, ("relu",), pool, ("flatten",)] + head
    return in_shape, plan, draw(st.integers(0, 2 ** 16))


@BOUNDED
@given(architectures())
def test_generated_model_round_trips_bit_exactly(arch):
    in_shape, plan, seed = arch
    rng = np.random.default_rng(seed)
    net = with_random_biases(relkit.random_network(in_shape, plan, seed), rng)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        relkit.save_model(net, first)
        loaded = relkit.load_model_file(first).network
        relkit.save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    for x in rng.standard_normal((3,) + in_shape):
        assert np.array_equal(relkit.forward(loaded, x).logits, relkit.forward(net, x).logits)
