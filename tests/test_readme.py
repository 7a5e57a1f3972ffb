"""Figures the README states that the code determines, recomputed from the code."""

from pathlib import Path

import relkit
from relkit import netcore
from relkit.netcore import sample_bytes

README = Path(__file__).resolve().parents[1] / "README.md"
README_CONV = ((1, 28, 28), [("conv", 8, 5, 5, 1, 0), ("relu",), ("sumpool", 2, 2, 2, 0),
                             ("flatten",), ("dense", 2)])
DENSE_784 = ((1, 28, 28), [("flatten",), ("dense", 300), ("relu",), ("dense", 100),
                           ("relu",), ("dense", 10)])


def test_the_readme_states_the_chunk_sizes_of_the_byte_budget():
    # unit columns per chunk of the README conv net's flips (column_responses), rows per
    # chunk of a dense net's patch-1 flips, which start after its first Dense layer, and
    # windows per chunk of a sliding window (_lrp_rows)
    conv, dense = (relkit.random_network(*arch, 0) for arch in (README_CONV, DENSE_784))
    layer, budget = conv.layers[0], netcore._CHUNK_BYTES
    fan_in, filters = layer.weights[0].size, len(layer.weights)
    geom = netcore._window_geometry(conv.input_shape, layer.weights.shape[2:], layer.stride,
                                    layer.padding)
    slots = [fan_in] + [len(netcore._slot_map(geom, patch)[0]) for patch in (2, 4)]
    columns = [budget // (8 * (s + 1) * max(fan_in, filters)) for s in slots]
    cells = geom.out_h * geom.out_w
    assert columns[2] >= cells  # one chunk holds every column at patch 4
    rows = budget // sample_bytes(dense, 2, 1)
    windows = [budget // sample_bytes(net) for net in (conv, dense)]
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert (f"({columns[0]} columns of the README conv net at patch 1, {columns[1]} at "
            f"patch 2, all {cells} at patch 4)") in text
    assert f"({rows} rows for a 784-input dense net at patch 1)" in text
    assert f"{windows[0]} for the README conv net, {windows[1]} for a 784-input dense net" \
        in text
