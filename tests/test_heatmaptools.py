"""Region pooling, translation averaging, sliding windows, patterns, rendering."""

import re

import numpy as np
import pytest

import relkit

from conftest import random_dense_network


def tagged(scores, explained=None, class_index=0):
    scores = np.asarray(scores, dtype=np.float64)
    value = float(np.sum(scores)) if explained is None else explained
    return relkit.Heatmap.from_scores(scores, value, "test",
                                      {"class_index": class_index})


def test_single_region_pool_equals_total():
    rng = np.random.default_rng(137)
    hm = tagged(rng.standard_normal((4, 4)))
    pooled = relkit.pool_relevance(hm, np.zeros((4, 4), dtype=int))
    assert pooled.shape == (1,)
    assert pooled[0] == pytest.approx(hm.total, abs=1e-12)


def test_rgb_pixel_pooling_preserves_total():
    rng = np.random.default_rng(139)
    hm = tagged(rng.standard_normal((3, 5, 5)))
    pooled = relkit.pool_relevance(hm, relkit.pixel_partition((3, 5, 5)))
    assert pooled.shape == (25,)
    assert pooled.sum() == pytest.approx(hm.total, abs=1e-12)


def test_quadrant_pooling_on_28x28():
    rng = np.random.default_rng(149)
    hm = tagged(rng.standard_normal((28, 28)))
    pooled = relkit.pool_relevance(hm, relkit.quadrant_partition((28, 28)))
    assert pooled.shape == (4,)
    assert pooled.sum() == pytest.approx(hm.total, abs=1e-12)


def test_pooling_is_exact_for_exactly_summable_scores():
    # quantized to a 2^-20 grid every partial sum is exact, so any regrouping
    # of the additions must reproduce the total bit for bit
    rng = np.random.default_rng(151)
    raw = rng.standard_normal((28, 28))
    scores = np.rint(raw * 2 ** 20) / 2 ** 20
    hm = tagged(scores)
    pooled = relkit.pool_relevance(hm, relkit.quadrant_partition((28, 28)))
    assert float(pooled.sum()) == hm.total


def test_pool_rejects_shape_mismatch():
    hm = tagged(np.ones((2, 2)))
    with pytest.raises(ValueError, match="partition shape"):
        relkit.pool_relevance(hm, np.zeros((3, 3), dtype=int))


def test_pool_rejects_non_integer_ids():
    hm = tagged(np.ones((2, 2)))
    with pytest.raises(ValueError, match="region ids"):
        relkit.pool_relevance(hm, np.zeros((2, 2)))


def test_shift_and_inverse_restore_interior_content():
    rng = np.random.default_rng(157)
    image = np.zeros((1, 6, 6))
    image[:, 2:4, 2:4] = rng.random((2, 2))
    shifted = relkit.shift_image(image, (1, -1))
    restored = relkit.shift_image(shifted, (-1, 1))
    assert np.array_equal(restored, image)


@pytest.mark.parametrize("shift", [(1.9, 0), (True, 0), ("2", 0), (0, 1.0)])
def test_shift_image_rejects_non_integer_components(shift):
    with pytest.raises(ValueError, match="shift component must be an integer"):
        relkit.shift_image(np.ones((3, 3)), shift)


def test_translation_identity_set_is_bit_identical(max_network):
    def explainer(network, x):
        return relkit.simple_taylor(network, x, 0)

    rng = np.random.default_rng(163)
    # 2-D image network stand-in: use a dense net over flat inputs via 3-D image
    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    image = rng.random((1, 4, 4))
    plain = explainer(net, image)
    averaged = relkit.translation_average(explainer, net, image, [(0, 0)])
    assert np.array_equal(averaged.scores, plain.scores)
    assert averaged.explained_value == plain.explained_value


def test_translation_equivariant_explainer_with_interior_content():
    # identity explainer R(x) = x is shift-equivariant; content away from the
    # border comes back exactly after shift + inverse shift
    def explainer(network, x):
        return tagged(x, explained=float(np.sum(x)))

    net = relkit.random_network((1, 6, 6), [("flatten",), ("dense", 2)], seed=13)
    image = np.zeros((1, 6, 6))
    image[:, 2:4, 2:4] = 1.0
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    averaged = relkit.translation_average(explainer, net, image, shifts)
    assert np.allclose(averaged.scores, image, rtol=0, atol=1e-12)


def test_translation_requires_identity_shift():
    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    with pytest.raises(ValueError, match="identity"):
        relkit.translation_average(lambda n, x: tagged(x), net,
                                   np.zeros((1, 4, 4)), [(1, 0)])


def test_translation_boundary_content_gets_zero_contribution():
    def explainer(network, x):
        return tagged(np.ones_like(x), explained=1.0)

    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    image = np.ones((1, 4, 4))
    averaged = relkit.translation_average(explainer, net, image, [(0, 0), (2, 0)])
    # the (2,0) term contributes zeros to the two rows it shifted out and back
    assert np.array_equal(averaged.scores[0, 0:2, :], np.ones((2, 4)))
    assert np.array_equal(averaged.scores[0, 2:4, :], np.full((2, 4), 0.5))


def test_translation_average_is_linear_in_the_explainer():
    rng = np.random.default_rng(167)
    net = relkit.random_network((1, 5, 5), [("flatten",), ("dense", 2)], seed=17)
    image = rng.random((1, 5, 5))
    shifts = [(0, 0), (1, 1), (-1, 0)]
    r1 = rng.random((1, 5, 5))
    r2 = rng.random((1, 5, 5))
    alpha, beta = 0.7, -1.3

    def make(scores):
        return lambda n, x: tagged(scores, explained=float(np.sum(scores)))

    combo = relkit.translation_average(make(alpha * r1 + beta * r2), net, image, shifts)
    first = relkit.translation_average(make(r1), net, image, shifts)
    second = relkit.translation_average(make(r2), net, image, shifts)
    assert np.allclose(combo.scores, alpha * first.scores + beta * second.scores,
                       rtol=0, atol=1e-12)


@pytest.fixture
def window_net():
    return relkit.random_network(
        (1, 4, 4), [("conv", 2, 3, 3, 1, 0), ("relu",), ("flatten",), ("dense", 2)],
        seed=19)


def test_sliding_window_single_location_matches_plain(window_net):
    rng = np.random.default_rng(173)
    image = rng.random((1, 4, 4))
    config = relkit.alphabeta_config(window_net, 1.0, 0.0)
    direct = relkit.lrp_heatmap(window_net, image, 1, config)
    slid = relkit.sliding_window_explain(window_net, image, 1, config, 1)
    assert np.array_equal(slid.scores, direct.scores)
    assert slid.explained_value == direct.explained_value


def test_sliding_window_disjoint_windows_concatenate(window_net):
    rng = np.random.default_rng(179)
    image = rng.random((1, 4, 8))
    config = relkit.alphabeta_config(window_net, 1.0, 0.0)
    slid = relkit.sliding_window_explain(window_net, image, 4, config, 0)
    left = relkit.lrp_heatmap(window_net, image[:, :, 0:4], 0, config)
    right = relkit.lrp_heatmap(window_net, image[:, :, 4:8], 0, config)
    assert np.array_equal(slid.scores[:, :, 0:4], left.scores)
    assert np.array_equal(slid.scores[:, :, 4:8], right.scores)


def test_sliding_window_overlaps_sum_per_window_scores(window_net):
    rng = np.random.default_rng(181)
    image = rng.random((1, 4, 6))
    config = relkit.alphabeta_config(window_net, 1.0, 0.0)
    slid = relkit.sliding_window_explain(window_net, image, 1, config, 0)
    manual = np.zeros_like(image)
    total = 0.0
    for left in range(3):
        hm = relkit.lrp_heatmap(window_net, image[:, :, left:left + 4], 0, config)
        manual[:, :, left:left + 4] += hm.scores
        total += hm.explained_value
    assert np.allclose(slid.scores, manual, rtol=0, atol=1e-12)
    assert slid.explained_value == pytest.approx(total, abs=1e-12)
    assert abs(slid.total - total) <= 1e-6 * max(abs(total), 1e-9)
    assert slid.meta["coverage"].max() == 3  # middle columns sit in 3 windows


@pytest.mark.parametrize("rule", relkit.explain.LRP_RULES)
def test_sliding_window_overlaps_equal_window_order_accumulation_bitwise(rule):
    # a dense head wide enough that a GEMM over the windows would move last bits
    net = relkit.random_network((1, 8, 8), [("flatten",), ("dense", 40), ("relu",),
                                            ("dense", 30), ("relu",), ("dense", 3)], seed=23)
    image = np.random.default_rng(197).random((1, 20, 17))
    config = relkit.rule_config(net, rule, "pixel", 0.0, 1.0)
    slid = relkit.sliding_window_explain(net, image, 3, config, 2)
    manual, coverage, total = np.zeros_like(image), np.zeros(image.shape, dtype=np.int64), 0.0
    for top in range(0, 13, 3):
        for left in range(0, 10, 3):
            region = (..., slice(top, top + 8), slice(left, left + 8))
            hm = relkit.lrp_heatmap(net, image[region], 2, config)
            manual[region] += hm.scores
            coverage[region] += 1
            total += hm.explained_value
    assert slid.meta["windows"] == 20
    assert np.array_equal(slid.scores, manual)
    assert slid.explained_value == total
    assert np.array_equal(slid.meta["coverage"], coverage)


def test_sliding_window_rejects_small_image(window_net):
    config = relkit.alphabeta_config(window_net, 1.0, 0.0)
    with pytest.raises(ValueError, match="smaller"):
        relkit.sliding_window_explain(window_net, np.ones((1, 3, 3)), 1, config, 0)


def test_pattern_identity_mask():
    rng = np.random.default_rng(191)
    image = rng.random((2, 3))
    out = relkit.pattern(image, tagged(np.ones((2, 3))), normalization="rescale")
    assert np.array_equal(out, image)


def test_pattern_zero_heatmap_warns_and_zeroes():
    image = np.ones((2, 2))
    with pytest.warns(UserWarning, match="all-zero"):
        out = relkit.pattern(image, tagged(np.zeros((2, 2))), normalization="rescale")
    assert np.array_equal(out, np.zeros((2, 2)))


def test_pattern_clips_negative_scores():
    image = np.ones(4)
    scores = np.array([-5.0, 0.0, 1.0, 2.0])
    out = relkit.pattern(image, tagged(scores), normalization="rescale")
    assert np.array_equal(out, [0.0, 0.0, 0.5, 1.0])


def test_pattern_percentile_clip_caps_outliers():
    image = np.ones(100)
    scores = np.ones(100)
    scores[0] = 1000.0
    out = relkit.pattern(image, tagged(scores), normalization="clip", percentile=90)
    assert out[1] == 1.0  # ordinary entries saturate once the outlier is capped


def test_render_zero_heatmap_is_uniform_white():
    data = relkit.render_heatmap(tagged(np.zeros((2, 2))))
    header, pixels = data[:11], data[11:]
    assert header == b"P6\n2 2\n255\n"
    assert pixels == b"\xff" * 12


def test_render_single_positive_pixel_is_pure_red():
    scores = np.zeros((2, 2))
    scores[0, 1] = 3.0
    data = relkit.render_heatmap(tagged(scores))
    pixels = data[11:]
    assert pixels[3:6] == b"\xff\x00\x00"


def test_render_sign_flip_swaps_red_and_blue():
    rng = np.random.default_rng(193)
    scores = rng.standard_normal((4, 6))
    pos = relkit.render_heatmap(tagged(scores))
    neg = relkit.render_heatmap(tagged(-scores))
    head = len(b"P6\n6 4\n255\n")
    rgb_pos = np.frombuffer(pos[head:], dtype=np.uint8).reshape(4, 6, 3)
    rgb_neg = np.frombuffer(neg[head:], dtype=np.uint8).reshape(4, 6, 3)
    assert np.array_equal(rgb_neg, rgb_pos[:, :, ::-1])


def test_render_channel_pooling_and_determinism():
    rng = np.random.default_rng(197)
    hm = tagged(rng.standard_normal((3, 4, 4)))
    first = relkit.render_heatmap(hm)
    second = relkit.render_heatmap(hm)
    assert first == second
    assert first.startswith(b"P6\n4 4\n255\n")


@pytest.mark.parametrize("stride,message", [
    (2.5, "stride must be an integer, got 2.5"),
    (True, "stride must be an integer, got True"),
    (0, "stride must be >= 1, got 0"),
])
def test_sliding_window_rejects_a_bad_stride(window_net, stride, message):
    config = relkit.alphabeta_config(window_net, 1.0, 0.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        relkit.sliding_window_explain(window_net, np.ones((1, 6, 6)), stride, config, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("draw", [
    lambda hm: relkit.render_heatmap(hm, "diverging"),
    lambda hm: relkit.render_heatmap(hm, "sequential"),
    lambda hm: relkit.pattern(np.ones((2, 3)), hm)], ids=["diverging", "sequential", "pattern"])
def test_non_finite_scores_never_become_an_image(draw, bad):
    scores = np.ones((2, 3))
    scores[1, 2] = bad
    hm = relkit.Heatmap.from_scores(scores, 0.0, "lrp:demo")
    with pytest.raises(ValueError, match=f"^lrp:demo heatmap scores must be finite, "
                                         f"got {bad!r}$"):
        draw(hm)


@pytest.mark.parametrize("shifts,message", [
    ([(0, 0), (0.7, 0)], "shift component must be an integer, got 0.7"),
    ([(0, 0), (1, True)], "shift component must be an integer, got True"),
    ([(0.0, 0)], "shift component must be an integer, got 0.0"),
])
def test_translation_shift_components_must_be_integers(shifts, message):
    # (0.7, 0) used to be truncated to a second identity shift
    calls = []
    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    with pytest.raises(ValueError, match=f"^{message}$"):
        relkit.translation_average(lambda n, x: calls.append(x) or tagged(x), net,
                                   np.zeros((1, 4, 4)), shifts)
    assert not calls


def test_translation_takes_meta_and_tag_from_the_first_heatmap():
    # without metadata the tag used to come from the last heatmap, and the
    # metadata from the first heatmap that had any
    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    maps = iter([relkit.Heatmap.from_scores(np.zeros((1, 4, 4)), 0.0, "first"),
                 relkit.Heatmap.from_scores(np.zeros((1, 4, 4)), 0.0, "second", {"k": 1})])
    averaged = relkit.translation_average(lambda n, x: next(maps), net, np.zeros((1, 4, 4)),
                                          [(0, 0), (1, 0)])
    assert averaged.method_tag == "translation_average:first"
    assert averaged.meta == {"shifts": [(0, 0), (1, 0)]}


def test_translation_sum_keeps_the_sign_of_zeros():
    # the restored scores are summed from the first array, so an all -0.0 map
    # averages to -0.0, not to 0.0 + -0.0 = 0.0
    net = relkit.random_network((1, 2, 2), [("flatten",), ("dense", 2)], seed=11)
    averaged = relkit.translation_average(lambda n, x: tagged(np.full((1, 2, 2), -0.0)), net,
                                          np.ones((1, 2, 2)), [(0, 0)])
    assert np.array_equal(np.signbit(averaged.scores), np.ones((1, 2, 2), bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("read", [
    lambda hm: relkit.pool_relevance(hm, np.zeros((1, 4, 4), dtype=int)),
    lambda hm: relkit.translation_average(
        lambda n, x: hm, relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11),
        np.ones((1, 4, 4)), [(0, 0), (1, 0)])], ids=["pool_relevance", "translation_average"])
def test_non_finite_scores_never_become_region_sums_or_an_average(read, bad):
    # both used to pass a NaN straight into the region sums and the averaged heatmap
    scores = np.ones((1, 4, 4))
    scores[0, 1, 2] = bad
    hm = relkit.Heatmap.from_scores(scores, 0.0, "lrp:demo")
    with pytest.raises(ValueError, match=f"^lrp:demo heatmap scores must be finite, "
                                         f"got {bad!r}$"):
        read(hm)


@pytest.mark.parametrize("percentile", [True, "50", np.nan, 150, -1, None])
def test_pattern_percentile_must_be_a_number_in_range(percentile):
    # True ran as 1, "50" raised NumPy's TypeError, and NaN, 150 and -1 NumPy's own
    # range message, which did not name the argument
    image = np.ones((3, 3))
    with pytest.raises(ValueError, match=re.escape(
            f"percentile must be a number in [0, 100], got {percentile!r}")):
        relkit.pattern(image, tagged(np.ones((3, 3))), "clip", percentile)


def test_pattern_percentile_takes_the_ends_of_its_range():
    image = np.arange(1.0, 10.0).reshape(3, 3)
    for percentile, top in ((0, 1.0), (100, 9.0), (np.float64(50.0), 5.0)):
        want = image * (np.minimum(image, top) / top)
        assert np.array_equal(relkit.pattern(image, tagged(image), "clip", percentile), want)


def test_translation_average_rejects_an_explainer_that_returns_a_bare_array():
    # used to fail with "'numpy.ndarray' object has no attribute 'meta'"
    net = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
    with pytest.raises(ValueError, match="^translation_average needs an explainer that returns "
                                         "a Heatmap, got ndarray$"):
        relkit.translation_average(lambda n, x: x, net, np.ones((1, 4, 4)), [(0, 0), (1, 0)])


_FLAT_NET = relkit.random_network((4,), [("dense", 2)], seed=11)
_IMAGE_NET = relkit.random_network((1, 4, 4), [("flatten",), ("dense", 2)], seed=11)
_CONFIG = relkit.deep_taylor_config(_IMAGE_NET)


@pytest.mark.parametrize("call,message", [
    (lambda: relkit.sliding_window_explain(_IMAGE_NET, np.ones((6, 6)), 1, _CONFIG, 0),
     "image rank 2 does not match network input rank 3"),
    (lambda: relkit.sliding_window_explain(_FLAT_NET, np.ones(8), 1,
                                           relkit.deep_taylor_config(_FLAT_NET), 0),
     "sliding window expects a 2-D or (channels, h, w) image"),
    (lambda: relkit.sliding_window_explain(_IMAGE_NET, np.ones((2, 6, 6)), 1, _CONFIG, 0),
     "image has 2 channels, network expects 1"),
    (lambda: relkit.pixel_partition((4,)), "pixel partition needs at least a 2-D shape"),
    (lambda: relkit.quadrant_partition((4,)), "quadrant partition needs at least a 2-D shape"),
    (lambda: relkit.translation_average(lambda n, x: tagged(x), _IMAGE_NET,
                                        np.ones((1, 4, 4)), []),
     "shift set is empty"),
    (lambda: relkit.pattern(np.ones((4, 4)), tagged(np.ones((3, 3)))),
     "heatmap shape (3, 3) does not match image (4, 4)"),
    (lambda: relkit.pattern(np.ones((3, 3)), tagged(np.ones((3, 3))), "bogus"),
     'normalization must be "rescale" or "clip"'),
    (lambda: relkit.render_heatmap(tagged(np.ones(4))),
     "rendering needs a 2-D or (channels, h, w) heatmap"),
    (lambda: relkit.render_heatmap(tagged(np.ones((2, 2))), "jet"), "unknown colormap 'jet'"),
], ids=["window-rank", "window-1d", "window-channels", "pixel-partition-rank",
        "quadrant-partition-rank", "empty-shifts", "pattern-shape", "pattern-normalization",
        "render-rank", "render-colormap"])
def test_public_heatmaptools_checks_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_quadrant_partition_gives_the_middle_row_and_column_of_an_odd_plane_to_the_top_left():
    assert np.array_equal(relkit.quadrant_partition((3, 5)),
                          [[0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [2, 2, 2, 3, 3]])


def test_translation_average_averages_the_explained_values():
    # the shifted copies explain 9 and 6, so the average explains 7.5, not their sum
    def explainer(network, x):
        return tagged(x, explained=float(np.sum(x)))
    hm = relkit.translation_average(explainer, None, np.ones((3, 3)), [(0, 0), (1, 0)])
    assert hm.explained_value == 7.5


def test_sequential_colormap_rounds_to_the_nearest_level():
    ppm = relkit.render_heatmap(tagged([[0.0, 1.0, 2.0]]), colormap="sequential")
    pixels = np.frombuffer(ppm[len(b"P6\n3 1\n255\n"):], np.uint8).reshape(3, 3)
    assert pixels[:, 0].tolist() == [0, 128, 255]  # t = 0.5 is 127.5: rint's even level
