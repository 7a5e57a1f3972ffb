"""The synthetic digit corpus: its value range, classes and determinism."""

import numpy as np

from relkit.datagen import make_digits


def test_make_digits_gives_clipped_images_of_both_classes_deterministically():
    images, labels = make_digits(20, seed=3, size=12)
    assert images.shape == (20, 12, 12) and labels.shape == (20,)
    # the additive noise pushes background pixels below 0, which the clip takes back
    assert images.min() == 0.0 and images.max() <= 1.0
    assert set(labels.tolist()) == {0, 1}
    again, again_labels = make_digits(20, seed=3, size=12)
    assert np.array_equal(images, again) and np.array_equal(labels, again_labels)
