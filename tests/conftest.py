"""Shared fixtures: the max(x1,x2) reference network, random-network builders,
finite-difference oracles, and the two-class digit corpus used end to end."""

import dataclasses
import os

# the suite works on tiny matrices where BLAS thread pools only add overhead
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path

import numpy as np
import pytest

import relkit


@pytest.fixture
def max_network():
    """Two-layer ReLU network computing max(x1, x2) on the positive quadrant:
    0.5*relu(x1-x2) + 0.5*relu(x2-x1) + 0.5*relu(x1+x2), rectified once more."""
    w1 = np.array([[1.0, -1.0, 1.0],
                   [-1.0, 1.0, 1.0]])
    w2 = np.array([[0.5], [0.5], [0.5]])
    return relkit.Network((relkit.dense(w1), relkit.relu(),
                           relkit.dense(w2), relkit.relu()), (2,), 1)


def random_dense_network(rng, sizes, zero_bias=True, nonpositive_bias=False):
    """Dense/ReLU stack with Gaussian weights; biases zero by default."""
    layers = []
    for i in range(len(sizes) - 1):
        w = rng.standard_normal((sizes[i], sizes[i + 1])) / np.sqrt(sizes[i])
        if zero_bias:
            b = None
        elif nonpositive_bias:
            b = -np.abs(rng.standard_normal(sizes[i + 1])) * 0.1
        else:
            b = rng.standard_normal(sizes[i + 1]) * 0.1
        layers.append(relkit.dense(w, b))
        if i < len(sizes) - 2:
            layers.append(relkit.relu())
    return relkit.Network(tuple(layers), (sizes[0],), sizes[-1])


def with_random_biases(network, rng, scale=0.1):
    """The same network with Gaussian biases on every weighted layer."""
    layers = [dataclasses.replace(layer, bias=scale * rng.standard_normal(layer.bias.shape))
              if layer.weights is not None else layer for layer in network.layers]
    return relkit.Network(layers, network.input_shape, network.class_count)


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a tensor."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        step = np.zeros(flat.size)
        step[i] = h
        grad[i] = (f((flat + step).reshape(x.shape))
                   - f((flat - step).reshape(x.shape))) / (2.0 * h)
    return grad.reshape(x.shape)


def two_blob_data(count=200, seed=0):
    """Linearly separable 2-D blobs centered at (-2, 0) and (2, 0)."""
    rng = np.random.default_rng(seed)
    half = count // 2
    left = rng.normal(0.0, 0.5, size=(half, 2)) + np.array([-2.0, 0.0])
    right = rng.normal(0.0, 0.5, size=(half, 2)) + np.array([2.0, 0.0])
    data = np.vstack([left, right])
    labels = np.array([0] * half + [1] * half)
    order = rng.permutation(count)
    return data[order], labels[order]


@pytest.fixture(scope="session")
def two_blob_classifier():
    data, labels = two_blob_data(200, seed=0)
    net = relkit.random_network((2,), [("dense", 2)], seed=1)
    config = relkit.TrainConfig(learning_rate=0.5, epochs=50, batch_size=16, seed=2)
    trained = relkit.train_sgd(net, data, labels, config)
    return trained, data, labels


def _mnist_from_dir(directory):
    directory = Path(directory)
    names = {"train_x": "train-images-idx3-ubyte", "train_y": "train-labels-idx1-ubyte",
             "test_x": "t10k-images-idx3-ubyte", "test_y": "t10k-labels-idx1-ubyte"}
    paths = {key: directory / name for key, name in names.items()}
    if not all(p.exists() for p in paths.values()):
        return None
    train_x = relkit.load_idx(paths["train_x"])
    train_y = relkit.load_idx(paths["train_y"])
    test_x = relkit.load_idx(paths["test_x"])
    test_y = relkit.load_idx(paths["test_y"])
    return train_x, train_y, test_x, test_y, "mnist"


def _upscaled_sklearn_digits():
    try:
        from sklearn.datasets import load_digits
    except ImportError:
        return None
    bunch = load_digits()
    images = bunch.images / 16.0
    idx = np.floor(np.arange(28) * images.shape[1] / 28).astype(int)
    big = images[:, idx][:, :, idx]  # nearest-neighbor upscale to 28x28
    labels = bunch.target
    rng = np.random.default_rng(0)
    order = rng.permutation(len(labels))
    big, labels = big[order], labels[order]
    split = int(0.8 * len(labels))
    return big[:split], labels[:split], big[split:], labels[split:], "sklearn-digits"


def _synthetic_digits():
    from relkit.datagen import make_digits
    train_x, train_y = make_digits(1200, seed=11)
    test_x, test_y = make_digits(300, seed=12)
    return train_x, train_y, test_x, test_y, "synthetic"


@pytest.fixture(scope="session")
def digit_corpus():
    """Two-class (0 vs 1) digit images at 28x28 with train/test split.

    Prefers real MNIST IDX files from $RK_MNIST_DIR, then the bundled
    scikit-learn handwritten digits upscaled to 28x28, then the synthetic
    generator. The source name travels along for reporting.
    """
    corpus = None
    mnist_dir = os.environ.get("RK_MNIST_DIR")
    if mnist_dir:
        corpus = _mnist_from_dir(mnist_dir)
    if corpus is None:
        corpus = _upscaled_sklearn_digits()
    if corpus is None:
        corpus = _synthetic_digits()
    train_x, train_y, test_x, test_y, source = corpus

    def binary(x, y, cap):
        keep = (y == 0) | (y == 1)
        return x[keep][:cap], y[keep][:cap].astype(np.int64)

    train_x, train_y = binary(train_x, train_y, 2000)
    test_x, test_y = binary(test_x, test_y, 500)
    assert len(test_y) >= 50, f"digit corpus too small ({source})"
    return train_x, train_y, test_x, test_y, source


@pytest.fixture(scope="session")
def digit_classifier(digit_corpus):
    """Small convolutional net trained on the two-class digit corpus."""
    train_x, train_y, _, _, _ = digit_corpus
    data = train_x[:, None, :, :]
    net = relkit.random_network(
        (1, 28, 28),
        [("conv", 8, 5, 5, 1, 0), ("relu",), ("sumpool", 2, 2, 2, 0),
         ("flatten",), ("dense", 2)],
        seed=0)
    config = relkit.TrainConfig(learning_rate=0.05, epochs=3, batch_size=16,
                                seed=0, nonpositive_bias=True)
    return relkit.train_sgd(net, data, train_y, config)
