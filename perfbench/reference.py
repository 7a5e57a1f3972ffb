"""A fixed reference computation that measures how fast the host is running
right now, so that chunk rates and set-up times can be corrected for host
speed.

It has one part per benchmark net, each a forward and backward pass of
NumPy code shaped like that net (the conv part: windowed convolution
columns, small matrix products, ReLU and pooling; the dense part: the
784-300-100-10 matrix chain, whose weights do not fit in a small cache).
The parts are frozen here in the benchmark, so a change to relkit never
changes them. One measurement of both parts takes about 10 ms.

host_factor(before, after, part) is the mean of a part's times measured just
before and just after a timed piece of work, divided by that part's
NOMINAL_S. Rates are multiplied by it and times divided by it (HostClock),
which expresses them at the host speed where the part takes NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_IMAGE = _RNG.random((1, 28, 28))
_KERNELS = _RNG.standard_normal((8, 25))
_HEAD = _RNG.standard_normal((8 * 12 * 12, 2))
_CHAIN = [_RNG.standard_normal(shape) * 0.05 for shape in ((784, 300), (300, 100), (100, 10))]


def _conv_step():
    cols = np.empty((25, 24 * 24))
    for i in range(5):
        for j in range(5):
            cols[i * 5 + j] = _IMAGE[0, i:i + 24, j:j + 24].reshape(-1)
    z = np.maximum(_KERNELS @ cols, 0.0)
    pooled = z.reshape(8, 12, 2, 12, 2).sum(axis=(2, 4))
    g = (_HEAD @ (pooled.reshape(-1) @ _HEAD)).reshape(8, 12, 12)
    g = g.repeat(2, axis=1).repeat(2, axis=2).reshape(8, 24 * 24) * (z > 0.0)
    back = (_KERNELS.T @ g).reshape(25, 24, 24)
    grad = np.zeros((28, 28))
    for i in range(5):
        for j in range(5):
            grad[i:i + 24, j:j + 24] += back[i * 5 + j]
    return float(grad.sum())


def _dense_step():
    h = _IMAGE.reshape(-1)
    for w in _CHAIN:
        h = np.maximum(h @ w, 0.0)
    for w in reversed(_CHAIN):
        h = w @ h
    return float(h.sum())


PARTS = {"conv": (_conv_step, 16), "dense": (_dense_step, 24)}  # step, repeats
# Typical time of each part on the 2-vCPU Xeon VM this was written on.
NOMINAL_S = {"conv": 0.0049, "dense": 0.0043}


def seconds():
    """Wall time of one measurement of each part."""
    times = {}
    for part, (step, repeats) in PARTS.items():
        start = time.perf_counter()
        for _ in range(repeats):
            step()
        times[part] = time.perf_counter() - start
    return times


class HostClock:
    """Times a sequence of segments, correcting each for host speed.

    `lap(part)` closes the segment since the previous lap (or creation),
    times the reference around it, and adds the segment's wall time to `raw`
    and its time at nominal host speed to `corrected`. Reference time is
    left out of both. Segments last seconds, so one 5 ms reference sample
    caught in a momentary stall would misstate them: each end takes the
    median of three samples.
    """

    def __init__(self):
        self.raw = self.corrected = 0.0
        self._ref = self._sample()
        self._start = time.perf_counter()

    @staticmethod
    def _sample():
        samples = [seconds() for _ in range(3)]
        return {part: sorted(s[part] for s in samples)[1] for part in PARTS}

    def lap(self, part=None):
        elapsed = time.perf_counter() - self._start
        ref = self._sample()
        self.raw += elapsed
        self.corrected += elapsed / host_factor(self._ref, ref, part)
        self._ref = ref
        self._start = time.perf_counter()


def host_factor(before, after, part=None):
    """Host slowness around a piece of work: 1.0 at nominal speed, above when
    slower. `part` selects one net's part; None uses both."""
    parts = [part] if part else list(PARTS)
    measured = sum(before[p] + after[p] for p in parts) / 2.0
    return measured / sum(NOMINAL_S[p] for p in parts)
