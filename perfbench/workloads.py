"""The three workloads, their set-up, and the layer probe of the traced run.

Every workload runs in one process on one thread as a closed loop with one
client: each operation starts when the previous one has finished. A
workload is four stages (two kinds of work on each of the two nets) that
take turns running fixed-size chunks of operations; each stage's first
chunk is a warm-up, and its rate is the median over its other chunks of
work units per chunk wall time, corrected for host speed (reference.py).
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference
from relkit import (cli, datagen, evalkit, explain, heatmaptools, modelio, netcore,
                    prototype)

ARCHITECTURES = {"conv": "conv:8x5x5/relu/sumpool:2x2/flatten/dense:2",
                 "dense": "flatten/dense:300/relu/dense:100/relu/dense:10"}
NETS = tuple(ARCHITECTURES)
INPUT_SHAPE = (1, 28, 28)
BOUNDS = (0.0, 1.0)
LRP_RULES = ("deeptaylor_pixel", "deeptaylor_real", "alpha1beta0", "alpha2beta1", "epsilon")
SHIFTS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))
PROTOTYPE_TASKS = ((0, 0.01), (1, 0.01), (0, 0.1), (1, 0.1))  # (class, penalty weight)
CONTINUITY_DELTA = 0.01
CONTINUITY_PROBES = 2
CONTINUITY_TRIALS = 2
EPOCHS = 3          # the README training setting
TRAIN_CHUNK = 96    # samples per train_sgd call (times EPOCHS), one call per chunk
SLIDING_STRIDE = 7  # a 56x56 image at stride 7 is 5 x 5 = 25 windows of 28x28
# Last hidden Dense layer of each net (its input index), for the replayed kernels.
HIDDEN_DENSE = {"conv": 4, "dense": 3}


@dataclass(frozen=True)
class Sizes:
    """Work per set-up, chunk and probe. FULL is the benchmark; tests use tiny sizes."""

    train_images: int = 600
    eval_images: int = 200
    setup_repeats: int = 3
    flip_p1_chunk: int = 2        # images per chunk
    flip_p4_chunk: int = 16       # images per chunk
    explain_chunk: int = 48       # images per chunk, each explained by all 7 methods
    multi_chunk: int = 12         # tasks per chunk, rotating continuity/translation/sliding
    prototype_chunk: int = 8      # ascents per chunk, rotating over PROTOTYPE_TASKS
    prototype_steps: int = 50
    accuracy_images: int = 100
    min_chunks: int = 4           # measured chunks per stage, besides the warm-up
    probe_repeats: int = 12


FULL = Sizes()
TINY = Sizes(train_images=160, eval_images=12, setup_repeats=2, flip_p1_chunk=1,
             flip_p4_chunk=2, explain_chunk=2, multi_chunk=3, prototype_chunk=2, prototype_steps=5, accuracy_images=12, min_chunks=2,
             probe_repeats=2)


@dataclass(frozen=True)
class Stage:
    """One rate of a workload: its report name, its key in the result JSON,
    the work unit, the net, the operation, and the operations per chunk."""

    name: str
    key: str
    unit: str
    net: str
    op: object
    chunk_ops: int


@dataclass(frozen=True)
class Corpus:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray


class Context:
    """Per-run state handed to every operation."""

    def __init__(self, seed, sizes, tracer, checker, workdir):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.checker = checker
        self.workdir = Path(workdir)
        self.ops = 0
        self.model_bytes = {}
        self.explainers = {}  # the layer probe's round-tripped models
        self.corpus = None

    def next_op(self):
        self.ops += 1
        return self.ops

    def image(self, index):
        return self.corpus.eval_x[index % len(self.corpus.eval_x)]


class Explainers:
    """A loaded model with the rule configurations the workloads use."""

    def __init__(self, name, model):
        net = model.network
        self.name = name
        self.network = net
        self.configs = {
            "deeptaylor_pixel": explain.deep_taylor_config(net, "pixel", low=model.input_low,
                                                           high=model.input_high),
            "deeptaylor_real": explain.deep_taylor_config(net, "real"),
            "alpha1beta0": explain.alphabeta_config(net, 1.0, 0.0),
            "alpha2beta1": explain.alphabeta_config(net, 2.0, 1.0),
            "epsilon": explain.epsilon_config(net, 1e-9)}


def _lrp_heatmap(network, trace, class_index, config):
    return explain.lrp(network, trace, class_index, config).heatmap()


# ---------------------------------------------------------------- set-up

def make_corpus(seed, sizes):
    train_x, train_y = datagen.make_digits(sizes.train_images, seed)
    eval_x, eval_y = datagen.make_digits(sizes.eval_images, seed + 1)
    return Corpus(train_x[:, None], train_y, eval_x[:, None], eval_y)


def init_networks(seed):
    return {name: netcore.random_network(INPUT_SHAPE, cli.parse_architecture(arch), seed)
            for name, arch in ARCHITECTURES.items()}


def train_config(ctx):
    return netcore.TrainConfig(learning_rate=0.05, epochs=EPOCHS, batch_size=16,
                               seed=ctx.seed, nonpositive_bias=True)


def round_trip(ctx, name, network):
    """Save and reload a net with [0, 1] input bounds, as the CLI does."""
    path = ctx.workdir / f"{name}.json"
    ctx.tracer.call(f"modelio.save_model.{name}", modelio.save_model, network, path,
                    input_bounds=BOUNDS)
    ctx.model_bytes[name] = path.stat().st_size
    return ctx.tracer.call(f"modelio.load_model_file.{name}", modelio.load_model_file, path)


def _accuracy_set(ctx):
    n = ctx.sizes.accuracy_images
    return ctx.corpus.eval_x[:n], ctx.corpus.eval_y[:n]


def setup_trained(ctx, clock):
    """Corpus, both nets trained with the README settings, and the model round
    trip; `clock` laps after each piece, against the matching reference part."""
    ctx.corpus = make_corpus(ctx.seed, ctx.sizes)
    clock.lap()
    trained, models = {}, {}
    for name, init in init_networks(ctx.seed).items():
        trained[name] = ctx.tracer.call(f"netcore.train_sgd.{name}", netcore.train_sgd, init,
                                        ctx.corpus.train_x, ctx.corpus.train_y,
                                        train_config(ctx),
                                        work=len(ctx.corpus.train_y) * EPOCHS)
        clock.lap(name)
        models[name] = round_trip(ctx, name, trained[name])
        clock.lap(name)
    for name, net in trained.items():
        ctx.checker.record(f"setup {name}", checks.trained(name, net, *_accuracy_set(ctx))
                           + _same_logits(net, models[name].network, ctx.image(0)))
    return {name: Explainers(name, model) for name, model in models.items()}


def setup_fit(ctx, clock):
    """Corpus and seeded initial nets; `fit` trains inside its measured stages."""
    ctx.corpus = make_corpus(ctx.seed, ctx.sizes)
    nets = init_networks(ctx.seed)
    clock.lap()
    return nets


def _same_logits(a, b, x):
    if np.array_equal(netcore.forward(a, x).logits, netcore.forward(b, x).logits):
        return []
    return ["reloaded model gives different logits"]


def network_digest(network):
    return tuple(layer.weights.tobytes() + layer.bias.tobytes()
                 for layer in network.layers if layer.weights is not None)


# ---------------------------------------------------------------- operations
# Each operation returns (work units, check) and the stage runner calls
# check() after the chunk's clock has stopped.

def flip_op(ctx, ex, patch, index):
    tr, net = ctx.tracer, ex.network
    x = ctx.image(index)
    trace = tr.call(f"netcore.forward.{ex.name}", netcore.forward, net, x)
    c = int(np.argmax(trace.logits))
    hm = tr.call(f"explain.lrp.deeptaylor_pixel.{ex.name}", _lrp_heatmap, net, trace, c,
                 ex.configs["deeptaylor_pixel"])
    steps = int(np.prod(INPUT_SHAPE)) // (patch * patch)
    curve = tr.call(f"evalkit.pixel_flip.p{patch}.{ex.name}", evalkit.pixel_flip, net, x, hm,
                    evalkit.FlipConfig(patch=patch), work=steps + 1)
    return 1, lambda: (checks.deep_taylor("deep-Taylor heatmap", hm)
                       + checks.flip_curve(f"p{patch} curve", curve, steps,
                                           float(trace.logits[c])))


def explain_op(ctx, ex, index):
    """One image explained by every method after a forward that chooses the
    class. Each LRP rule runs its own forward and then its LRP pass, as
    explain.lrp_heatmap does; sensitivity and simple Taylor run their own."""
    tr, net = ctx.tracer, ex.network
    x = ctx.image(index)
    c = int(np.argmax(tr.call(f"netcore.forward.{ex.name}", netcore.forward, net, x).logits))
    maps = {}
    for rule in LRP_RULES:
        trace = tr.call(f"netcore.forward.{ex.name}", netcore.forward, net, x)
        maps[rule] = tr.call(f"explain.lrp.{rule}.{ex.name}", _lrp_heatmap, net, trace, c,
                             ex.configs[rule])
    maps["sensitivity"] = tr.call(f"explain.sensitivity.{ex.name}", explain.sensitivity,
                                  net, x, c)
    maps["simple_taylor"] = tr.call(f"explain.simple_taylor.{ex.name}", explain.simple_taylor,
                                    net, x, c)

    def check():
        problems = [p for method, hm in maps.items()
                    for p in checks.heatmap(method, hm, INPUT_SHAPE)]
        problems += checks.deep_taylor("deeptaylor_pixel", maps["deeptaylor_pixel"])
        problems += checks.deep_taylor("deeptaylor_real", maps["deeptaylor_real"])
        return problems + checks.epsilon_matches_taylor(maps["epsilon"], maps["simple_taylor"])
    return len(maps), check


def _tiled_image(ctx, index):
    tiles = [ctx.image(index + k)[0] for k in range(4)]
    return np.block([[tiles[0], tiles[1]], [tiles[2], tiles[3]]])[None]


def multi_op(ctx, ex, index):
    """One multi-explanation task; tasks rotate continuity, translation, sliding window."""
    tr, net = ctx.tracer, ex.network
    config = ex.configs["deeptaylor_pixel"]
    x = ctx.image(index)
    c = int(np.argmax(tr.call(f"netcore.forward.{ex.name}", netcore.forward, net, x).logits))

    def explainer(network, image):
        return tr.call(f"explain.lrp_heatmap.deeptaylor_pixel.{ex.name}", explain.lrp_heatmap,
                       network, image, c, config)

    task = index % 3
    if task == 0:
        probes = [ctx.image(index + k) for k in range(CONTINUITY_PROBES)]
        heatmaps = CONTINUITY_PROBES * (1 + CONTINUITY_TRIALS)
        estimate = tr.call(f"evalkit.continuity_estimate.{ex.name}",
                           evalkit.continuity_estimate, explainer, net, probes,
                           CONTINUITY_DELTA, CONTINUITY_TRIALS, ctx.seed + index,
                           work=heatmaps)
        return heatmaps, lambda: (checks.finite("continuity estimate", estimate)
                                  + ([] if estimate >= 0 else ["negative estimate"]))
    if task == 1:
        hm = tr.call(f"heatmaptools.translation_average.{ex.name}",
                     heatmaptools.translation_average, explainer, net, x, SHIFTS,
                     work=len(SHIFTS))
        return len(SHIFTS), lambda: checks.heatmap("translation average", hm, INPUT_SHAPE)
    big = _tiled_image(ctx, index)
    windows = ((big.shape[1] - INPUT_SHAPE[1]) // SLIDING_STRIDE + 1) ** 2
    hm = tr.call(f"heatmaptools.sliding_window_explain.{ex.name}",
                 heatmaptools.sliding_window_explain, net, big, SLIDING_STRIDE, config, c,
                 work=windows)

    def check():
        problems = checks.heatmap("sliding window", hm, big.shape)
        if hm.meta.get("windows") != windows:
            problems.append(f"sliding window explained {hm.meta.get('windows')} windows, "
                            f"expected {windows}")
        return problems
    return windows, check


def _train_slice(ctx, index):
    """The index-th run of TRAIN_CHUNK training images, wrapping around."""
    n = TRAIN_CHUNK
    rows = np.arange(index * n, (index + 1) * n) % len(ctx.corpus.train_y)
    return ctx.corpus.train_x[rows], ctx.corpus.train_y[rows]


def train_op(ctx, name, init, index):
    """Train a fresh copy of the seeded initial net on the index-th training slice."""
    xs, ys = _train_slice(ctx, index)
    samples = len(ys) * EPOCHS
    trained = ctx.tracer.call(f"netcore.train_sgd.{name}", netcore.train_sgd, init, xs, ys,
                              train_config(ctx), work=samples)
    return samples, lambda: checks.trained(name, trained, *_accuracy_set(ctx),
                                           floor=checks.CHUNK_ACCURACY_FLOOR), trained


def prototype_op(ctx, name, network, index):
    """Class prototype anchored at the mean of the index-th training slice, which
    is also the start point; tasks rotate over PROTOTYPE_TASKS."""
    class_index, weight = PROTOTYPE_TASKS[index % len(PROTOTYPE_TASKS)]
    mean = _train_slice(ctx, index)[0].mean(axis=0)
    objective = prototype.AmObjective(class_index, prototype.MeanAnchoredL2(weight, mean))
    options = prototype.AmOptions(step_size=0.1, max_iterations=ctx.sizes.prototype_steps,
                                  init=mean)
    result = ctx.tracer.call(f"prototype.activation_maximize.{name}",
                             prototype.activation_maximize, network, objective, options,
                             work=lambda r: max(r.iterations, 1))
    return result.iterations, lambda: checks.prototype(name, result, INPUT_SHAPE), \
        (objective, result)


# ---------------------------------------------------------------- stages

def flip_stages(ctx, explainers):
    s = ctx.sizes
    stages = []
    for patch, key, chunk in ((1, "stage1", s.flip_p1_chunk), (4, "stage2", s.flip_p4_chunk)):
        for name, ex in explainers.items():
            stages.append(Stage(f"flip_p{patch}_{name}_img_per_s", f"{key}_{name}_per_s",
                                "images/s", name,
                                lambda i, ex=ex, patch=patch: flip_op(ctx, ex, patch, i), chunk))
    return stages


def explain_stages(ctx, explainers):
    s = ctx.sizes
    stages = [Stage(f"explain_{name}_hm_per_s", f"stage1_{name}_per_s", "heatmaps/s", name,
                    lambda i, ex=ex: explain_op(ctx, ex, i), s.explain_chunk)
              for name, ex in explainers.items()]
    stages += [Stage(f"multi_explain_{name}_hm_per_s", f"stage2_{name}_per_s", "heatmaps/s",
                     name, lambda i, ex=ex: multi_op(ctx, ex, i), s.multi_chunk)
               for name, ex in explainers.items()]
    return stages


def fit_stages(ctx, inits):
    s = ctx.sizes
    # The prototype stage ascends on the net trained on corpus slice 0, so
    # its input does not depend on how many training chunks fitted in time.
    trained = {}

    def train(name, i):
        samples, check, net = train_op(ctx, name, inits[name], i)
        if i == 0:
            trained[name] = net
        return samples, check

    def ascend(name, i):
        steps, check, _ = prototype_op(ctx, name, trained[name], i)
        return steps, check

    stages = [Stage(f"train_{name}_samples_per_s", f"stage1_{name}_per_s",
                    "samples*epochs/s", name, lambda i, name=name: train(name, i), 1)
              for name in NETS]
    stages += [Stage(f"prototype_{name}_iters_per_s", f"stage2_{name}_per_s", "steps/s", name,
                     lambda i, name=name: ascend(name, i), s.prototype_chunk)
               for name in NETS]
    return stages, trained


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_stages(ctx, stages, seconds, trace):
    """Rounds of one chunk per stage until `seconds` have passed (and at least
    1 + min_chunks rounds).

    Stages take turns chunk by chunk, so that all four sample the same
    stretches of the host's load, and the reference computation runs between
    chunks to measure the host speed around each one (its part shaped like
    the stage's net). The first round is
    the warm-up. Returns, per stage and per traced flag, the measured
    chunks' (raw rate, host factor) pairs. In a traced run the rounds
    alternate traced / untraced, so the two medians give the tracing
    overhead from the same process and inputs.
    """
    tracer, checker = ctx.tracer, ctx.checker
    rates = {stage.name: {False: [], True: []} for stage in stages}
    deadline = time.perf_counter() + seconds
    ref_before = reference.seconds()
    for round_ in itertools.count():
        traced = trace and round_ % 2 == 0
        for stage in stages:
            tracer.enabled = traced
            pending = []
            units = 0
            start = time.perf_counter()
            with tracer.span(f"chunk:{stage.name}"):
                for i in range(round_ * stage.chunk_ops, (round_ + 1) * stage.chunk_ops):
                    with tracer.span("op", op=ctx.next_op()):
                        work, check = stage.op(i)
                    units += work
                    pending.append((i, check))
            elapsed = time.perf_counter() - start
            tracer.enabled = trace
            ref_after = reference.seconds()
            if round_ > 0:
                rates[stage.name][traced].append(
                    (units / elapsed, reference.host_factor(ref_before, ref_after, stage.net)))
            ref_before = ref_after
            for i, check in pending:
                checker.record(f"{stage.name} op {i}", check())
        if round_ >= ctx.sizes.min_chunks and time.perf_counter() >= deadline:
            return rates


def run_setup(ctx, workload):
    """Set up `setup_repeats` times; returns the state and each set-up's
    HostClock. The accuracy and reload checks of a set-up run outside its
    clocked segments.

    Every repetition must build identical nets: set-up is deterministic.
    """
    setup = setup_fit if workload == "fit" else setup_trained
    times, digests, state = [], [], None
    for _ in range(ctx.sizes.setup_repeats):
        clock = reference.HostClock()
        with ctx.tracer.span("setup", op=ctx.next_op()):
            state = setup(ctx, clock)
        times.append(clock)
        nets = state if workload == "fit" else {k: v.network for k, v in state.items()}
        digests.append({k: network_digest(v) for k, v in nets.items()})
    ctx.checker.record("setup determinism",
                       [] if all(d == digests[0] for d in digests)
                       else ["repeated set-up built different nets"])
    return state, times


def run_workload(ctx, workload, seconds, trace):
    """Set-up, the measured stages, and (traced runs) the layer probe.

    Returns (stages, chunk rates per stage name, set-up times), rates and
    times as run_stages and run_setup give them.
    """
    state, setup_times = run_setup(ctx, workload)
    if workload == "fit":
        stages, trained = fit_stages(ctx, state)
    else:
        stages = (flip_stages if workload == "flip" else explain_stages)(ctx, state)
    with ctx.tracer.span(f"workload:{workload}"):
        rates = run_stages(ctx, stages, seconds, trace)
    if workload != "fit":
        trained = {name: ex.network for name, ex in state.items()}
    if trace:
        with ctx.tracer.span("probe"):
            layer_probe(ctx, trained)
    return stages, rates, setup_times


# ---------------------------------------------------------------- layer probe

def _close(name, got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    gap = float(np.abs(got - want).max(initial=0.0))
    return [] if gap <= rtol * scale else [f"{name}: differs by {gap:.3g} (scale {scale:.3g})"]


def _replay_kernels(ctx, ex, trace, c):
    """Time the public per-layer kernels on activations recorded by `trace`,
    checking each against the relevance the full LRP pass computed."""
    tr, net, name = ctx.tracer, ex.network, ex.name
    reps = ctx.sizes.probe_repeats
    dt_cfg, eps_cfg = ex.configs["deeptaylor_pixel"], ex.configs["epsilon"]
    dt = explain.lrp(net, trace, c, dt_cfg).relevances
    eps = explain.lrp(net, trace, c, eps_cfg).relevances
    problems = []
    k = HIDDEN_DENSE[name]
    layer = net.layers[k]
    for _ in range(reps):
        got_ab = tr.call(f"explain.lrp_dense_alphabeta.{name}", explain.lrp_dense_alphabeta,
                         trace.inputs[k], layer.weights, dt[k + 1], 1.0, 0.0,
                         dt_cfg.stabilizer)
        got_eps = tr.call(f"explain.lrp_dense_epsilon.{name}", explain.lrp_dense_epsilon,
                          trace.inputs[k], layer.weights, layer.bias, eps[k + 1], 1e-9)
    problems += _close("lrp_dense_alphabeta", got_ab, dt[k])
    problems += _close("lrp_dense_epsilon", got_eps, eps[k])
    if name == "dense":
        first, rule = net.layers[1], dt_cfg.layer_rules[1]
        for _ in range(reps):
            got = tr.call("explain.lrp_input_zb.dense", explain.lrp_input_zb, trace.inputs[1],
                          first.weights, dt[2], rule.low, rule.high, dt_cfg.stabilizer)
        problems += _close("lrp_input_zb", got, dt[1])
    else:
        conv, pool = net.layers[0], net.layers[2]
        for _ in range(reps):
            z = tr.call("netcore.conv_apply.conv", netcore.conv_apply, conv.weights,
                        trace.inputs[0], conv.stride, conv.padding)
            back = tr.call("netcore.conv_transpose_apply.conv", netcore.conv_transpose_apply,
                           conv.weights, dt[1], conv.stride, conv.padding, trace.inputs[0].shape)
            pooled = tr.call("explain.lrp_pool.conv", explain.lrp_pool, pool, trace.inputs[2],
                             trace.aux[2], dt[3], explain.PoolProportional(),
                             dt_cfg.stabilizer)
        problems += _close("conv_apply", z + conv.bias[:, None, None], trace.outputs[0])
        # adjoint identity <conv(x), s> = <x, conv_T(s)>
        problems += _close("conv_transpose_apply", np.sum(trace.inputs[0] * back),
                           np.sum(z * dt[1]), rtol=1e-9)
        problems += _close("lrp_pool", pooled, dt[2])
    return problems


def layer_probe(ctx, networks):
    """A fixed pass over every timed public function, on this run's nets.

    The traced run appends it so that every per-layer metric exists on every
    workload; the workload's own spans and the probe's are pooled.
    """
    tr, checker, reps = ctx.tracer, ctx.checker, ctx.sizes.probe_repeats

    def op(label, fn):
        with tr.span("op", op=ctx.next_op()):
            result = fn()
        checker.record(f"probe {label}", result[1]())
        return result

    for name, network in networks.items():
        for _ in range(2):
            model = round_trip(ctx, name, network)
        ex = ctx.explainers[name] = Explainers(name, model)
        checker.record(f"probe {name} round trip", _same_logits(network, ex.network,
                                                                ctx.image(0)))
        for i in range(reps):
            op(f"{name} explain", lambda i=i: explain_op(ctx, ex, i))
        for i in range(3):
            op(f"{name} flip p4", lambda i=i: flip_op(ctx, ex, 4, i))
            op(f"{name} multi", lambda i=i: multi_op(ctx, ex, i))
        op(f"{name} flip p1", lambda: flip_op(ctx, ex, 1, 0))
        op(f"{name} train", lambda: train_op(ctx, name, init_networks(ctx.seed)[name], 0))
        _, _, (objective, result) = op(f"{name} prototype",
                                       lambda: prototype_op(ctx, name, ex.network, 0))
        for _ in range(reps):
            value, _ = tr.call(f"prototype.am_objective.{name}", prototype.am_objective,
                               ex.network, objective, result.prototype)
        checker.record(f"probe {name} am_objective",
                       [] if value == result.trajectory[-1] else
                       [f"am_objective {value!r} != final trajectory value"])

        x = ctx.image(0)
        trace = tr.call(f"netcore.forward.{name}", netcore.forward, ex.network, x)
        c = int(np.argmax(trace.logits))
        checker.record(f"probe {name} kernels", _replay_kernels(ctx, ex, trace, c))

        hm = _lrp_heatmap(ex.network, trace, c, ex.configs["deeptaylor_pixel"])
        for _ in range(reps):
            ppm = tr.call("heatmaptools.render_heatmap", heatmaptools.render_heatmap, hm)
        h, w = INPUT_SHAPE[1:]
        checker.record(f"probe {name} render",
                       [] if len(ppm) == len(f"P6\n{w} {h}\n255\n") + h * w * 3
                       else ["rendered PPM has the wrong size"])
        path = ctx.workdir / "heatmap.csv"
        for _ in range(reps):
            tr.call("modelio.save_heatmap_csv", modelio.save_heatmap_csv, path, hm)
        checker.record(f"probe {name} heatmap csv",
                       _close("heatmap csv", modelio.load_heatmap_csv(path).scores, hm.scores,
                              rtol=0.0))

    path = ctx.workdir / "images.idx"
    modelio.save_idx_images(path, ctx.corpus.eval_x[:, 0])
    for _ in range(3):
        images = tr.call("modelio.load_idx", modelio.load_idx, path)
    want = np.rint(np.clip(ctx.corpus.eval_x[:, 0], 0.0, 1.0) * 255.0) / 255.0
    checker.record("probe load_idx", _close("load_idx", images, want, rtol=0.0))
