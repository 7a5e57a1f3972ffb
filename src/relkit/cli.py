"""Command-line surface: train, explain, prototype, evaluate, render.

Every subcommand takes --seed (falling back to the RK_SEED environment
variable, then 0) and writes deterministic outputs, so a rerun with the same
arguments produces byte-identical files. Exit codes: 0 success, 2 usage
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evalkit, explain, heatmaptools, modelio, netcore, prototype


def _resolve_seed(value):
    """The --seed value, else the RK_SEED environment variable, else 0; either
    source must hold a non-negative integer."""
    text = str(value) if value is not None else os.environ.get("RK_SEED") or "0"
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{'RK_SEED' if value is None else '--seed'} must be a "
                         f"non-negative integer, got {text!r}")
    return seed


def _adapt_sample(image, input_shape):
    """Reshape one (H, W) dataset image to the network's input shape."""
    if image.shape == tuple(input_shape):
        return image
    if len(input_shape) == 3 and input_shape[0] == 1 and image.shape == tuple(input_shape[1:]):
        return image[None, :, :]
    if len(input_shape) == 1 and image.size == input_shape[0]:
        return image.reshape(input_shape)
    raise ValueError(f"dataset image of shape {image.shape} does not fit the "
                     f"network input shape {tuple(input_shape)}")


def _dataset_image(images, flag, index):
    """Image `index` of a dataset, or an error that names the `flag` giving it."""
    if not 0 <= index < images.shape[0]:
        raise ValueError(f"{flag} {index} out of range for {images.shape[0]} images")
    return images[index]


def _non_negative(flag, value):
    """`value` of `flag`, which must be >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def _class_of(network, x, chosen=None):
    """`chosen` when given, else the class the network predicts for `x`."""
    if chosen is not None:
        return chosen
    return int(np.argmax(netcore.forward(network, x).logits))


def _write(path, data):
    """Write text or bytes to `path` and say so."""
    mode, encoding = ("wb", None) if isinstance(data, bytes) else ("w", "utf-8")
    with open(path, mode, encoding=encoding) as fh:
        fh.write(data)
    print(f"wrote {path}")


# parse_architecture token head -> (number of sizes, token form)
_LAYER_TOKENS = {"dense": (1, "dense:OUT"), "conv": (3, "conv:FxKHxKW[:sS][:pP]"),
                 "relu": (0, "relu"), "flatten": (0, "flatten"),
                 **{pool: (2, f"{pool}:PHxPW[:sS][:pP]")
                    for pool in ("maxpool", "sumpool", "avgpool")}}


def parse_architecture(text):
    """Parse layer tokens joined by "/" into a random_network plan.

    Tokens: dense:OUT, conv:FxKHxKW[:sS][:pP], relu, flatten,
    maxpool:PHxPW[:sS][:pP] (likewise sumpool/avgpool). Sizes and strides are
    positive integers, paddings non-negative ones; a malformed token is a
    ValueError naming the token and its form.
    """
    plan = []
    for token in text.split("/"):
        head, *fields = token.strip().split(":")
        if head not in _LAYER_TOKENS:
            raise ValueError(f"unknown layer token {head!r}")
        arity, form = _LAYER_TOKENS[head]
        sizes = fields[0].split("x") if fields else []
        opts = {field[:1]: field[1:] for field in fields[1:]}
        if (len(sizes) != arity or len(opts) < len(fields) - 1
                or not set(opts) <= ({"s", "p"} if arity > 1 else set())
                or not all(v.isdecimal() for v in [*sizes, *opts.values()])
                or 0 in [int(v) for v in [*sizes, opts.get("s", "1")]]):
            raise ValueError(f"bad layer token {token!r}, expected {form}")
        entry = (head, *(int(v) for v in sizes))
        if arity > 1:  # conv strides default to 1, pool strides to the window height
            stride = opts.get("s", 1 if head == "conv" else sizes[0])
            entry += (int(stride), int(opts.get("p", 0)))
        plan.append(entry)
    return plan


def _cmd_train(args):
    bounds = None if args.no_bounds else modelio.check_input_bounds(*args.bounds, "--bounds")
    images = modelio.load_idx(args.data)
    labels = modelio.load_idx(args.labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError("image and label counts differ")
    if _non_negative("--limit", args.limit):
        images, labels = images[:args.limit], labels[:args.limit]

    if args.model:
        network = modelio.load_model(args.model)
    elif args.arch:
        input_shape = (1,) + images.shape[1:]
        network = netcore.random_network(input_shape, parse_architecture(args.arch), args.seed)
    else:
        raise ValueError("train needs either --arch or --model to start from")

    data = np.stack([_adapt_sample(img, network.input_shape) for img in images])
    config = netcore.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                 batch_size=args.batch, seed=args.seed,
                                 nonpositive_bias=args.nonpositive_bias)
    trained = netcore.train_sgd(network, data, labels, config, verbose=args.verbose)

    correct = sum(int(_class_of(trained, x) == y) for x, y in zip(data, labels))
    print(f"train accuracy: {correct}/{len(labels)} = {correct / len(labels):.4f}")

    modelio.save_model(trained, args.out, input_bounds=bounds)
    print(f"wrote {args.out}")
    return 0


# --output flag -> the explained output's name in netcore.class_output
_EXPLAINED_OUTPUT = {"logit": "logit", "logprob": "log_probability"}


def _method(args, model_file):
    """The --method, built once per command: its RuleConfig (None for a gradient explainer)
    and a (network, x, class) -> Heatmap function. --input-domain auto is pixel when the
    model stores input bounds, else real; pixel without stored bounds takes the box [0, 1]."""
    output = _EXPLAINED_OUTPUT[args.output]
    if args.method != "lrp":
        gradient = explain.GRADIENT_EXPLAINERS[args.method]
        return None, lambda net, x, c: gradient(net, x, c, output)
    low, high = model_file.input_low, model_file.input_high
    auto = "real" if low is None else "pixel"
    domain = auto if args.input_domain == "auto" else args.input_domain
    config = explain.rule_config(model_file.network, args.rule, domain,
                                 0.0 if low is None else low, 1.0 if high is None else high,
                                 args.epsilon, explained_output=output)
    return config, lambda net, x, c: explain.lrp_heatmap(net, x, c, config)


def _filter_mask(text, network):
    """Parse --filter LAYER:INDEX into (layer, one-hot mask over the relevance at
    that layer's input; LAYER = layer count means the logits)."""
    layer_str, _, index_str = text.partition(":")
    try:
        layer_index, flat_index = int(layer_str), int(index_str)
    except ValueError:
        raise ValueError(f"--filter must be LAYER:INDEX with two integers, got {text!r}") from None
    layers = len(network.layers)
    if not 0 <= layer_index <= layers:
        raise ValueError(f"--filter layer {layer_index} out of range [0, {layers}]")
    mask = np.zeros(network.activation_shapes[layer_index])
    if not 0 <= flat_index < mask.size:
        raise ValueError(f"--filter index {flat_index} out of range [0, {mask.size}) "
                         f"for layer {layer_index}")
    mask.ravel()[flat_index] = 1.0
    return layer_index, mask


def _cmd_explain(args):
    model_file = modelio.load_model_file(args.model)
    network = model_file.network
    _non_negative("--translate", args.translate)
    _non_negative("--sliding-window", args.sliding_window)
    lrp_task = "--sliding-window" if args.sliding_window else "--filter" if args.filter else None
    if lrp_task and args.method != "lrp":
        raise ValueError(f"{lrp_task} applies to --method lrp")
    image = _dataset_image(modelio.load_idx(args.data), "--index", args.index)

    class_index = args.class_index
    if args.sliding_window:
        if class_index is None:
            raise ValueError("--sliding-window needs an explicit --class")
        x = image[None, :, :] if len(network.input_shape) == 3 and image.ndim == 2 else image
    else:
        x = _adapt_sample(image, network.input_shape)
        class_index = _class_of(network, x, class_index)
    config, explainer = _method(args, model_file)
    if args.sliding_window:
        heatmap = heatmaptools.sliding_window_explain(network, x, args.sliding_window, config,
                                                      class_index)
    elif args.translate:
        k = args.translate
        shifts = [(dy, dx) for dy in range(-k, k + 1) for dx in range(-k, k + 1)]
        heatmap = heatmaptools.translation_average(
            lambda net, shifted: explainer(net, shifted, class_index), network, x, shifts)
    elif args.filter:
        heatmap = explain.filter_relevance(network, netcore.forward(network, x), class_index,
                                           config, *_filter_mask(args.filter, network))
    else:
        heatmap = explainer(network, x, class_index)

    modelio.save_heatmap_csv(args.out, heatmap)
    print(f"class {class_index}: explained value {heatmap.explained_value!r}, "
          f"heatmap total {heatmap.total!r}")
    print(f"wrote {args.out}")
    if args.pattern:
        masked = heatmaptools.pattern(x, heatmap)
        modelio.save_tensor_csv(args.pattern, masked, {"source": args.out})
        print(f"wrote {args.pattern}")
    if args.ppm:
        _write(args.ppm, heatmaptools.render_heatmap(heatmap, args.colormap))
    return 0


def _cmd_prototype(args):
    if args.clip and not (np.isfinite(args.clip).all() and args.clip[0] <= args.clip[1]):
        raise ValueError("--clip needs finite LOW <= HIGH, got {!r} {!r}".format(*args.clip))
    model_file = modelio.load_model_file(args.model)
    network = model_file.network

    data_mean = None
    images = None
    if args.data:
        images = modelio.load_idx(args.data)
        data_mean = _adapt_sample(images.mean(axis=0), network.input_shape)

    regularizer = None
    if args.regularizer == "l2":
        regularizer = prototype.L2Penalty(args.lam)
    elif args.regularizer == "l2mean":
        if data_mean is None:
            raise ValueError("--regularizer l2mean needs --data for the mean")
        regularizer = prototype.MeanAnchoredL2(args.lam, data_mean)
    elif args.regularizer == "expert":
        source = args.expert or args.model
        expert = (modelio.load_model_file(args.expert) if args.expert else model_file).expert
        if expert is None:
            raise ValueError(f"{source} contains no expert parameters")
        try:  # an --expert file's expert must fit this network, checked before the search
            expert.require_dim(int(np.prod(network.input_shape)))
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        regularizer = prototype.ExpertPrior(expert)

    localization = None
    if _non_negative("--eta", args.eta):
        if images is None or args.x0_index is None:
            raise ValueError("--eta needs --data and --x0-index for the reference point")
        reference = _adapt_sample(_dataset_image(images, "--x0-index", args.x0_index),
                                  network.input_shape)
        localization = prototype.Localization(args.eta, reference)

    objective = prototype.AmObjective(args.class_index, regularizer, localization)
    options = prototype.AmOptions(step_size=args.step_size, max_iterations=args.steps,
                                  gradient_tolerance=args.tol, init=data_mean)
    result = prototype.activation_maximize(network, objective, options)
    print(f"class {args.class_index}: probability {result.final_probability:.6f} "
          f"after {result.iterations} accepted steps")
    meta = {"class_index": args.class_index,
            "final_probability": result.final_probability,
            "iterations": result.iterations,
            "objective": result.trajectory[-1]}
    found = result.prototype
    if args.clip:
        # the search itself is unconstrained; clipping is post-processing only
        low, high = args.clip
        found = np.clip(found, low, high)
        logits = netcore.forward(network, found).logits
        meta["clip"] = [low, high]
        meta["final_probability"] = float(netcore.softmax(logits)[args.class_index])
        print(f"clipped to [{low:g}, {high:g}]: "
              f"probability {meta['final_probability']:.6f}")
    modelio.save_tensor_csv(args.out, found, meta)
    print(f"wrote {args.out}")
    if args.ppm:
        _write(args.ppm, heatmaptools.render_heatmap(
            explain.Heatmap.from_scores(found, 0.0, "prototype"), "sequential"))
    return 0


def _cmd_evaluate(args):
    if args.pixel_flip and not args.out:
        raise ValueError("--pixel-flip needs --out for its curve or summary")
    model_file = modelio.load_model_file(args.model)
    network = model_file.network
    images = modelio.load_idx(args.data)
    count = min(_non_negative("--count", args.count), images.shape[0])
    if args.count and not count:
        raise ValueError(f"--count {args.count}: the dataset {args.data} holds no images")
    indices = range(count) if args.count else [args.index]
    # only --index can be out of range
    probes = [_adapt_sample(_dataset_image(images, "--index", i), network.input_shape)
              for i in indices]
    classes = [_class_of(network, x, args.class_index) for x in probes]

    flip = evalkit.FlipConfig(patch=args.patch, fill=args.fill,
                              max_steps=args.max_steps) if args.pixel_flip else None
    _, explainer = _method(args, model_file)
    if args.pixel_flip:
        curves = [evalkit.pixel_flip(network, x, explainer(network, x, c), flip)
                  for x, c in zip(probes, classes)]
        if not args.count:
            modelio.save_curve_csv(args.out, curves[0])
            print(f"AUC: {curves[0].auc!r}")
            print(f"wrote {args.out}")
            return 0
        mean_auc = float(np.mean([curve.auc for curve in curves]))
        lines = ["# relkit-flip-summary v1", f"# mean_auc: {mean_auc!r}", "index,auc"]
        lines.extend(f"{i},{curve.auc!r}" for i, curve in zip(indices, curves))
        print(f"mean AUC over {len(curves)} images: {mean_auc!r}")
        _write(args.out, "\n".join(lines) + "\n")
        return 0

    # continuity scores one explanation function: the first probe's class at every probe
    first = classes[0]
    estimate = evalkit.continuity_estimate(lambda net, x: explainer(net, x, first), network,
                                           probes, args.delta, args.trials, args.seed)
    print(f"continuity estimate (sampled lower bound): {estimate!r}")
    if args.out:
        _write(args.out, "# relkit-continuity v1\n"
                         f"# delta: {args.delta!r}\n# trials: {args.trials}\n"
                         f"estimate\n{estimate!r}\n")
    return 0


def _cmd_render(args):
    heatmap = modelio.load_heatmap_csv(args.heatmap)
    _write(args.out, heatmaptools.render_heatmap(heatmap, args.colormap))
    return 0


def _add_method_flags(sub):
    sub.add_argument("--method", choices=(*explain.GRADIENT_EXPLAINERS, "lrp"), default="lrp")
    sub.add_argument("--rule", choices=explain.LRP_RULES, default=explain.DEEP_TAYLOR)
    sub.add_argument("--epsilon", type=float, default=1e-9,
                     help="epsilon for --rule epsilon")
    sub.add_argument("--input-domain", choices=("auto", *explain.INPUT_DOMAINS),
                     default="auto", help="first-layer rule domain for deeptaylor")
    sub.add_argument("--class", dest="class_index", type=int, default=None,
                     help="class to explain (default: predicted class)")
    sub.add_argument("--output", choices=tuple(_EXPLAINED_OUTPUT), default="logit",
                     help="explained quantity")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relkit",
        description="Train small ReLU networks and explain their predictions.")
    commands = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)

    def command(name, func, help):
        sub = commands.add_parser(name, help=help, parents=[common])
        sub.set_defaults(func=func)
        return sub

    train = command("train", _cmd_train, "train a model on an IDX dataset")
    train.add_argument("--data", required=True, help="IDX image file")
    train.add_argument("--labels", required=True, help="IDX label file")
    train.add_argument("--out", required=True, help="output model JSON")
    train.add_argument("--arch", help='layer plan, e.g. "conv:8x5x5/relu/'
                                      'sumpool:2x2/flatten/dense:2"')
    train.add_argument("--model", help="start from an existing model JSON")
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch", type=int, default=32)
    train.add_argument("--limit", type=int, default=0, help="use only the first N samples")
    train.add_argument("--nonpositive-bias", action="store_true",
                       help="project biases to <= 0 after every update")
    train.add_argument("--bounds", type=float, nargs=2, default=(0.0, 1.0),
                       metavar=("LOW", "HIGH"), help="input bounds stored in the model")
    train.add_argument("--no-bounds", action="store_true",
                       help="do not store input bounds")
    train.add_argument("--verbose", action="store_true")

    expl = command("explain", _cmd_explain, "explain one prediction as a heatmap")
    expl.add_argument("--model", required=True)
    expl.add_argument("--data", required=True, help="IDX image file")
    expl.add_argument("--index", type=int, default=0, help="image index to explain")
    _add_method_flags(expl)
    task = expl.add_mutually_exclusive_group()
    task.add_argument("--filter", metavar="LAYER:INDEX",
                      help="keep only relevance through one unit of a layer")
    task.add_argument("--translate", type=int, default=0, metavar="K",
                      help="average explanations over shifts up to K pixels")
    task.add_argument("--sliding-window", type=int, default=0, metavar="STRIDE",
                      help="explain an oversized image window by window")
    expl.add_argument("--pattern", metavar="PATH",
                      help="also write the heatmap-masked image as CSV")
    expl.add_argument("--out", required=True, help="output heatmap CSV")
    expl.add_argument("--ppm", help="also render the heatmap to this PPM file")
    expl.add_argument("--colormap", choices=("diverging", "sequential"),
                      default="diverging")

    proto = command("prototype", _cmd_prototype, "synthesize a class prototype")
    proto.add_argument("--model", required=True)
    proto.add_argument("--class", dest="class_index", type=int, required=True)
    proto.add_argument("--regularizer", choices=("none", "l2", "l2mean", "expert"),
                       default="none")
    proto.add_argument("--lambda", dest="lam", type=float, default=0.01,
                       help="weight of the l2/l2mean penalty")
    proto.add_argument("--eta", type=float, default=0.0,
                       help="localization weight (needs --data and --x0-index)")
    proto.add_argument("--x0-index", type=int, default=None,
                       help="dataset index of the localization reference")
    proto.add_argument("--expert", help="model JSON holding the expert "
                                        "(default: --model file)")
    proto.add_argument("--data", help="IDX images for the mean init / anchors")
    proto.add_argument("--steps", type=int, default=500)
    proto.add_argument("--step-size", type=float, default=0.1)
    proto.add_argument("--tol", type=float, default=1e-6)
    proto.add_argument("--clip", type=float, nargs=2, metavar=("LOW", "HIGH"),
                       help="clip the found prototype to a value range "
                            "(post-processing only)")
    proto.add_argument("--out", required=True, help="output prototype CSV")
    proto.add_argument("--ppm", help="also render the prototype to this PPM file")

    ev = command("evaluate", _cmd_evaluate, "score explanation quality")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--index", type=int, default=0)
    ev.add_argument("--count", type=int, default=0,
                    help="evaluate the first N images instead of --index")
    _add_method_flags(ev)
    task = ev.add_mutually_exclusive_group(required=True)
    task.add_argument("--pixel-flip", action="store_true",
                      help="selectivity by greedy feature removal (needs --out)")
    task.add_argument("--continuity", action="store_true",
                      help="sampled explanation-continuity estimate")
    ev.add_argument("--patch", type=int, default=4, help="square patch side")
    ev.add_argument("--fill", type=float, default=0.0, help="removal fill value")
    ev.add_argument("--max-steps", type=int, default=None)
    ev.add_argument("--delta", type=float, default=1e-2, help="perturbation norm")
    ev.add_argument("--trials", type=int, default=10, help="perturbations per probe")
    ev.add_argument("--out", help="output CSV")

    rend = command("render", _cmd_render, "render a heatmap CSV as a PPM image")
    rend.add_argument("--heatmap", required=True, help="heatmap CSV")
    rend.add_argument("--out", required=True, help="output PPM path")
    rend.add_argument("--colormap", choices=("diverging", "sequential"),
                      default="diverging")
    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.seed = _resolve_seed(args.seed)
        return int(args.func(args) or 0)
    except (ValueError, OSError, IndexError) as exc:
        print(f"relkit: error: {exc}", file=sys.stderr)
        return 1
