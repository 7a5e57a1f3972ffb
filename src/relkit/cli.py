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
    source, text = ("--seed", str(value)) if value is not None else (
        "RK_SEED", os.environ.get("RK_SEED") or "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
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


def _indexed_image(args):
    return _dataset_image(modelio.load_idx(args.data), "--index", args.index)


def parse_architecture(text):
    """Parse layer tokens joined by "/" into a random_network plan.

    Tokens: dense:OUT, conv:FxKHxKW[:sS][:pP], relu, flatten,
    maxpool:PHxPW[:sS][:pP] (likewise sumpool/avgpool).
    """
    plan = []
    for token in text.split("/"):
        parts = token.strip().split(":")
        head = parts[0]
        opts = {"s": None, "p": 0}
        for part in parts[2:]:
            if part[:1] not in opts or not part[1:].isdigit():
                raise ValueError(f"bad layer option {part!r} in token {token!r}")
            opts[part[0]] = int(part[1:])
        if head == "dense":
            plan.append(("dense", int(parts[1])))
        elif head == "conv":
            f, kh, kw = (int(v) for v in parts[1].split("x"))
            plan.append(("conv", f, kh, kw, opts["s"] or 1, opts["p"]))
        elif head in ("maxpool", "sumpool", "avgpool"):
            ph, pw = (int(v) for v in parts[1].split("x"))
            plan.append((head, ph, pw, opts["s"] or ph, opts["p"]))
        elif head in ("relu", "flatten"):
            plan.append((head,))
        else:
            raise ValueError(f"unknown layer token {head!r}")
    return plan


def _cmd_train(args):
    images = modelio.load_idx(args.data)
    labels = modelio.load_idx(args.labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError("image and label counts differ")
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    if args.limit:
        images, labels = images[:args.limit], labels[:args.limit]
    seed = args.seed

    if args.model:
        network = modelio.load_model(args.model)
    elif args.arch:
        input_shape = (1,) + images.shape[1:]
        network = netcore.random_network(input_shape, parse_architecture(args.arch), seed)
    else:
        raise ValueError("train needs either --arch or --model to start from")

    data = np.stack([_adapt_sample(img, network.input_shape) for img in images])
    config = netcore.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                 batch_size=args.batch, seed=seed,
                                 nonpositive_bias=args.nonpositive_bias)
    trained = netcore.train_sgd(network, data, labels, config, verbose=args.verbose)

    correct = sum(int(np.argmax(netcore.forward(trained, x).logits) == y)
                  for x, y in zip(data, labels))
    print(f"train accuracy: {correct}/{len(labels)} = {correct / len(labels):.4f}")

    bounds = None if args.no_bounds else (float(args.bounds[0]), float(args.bounds[1]))
    modelio.save_model(trained, args.out, input_bounds=bounds)
    print(f"wrote {args.out}")
    return 0


def _rule_config(args, model_file):
    network = model_file.network
    mode = "log_probability" if args.output == "logprob" else "logit"
    if args.rule == "alpha1beta0":
        return explain.alphabeta_config(network, 1.0, 0.0, explained_output=mode)
    if args.rule == "alpha2beta1":
        return explain.alphabeta_config(network, 2.0, 1.0, explained_output=mode)
    if args.rule == "epsilon":
        return explain.epsilon_config(network, args.epsilon, explained_output=mode)
    # deeptaylor
    domain = args.input_domain
    if domain == "auto":
        domain = "pixel" if model_file.input_low is not None else "real"
    if domain == "pixel":
        low = model_file.input_low if model_file.input_low is not None else 0.0
        high = model_file.input_high if model_file.input_high is not None else 1.0
        return explain.deep_taylor_config(network, "pixel", low=low, high=high,
                                          explained_output=mode)
    return explain.deep_taylor_config(network, domain, explained_output=mode)


def _explainer(args, model_file):
    mode = "log_probability" if args.output == "logprob" else "logit"
    if args.method == "sensitivity":
        return lambda net, x: explain.sensitivity(net, x, args.class_index, mode)
    if args.method == "taylor":
        return lambda net, x: explain.simple_taylor(net, x, args.class_index, mode)
    config = _rule_config(args, model_file)
    return lambda net, x: explain.lrp_heatmap(net, x, args.class_index, config)


def _filter_mask(text, trace):
    """Parse --filter LAYER:INDEX into (layer, one-hot mask over the relevance at
    that layer's input; LAYER = layer count means the logits)."""
    layer_str, _, index_str = text.partition(":")
    try:
        layer_index, flat_index = int(layer_str), int(index_str)
    except ValueError:
        raise ValueError(f"--filter must be LAYER:INDEX with two integers, got {text!r}") from None
    layers = len(trace.inputs)
    if not 0 <= layer_index <= layers:
        raise ValueError(f"--filter layer {layer_index} out of range [0, {layers}]")
    shape = trace.logits.shape if layer_index == layers else trace.inputs[layer_index].shape
    mask = np.zeros(shape)
    if not 0 <= flat_index < mask.size:
        raise ValueError(f"--filter index {flat_index} out of range [0, {mask.size}) "
                         f"for layer {layer_index}")
    mask.ravel()[flat_index] = 1.0
    return layer_index, mask


def _cmd_explain(args):
    model_file = modelio.load_model_file(args.model)
    network = model_file.network

    if args.sliding_window:
        if args.method != "lrp":
            raise ValueError("--sliding-window applies to --method lrp")
        big = _indexed_image(args)
        if len(network.input_shape) == 3:
            big = big[None, :, :] if big.ndim == 2 else big
        if args.class_index is None:
            raise ValueError("--sliding-window needs an explicit --class")
        config = _rule_config(args, model_file)
        heatmap = heatmaptools.sliding_window_explain(network, big, args.sliding_window,
                                                      config, args.class_index)
        x = big
    else:
        x = _adapt_sample(_indexed_image(args), network.input_shape)
        if args.class_index is None:
            args.class_index = int(np.argmax(netcore.forward(network, x).logits))
        explainer = _explainer(args, model_file)
        if args.translate and args.filter:
            raise ValueError("--translate and --filter cannot be combined")
        if args.translate:
            k = args.translate
            shifts = [(dy, dx) for dy in range(-k, k + 1) for dx in range(-k, k + 1)]
            heatmap = heatmaptools.translation_average(explainer, network, x, shifts)
        elif args.filter:
            if args.method != "lrp":
                raise ValueError("--filter applies to --method lrp")
            trace = netcore.forward(network, x)
            config = _rule_config(args, model_file)
            layer_index, mask = _filter_mask(args.filter, trace)
            heatmap = explain.filter_relevance(network, trace, args.class_index,
                                               config, layer_index, mask)
        else:
            heatmap = explainer(network, x)

    modelio.save_heatmap_csv(args.out, heatmap)
    print(f"class {args.class_index}: explained value {heatmap.explained_value!r}, "
          f"heatmap total {heatmap.total!r}")
    print(f"wrote {args.out}")
    if args.pattern:
        masked = heatmaptools.pattern(x, heatmap)
        modelio.save_tensor_csv(args.pattern, masked, {"source": args.out})
        print(f"wrote {args.pattern}")
    if args.ppm:
        with open(args.ppm, "wb") as fh:
            fh.write(heatmaptools.render_heatmap(heatmap, args.colormap))
        print(f"wrote {args.ppm}")
    return 0


def _cmd_prototype(args):
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
        expert = modelio.load_model_file(source).expert
        if expert is None:
            raise ValueError(f"{source} contains no expert parameters")
        regularizer = prototype.ExpertPrior(expert)

    localization = None
    if args.eta > 0:
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
        rendered = heatmaptools.render_heatmap(
            explain.Heatmap.from_scores(found, 0.0, "prototype"), "sequential")
        with open(args.ppm, "wb") as fh:
            fh.write(rendered)
        print(f"wrote {args.ppm}")
    return 0


def _cmd_evaluate(args):
    model_file = modelio.load_model_file(args.model)
    network = model_file.network
    seed = args.seed
    images = modelio.load_idx(args.data)
    if not args.pixel_flip and not args.continuity:
        raise ValueError("evaluate needs --pixel-flip or --continuity")
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")

    def sample(i):  # only --index can be out of range
        return _adapt_sample(_dataset_image(images, "--index", i), network.input_shape)

    def classify(x):
        return int(np.argmax(netcore.forward(network, x).logits))

    if args.pixel_flip:
        config = evalkit.FlipConfig(patch=args.patch, fill=args.fill,
                                    max_steps=args.max_steps)
        if args.count:
            rows = []
            for i in range(min(args.count, images.shape[0])):
                x = sample(i)
                args.class_index = classify(x)
                hm = _explainer(args, model_file)(network, x)
                rows.append((i, evalkit.pixel_flip(network, x, hm, config).auc))
            mean_auc = float(np.mean([r[1] for r in rows]))
            lines = ["# relkit-flip-summary v1",
                     f"# mean_auc: {mean_auc!r}",
                     "index,auc"]
            lines.extend(f"{i},{auc_value!r}" for i, auc_value in rows)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"mean AUC over {len(rows)} images: {mean_auc!r}")
        else:
            x = sample(args.index)
            if args.class_index is None:
                args.class_index = classify(x)
            hm = _explainer(args, model_file)(network, x)
            curve = evalkit.pixel_flip(network, x, hm, config)
            modelio.save_curve_csv(args.out, curve)
            print(f"AUC: {curve.auc!r}")
        print(f"wrote {args.out}")
        return 0

    # continuity
    probes = ([sample(i) for i in range(min(args.count, images.shape[0]))] if args.count
              else [sample(args.index)])
    if args.class_index is None:
        args.class_index = classify(probes[0])
    explainer = _explainer(args, model_file)
    estimate = evalkit.continuity_estimate(explainer, network, probes,
                                           args.delta, args.trials, seed)
    print(f"continuity estimate (sampled lower bound): {estimate!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("# relkit-continuity v1\n"
                     f"# delta: {args.delta!r}\n# trials: {args.trials}\n"
                     f"estimate\n{estimate!r}\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_render(args):
    heatmap = modelio.load_heatmap_csv(args.heatmap)
    data = heatmaptools.render_heatmap(heatmap, args.colormap)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out}")
    return 0


def _add_method_flags(sub):
    sub.add_argument("--method", choices=("sensitivity", "taylor", "lrp"), default="lrp")
    sub.add_argument("--rule", choices=("deeptaylor", "alpha1beta0", "alpha2beta1",
                                        "epsilon"), default="deeptaylor")
    sub.add_argument("--epsilon", type=float, default=1e-9,
                     help="epsilon for --rule epsilon")
    sub.add_argument("--input-domain", choices=("auto", "relu", "pixel", "real"),
                     default="auto", help="first-layer rule domain for deeptaylor")
    sub.add_argument("--class", dest="class_index", type=int, default=None,
                     help="class to explain (default: predicted class)")
    sub.add_argument("--output", choices=("logit", "logprob"), default="logit",
                     help="explained quantity")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relkit",
        description="Train small ReLU networks and explain their predictions.")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a model on an IDX dataset")
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
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=_cmd_train)

    expl = commands.add_parser("explain", help="explain one prediction as a heatmap")
    expl.add_argument("--model", required=True)
    expl.add_argument("--data", required=True, help="IDX image file")
    expl.add_argument("--index", type=int, default=0, help="image index to explain")
    _add_method_flags(expl)
    expl.add_argument("--filter", metavar="LAYER:INDEX",
                      help="keep only relevance through one unit of a layer")
    expl.add_argument("--translate", type=int, default=0, metavar="K",
                      help="average explanations over shifts up to K pixels")
    expl.add_argument("--sliding-window", type=int, default=0, metavar="STRIDE",
                      help="explain an oversized image window by window")
    expl.add_argument("--pattern", metavar="PATH",
                      help="also write the heatmap-masked image as CSV")
    expl.add_argument("--out", required=True, help="output heatmap CSV")
    expl.add_argument("--ppm", help="also render the heatmap to this PPM file")
    expl.add_argument("--colormap", choices=("diverging", "sequential"),
                      default="diverging")
    expl.add_argument("--seed", type=int, default=None)
    expl.set_defaults(func=_cmd_explain)

    proto = commands.add_parser("prototype", help="synthesize a class prototype")
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
    proto.add_argument("--seed", type=int, default=None)
    proto.set_defaults(func=_cmd_prototype)

    ev = commands.add_parser("evaluate", help="score explanation quality")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--index", type=int, default=0)
    ev.add_argument("--count", type=int, default=0,
                    help="evaluate the first N images instead of --index")
    _add_method_flags(ev)
    ev.add_argument("--pixel-flip", action="store_true",
                    help="selectivity by greedy feature removal")
    ev.add_argument("--patch", type=int, default=4, help="square patch side")
    ev.add_argument("--fill", type=float, default=0.0, help="removal fill value")
    ev.add_argument("--max-steps", type=int, default=None)
    ev.add_argument("--continuity", action="store_true",
                    help="sampled explanation-continuity estimate")
    ev.add_argument("--delta", type=float, default=1e-2, help="perturbation norm")
    ev.add_argument("--trials", type=int, default=10, help="perturbations per probe")
    ev.add_argument("--out", help="output CSV")
    ev.add_argument("--seed", type=int, default=None)
    ev.set_defaults(func=_cmd_evaluate)

    rend = commands.add_parser("render", help="render a heatmap CSV as a PPM image")
    rend.add_argument("--heatmap", required=True, help="heatmap CSV")
    rend.add_argument("--out", required=True, help="output PPM path")
    rend.add_argument("--colormap", choices=("diverging", "sequential"),
                      default="diverging")
    rend.add_argument("--seed", type=int, default=None)
    rend.set_defaults(func=_cmd_render)
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


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
