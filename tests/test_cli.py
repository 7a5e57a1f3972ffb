"""CLI behavior: exit codes, flag wiring, and byte-level reproducibility."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import relkit
from relkit import cli
from relkit.cli import main, parse_architecture
from relkit.datagen import make_digits, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    images, labels = make_digits(80, seed=0, size=12)
    img_path, lab_path = write_dataset(root, "train", images, labels)
    return str(img_path), str(lab_path)


@pytest.fixture(scope="module")
def model_path(dataset, tmp_path_factory):
    images, labels = dataset
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["train", "--data", images, "--labels", labels,
                 "--out", str(out), "--arch", "flatten/dense:16/relu/dense:2",
                 "--epochs", "8", "--lr", "0.2", "--batch", "16", "--seed", "1"])
    assert code == 0
    return str(out)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--bogus"]) == 2


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = main(["explain", "--model", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "nope.idx"), "--out",
                 str(tmp_path / "o.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_parse_architecture_tokens():
    plan = parse_architecture("conv:8x5x5:s2:p1/relu/maxpool:2x2/flatten/dense:2")
    assert plan == [("conv", 8, 5, 5, 2, 1), ("relu",), ("maxpool", 2, 2, 2, 0),
                    ("flatten",), ("dense", 2)]
    with pytest.raises(ValueError, match="unknown layer token"):
        parse_architecture("dense:4/bogus:2")


def test_train_reaches_separation(model_path, dataset, capsys):
    images, labels = dataset
    loaded = relkit.load_model_file(model_path)
    data = relkit.load_idx(images)
    targets = relkit.load_idx(labels)
    preds = [int(np.argmax(relkit.forward(loaded.network, x[None]).logits))
             for x in data]
    assert np.mean(np.array(preds) == targets) > 0.9
    assert loaded.input_low == 0.0 and loaded.input_high == 1.0


def test_explain_writes_heatmap_and_ppm(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    ppm = tmp_path / "heat.ppm"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--index", "0", "--method", "lrp", "--rule", "deeptaylor",
                 "--out", str(out), "--ppm", str(ppm)])
    assert code == 0
    hm = relkit.load_heatmap_csv(out)
    assert hm.scores.shape == (1, 12, 12)
    assert ppm.read_bytes().startswith(b"P6\n")


def test_explain_rule_flag_selects_alpha2beta1(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--method", "lrp", "--rule", "alpha2beta1", "--out", str(out)])
    assert code == 0
    assert relkit.load_heatmap_csv(out).meta["rules"] == "alpha2beta1"


def test_explain_filter_and_pattern(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    patt = tmp_path / "pattern.csv"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--method", "lrp", "--filter", "2:3",
                 "--pattern", str(patt), "--out", str(out)])
    assert code == 0
    assert patt.exists()
    assert relkit.load_heatmap_csv(out).meta["filter_layer"] == 2


def test_evaluate_pixel_flip_patch_flag(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "curve.csv"
    code = main(["evaluate", "--model", model_path, "--data", images,
                 "--pixel-flip", "--patch", "4", "--fill", "0", "--index", "1",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert '"patch": 4' in text
    assert "step,value" in text


def test_evaluate_continuity(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    code = main(["evaluate", "--model", model_path, "--data", images,
                 "--continuity", "--delta", "0.01", "--trials", "3",
                 "--count", "2", "--seed", "4",
                 "--out", str(tmp_path / "cont.csv")])
    assert code == 0
    assert "continuity estimate" in capsys.readouterr().out


def test_prototype_and_render(model_path, dataset, tmp_path):
    images, _ = dataset
    proto = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "1",
                 "--regularizer", "l2", "--lambda", "0.05", "--data", images,
                 "--steps", "150", "--clip", "0", "1", "--out", str(proto)])
    assert code == 0
    arr, meta = relkit.modelio.load_tensor_csv(proto)
    assert arr.shape == (1, 12, 12)
    assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert meta["clip"] == [0.0, 1.0]
    assert meta["final_probability"] > 0.5

    heat = tmp_path / "heat.csv"
    assert main(["explain", "--model", model_path, "--data", images,
                 "--out", str(heat)]) == 0
    ppm = tmp_path / "render.ppm"
    assert main(["render", "--heatmap", str(heat), "--out", str(ppm),
                 "--colormap", "sequential"]) == 0
    assert ppm.read_bytes().startswith(b"P6\n")


def test_explain_translate_average(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--method", "taylor", "--translate", "1", "--class", "0",
                 "--output", "logprob", "--out", str(out)])
    assert code == 0
    hm = relkit.load_heatmap_csv(out)
    assert hm.method_tag.startswith("translation_average:")
    assert hm.meta["shifts"] == [[dy, dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


def test_explain_sliding_window(dataset, tmp_path):
    images, _ = dataset
    # an 8x8-input model slid over the 12x12 dataset images
    net = relkit.random_network(
        (1, 8, 8), [("flatten",), ("dense", 2)], seed=33)
    model = tmp_path / "window.json"
    relkit.save_model(net, model, input_bounds=(0.0, 1.0))
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", str(model), "--data", images,
                 "--index", "0", "--method", "lrp", "--sliding-window", "4",
                 "--class", "1", "--out", str(out)])
    assert code == 0
    hm = relkit.load_heatmap_csv(out)
    assert hm.scores.shape == (1, 12, 12)
    assert hm.meta["windows"] == 4


def test_explain_sliding_window_requires_lrp(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    code = main(["explain", "--model", model_path, "--data", images,
                 "--method", "sensitivity", "--sliding-window", "2",
                 "--class", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_evaluate_pixel_flip_count_summary(model_path, dataset, tmp_path):
    images, _ = dataset
    out = tmp_path / "summary.csv"
    code = main(["evaluate", "--model", model_path, "--data", images,
                 "--pixel-flip", "--patch", "2", "--count", "5",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "index,auc" in text
    assert "# mean_auc:" in text
    assert text.count("\n") >= 8


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_is_byte_reproducible(dataset, tmp_path):
    images, labels = dataset
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        model = root / "model.json"
        heat = root / "heat.csv"
        curve = root / "curve.csv"
        proto = root / "proto.csv"
        ppm = root / "heat.ppm"
        assert main(["train", "--data", images, "--labels", labels,
                     "--out", str(model), "--arch", "flatten/dense:8/relu/dense:2",
                     "--epochs", "3", "--seed", "7"]) == 0
        assert main(["explain", "--model", str(model), "--data", images,
                     "--index", "2", "--out", str(heat), "--ppm", str(ppm),
                     "--seed", "7"]) == 0
        assert main(["evaluate", "--model", str(model), "--data", images,
                     "--pixel-flip", "--patch", "2", "--index", "2",
                     "--out", str(curve), "--seed", "7"]) == 0
        assert main(["prototype", "--model", str(model), "--class", "0",
                     "--regularizer", "l2", "--lambda", "0.01", "--data", images,
                     "--steps", "40", "--out", str(proto), "--seed", "7"]) == 0
        digests.append([_digest(p) for p in (model, heat, curve, proto, ppm)])
    assert digests[0] == digests[1]


def test_rk_seed_env_fallback(dataset, tmp_path, monkeypatch):
    images, labels = dataset
    outputs = []
    for run in ("a", "b"):
        model = tmp_path / f"{run}.json"
        monkeypatch.setenv("RK_SEED", "21")
        assert main(["train", "--data", images, "--labels", labels,
                     "--out", str(model), "--arch", "flatten/dense:2",
                     "--epochs", "1"]) == 0
        outputs.append(model.read_bytes())
    assert outputs[0] == outputs[1]


def test_render_rejects_non_finite_heatmap(tmp_path, capsys):
    heat = tmp_path / "heat.csv"
    # written by hand: save_tensor_csv refuses to write a NaN
    heat.write_text('# relkit-tensor v1\n# shape: 1,2\n# meta: {"class_index": 0}\n0.5\nnan\n')
    ppm = tmp_path / "render.ppm"
    assert main(["render", "--heatmap", str(heat), "--out", str(ppm)]) == 1
    assert "line 5" in capsys.readouterr().err
    assert not ppm.exists()


def test_explain_with_structurally_wrong_model_exits_1(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    doc = json.loads(open(model_path, encoding="utf-8").read())
    doc["class_count"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["explain", "--model", str(bad), "--data", images,
                 "--out", str(tmp_path / "heat.csv")])
    assert code == 1
    assert "'class_count' must be an integer" in capsys.readouterr().err


def test_render_rejects_non_object_meta(tmp_path, capsys):
    heat = tmp_path / "heat.csv"
    heat.write_text("# relkit-tensor v1\n# shape: 1,2\n# meta: [1, 2]\n0.5\n0.25\n")
    ppm = tmp_path / "render.ppm"
    assert main(["render", "--heatmap", str(heat), "--out", str(ppm)]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not ppm.exists()


@pytest.mark.parametrize("index", ["-1", "80"])
def test_explain_sliding_window_checks_the_index(dataset, tmp_path, capsys, index):
    images, _ = dataset
    net = relkit.random_network((1, 8, 8), [("flatten",), ("dense", 2)], seed=33)
    model = tmp_path / "window.json"
    relkit.save_model(net, model)
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", str(model), "--data", images, "--index", index,
                 "--sliding-window", "4", "--class", "1", "--out", str(out)])
    assert code == 1
    assert f"--index {index} out of range for 80 images" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task", ["--pixel-flip", "--continuity"])
def test_evaluate_index_error_names_the_flag(model_path, dataset, tmp_path, capsys, task):
    images, _ = dataset
    out = tmp_path / "out.csv"
    code = main(["evaluate", "--model", model_path, "--data", images, task,
                 "--index", "999", "--out", str(out)])
    assert code == 1
    assert "--index 999 out of range for 80 images" in capsys.readouterr().err
    assert not out.exists()


def test_prototype_x0_index_error_names_the_flag(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    code = main(["prototype", "--model", model_path, "--class", "1", "--data", images,
                 "--eta", "0.1", "--x0-index", "80", "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "--x0-index 80 out of range for 80 images" in capsys.readouterr().err


def test_evaluate_rejects_a_non_finite_delta(model_path, dataset, capsys):
    images, _ = dataset
    code = main(["evaluate", "--model", model_path, "--data", images, "--continuity",
                 "--delta", "nan"])
    assert code == 1
    assert "delta must be finite and > 0, got nan" in capsys.readouterr().err


def test_train_rejects_zero_batch(dataset, tmp_path, capsys):
    images, labels = dataset
    code = main(["train", "--data", images, "--labels", labels, "--arch", "flatten/dense:2",
                 "--batch", "0", "--out", str(tmp_path / "model.json")])
    assert code == 1
    assert "batch_size must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("abc", "--filter must be LAYER:INDEX with two integers, got 'abc'"),
    ("2", "--filter must be LAYER:INDEX with two integers, got '2'"),
    ("2:-1", "--filter index -1 out of range [0, 16) for layer 2"),
    ("2:16", "--filter index 16 out of range [0, 16) for layer 2"),
    ("0:99999", "--filter index 99999 out of range [0, 144) for layer 0"),
    ("5:0", "--filter layer 5 out of range [0, 4]"),
    ("-1:0", "--filter layer -1 out of range [0, 4]"),
])
def test_explain_filter_must_name_one_unit(model_path, dataset, tmp_path, capsys, spec, message):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--method", "lrp", f"--filter={spec}", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task", ["--pixel-flip", "--continuity"])
def test_evaluate_rejects_negative_count(model_path, dataset, tmp_path, capsys, task):
    images, _ = dataset
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--model", model_path, "--data", images, task,
                 "--count", "-1", "--out", str(out)])
    assert code == 1
    assert "--count must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--steps", "-1", "max_iterations must be >= 0"),
    ("--step-size", "-0.1", "step_size must be finite and > 0"),
    ("--step-size", "nan", "step_size must be finite and > 0"),
    ("--tol", "-1", "gradient_tolerance must be finite and >= 0"),
])
def test_prototype_rejects_bad_search_settings(model_path, tmp_path, capsys, flag, value,
                                               message):
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "1", flag, value,
                 "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_negative_limit(dataset, tmp_path, capsys):
    images, labels = dataset
    out = tmp_path / "model.json"
    code = main(["train", "--data", images, "--labels", labels, "--arch", "flatten/dense:2",
                 "--limit", "-5", "--out", str(out)])
    assert code == 1
    assert "--limit must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "explain", "evaluate", "prototype", "render"])
def test_negative_seed_flag_is_rejected_by_every_subcommand(model_path, dataset, tmp_path,
                                                            capsys, command):
    images, labels = dataset
    out = str(tmp_path / "out")
    argv = {"train": ["--data", images, "--labels", labels, "--arch", "flatten/dense:2"],
            "explain": ["--model", model_path, "--data", images],
            "evaluate": ["--model", model_path, "--data", images, "--continuity"],
            "prototype": ["--model", model_path, "--class", "0"],
            "render": ["--heatmap", out]}[command]
    assert main([command, *argv, "--out", out, "--seed", "-1"]) == 1
    assert "--seed must be a non-negative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bad_rk_seed_is_rejected_naming_the_variable(model_path, dataset, tmp_path, capsys,
                                                     monkeypatch, value):
    images, _ = dataset
    monkeypatch.setenv("RK_SEED", value)
    out = tmp_path / "continuity.csv"
    code = main(["evaluate", "--model", model_path, "--data", images, "--continuity",
                 "--out", str(out)])
    assert code == 1
    assert f"RK_SEED must be a non-negative integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_conv_maxpool_train_and_patch1_flip_are_byte_reproducible(dataset, tmp_path):
    images, labels = dataset
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        model, summary = root / "model.json", root / "flip.csv"
        assert main(["train", "--data", images, "--labels", labels, "--out", str(model),
                     "--arch", "conv:4x3x3:p1/relu/maxpool:2x2/flatten/dense:2",
                     "--epochs", "2", "--batch", "8", "--seed", "3"]) == 0
        assert main(["evaluate", "--model", str(model), "--data", images, "--pixel-flip",
                     "--patch", "1", "--count", "3", "--out", str(summary)]) == 0
        digests.append([_digest(p) for p in (model, summary)])
    assert digests[0] == digests[1]


def test_evaluate_takes_one_task(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--model", model_path, "--data", images, "--pixel-flip",
                 "--continuity", "--index", "1", "--out", str(out)])
    assert code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def _flip_auc(text):
    return next(line.split(": ", 1)[1] for line in text.splitlines() if line.startswith("# auc:"))


def test_evaluate_count_explains_the_given_class(model_path, dataset, tmp_path):
    images, _ = dataset
    summaries = {}
    for k in (0, 1):
        out = tmp_path / f"summary{k}.csv"
        assert main(["evaluate", "--model", model_path, "--data", images, "--pixel-flip",
                     "--patch", "4", "--count", "3", "--class", str(k), "--out", str(out)]) == 0
        summaries[k] = out.read_text()
        rows = summaries[k].splitlines()[3:]
        assert len(rows) == 3
        for i, row in enumerate(rows):
            curve = tmp_path / f"curve{i}_{k}.csv"
            assert main(["evaluate", "--model", model_path, "--data", images, "--pixel-flip",
                         "--patch", "4", "--index", str(i), "--class", str(k),
                         "--out", str(curve)]) == 0
            assert row == f"{i},{_flip_auc(curve.read_text())}"
    assert summaries[0] != summaries[1]


@pytest.mark.parametrize("scope", [["--index", "1"], ["--count", "2"]])
def test_evaluate_pixel_flip_needs_out(model_path, dataset, capsys, scope):
    images, _ = dataset
    code = main(["evaluate", "--model", model_path, "--data", images, "--pixel-flip", *scope])
    assert code == 1
    err = capsys.readouterr().err
    assert "--pixel-flip needs --out" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tasks", [["--filter", "2:0", "--translate", "1"],
                                   ["--filter", "2:0", "--sliding-window", "4"],
                                   ["--translate", "1", "--sliding-window", "4"]])
def test_explain_tasks_are_exclusive(model_path, dataset, tmp_path, capsys, tasks):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images, "--class", "0",
                 *tasks, "--out", str(out)])
    assert code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--translate", "-1"), ("--sliding-window", "-2")])
def test_explain_rejects_negative_task_flags(model_path, dataset, tmp_path, capsys, flag,
                                             value):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images, "--class", "0",
                 flag, value, "--out", str(out)])
    assert code == 1
    assert f"{flag} must be >= 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token,form", [
    ("dense", "dense:OUT"),
    ("dense:abc", "dense:OUT"),
    ("dense:0", "dense:OUT"),
    ("dense:-3", "dense:OUT"),
    ("dense:4:s2", "dense:OUT"),
    ("conv:8x5", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5x5", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5:s0", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5:q1", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5:s1:s2", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5:p", "conv:FxKHxKW[:sS][:pP]"),
    ("conv:8x5x5:", "conv:FxKHxKW[:sS][:pP]"),
    ("maxpool:2", "maxpool:PHxPW[:sS][:pP]"),
    ("sumpool:2x", "sumpool:PHxPW[:sS][:pP]"),
    ("avgpool:2x2:p-1", "avgpool:PHxPW[:sS][:pP]"),
    ("relu:3", "relu"),
    ("flatten:", "flatten"),
])
def test_parse_architecture_names_the_bad_token(token, form):
    with pytest.raises(ValueError) as excinfo:
        parse_architecture(f"flatten/{token}/dense:2")
    assert str(excinfo.value) == f"bad layer token {token!r}, expected {form}"


def test_parse_architecture_defaults_and_option_order():
    assert parse_architecture("conv:8x5x5/relu/sumpool:2x2/flatten/dense:2") == [
        ("conv", 8, 5, 5, 1, 0), ("relu",), ("sumpool", 2, 2, 2, 0), ("flatten",), ("dense", 2)]
    assert parse_architecture("flatten/dense:300/relu/dense:100/relu/dense:10") == [
        ("flatten",), ("dense", 300), ("relu",), ("dense", 100), ("relu",), ("dense", 10)]
    assert parse_architecture("conv:2x3x3:p1:s2/avgpool:3x2:p1") == [
        ("conv", 2, 3, 3, 2, 1), ("avgpool", 3, 2, 3, 1)]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_explain_rejects_a_non_finite_epsilon(model_path, dataset, tmp_path, capsys, value):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images, "--rule", "epsilon",
                 "--epsilon", value, "--out", str(out)])
    assert code == 1
    assert f"Epsilon epsilon must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds,message", [
    (("nan", "1"), "--bounds: ZBounds low must be finite, got nan"),
    (("0", "inf"), "--bounds: ZBounds high must be finite, got inf"),
    (("0.5", "1"), "--bounds: ZBounds requires low <= 0 <= high elementwise"),
])
def test_train_rejects_bounds_before_training(dataset, tmp_path, capsys, bounds, message):
    images, labels = dataset
    out = tmp_path / "model.json"
    code = main(["train", "--data", images, "--labels", labels, "--arch", "flatten/dense:2",
                 "--bounds", *bounds, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--eta", "nan"], "--eta must be >= 0, got nan"),
    (["--eta", "-1"], "--eta must be >= 0, got -1.0"),
    (["--regularizer", "l2", "--lambda", "nan"], "L2Penalty weight must be finite, got nan"),
    (["--regularizer", "l2mean", "--lambda", "inf"],
     "MeanAnchoredL2 weight must be finite, got inf"),
])
def test_prototype_rejects_bad_weights_by_name(model_path, dataset, tmp_path, capsys, flags,
                                               message):
    images, _ = dataset
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "1", "--data", images,
                 "--x0-index", "0", *flags, "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", [("1", "0"), ("nan", "1"), ("0", "inf")])
def test_prototype_rejects_a_bad_clip_range(model_path, tmp_path, capsys, bounds):
    # --clip 1 0 used to write an all-zero prototype and exit 0
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "1", "--clip", *bounds,
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--clip needs finite LOW <= HIGH, got" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.fixture(scope="module")
def expert_model_path(model_path, tmp_path_factory):
    """The module's model saved again with a small Gaussian-RBM expert."""
    rng = np.random.default_rng(5)
    expert = relkit.RbmExpert(0.1 * rng.standard_normal((3, 144)), np.zeros(3), np.eye(144))
    out = tmp_path_factory.mktemp("expert") / "expert.json"
    relkit.save_model(relkit.load_model(model_path), out, expert=expert)
    return str(out)


@pytest.mark.parametrize("source", ["model", "expert-flag"])
def test_prototype_with_the_expert_regularizer(model_path, expert_model_path, tmp_path, source,
                                               monkeypatch):
    # the expert comes from the --model file itself or from --expert FILE, and each
    # file is read once
    model, extra = ((expert_model_path, []) if source == "model"
                    else (model_path, ["--expert", expert_model_path]))
    read, load = [], relkit.modelio.load_model_file
    monkeypatch.setattr(relkit.modelio, "load_model_file",
                        lambda path: read.append(path) or load(path))
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model, *extra, "--class", "1",
                 "--regularizer", "expert", "--steps", "20", "--out", str(out)])
    assert code == 0
    assert read == [model, *extra[1:]]
    arr, meta = relkit.modelio.load_tensor_csv(out)
    assert arr.shape == (1, 12, 12) and meta["iterations"] >= 1


def test_prototype_refuses_an_expert_file_of_another_input_size(model_path, tmp_path, capsys,
                                                                monkeypatch):
    # the --expert file's own (1, 3, 3) net loads; its 9-dimension expert does not fit
    # the (1, 12, 12) --model net, which is refused, naming the file, before the search
    rng = np.random.default_rng(6)
    small = relkit.random_network((1, 3, 3), [("flatten",), ("dense", 2)], seed=0)
    other = tmp_path / "other.json"
    relkit.save_model(small, other, expert=relkit.RbmExpert(
        0.1 * rng.standard_normal((2, 9)), np.zeros(2), np.eye(9)))
    searched, search = [], relkit.prototype.activation_maximize
    monkeypatch.setattr(relkit.prototype, "activation_maximize",
                        lambda *args: searched.append(args) or search(*args))
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--expert", str(other), "--class", "1",
                 "--regularizer", "expert", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"relkit: error: {other}: expert expects dimension 9, got 144" in captured.err
    assert searched == [] and captured.out == "" and not out.exists()


def test_prototype_expert_regularizer_needs_an_expert(model_path, tmp_path, capsys):
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "1",
                 "--regularizer", "expert", "--out", str(out)])
    assert code == 1
    assert f"{model_path} contains no expert parameters" in capsys.readouterr().err
    assert not out.exists()


def test_prototype_localized_at_a_dataset_image_with_ppm(model_path, dataset, tmp_path):
    images, _ = dataset
    out, ppm = tmp_path / "proto.csv", tmp_path / "proto.ppm"
    code = main(["prototype", "--model", model_path, "--class", "0", "--data", images,
                 "--eta", "0.5", "--x0-index", "3", "--steps", "20", "--out", str(out),
                 "--ppm", str(ppm)])
    assert code == 0
    arr, _ = relkit.modelio.load_tensor_csv(out)
    assert arr.shape == (1, 12, 12)
    assert ppm.read_bytes().startswith(b"P6\n12 12\n255\n")


def test_prototype_eta_needs_a_reference_point(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    code = main(["prototype", "--model", model_path, "--class", "0", "--data", images,
                 "--eta", "0.5", "--out", str(tmp_path / "proto.csv")])
    assert code == 1
    assert "--eta needs --data and --x0-index for the reference point" in capsys.readouterr().err


def test_train_continues_a_model_on_the_first_limit_samples(model_path, dataset, tmp_path,
                                                             capsys):
    images, labels = dataset
    out = tmp_path / "more.json"
    code = main(["train", "--data", images, "--labels", labels, "--model", model_path,
                 "--limit", "50", "--epochs", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("train accuracy: ") and "/50 = " in printed
    before, after = relkit.load_model(model_path), relkit.load_model(out)
    assert before.input_shape == after.input_shape
    assert not np.array_equal(before.layers[1].weights, after.layers[1].weights)


def test_train_rejects_different_image_and_label_counts(dataset, tmp_path, capsys):
    images, _ = dataset
    labels = tmp_path / "labels.idx"
    relkit.save_idx_labels(labels, np.zeros(79, dtype=np.uint8))
    out = tmp_path / "m.json"
    code = main(["train", "--data", images, "--labels", str(labels),
                 "--arch", "flatten/dense:2", "--out", str(out)])
    assert code == 1
    assert "image and label counts differ" in capsys.readouterr().err
    assert not out.exists()


def test_explain_sliding_window_needs_a_class(model_path, dataset, tmp_path, capsys):
    images, _ = dataset
    out = tmp_path / "heat.csv"
    code = main(["explain", "--model", model_path, "--data", images,
                 "--sliding-window", "2", "--out", str(out)])
    assert code == 1
    assert "--sliding-window needs an explicit --class" in capsys.readouterr().err
    assert not out.exists()


def test_train_verbose_prints_one_line_per_epoch(dataset, tmp_path, capsys):
    images, labels = dataset
    code = main(["train", "--data", images, "--labels", labels, "--arch", "flatten/dense:2",
                 "--epochs", "2", "--verbose", "--out", str(tmp_path / "m.json")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["epoch 1/2", "epoch 2/2"]
    assert lines[2].startswith("train accuracy: ")


def test_train_needs_an_arch_or_a_model(dataset, tmp_path, capsys):
    images, labels = dataset
    out = tmp_path / "m.json"
    code = main(["train", "--data", images, "--labels", labels, "--out", str(out)])
    assert code == 1
    assert "train needs either --arch or --model to start from" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pixels", [144, 100])
def test_a_flat_input_model_reads_each_image_as_one_row(dataset, tmp_path, capsys, pixels):
    images, labels = dataset
    flat = tmp_path / "flat.json"
    relkit.save_model(relkit.random_network((pixels,), [("dense", 2)], 0), flat)
    out = tmp_path / "m.json"
    code = main(["train", "--data", images, "--labels", labels, "--model", str(flat),
                 "--epochs", "1", "--out", str(out)])
    if pixels == 144:  # 12 x 12
        assert code == 0 and relkit.load_model(out).input_shape == (144,)
    else:
        assert code == 1 and not out.exists()
        assert ("dataset image of shape (12, 12) does not fit the network input shape (100,)"
                in capsys.readouterr().err)


def test_prototype_l2mean_needs_data(model_path, tmp_path, capsys):
    out = tmp_path / "proto.csv"
    code = main(["prototype", "--model", model_path, "--class", "0",
                 "--regularizer", "l2mean", "--out", str(out)])
    assert code == 1
    assert "--regularizer l2mean needs --data for the mean" in capsys.readouterr().err
    assert not out.exists()


def test_every_plan_head_parses_builds_and_round_trips(tmp_path):
    # one architecture through every plan head, each pool kind and conv's :s and :p
    arch = ("conv:2x3x3:s1:p1/relu/maxpool:2x2/conv:2x2x2:s2:p0/sumpool:2x2:s1:p1/"
            "avgpool:2x2/flatten/dense:2")
    plan = parse_architecture(arch)
    assert {item[0] for item in plan} == set(relkit.netcore._PLAN_SIZES)
    assert set(cli._LAYER_TOKENS) == set(relkit.netcore._PLAN_SIZES)
    net = relkit.random_network((1, 12, 12), plan, 0)
    assert {layer.kind for layer in net.layers} == set(relkit.netcore.LAYER_KINDS)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    relkit.save_model(net, first)
    relkit.save_model(relkit.load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command", [
    ["evaluate", "--pixel-flip", "--count", "3", "--out", "flip.csv"],
    ["evaluate", "--continuity", "--count", "3", "--trials", "1"],
    ["explain", "--filter", "2:3", "--out", "heat.csv"],
    ["explain", "--translate", "1", "--out", "heat.csv"],
    ["explain", "--sliding-window", "4", "--class", "1", "--out", "heat.csv"],
], ids=["flip-count", "continuity-count", "filter", "translate", "sliding-window"])
def test_each_command_builds_its_rule_stack_once(model_path, dataset, tmp_path, monkeypatch,
                                                 command):
    images, _ = dataset
    built = []
    rule_config = relkit.explain.rule_config

    def counted(*args, **kwargs):
        built.append(args)
        return rule_config(*args, **kwargs)

    monkeypatch.setattr(relkit.explain, "rule_config", counted)
    name, *flags = command
    flags = [str(tmp_path / flag) if flag.endswith(".csv") else flag for flag in flags]
    if "--sliding-window" in flags:  # an 8x8-input model slid over the 12x12 images
        model_path = tmp_path / "window.json"
        relkit.save_model(relkit.random_network((1, 8, 8), [("flatten",), ("dense", 2)], 33),
                          model_path, input_bounds=(0.0, 1.0))
    assert main([name, "--model", str(model_path), "--data", images, *flags]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("bounds,domain", [((0.0, 1.0), "pixel"), (None, "real")])
def test_input_domain_auto_follows_the_stored_bounds(dataset, tmp_path, bounds, domain):
    images, _ = dataset
    model = tmp_path / "model.json"
    relkit.save_model(relkit.random_network((1, 12, 12), [("conv", 2, 3, 3, 1, 0), ("relu",),
                                                          ("flatten",), ("dense", 2)], 5),
                      model, input_bounds=bounds)
    out = tmp_path / "heat.csv"
    assert main(["explain", "--model", str(model), "--data", images, "--class", "1",
                 "--out", str(out)]) == 0
    net = relkit.load_model(model)
    want = relkit.lrp_heatmap(net, relkit.load_idx(images)[0][None], 1,
                              relkit.deep_taylor_config(net, domain, 0.0, 1.0))
    assert np.array_equal(relkit.load_heatmap_csv(out).scores, want.scores)


@pytest.mark.parametrize("task", ["--pixel-flip", "--continuity"])
def test_evaluate_count_on_an_empty_dataset_is_refused_by_name(model_path, tmp_path, capsys,
                                                               task):
    empty = tmp_path / "empty.idx"
    relkit.save_idx_images(empty, np.zeros((0, 12, 12)))
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--model", model_path, "--data", str(empty), task,
                 "--count", "3", "--out", str(out)])
    assert code == 1
    assert f"--count 3: the dataset {empty} holds no images" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,flags", [
    ("train", ["--labels", "{labels}", "--arch", "flatten/dense:2"]),
    ("prototype", ["--model", "{model}", "--class", "0"]),
    ("explain", ["--model", "{model}"]),
    ("evaluate", ["--model", "{model}", "--pixel-flip"]),
])
def test_every_command_refuses_an_empty_dataset_by_name(model_path, tmp_path, capsys, name,
                                                        flags):
    # train used to stop in np.stack, prototype on a NaN mean after two RuntimeWarnings
    empty, labels = tmp_path / "empty.idx", tmp_path / "labels.idx"
    relkit.save_idx_images(empty, np.zeros((0, 12, 12)))
    relkit.save_idx_labels(labels, np.zeros(0, dtype=int))
    flags = [flag.format(labels=labels, model=model_path) for flag in flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([name, "--data", str(empty), *flags, "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"--data: the dataset {empty} holds no images" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [empty, labels]


def test_a_model_of_two_dimensional_input_reads_each_image_as_it_is(dataset, tmp_path):
    images, _ = dataset
    net = relkit.random_network((12, 12), [("flatten",), ("dense", 4), ("relu",), ("dense", 2)],
                                seed=41)
    model, heat, flip = tmp_path / "flat2d.json", tmp_path / "heat.csv", tmp_path / "flip.csv"
    relkit.save_model(net, model)
    x = relkit.load_idx(images)[3]
    assert main(["explain", "--model", str(model), "--data", images, "--index", "3",
                 "--class", "1", "--out", str(heat)]) == 0
    want = relkit.lrp_heatmap(net, x, 1, relkit.deep_taylor_config(net, "real"))
    assert np.array_equal(relkit.load_heatmap_csv(heat).scores, want.scores)
    assert main(["evaluate", "--model", str(model), "--data", images, "--index", "3",
                 "--class", "1", "--pixel-flip", "--out", str(flip)]) == 0
    curve = relkit.pixel_flip(net, x, want, relkit.FlipConfig(patch=4))
    assert flip.read_bytes() == _saved_curve(curve, tmp_path / "want.csv")


def _saved_curve(curve, path):
    relkit.save_curve_csv(path, curve)
    return path.read_bytes()
