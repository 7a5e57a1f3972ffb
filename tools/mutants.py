"""Check that the spec tests kill a fixed list of deliberate defects (mutants).

Each entry of MUTANTS names a file under src/, an exact piece of its text that
occurs once, the text that replaces it, and the test files expected to kill the
mutant. Every pytest run works on a fresh temporary copy of src/, tests/ and
pyproject.toml; the checkout itself is never written to.

    python3 tools/mutants.py

First the union of the named test files runs once on an unmutated copy, and the
tool stops with exit status 1 unless every test passes there, since a test that
fails in the copy for another reason would count every mutant as killed. Then the
mutants run on one worker thread per usable CPU: each applies one mutant to its own
copy and runs its named test files with `pytest -x`, each run under TIMEOUT seconds,
and the results are printed in list order. A mutant is killed
when a test fails or errors (the first failing test id is printed), survived
when every test passes, timeout when the run exceeds TIMEOUT, stale when its old
text no longer occurs exactly once, and error when pytest cannot run the tests
at all (an exit status other than 0 or 1, such as a collection error). The exit
status is 0 only when every mutant is killed. To run one mutant, call
`run(mutant)` from Python.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 60  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # test files, relative to the repository root


MUTANTS = (
    Mutant("mirrored-window-map", "src/relkit/netcore.py",
           "cols = np.arange(geom.kw)[:, None] + geom.stride",
           "cols = np.arange(geom.kw)[::-1, None] + geom.stride",
           ("tests/test_netcore.py",)),
    Mutant("scatter-keeps-padding", "src/relkit/netcore.py",
           "return planes[..., p:geom.pad_h - p, p:geom.pad_w - p] if p else planes",
           "return planes",
           ("tests/test_netcore.py",)),
    Mutant("epsilon-sign-of-0", "src/relkit/explain.py",
           "denom = np.where(z >= 0, z + rule.epsilon, z - rule.epsilon)",
           "denom = np.where(z > 0, z + rule.epsilon, z - rule.epsilon)",
           ("tests/test_rules.py",)),
    Mutant("alphabeta-no-empty-branch-fallback", "src/relkit/explain.py",
           "alpha_eff = np.where(np.abs(z_neg) >= stabilizer, rule.alpha, 1.0)",
           "alpha_eff = rule.alpha",
           ("tests/test_rules.py",)),
    Mutant("zb-without-high-term", "src/relkit/explain.py",
           "apply_T(w_pos, s) + (a - rule.high) * apply_T(w_neg, s)",
           "apply_T(w_pos, s)",
           ("tests/test_rules.py",)),
    Mutant("zb-denominator-keeps-bias", "src/relkit/explain.py",
           "z = add_bias(out - offset[0] - offset[1], -bias)",
           "z = out - offset[0] - offset[1]",
           ("tests/test_properties.py",)),
    Mutant("maxpool-last-maximum-wins", "src/relkit/netcore.py",
           "arg = cols.argmax(axis=-2)",
           "arg = cols.shape[-2] - 1 - cols[..., ::-1, :].argmax(axis=-2)",
           ("tests/test_netcore.py",)),
    Mutant("avgpool-backward-undivided", "src/relkit/netcore.py",
           'share = g if kind == "SumPool" else g / (geom.kh * geom.kw)',
           "share = g",
           ("tests/test_netcore.py",)),
    Mutant("zb-offsets-cached-per-layer", "src/relkit/explain.py",
           "offset = _term((rule, layer), in_shape, lambda: (",
           "offset = _term((layer,), in_shape, lambda: (",
           ("tests/test_rule_cache.py",)),
    Mutant("log-probability-seed-without-softmax", "src/relkit/netcore.py",
           "        seed -= np.exp(logits)\n",
           "",
           ("tests/test_netcore.py",)),
    Mutant("one-sample-bias-gradient", "src/relkit/netcore.py",
           "gb = g.reshape(len(x), len(layer.bias), -1).sum(axis=(0, 2))",
           "gb = g.reshape(len(x), len(layer.bias), -1)[0].sum(axis=1)",
           ("tests/test_netcore.py", "tests/test_properties.py")),
    Mutant("flip-fill-ignored", "src/relkit/evalkit.py",
           "change = config.fill - x.ravel()[removed]",
           "change = 0.0 - x.ravel()[removed]",
           ("tests/test_properties.py",)),
    Mutant("affine-tail-only-after-relu", "src/relkit/evalkit.py",
           'if layer.kind in ("ReLU", "MaxPool")])',
           'if layer.kind == "ReLU"])',
           ("tests/test_properties.py",)),
    Mutant("relu-derivative-at-0", "src/relkit/netcore.py",
           "return g * (x > 0.0)",
           "return g * (x >= 0.0)",
           ("tests/test_netcore.py",)),
    Mutant("w2z-cached-without-input-shape", "src/relkit/explain.py",
           '_term((layer,), ("w2z", in_shape),',
           '_term((layer,), "w2z",',
           ("tests/test_rule_cache.py",)),
    Mutant("safe-divide-strict", "src/relkit/explain.py",
           "ok = np.abs(denominator) >= stabilizer",
           "ok = np.abs(denominator) > stabilizer",
           ("tests/test_rules.py",)),
    Mutant("flip-input-state-reset-per-chunk", "src/relkit/evalkit.py",
           "z = _running_sum(batch, z)",
           "z = _running_sum(batch, z if start else trace.activations[0])",
           ("tests/test_properties.py",)),
    Mutant("flip-input-change-one-entry-off", "src/relkit/evalkit.py",
           "removed[lo:hi], change[lo:hi], 1)",
           "removed[lo:hi] - 1, change[lo:hi], 1)",
           ("tests/test_properties.py",)),
    Mutant("flip-no-op-steps-show-the-next-value", "src/relkit/evalkit.py",
           "moved[live + 1] = 1",
           "moved[live] = 1",
           ("tests/test_evalkit.py",)),
    Mutant("flip-live-steps-change-every-entry", "src/relkit/evalkit.py",
           "live = np.flatnonzero(change.any(axis=1))",
           "live = np.flatnonzero(change.all(axis=1))",
           ("tests/test_evalkit.py",)),
    Mutant("slot-responses-in-region-order", "src/relkit/netcore.py",
           "change[part]))[order, :, cols]",
           "change[part]))[np.arange(s)[:, None], :, cols]",
           ("tests/test_netcore.py", "tests/test_properties.py")),
    Mutant("slot-step-read-one-square-off", "src/relkit/netcore.py",
           "step = np.append(step[_region_entries(tuple(in_shape), patch)[:, 0]], 0)[squares]",
           "step = np.append(0, step[_region_entries(tuple(in_shape), patch)[:, 0]])[squares]",
           ("tests/test_netcore.py", "tests/test_properties.py")),
    Mutant("region-squares-column-major", "src/relkit/netcore.py",
           "entries = squares.transpose(1, 3, 0, 2, 4)",
           "entries = squares.transpose(3, 1, 0, 2, 4)",
           ("tests/test_evalkit.py",)),
    Mutant("window-inverse-unread-cells-hit-cell-0", "src/relkit/netcore.py",
           "inverse = np.full((geom.pad_h * geom.pad_w, len(index)), index.shape[1])",
           "inverse = np.full((geom.pad_h * geom.pad_w, len(index)), 0)",
           ("tests/test_evalkit.py",)),
    Mutant("single-layer-r-upper-unchecked", "src/relkit/explain.py",
           "if r_upper.shape != out:",
           "if False:",
           ("tests/test_single_layer_entries.py",)),
    Mutant("single-layer-winner-map-unchecked", "src/relkit/explain.py",
           "if extra.shape != out or not np.issubdtype(extra.dtype, np.integer):",
           "if False:",
           ("tests/test_single_layer_entries.py",)),
    Mutant("single-layer-box-unchecked", "src/relkit/explain.py",
           "        rule.require_shape(x.shape)\n",
           "        pass\n",
           ("tests/test_single_layer_entries.py",)),
    Mutant("pixel-bounds-unchecked", "src/relkit/explain.py",
           'box = ZBounds(low, high).require_shape(network.input_shape, "pixel bound ",\n'
           '                                           "the input shape")',
           "box = ZBounds(low, high)",
           ("tests/test_shared_checks.py",)),
    Mutant("continuity-l-infinity", "src/relkit/evalkit.py",
           "ratio = np.abs(r0 - r1).sum() /",
           "ratio = np.abs(r0 - r1).max() /",
           ("tests/test_evalkit.py",)),
    Mutant("translation-average-sums-explained-values", "src/relkit/heatmaptools.py",
           "sum(hm.explained_value for hm in maps) / len(shifts),",
           "sum(hm.explained_value for hm in maps),",
           ("tests/test_heatmaptools.py",)),
    Mutant("quadrant-odd-height-split-low", "src/relkit/heatmaptools.py",
           "rows = (np.arange(h) >= (h + 1) // 2)",
           "rows = (np.arange(h) >= h // 2)",
           ("tests/test_heatmaptools.py",)),
    Mutant("sequential-colormap-truncated", "src/relkit/heatmaptools.py",
           "rgb[..., 0] = np.rint(255.0 * t).astype(np.uint8)",
           "rgb[..., 0] = (255.0 * t).astype(np.uint8)",
           ("tests/test_heatmaptools.py",)),
    Mutant("score-reader-shape-unchecked", "src/relkit/explain.py",
           "if shape is not None and scores.shape != shape:",
           "if False:",
           ("tests/test_shared_checks.py",)),
    Mutant("saved-bounds-not-checked-against-the-input", "src/relkit/modelio.py",
           "check_input_bounds(*input_bounds, input_shape=network.input_shape)",
           "check_input_bounds(*input_bounds)",
           ("tests/test_shared_checks.py",)),
    Mutant("expert-size-unchecked", "src/relkit/prototype.py",
           "if size != self.dim:",
           "if False:",
           ("tests/test_shared_checks.py",)),
    Mutant("idx-images-truncated", "src/relkit/modelio.py",
           "arr = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)",
           "arr = (np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)",
           ("tests/test_modelio.py",)),
    Mutant("idx-images-non-finite-unchecked", "src/relkit/modelio.py",
           '        require_finite("images", arr)\n',
           "",
           ("tests/test_modelio.py",)),
    Mutant("idx-labels-accept-256", "src/relkit/modelio.py",
           "arr.max() > 255",
           "arr.max() > 256",
           ("tests/test_modelio.py",)),
    Mutant("idx-empty-labels-unguarded", "src/relkit/modelio.py",
           "arr.size and (arr.min() < 0 or arr.max() > 255)",
           "(arr.min() < 0 or arr.max() > 255)",
           ("tests/test_modelio.py",)),
    Mutant("ascent-strict-improvement", "src/relkit/prototype.py",
           "if cand_value >= value or step <= min_step:",
           "if cand_value > value or step <= min_step:",
           ("tests/test_prototype.py",)),
    Mutant("ascent-smallest-step-a-64th", "src/relkit/prototype.py",
           "min_step = options.step_size * 2.0 ** -60",
           "min_step = options.step_size * 2.0 ** -6",
           ("tests/test_prototype.py",)),
    Mutant("pool-stride-default-1", "src/relkit/cli.py",
           'stride = opts.get("s", 1 if head == "conv" else sizes[0])',
           'stride = opts.get("s", 1)',
           ("tests/test_cli.py",)),
    Mutant("cli-class-0-ignored", "src/relkit/cli.py",
           "    if chosen is not None:\n",
           "    if chosen:\n",
           ("tests/test_cli.py",)),
    Mutant("cli-input-domain-auto-always-real", "src/relkit/cli.py",
           'auto = "real" if low is None else "pixel"',
           'auto = "real"',
           ("tests/test_cli.py",)),
    Mutant("empty-dataset-accepted", "src/relkit/cli.py",
           "    if not len(images):\n",
           "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("digits-unclipped", "src/relkit/datagen.py",
           "images[i] = np.clip(img, 0.0, 1.0)",
           "images[i] = img",
           ("tests/test_datagen.py",)),
)


def apply(mutant, root):
    """Write `mutant` into the tree at `root`; False when its old text does not
    occur exactly once there."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def pytest(tests, mutant=None, timeout=TIMEOUT):
    """(status, seconds, detail) of `pytest -x` on `tests` in a fresh copy of the
    tree, with `mutant` applied when one is given. The status is passed, failed,
    timeout, stale or error; the detail is the first failing test id, or
    pytest's last lines on an error."""
    with tempfile.TemporaryDirectory(prefix="relkit-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, root / name)
        if mutant is not None and not apply(mutant, root):
            return "stale", 0.0, ""
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               *tests]
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        lines = done.stdout.decode(errors="replace").strip().splitlines()
        if done.returncode == 0:
            return "passed", seconds, ""
        if done.returncode == 1:  # pytest: some test failed
            failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
                      if line.startswith(("FAILED ", "ERROR "))]
            return "failed", seconds, failed[0] if failed else ""
        return "error", seconds, f"pytest exit {done.returncode}: {' | '.join(lines[-3:])}"


def run(mutant, timeout=TIMEOUT):
    """(outcome, seconds, detail) of one mutant on its named test files; a failed
    run is a killed mutant and a passed one a survivor."""
    status, seconds, detail = pytest(mutant.tests, mutant, timeout)
    return {"passed": "survived", "failed": "killed"}.get(status, status), seconds, detail


def main():
    tests = sorted({test for m in MUTANTS for test in m.tests})
    status, seconds, detail = pytest(tests)
    print(f"{status:8} {seconds:5.1f} s  unmutated copy  ({', '.join(tests)})  {detail}",
          flush=True)
    if status != "passed":
        print("the named test files must pass on an unmutated copy; no mutant was run")
        return 1
    outcomes = []
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for m, (outcome, seconds, detail) in zip(MUTANTS, pool.map(run, MUTANTS)):
            outcomes.append(outcome)
            print(f"{outcome:8} {seconds:5.1f} s  {m.name}  ({', '.join(m.tests)})  {detail}",
                  flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
