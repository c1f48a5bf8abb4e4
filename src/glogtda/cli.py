"""Command-line front door: extract -> train -> eval, plus the certification
suites. Every command is deterministic given its options and writes only under
--out, via temp file + rename. extract reads train once for the grade box, then
each split once into rows on one worker pool, and publishes all files at once.

OPTIONS states each option once, as {name: (kind, default, help)} per
command: build_parser adds one flag per entry, and _options resolves each
to its flag, else its config-file value, else its default, and converts it
with kind. Flags and config values thus fail alike, with exit 2 and an
`error: --flag` line. A config file may hold the options of any command, so
one file serves extract, train and eval, but no other key. A default of
None is filled in by the command from other values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import stability_harness, vectorize
from .bifiltration import compute_glog, union_box
from .errors import FormatError, GlogError, NotFoundError, ParameterError, ShapeError
from .fibered import make_line_grid
from .learn import (
    TrainConfig,
    accuracy,
    auc,
    forward,
    init_model,
    load_checkpoint,
    model_dims_for,
    save_checkpoint,
    train,
)
from .vectorize import MpiConfig, read_feature_bin
from .volume_io import CHUNK, read_split, to_volumes

SIGMA_GAUSS_CHOICES = (0.0, 0.5, 1.0, 1.5)
SPLITS = ("train", "val", "test")


def _text(value) -> str:
    """A path option; a flag is always a string, a config value must be one."""
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _dims(value) -> tuple[int, ...]:
    return tuple(int(d) for d in str(value).split("x"))


def _seed(value) -> int:
    """An RNG seed: numpy's generators refuse a negative one."""
    if (seed := int(value)) < 0:
        raise ValueError("a seed must be >= 0")
    return seed


_COMMON = {"out": (_text, "glog_out", "output directory"), "seed": (_seed, 0, "RNG seed")}
OPTIONS = {
    "extract": {
        "out": _COMMON["out"],
        "dataset": (_text, None, "NPZ with {split}_images/{split}_labels (required)"),
        "sigma_gauss": (float, 0.5, "smoothing sigma, one of 0/0.5/1/1.5"),
        "sigma_log": (float, 1.0, "edge-response sigma"),
        "num_lines": (int, 50, "slicing lines"),
        "bandwidth": (float, 0.01, "image kernel width"),
        "weight_power": (float, 2.0, "persistence weight exponent"),
        "resolution": (int, 50, "image side in pixels"),
        "threads": (int, 1, "worker processes, at most one per CPU"),
    },
    "train": {
        **_COMMON,
        "features": (_text, None, "directory with features_{split}.bin (default --out)"),
        "learning_rate": (float, 0.001, "Adam step size"),
        "epochs": (int, 100, "most epochs to run"),
        "batch_size": (int, 32, "rows per Adam step"),
        "patience": (int, 20, "epochs without a val AUC gain before stopping"),
    },
    "eval": {
        "out": _COMMON["out"],
        "features": (_text, None, "directory with features_test.bin (default --out)"),
        "checkpoint": (_text, None, "model file (default <out>/checkpoint.bin)"),
    },
    "stability": {
        **_COMMON,
        "trials": (int, 10, "trials per sigma"),
        "noise_eps": (float, 0.1, "perturbation amplitude"),
        "dims": (_dims, "8x8", "grid dims"),
        "sigma_gauss": (float, None, "run a single sigma instead of the 0.5/1/1.5 sweep"),
        "sigma_log": (float, 1.0, "edge-response sigma"),
        "num_lines": (int, 50, "slicing lines"),
    },
    "decomposition-demo": {
        **_COMMON,
        "geometries": (int, 20, "random geometries"),
        "num_lines": (int, 30, "slicing lines"),
    },
}


@contextlib.contextmanager
def _replacing(path: Path):
    """Yield a temp path beside path; rename it into place when the block
    completes, and unlink it when the block raises anything."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _replacing(path) as tmp:
        tmp.write_text(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_config_file(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise FormatError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise FormatError("config file must hold a JSON object")
    unknown = sorted(set(cfg).difference(*OPTIONS.values()))
    if unknown:
        raise ParameterError(f"config file {path} sets unknown options {', '.join(unknown)}")
    return cfg


def _convert(name: str, value, kind):
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} got {value!r}: {exc}") from None
    # int() alone would truncate 10.7 to 10, and read true as 1
    if isinstance(value, bool) or type(out) is int and isinstance(value, float) and out != value:
        raise ParameterError(f"{name} got {value!r}, not a {type(out).__name__}")
    if kind is float and not np.isfinite(out):
        raise ParameterError(f"{name} got {value!r}, not a finite number")
    return out


def _options(args: argparse.Namespace) -> argparse.Namespace:
    """Every option of args.command: the flag, else the config-file value,
    else the default, converted by its kind unless it is a default of None."""
    config = _load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (kind, default, _) in OPTIONS[args.command].items():
        val = getattr(args, key)
        if val is None:
            val = config.get(key, default)
        if val is not None or key in config:  # a config null fails to convert
            val = _convert("--" + key.replace("_", "-"), val, kind)
        resolved[key] = val
    return argparse.Namespace(**resolved)


def _out_dir(o) -> Path:
    out_dir = Path(o.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _extract_one(glog, grid, cfg, volume):
    t0 = time.perf_counter()
    field = glog(volume)
    feats = vectorize.build_features([field], cfg, grid=grid)
    return feats[0], time.perf_counter() - t0, field.box


def _clip_report(boxes, box) -> dict:
    """Samples whose grade box reaches past box (their bars get clipped), and
    the farthest any box reaches past it."""
    reach = (np.reshape(boxes, (-1, 4)) - box) * (-1, -1, 1, 1)
    return {"samples": int(np.count_nonzero((reach > 0).any(axis=1))),
            "max_excess": float(reach.max(initial=0.0))}


def _extract_split(split: str, path: Path, stack, extract, width: int) -> tuple[list[float], list]:
    """Stream one split, CHUNK samples at a time, through extract (a map of
    _extract_one) into the GLF1 file path, closed on return. Returns each
    sample's extraction seconds and grade box."""
    images, labels, rgb_to_gray = stack
    header = vectorize.glf1_header(len(images), width)  # checked before any file is opened
    seconds, boxes = [], []
    with open(path, "wb") as glf1:
        glf1.write(header)
        for lo in range(0, len(images), CHUNK):
            feats, secs, bxs = zip(*extract(to_volumes(images[lo : lo + CHUNK], rgb_to_gray, split, lo)))
            glf1.write(vectorize.feature_table(feats, labels[lo : lo + CHUNK]).tobytes())
            seconds += secs
            boxes += bxs
    return seconds, boxes


def _train_split(path, glog) -> tuple[tuple[int, ...], tuple]:
    """The train split's per-sample shape and grade box, from one glog pass over
    its samples a chunk at a time. An empty train split is refused like an absent one."""
    try:
        images, _, rgb = read_split(path, "train")
    except NotFoundError:
        images = ()
    if len(images) == 0:
        raise ParameterError(f"dataset {path} has an empty or absent train split")
    boxes = [union_box(*(glog(v).box for v in to_volumes(images[lo : lo + CHUNK], rgb, "train", lo)))
             for lo in range(0, len(images), CHUNK)]
    return images.shape[1 : images.ndim - rgb], union_box(*boxes)  # colour axis dropped


def cmd_extract(o) -> int:
    if not o.dataset:
        raise ParameterError("--dataset is required")
    if o.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {o.threads}")
    if o.sigma_gauss not in SIGMA_GAUSS_CHOICES:
        raise ParameterError(
            f"--sigma-gauss must be one of {SIGMA_GAUSS_CHOICES}, got {o.sigma_gauss}")
    out_dir = _out_dir(o)

    glog = functools.partial(compute_glog, sigma_gauss=o.sigma_gauss, sigma_log=o.sigma_log)
    shape, box = _train_split(o.dataset, glog)
    cfg = MpiConfig(box=box, resolution=(o.resolution, o.resolution), bandwidth=o.bandwidth,
                    weight_power=o.weight_power)
    grid = make_line_grid(cfg.box, o.num_lines)
    feature_dim = len(shape) * o.resolution * o.resolution  # degrees 0..len(shape)-1

    workers = min(o.threads, os.cpu_count() or 1)
    timings, clipped, rgb_to_gray = [], {}, {}
    # every output is written beside its place, and renamed into it only once
    # all are complete; a raise unlinks them all and leaves the old set whole
    with contextlib.ExitStack() as publish:
        def staged(name: str) -> Path:
            return publish.enter_context(_replacing(out_dir / name))

        mapper = publish.enter_context(ProcessPoolExecutor(workers)).map if workers > 1 else map
        extract = functools.partial(mapper, functools.partial(_extract_one, glog, grid, cfg))
        for split in SPLITS:  # one split's images are held at a time
            try:
                stack = read_split(o.dataset, split)
            except NotFoundError:
                continue  # split absent from the archive
            images, _, rgb = stack
            if len(images) == 0:
                continue  # an empty split, skipped likewise
            # degrees, lines and the grade box come from the train split; others must match
            if (got := images.shape[1 : images.ndim - rgb]) != shape:
                raise ShapeError(f"{split} split holds {len(got)}D volumes {got}, train split {shape}")
            rgb_to_gray[split] = rgb
            seconds, boxes = _extract_split(split, staged(f"features_{split}.bin"), stack, extract,
                                            1 + feature_dim)
            timings += seconds
            clipped[split] = _clip_report(boxes, cfg.box)

        timing = {
            "samples": len(timings),
            "mean_seconds": float(np.mean(timings)),
            "p95_seconds": float(np.quantile(timings, 0.95)),
            "clipped": clipped,
            "note": "wall clock on this machine; reference timings depend on hardware",
        }
        staged("timing.json").write_text(_json(timing))
        staged("extract_config.json").write_text(_json({
            **{key: vars(o)[key] for key in ("sigma_gauss", "sigma_log", "num_lines",
                                             "bandwidth", "weight_power", "resolution")},
            "box": list(cfg.box),
            "degrees": list(range(len(shape))),  # build_features' default
            "feature_dim": feature_dim,
            "rgb_to_gray": rgb_to_gray,
        }))
        for split in set(SPLITS) - set(rgb_to_gray):  # an older run's file for a split skipped now
            (out_dir / f"features_{split}.bin").unlink(missing_ok=True)
    print(
        f"extracted {timing['samples']} samples: mean {timing['mean_seconds']:.3f}s, "
        f"p95 {timing['p95_seconds']:.3f}s per sample -> {out_dir}"
    )
    return 0


def _read_features(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """read_feature_bin, refusing a table with no rows."""
    x, y = read_feature_bin(path)
    if len(y) == 0:
        raise ParameterError(f"feature file {path} holds no samples")
    return x, y


def cmd_train(o) -> int:
    out_dir = _out_dir(o)
    feat_dir = Path(out_dir if o.features is None else o.features)
    train_x, train_y = _read_features(feat_dir / "features_train.bin")
    val_x, val_y = _read_features(feat_dir / "features_val.bin")
    if train_x.shape[1] != val_x.shape[1]:
        raise FormatError(
            f"feature dims disagree: train {train_x.shape[1]} vs val {val_x.shape[1]}"
        )
    num_classes = int(max(train_y.max(), val_y.max())) + 1
    if num_classes > len(train_y):  # a stray label would size the output layer
        raise ParameterError(f"label {num_classes - 1}: more classes than {len(train_y)} rows")
    cfg = TrainConfig(learning_rate=o.learning_rate, epochs=o.epochs, batch_size=o.batch_size,
                      patience=o.patience, rng_seed=o.seed)
    model = init_model(model_dims_for(train_x.shape[1], num_classes), o.seed)
    best, history = train(model, train_x, train_y, val_x, val_y, cfg)
    with _replacing(out_dir / "checkpoint.bin") as tmp:
        save_checkpoint(tmp, best)
    _atomic_write(out_dir / "history.csv", history.to_csv())
    probs = forward(best, val_x)
    metrics = {
        "val_auc": auc(probs, val_y),
        "val_acc": accuracy(probs.argmax(axis=1), val_y),
        "epochs_run": len(history.rows),
        "epoch_seconds": history.epoch_seconds,
        "num_classes": num_classes,
    }
    _atomic_write(out_dir / "train_metrics.json", _json(metrics))
    print(f"val AUC {metrics['val_auc']:.4f}  val ACC {metrics['val_acc']:.4f}")
    return 0


def cmd_eval(o) -> int:
    out_dir = _out_dir(o)
    feat_dir = Path(out_dir if o.features is None else o.features)
    model = load_checkpoint(out_dir / "checkpoint.bin" if o.checkpoint is None else o.checkpoint)
    test_x, test_y = _read_features(feat_dir / "features_test.bin")
    if test_x.shape[1] != model.layer_dims[0]:
        raise FormatError(
            f"feature dim {test_x.shape[1]} != model input {model.layer_dims[0]}"
        )
    num_classes = model.layer_dims[-1]
    if test_y.max() >= num_classes:
        raise FormatError(
            f"label {int(test_y.max())} out of range for {num_classes}-class model"
        )
    probs = forward(model, test_x)
    metrics = {
        "auc": auc(probs, test_y),
        "acc": accuracy(probs.argmax(axis=1), test_y),
    }
    _atomic_write(out_dir / "eval_metrics.json", _json(metrics))
    print(f"test AUC {metrics['auc']:.4f}  test ACC {metrics['acc']:.4f}")
    return 0


def cmd_stability(o) -> int:
    out_dir = _out_dir(o)
    sweep = [o.sigma_gauss] if o.sigma_gauss is not None else [0.5, 1.0, 1.5]
    reports = []
    all_passed = True
    for sg in sweep:
        rep = stability_harness.run_stability_suite(
            n_trials=o.trials, dims=o.dims, sigma_gauss=sg, sigma_log=o.sigma_log,
            noise_eps=o.noise_eps, seed=o.seed, num_lines=o.num_lines,
        )
        print(rep.table())
        reports.append(json.loads(rep.to_json()))
        all_passed &= rep.passed
    _atomic_write(out_dir / "stability_report.json", _json(reports))
    return 0 if all_passed else 1


def cmd_decomposition_demo(o) -> int:
    out_dir = _out_dir(o)
    report = stability_harness.run_decomposition_suite(
        seed=o.seed, n_geometries=o.geometries, num_lines=o.num_lines
    )
    print(report.table())
    _atomic_write(out_dir / "decomposition_report.json", report.to_json() + "\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "extract": (cmd_extract, "dataset -> feature files + timing"),
    "train": (cmd_train, "feature files -> checkpoint + metrics"),
    "eval": (cmd_eval, "checkpoint + test features -> AUC/ACC"),
    "stability": (cmd_stability, "randomized stability certification"),
    "decomposition-demo": (cmd_decomposition_demo, "direct-sum decomposition certification"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glogtda",
        description="Bi-parameter topological features for grayscale volumes",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for key, (_, default, text) in OPTIONS[command].items():
            shown = "" if default is None else f" (default {default})"
            p.add_argument("--" + key.replace("_", "-"), help=text + shown)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_options(args))
    except GlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
