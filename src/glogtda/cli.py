"""Command-line front door: extract -> train -> eval, plus the certification
suites. Every command is deterministic given (config, seed) and writes only
under the configured output directory (atomically, via temp file + rename).

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


_COMMON = {"out": (_text, "glog_out", "output directory"), "seed": (int, 0, "RNG seed")}
OPTIONS = {
    "extract": {
        **_COMMON,
        "dataset": (_text, None, "NPZ with {split}_images/{split}_labels (required)"),
        "sigma_gauss": (float, 0.5, "smoothing sigma, one of 0/0.5/1/1.5"),
        "sigma_log": (float, 1.0, "edge-response sigma"),
        "num_lines": (int, 50, "slicing lines"),
        "bandwidth": (float, 0.01, "image kernel width"),
        "weight_power": (float, 2.0, "persistence weight exponent"),
        "resolution": (int, 50, "image side in pixels"),
        "threads": (int, None, "worker processes (default $GLOG_THREADS or 1)"),
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
        **_COMMON,
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


def _atomic_write(path: Path, data) -> None:
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    if isinstance(value, bool) or kind is int and isinstance(value, float) and out != value:
        raise ParameterError(f"{name} got {value!r}, not a {kind.__name__}")
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


def _extract_one(grid, cfg, field):
    t0 = time.perf_counter()
    feats = vectorize.build_features([field], cfg, grid=grid)
    return feats[0], time.perf_counter() - t0


def _clip_report(boxes, box) -> dict:
    """Samples whose grade box reaches past box (their bars get clipped), and
    the farthest any box reaches past it."""
    reach = (np.reshape(boxes, (-1, 4)) - box) * (-1, -1, 1, 1)
    return {"samples": int(np.count_nonzero((reach > 0).any(axis=1))),
            "max_excess": float(reach.max(initial=0.0))}


def _extract_split(out_dir: Path, split: str, stack, extract_one, threads: int,
                   width: int, glog) -> tuple[list[float], np.ndarray]:
    """Stream one split, CHUNK samples at a time, through one pool into
    features_{split}.csv and .bin, each renamed into place when complete.
    Returns each sample's extraction seconds and grade box."""
    images, labels, rgb_to_gray = stack
    seconds, boxes = [], np.empty((len(images), 4))
    csv_path, bin_path = (out_dir / f"features_{split}.{ext}" for ext in ("csv", "bin"))
    csv_tmp, bin_tmp = (p.with_name(p.name + ".tmp") for p in (csv_path, bin_path))
    # a pool forks all its workers at once, so never more than there is work or cores for
    workers = min(threads, len(images), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    with pool or contextlib.nullcontext(), open(csv_tmp, "w") as csv, open(bin_tmp, "wb") as glf1:
        glf1.write(vectorize.glf1_header(len(images), width))
        for lo in range(0, len(images), CHUNK):
            fields = [glog(v) for v in to_volumes(images[lo : lo + CHUNK], rgb_to_gray)]
            results = list((pool.map if pool else map)(extract_one, fields))
            feats, labs = [r[0] for r in results], labels[lo : lo + CHUNK]
            csv.write(vectorize.features_to_csv(feats, labs))
            glf1.write(vectorize.feature_table(feats, labs).tobytes())
            seconds += [r[1] for r in results]
            boxes[lo : lo + len(fields)] = [f.box for f in fields]
    os.replace(csv_tmp, csv_path)
    os.replace(bin_tmp, bin_path)
    return seconds, boxes


def _check_splits(path, glog) -> tuple[dict, dict, tuple]:
    """Every split present, converted a chunk at a time so that every input
    check runs before any output is written: each split's rgb_to_gray and
    volume rank, and the train split's grade box from one glog pass."""
    rgb_to_gray, n_dims, train_boxes = {}, {}, []
    for split in SPLITS:
        try:
            images, _, rgb_to_gray[split] = read_split(path, split)
        except NotFoundError:
            continue  # split absent from the archive
        n_dims[split] = images.ndim - 1 - rgb_to_gray[split]
        for lo in range(0, len(images), CHUNK):
            volumes = to_volumes(images[lo : lo + CHUNK], rgb_to_gray[split])
            if split == "train":
                train_boxes.append(union_box(*(glog(v).box for v in volumes)))
    if "train" not in n_dims:
        raise ParameterError(f"dataset {path} has no train split")
    # degrees and the grade box come from the train split; other splits must match
    for split, n in n_dims.items():
        if n != n_dims["train"]:
            raise ShapeError(f"{split} split holds {n}D volumes, train split {n_dims['train']}D")
    return rgb_to_gray, n_dims, union_box(*train_boxes)


def cmd_extract(o) -> int:
    if not o.dataset:
        raise ParameterError("--dataset is required")
    threads = o.threads
    if threads is None:
        threads = _convert("GLOG_THREADS", os.environ.get("GLOG_THREADS", "1"), int)
    if threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {threads}")
    if o.sigma_gauss not in SIGMA_GAUSS_CHOICES:
        raise ParameterError(
            f"--sigma-gauss must be one of {SIGMA_GAUSS_CHOICES}, got {o.sigma_gauss}")
    out_dir = _out_dir(o)

    glog = functools.partial(compute_glog, sigma_gauss=o.sigma_gauss, sigma_log=o.sigma_log)
    rgb_to_gray, n_dims, box = _check_splits(o.dataset, glog)
    cfg = MpiConfig(
        box=box,
        resolution=(o.resolution, o.resolution),
        bandwidth=o.bandwidth,
        weight_power=o.weight_power,
    )
    grid = make_line_grid(cfg.box, o.num_lines)
    degrees = tuple(range(n_dims["train"]))  # build_features' default, recorded below
    feature_dim = len(degrees) * o.resolution * o.resolution

    extract_one = functools.partial(_extract_one, grid, cfg)
    timings, clipped = [], {}
    for split in n_dims:  # read again, so only one split's images are held at a time
        seconds, boxes = _extract_split(out_dir, split, read_split(o.dataset, split),
                                        extract_one, threads, 1 + feature_dim, glog)
        timings += seconds
        clipped[split] = _clip_report(boxes, cfg.box)

    timing = {
        "samples": len(timings),
        "mean_seconds": float(np.mean(timings)),
        "p95_seconds": float(np.quantile(timings, 0.95)),
        "clipped": clipped,
        "note": "wall clock on this machine; reference timings depend on hardware",
    }
    _write_json(out_dir / "timing.json", timing)
    _write_json(
        out_dir / "extract_config.json",
        {
            **{key: vars(o)[key] for key in ("sigma_gauss", "sigma_log", "num_lines",
                                             "bandwidth", "weight_power", "resolution")},
            "box": list(cfg.box),
            "degrees": list(degrees),
            "feature_dim": feature_dim,
            "seed": o.seed,
            "rgb_to_gray": rgb_to_gray,
        },
    )
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
    tmp = out_dir / "checkpoint.bin.tmp"
    save_checkpoint(tmp, best)
    os.replace(tmp, out_dir / "checkpoint.bin")
    _atomic_write(out_dir / "history.csv", history.to_csv())
    probs = forward(best, val_x)
    metrics = {
        "val_auc": auc(probs, val_y),
        "val_acc": accuracy(probs.argmax(axis=1), val_y),
        "epochs_run": len(history.rows),
        "epoch_seconds": history.epoch_seconds,
        "num_classes": num_classes,
    }
    _write_json(out_dir / "train_metrics.json", metrics)
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
    _write_json(out_dir / "eval_metrics.json", metrics)
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
    _atomic_write(out_dir / "stability_report.json",
                  json.dumps(reports, indent=2, sort_keys=True) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
