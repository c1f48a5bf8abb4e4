"""Command-line front door: extract -> train -> eval, plus the certification
suites. Every command is deterministic given (config, seed) and writes only
under the configured output directory (atomically, via temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import stability_harness, vectorize
from .bifiltration import compute_glog
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
from .volume_io import load_dataset

SIGMA_GAUSS_CHOICES = (0.0, 0.5, 1.0, 1.5)
SPLITS = ("train", "val", "test")


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
    return cfg


def _convert(name: str, value, kind):
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} got {value!r}: {exc}") from None
    # int() alone would truncate 10.7 to 10, and read true as 1
    if isinstance(value, bool) or kind is int and isinstance(value, float) and out != value:
        raise ParameterError(f"{name} got {value!r}, not a {kind.__name__}")
    return out


def _merged(args: argparse.Namespace, key: str, default, kind=None):
    """Flag value if given, else config-file value, else default; a value
    other than the default is converted by kind, if given."""
    val = getattr(args, key, None)
    if val is None:
        val = args.config_values.get(key, default)
    if kind is None or val is default:
        return val
    return _convert("--" + key.replace("_", "-"), val, kind)


def _threads(args) -> int:
    t = _merged(args, "threads", None, int)
    if t is None:
        t = _convert("GLOG_THREADS", os.environ.get("GLOG_THREADS", "1"), int)
    if t < 1:
        raise ParameterError(f"--threads must be >= 1, got {t}")
    return t


_WORK = {}


def _extract_one(i: int):
    fields, grid, cfg, degrees = _WORK["job"]
    t0 = time.perf_counter()
    feats = vectorize.build_features([fields[i]], cfg, degrees=degrees, grid=grid)
    return feats[0], time.perf_counter() - t0


def _pool_init(job):
    _WORK["job"] = job


def _clip_report(boxes, grid, box) -> dict:
    """Samples whose grade box the grid misses (their bars get clipped), and
    the farthest any box reaches past box."""
    reach = (np.reshape(boxes, (-1, 4)) - box) * (-1, -1, 1, 1)
    return {"samples": sum(not grid.covers(b) for b in boxes),
            "max_excess": float(reach.max(initial=0.0))}


def cmd_extract(args) -> int:
    dataset_path = _merged(args, "dataset", None)
    if not dataset_path:
        raise ParameterError("--dataset is required")
    out_dir = Path(_merged(args, "out", "glog_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    sigma_gauss = _merged(args, "sigma_gauss", 0.5, float)
    sigma_log = _merged(args, "sigma_log", 1.0, float)
    num_lines = _merged(args, "num_lines", 50, int)
    bandwidth = _merged(args, "bandwidth", 0.01, float)
    weight_power = _merged(args, "weight_power", 2.0, float)
    resolution = _merged(args, "resolution", 50, int)
    seed = _merged(args, "seed", 0, int)
    threads = _threads(args)
    if sigma_gauss not in SIGMA_GAUSS_CHOICES:
        raise ParameterError(
            f"--sigma-gauss must be one of {SIGMA_GAUSS_CHOICES}, got {sigma_gauss}"
        )

    datasets = {}
    for split in SPLITS:
        try:
            datasets[split] = load_dataset(dataset_path, split)
        except NotFoundError:
            continue  # split absent from the archive
    if "train" not in datasets:
        raise ParameterError(f"dataset {dataset_path} has no train split")
    # degrees and the grade box come from the train split; other splits must match
    n_dims = datasets["train"].volumes[0].n
    for split, ds in datasets.items():
        if ds.volumes[0].n != n_dims:
            raise ShapeError(
                f"{split} split holds {ds.volumes[0].n}D volumes, train split {n_dims}D"
            )

    fields = {
        split: [compute_glog(v, sigma_gauss, sigma_log) for v in ds.volumes]
        for split, ds in datasets.items()
    }
    cfg = MpiConfig(
        box=vectorize.compute_global_box(fields["train"]),
        resolution=(resolution, resolution),
        bandwidth=bandwidth,
        weight_power=weight_power,
    )
    grid = make_line_grid(cfg.box, num_lines)
    degrees = tuple(range(n_dims))

    timings = []
    for split, ds in datasets.items():
        job = (fields[split], grid, cfg, degrees)
        indices = range(len(fields[split]))
        if threads > 1:
            with ProcessPoolExecutor(threads, initializer=_pool_init, initargs=(job,)) as pool:
                results = list(pool.map(_extract_one, indices))
        else:
            _pool_init(job)
            results = [_extract_one(i) for i in indices]
        feats = [r[0] for r in results]
        timings.extend(r[1] for r in results)
        _atomic_write(
            out_dir / f"features_{split}.csv",
            vectorize.features_to_csv(feats, ds.labels),
        )
        tmp = out_dir / f"features_{split}.bin.tmp"
        vectorize.write_feature_bin(tmp, feats, ds.labels)
        os.replace(tmp, out_dir / f"features_{split}.bin")

    timing = {
        "samples": len(timings),
        "mean_seconds": float(np.mean(timings)),
        "p95_seconds": float(np.quantile(timings, 0.95)),
        "clipped": {split: _clip_report([f.box for f in fs], grid, cfg.box)
                    for split, fs in fields.items()},
        "note": "wall clock on this machine; reference timings depend on hardware",
    }
    _write_json(out_dir / "timing.json", timing)
    _write_json(
        out_dir / "extract_config.json",
        {
            "sigma_gauss": sigma_gauss,
            "sigma_log": sigma_log,
            "num_lines": num_lines,
            "bandwidth": bandwidth,
            "weight_power": weight_power,
            "resolution": resolution,
            "box": list(cfg.box),
            "degrees": list(degrees),
            "feature_dim": len(degrees) * resolution * resolution,
            "seed": seed,
            "rgb_to_gray": {split: ds.rgb_to_gray for split, ds in datasets.items()},
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


def cmd_train(args) -> int:
    out_dir = Path(_merged(args, "out", "glog_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    feat_dir = Path(_merged(args, "features", out_dir))
    train_x, train_y = _read_features(feat_dir / "features_train.bin")
    val_x, val_y = _read_features(feat_dir / "features_val.bin")
    if train_x.shape[1] != val_x.shape[1]:
        raise FormatError(
            f"feature dims disagree: train {train_x.shape[1]} vs val {val_x.shape[1]}"
        )
    seed = _merged(args, "seed", 0, int)
    num_classes = int(max(train_y.max(), val_y.max())) + 1
    cfg = TrainConfig(
        learning_rate=_merged(args, "learning_rate", 0.001, float),
        epochs=_merged(args, "epochs", 100, int),
        batch_size=_merged(args, "batch_size", 32, int),
        patience=_merged(args, "patience", 20, int),
        rng_seed=seed,
    )
    model = init_model(model_dims_for(train_x.shape[1], num_classes), seed)
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
        "num_classes": num_classes,
    }
    _write_json(out_dir / "train_metrics.json", metrics)
    print(f"val AUC {metrics['val_auc']:.4f}  val ACC {metrics['val_acc']:.4f}")
    return 0


def cmd_eval(args) -> int:
    out_dir = Path(_merged(args, "out", "glog_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    feat_dir = Path(_merged(args, "features", out_dir))
    checkpoint = Path(_merged(args, "checkpoint", out_dir / "checkpoint.bin"))
    model = load_checkpoint(checkpoint)
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


def cmd_stability(args) -> int:
    out_dir = Path(_merged(args, "out", "glog_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = _merged(args, "seed", 0, int)
    trials = _merged(args, "trials", 10, int)
    noise_eps = _merged(args, "noise_eps", 0.1, float)
    dims = _merged(args, "dims", (8, 8), lambda v: tuple(int(d) for d in str(v).split("x")))
    sigma_log = _merged(args, "sigma_log", 1.0, float)
    num_lines = _merged(args, "num_lines", 50, int)
    bound_scale = _merged(args, "debug_bound_scale", 1.0, float)
    sigma_gauss = _merged(args, "sigma_gauss", None, float)
    sweep = [sigma_gauss] if sigma_gauss is not None else [0.5, 1.0, 1.5]

    reports = []
    all_passed = True
    for sg in sweep:
        rep = stability_harness.run_stability_suite(
            n_trials=trials,
            dims=dims,
            sigma_gauss=sg,
            sigma_log=sigma_log,
            noise_eps=noise_eps,
            seed=seed,
            num_lines=num_lines,
            bound_scale=bound_scale,
        )
        print(rep.table())
        reports.append(json.loads(rep.to_json()))
        all_passed &= rep.passed
    _atomic_write(out_dir / "stability_report.json",
                  json.dumps(reports, indent=2, sort_keys=True) + "\n")
    return 0 if all_passed else 1


def cmd_decomposition_demo(args) -> int:
    out_dir = Path(_merged(args, "out", "glog_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    report = stability_harness.run_decomposition_suite(
        seed=_merged(args, "seed", 0, int),
        n_geometries=_merged(args, "geometries", 20, int),
        num_lines=_merged(args, "num_lines", 30, int),
    )
    print(report.table())
    _atomic_write(out_dir / "decomposition_report.json", report.to_json() + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glogtda",
        description="Bi-parameter topological features for grayscale volumes",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default glog_out)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")

    p_ext = sub.add_parser("extract", help="dataset -> feature files + timing")
    common(p_ext)
    p_ext.add_argument("--dataset", help="NPZ with {split}_images/{split}_labels")
    p_ext.add_argument("--sigma-gauss", dest="sigma_gauss", type=float,
                       help="smoothing sigma, one of 0/0.5/1/1.5 (default 0.5)")
    p_ext.add_argument("--sigma-log", dest="sigma_log", type=float,
                       help="edge-response sigma (default 1)")
    p_ext.add_argument("--num-lines", dest="num_lines", type=int,
                       help="slicing lines (default 50)")
    p_ext.add_argument("--bandwidth", type=float, help="image kernel width (default 0.01)")
    p_ext.add_argument("--weight-power", dest="weight_power", type=float,
                       help="persistence weight exponent (default 2)")
    p_ext.add_argument("--resolution", type=int, help="image side in pixels (default 50)")
    p_ext.add_argument("--threads", type=int,
                       help="worker processes (default $GLOG_THREADS or 1)")

    p_tr = sub.add_parser("train", help="feature files -> checkpoint + metrics")
    common(p_tr)
    p_tr.add_argument("--features", help="directory with features_{split}.bin (default --out)")
    p_tr.add_argument("--learning-rate", dest="learning_rate", type=float)
    p_tr.add_argument("--epochs", type=int)
    p_tr.add_argument("--batch-size", dest="batch_size", type=int)
    p_tr.add_argument("--patience", type=int)

    p_ev = sub.add_parser("eval", help="checkpoint + test features -> AUC/ACC")
    common(p_ev)
    p_ev.add_argument("--features", help="directory with features_test.bin (default --out)")
    p_ev.add_argument("--checkpoint", help="model file (default <out>/checkpoint.bin)")

    p_st = sub.add_parser("stability", help="randomized stability certification")
    common(p_st)
    p_st.add_argument("--trials", type=int, help="trials per sigma (default 10)")
    p_st.add_argument("--noise-eps", dest="noise_eps", type=float,
                      help="perturbation amplitude (default 0.1)")
    p_st.add_argument("--dims", help="grid dims, e.g. 8x8 (default)")
    p_st.add_argument("--sigma-gauss", dest="sigma_gauss", type=float,
                      help="run a single sigma instead of the 0.5/1/1.5 sweep")
    p_st.add_argument("--sigma-log", dest="sigma_log", type=float)
    p_st.add_argument("--num-lines", dest="num_lines", type=int)
    p_st.add_argument("--debug-bound-scale", dest="debug_bound_scale", type=float,
                      help="rescale the certified bound (negative-control only)")

    p_dc = sub.add_parser("decomposition-demo",
                          help="direct-sum decomposition certification")
    common(p_dc)
    p_dc.add_argument("--geometries", type=int, help="random geometries (default 20)")
    p_dc.add_argument("--num-lines", dest="num_lines", type=int)

    return parser


_COMMANDS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "eval": cmd_eval,
    "stability": cmd_stability,
    "decomposition-demo": cmd_decomposition_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _load_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command](args)
    except GlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
