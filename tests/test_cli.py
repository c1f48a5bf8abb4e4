import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glogtda
from glogtda import cli, vectorize
from glogtda.bifiltration import compute_glog
from glogtda.cli import main
from glogtda.fibered import make_line_grid
from glogtda.vectorize import read_feature_bin
from glogtda.volume_io import CHUNK, load_dataset

from synthdata import disk_annulus_images, write_split_npz
from test_vectorize import write_glf1
from test_volume_io import member_payload_offset


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    images, labels = disk_annulus_images(30, size=14, seed=5)
    path = tmp_path_factory.mktemp("data") / "toy.npz"
    write_split_npz(path, images, labels, split_sizes=(18, 6, 6))
    return path


def run(args):
    return main([str(a) for a in args])


def extract_args(dataset, out, extra=()):
    return [
        "extract", "--dataset", dataset, "--out", out,
        "--num-lines", "10", "--resolution", "12", "--sigma-gauss", "0.5",
        *extra,
    ]


def test_extract_train_eval_roundtrip(tmp_path, toy_dataset, capsys):
    out = tmp_path / "run"
    assert run(extract_args(toy_dataset, out)) == 0
    for split in ("train", "val", "test"):
        assert (out / f"features_{split}.csv").exists()
        assert (out / f"features_{split}.bin").exists()
    timing = json.loads((out / "timing.json").read_text())
    assert timing["samples"] == 30 and timing["mean_seconds"] > 0
    cfgfile = json.loads((out / "extract_config.json").read_text())
    assert cfgfile["feature_dim"] == 2 * 12 * 12
    mat, labels = read_feature_bin(out / "features_train.bin")
    assert mat.shape == (18, 2 * 12 * 12)
    assert set(labels.tolist()) == {0, 1}

    assert run(["train", "--out", out, "--epochs", "12", "--patience", "12",
                "--seed", "3"]) == 0
    assert (out / "checkpoint.bin").exists()
    history = (out / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,train_loss,val_auc"
    assert run(["eval", "--out", out]) == 0
    metrics = json.loads((out / "eval_metrics.json").read_text())
    assert 0.0 <= metrics["auc"] <= 1.0 and 0.0 <= metrics["acc"] <= 1.0
    shown = capsys.readouterr().out
    assert "test AUC" in shown


def test_extract_default_resolution_feature_width(tmp_path):
    images, labels = disk_annulus_images(8, size=28, seed=6)
    path = tmp_path / "d28.npz"
    write_split_npz(path, images, labels, split_sizes=(4, 2, 2))
    out = tmp_path / "run28"
    assert run(["extract", "--dataset", path, "--out", out]) == 0
    mat, _ = read_feature_bin(out / "features_train.bin")
    assert mat.shape == (4, 5000)


def test_extract_deterministic_rerun(tmp_path, toy_dataset):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(extract_args(toy_dataset, out1)) == 0
    assert run(extract_args(toy_dataset, out2)) == 0
    for name in ("features_train.bin", "features_val.csv", "features_test.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_extract_parallel_matches_serial(tmp_path, toy_dataset):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert run(extract_args(toy_dataset, serial, ("--threads", "1"))) == 0
    assert run(extract_args(toy_dataset, parallel, ("--threads", "2"))) == 0
    assert (serial / "features_train.bin").read_bytes() == (
        parallel / "features_train.bin"
    ).read_bytes()


def test_extract_pool_never_outgrows_the_work_or_the_cores(tmp_path, toy_dataset, monkeypatch):
    # a pool forks all its workers at the first task; this one maps serially
    # and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    out = tmp_path / "wide"
    assert run(extract_args(toy_dataset, out, ("--threads", "100000"))) == 0
    assert sizes == [8, 6, 6]  # the 18/6/6 splits, at most 8 cores
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run(extract_args(toy_dataset, tmp_path / "one", ("--threads", "100000"))) == 0
    assert sizes == [8, 6, 6]  # one core: no pool at all
    serial = tmp_path / "serial"
    assert run(extract_args(toy_dataset, serial, ("--threads", "1"))) == 0
    for split in ("train", "val", "test"):
        assert (out / f"features_{split}.bin").read_bytes() == (
            serial / f"features_{split}.bin").read_bytes()


def test_train_metrics_time_every_epoch(tmp_path):
    from glogtda.vectorize import FeatureVector, write_feature_bin

    out = tmp_path / "timed"
    out.mkdir()
    feats = [FeatureVector(row) for row in np.random.default_rng(8).random((6, 3))]
    for split in ("train", "val"):
        write_feature_bin(out / f"features_{split}.bin", feats, [0, 1, 0, 1, 0, 1])
    assert run(["train", "--out", out, "--epochs", "3", "--patience", "3"]) == 0
    metrics = json.loads((out / "train_metrics.json").read_text())
    assert metrics["epochs_run"] > 0
    assert len(metrics["epoch_seconds"]) == metrics["epochs_run"]
    assert all(s > 0 for s in metrics["epoch_seconds"])


def test_train_determinism(tmp_path, toy_dataset):
    out = tmp_path / "run"
    assert run(extract_args(toy_dataset, out)) == 0
    assert run(["train", "--out", out, "--epochs", "6", "--patience", "6", "--seed", "9"]) == 0
    first = (out / "checkpoint.bin").read_bytes()
    assert run(["train", "--out", out, "--epochs", "6", "--patience", "6", "--seed", "9"]) == 0
    assert (out / "checkpoint.bin").read_bytes() == first


def test_missing_val_features_is_io_error(tmp_path, toy_dataset):
    out = tmp_path / "run"
    assert run(extract_args(toy_dataset, out)) == 0
    (out / "features_val.bin").unlink()
    assert run(["train", "--out", out, "--epochs", "2", "--patience", "2"]) == 2


def test_sigma_gauss_choices_enforced(tmp_path, toy_dataset):
    out = tmp_path / "run"
    args = extract_args(toy_dataset, out)
    args[args.index("0.5")] = "0.7"
    assert run(args) == 2


def test_unreadable_dataset(tmp_path):
    assert run(["extract", "--dataset", tmp_path / "nope.npz", "--out", tmp_path / "o"]) == 2


def test_dataset_directory_is_io_error(tmp_path, capsys):
    assert run(["extract", "--dataset", tmp_path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "Traceback" not in err


def test_dataset_permission_denied_is_io_error(tmp_path, toy_dataset, monkeypatch, capsys):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("glogtda.volume_io.open", denied, raising=False)
    assert run(extract_args(toy_dataset, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "Permission denied" in err and "Traceback" not in err


def test_corrupt_dataset_member_is_format_error(tmp_path, toy_dataset, capsys):
    data = bytearray(toy_dataset.read_bytes())
    # a pixel byte past the NPY header; the member's CRC no longer matches
    data[member_payload_offset(bytes(data), "train_images.npy") + 200] ^= 1
    path = tmp_path / "corrupt.npz"
    path.write_bytes(bytes(data))
    assert run(extract_args(path, tmp_path / "o")) == 2
    assert "error:" in capsys.readouterr().err


def test_truncated_feature_file_is_format_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for split in ("train", "val"):
        (out / f"features_{split}.bin").write_bytes(b"GLF1")
    assert run(["train", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_dataset_is_parameter_error(tmp_path):
    path = tmp_path / "empty.npz"
    np.savez(path, train_images=np.zeros((0, 8, 8), dtype=np.uint8),
             train_labels=np.zeros((0, 1), dtype=np.uint8))
    assert run(["extract", "--dataset", path, "--out", tmp_path / "o"]) == 2


def test_chunked_extraction_equals_the_whole_split_at_once(tmp_path):
    # splits of two full chunks and a partial one, and of less than a chunk
    images, labels = disk_annulus_images(2 * CHUNK + 3 + 7 + 5, size=10, seed=12)
    path = write_split_npz(tmp_path / "chunks.npz", images, labels, split_sizes=(2 * CHUNK + 3, 7))
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out, "--num-lines", "4",
                "--resolution", "6", "--threads", "2"]) == 0
    fields = {split: [compute_glog(v, 0.5, 1.0) for v in load_dataset(path, split).volumes]
              for split in ("train", "val", "test")}
    cfg = vectorize.MpiConfig(vectorize.compute_global_box(fields["train"]), resolution=(6, 6))
    grid = make_line_grid(cfg.box, 4)
    for split, fs in fields.items():
        feats = vectorize.build_features(fs, cfg, grid)
        labs = load_dataset(path, split).labels
        assert (out / f"features_{split}.csv").read_text() == vectorize.features_to_csv(feats, labs)
        vectorize.write_feature_bin(tmp_path / "whole.bin", feats, labs)
        assert (out / f"features_{split}.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


@pytest.mark.parametrize("bad", [300.0, np.nan], ids=["out-of-range", "nan"])
def test_a_bad_value_in_a_late_chunk_writes_no_output(tmp_path, capsys, bad):
    # every sample of every split is checked before the first file is started
    rng = np.random.default_rng(13)
    test_images = rng.uniform(0, 255, (CHUNK + 4, 6, 6))
    test_images[CHUNK + 2, 3, 3] = bad
    path = tmp_path / "late.npz"
    np.savez(path, train_images=rng.uniform(0, 255, (6, 6, 6)), train_labels=np.zeros((6, 1)),
             test_images=test_images, test_labels=np.zeros((CHUNK + 4, 1)))
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out, "--num-lines", "2",
                "--resolution", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def extract_peak_rss_kb(tmp_path, n):
    images, labels = disk_annulus_images(n, size=28, seed=1)
    path = write_split_npz(tmp_path / f"disk{n}.npz", images, labels)
    script = ("import resource, sys\n"
              "from glogtda.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(glogtda.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "extract", "--dataset", str(path), "--out",
         str(tmp_path / f"out{n}"), "--num-lines", "2", "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_extract_peak_memory_does_not_grow_with_the_split(tmp_path):
    # at the default 5000-wide rows; it grew by about 100 KB per image when
    # every split's fields, features and CSV text were held at once
    small, large = (extract_peak_rss_kb(tmp_path, n) for n in (500, 4000))
    assert large < 1.2 * small, (small, large)


def test_mixed_2d_3d_splits_rejected(tmp_path, capsys):
    rng = np.random.default_rng(7)
    path = tmp_path / "mixed.npz"
    np.savez(
        path,
        train_images=rng.integers(0, 256, (4, 8, 8), dtype=np.uint8),
        train_labels=np.array([[0], [1], [0], [1]], dtype=np.uint8),
        test_images=rng.integers(0, 256, (2, 6, 8, 8), dtype=np.uint8),
        test_labels=np.array([[0], [1]], dtype=np.uint8),
    )
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out,
                "--num-lines", "4", "--resolution", "8"]) == 2
    assert "test split holds 3D volumes" in capsys.readouterr().err
    assert not (out / "features_test.bin").exists()


def test_timing_reports_clipped_samples(tmp_path):
    from glogtda.bifiltration import compute_glog
    from glogtda.volume_io import Volume, normalize

    # the val images are brighter than any train image, so every val grade box
    # reaches past the train box, which covers every train sample
    rng = np.random.default_rng(9)
    train = rng.integers(0, 100, (4, 8, 8), dtype=np.uint8)
    val = rng.integers(150, 256, (3, 8, 8), dtype=np.uint8)
    path = tmp_path / "bright.npz"
    np.savez(path, train_images=train, train_labels=np.array([[0], [1], [0], [1]], dtype=np.uint8),
             val_images=val, val_labels=np.array([[0], [1], [0]], dtype=np.uint8))
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out, "--num-lines", "4",
                "--resolution", "8", "--sigma-gauss", "0.5"]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert timing["samples"] == 7 and timing["mean_seconds"] > 0
    assert timing["clipped"]["train"] == {"samples": 0, "max_excess": 0.0}
    assert timing["clipped"]["val"]["samples"] == 3
    boxes = {split: [compute_glog(normalize(Volume(v)), 0.5, 1.0).box for v in vols]
             for split, vols in (("train", train), ("val", val))}
    lo1, lo2, hi1, hi2 = (f(b[i] for b in boxes["train"])
                          for f, i in ((min, 0), (min, 1), (max, 2), (max, 3)))
    want = max(max(lo1 - b[0], lo2 - b[1], b[2] - hi1, b[3] - hi2) for b in boxes["val"])
    assert want > 0.3  # the brighter g1 reaches well past the train box
    assert timing["clipped"]["val"]["max_excess"] == want


@pytest.mark.parametrize("shape, rgb", [((4, 8, 8, 3), True), ((4, 8, 8), False)])
def test_extract_config_records_colour_interpretation(tmp_path, shape, rgb):
    from glogtda.volume_io import load_dataset

    rng = np.random.default_rng(8)
    path = tmp_path / "colour.npz"
    labels = np.array([[0], [1], [0], [1]], dtype=np.uint8)
    np.savez(path, train_images=rng.integers(0, 256, shape, dtype=np.uint8), train_labels=labels,
             val_images=rng.integers(0, 256, shape, dtype=np.uint8), val_labels=labels)
    assert load_dataset(path, "train").rgb_to_gray is rgb
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out,
                "--num-lines", "4", "--resolution", "8"]) == 0
    got = json.loads((out / "extract_config.json").read_text())
    assert got["rgb_to_gray"] == {"train": rgb, "val": rgb}
    assert got["degrees"] == [0, 1]


def test_config_file_with_flag_override(tmp_path, toy_dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(toy_dataset), "num_lines": 10, "resolution": 12,
        "sigma_gauss": 0.5, "out": str(tmp_path / "from_config"),
    }))
    assert main(["--config", str(cfg), "extract", "--resolution", "8"]) == 0
    got = json.loads((tmp_path / "from_config" / "extract_config.json").read_text())
    assert got["resolution"] == 8  # flag wins
    assert got["num_lines"] == 10  # config supplies the rest


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "stability"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ["{\"num_lines\": 4,", "[1, 2]"], ids=["malformed", "not-an-object"])
def test_bad_config_file_is_format_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "stability"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unconvertible_config_value_names_the_option(tmp_path, toy_dataset, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_lines": "abc"}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "extract", "--dataset", str(toy_dataset),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --num-lines") and "'abc'" in err
    assert not (out / "features_train.bin").exists()


@pytest.mark.parametrize("key, value", [("num_lines", 10.7), ("seed", True),
                                        ("num_lines", float("inf"))],
                         ids=["fractional", "boolean", "infinite"])
def test_integer_option_rejects_non_integer_config_values(
        tmp_path, toy_dataset, capsys, key, value):
    # int() would slice 10 lines for 10.7, read true as seed 1 and raise
    # OverflowError for Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "extract", "--dataset", str(toy_dataset),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --" + key.replace("_", "-"))
    assert not (out / "features_train.bin").exists()


@pytest.mark.parametrize("command, key, value", [("extract", "out", 5),
                                                  ("extract", "dataset", True),
                                                  ("train", "features", 1.5),
                                                  ("eval", "checkpoint", ["model.bin"]),
                                                  ("eval", "features", None)],
                         ids=["number-out", "boolean-dataset", "number-features", "list-checkpoint",
                              "null-features"])
def test_path_config_value_must_be_a_string(
        tmp_path, toy_dataset, monkeypatch, capsys, command, key, value):
    # Path(5) would raise TypeError, and open(True) would read file descriptor 1
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    args = [] if key == "out" else ["--out", tmp_path / "o"]
    if command == "extract" and key != "dataset":
        args += ["--dataset", toy_dataset]
    assert run(["--config", cfg, command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{key} got {value!r}") and "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "glog_out").exists()


def test_config_keys_must_belong_to_some_command(tmp_path, toy_dataset, capsys):
    # one file serves extract and train, but a misspelt key is no option at all
    cfg = tmp_path / "cfg.json"
    shared = {"dataset": str(toy_dataset), "num_lines": 10, "resolution": 12, "epochs": 2,
              "patience": 2, "out": str(tmp_path / "shared")}
    cfg.write_text(json.dumps(shared))
    assert main(["--config", str(cfg), "extract"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    assert json.loads((tmp_path / "shared" / "train_metrics.json").read_text())["epochs_run"] == 2
    out = tmp_path / "o"
    cfg.write_text(json.dumps({**shared, "num_line": 20, "out": str(out)}))
    assert main(["--config", str(cfg), "extract"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and "num_line" in err and "num_lines" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["train", "--epochs", "abc"], ["extract", "--num-lines", "1.5"],
                                  ["stability", "--seed", "x"]],
                         ids=["word-epochs", "fractional-num-lines", "word-seed"])
def test_unconvertible_flag_exits_2_naming_it(tmp_path, toy_dataset, capsys, args):
    # the same path as a config value: no argparse usage error and exit status
    out = tmp_path / "o"
    extra = ["--dataset", toy_dataset] if args[0] == "extract" else []
    assert run([*args, "--out", out, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[1]} got '{args[2]}'") and "usage:" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "train", "eval", "stability", "decomposition-demo"])
def test_help_shows_every_default(capsys, command):
    from glogtda.cli import OPTIONS

    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    if command == "extract":
        assert "--num-lines NUM_LINES slicing lines (default 50)" in shown
    for key, (_, default, text) in OPTIONS[command].items():
        flag = "--" + key.replace("_", "-")
        suffix = "" if default is None else f" (default {default})"
        assert f"{flag} {key.upper()} {text}{suffix}" in shown


@pytest.mark.parametrize("args", [["train", "--learning-rate", "nan"],
                                  ["stability", "--sigma-log", "nan"],
                                  ["stability", "--noise-eps", "inf"]],
                         ids=["nan-learning-rate", "nan-sigma-log", "infinite-noise"])
def test_float_option_rejects_non_finite_values(tmp_path, capsys, args):
    from glogtda.vectorize import FeatureVector, write_feature_bin

    out = tmp_path / "nonfinite"
    out.mkdir()
    feats = [FeatureVector(row) for row in np.random.default_rng(7).random((4, 3))]
    for split in ("train", "val"):
        write_feature_bin(out / f"features_{split}.bin", feats, [0, 1, 0, 1])
    assert run([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + args[1]) and "Traceback" not in err
    assert not list(out.glob("*.json")) and not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("args, option", [(["--sigma-log", "0"], "sigma_log"),
                                          (["--dims", "8x8x8x8"], "dims")],
                         ids=["zero-sigma-log", "four-extents"])
def test_stability_errors_name_the_option(tmp_path, capsys, args, option):
    out = tmp_path / "st"
    assert run(["stability", "--out", out, "--trials", "1", *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} ")
    assert not list(out.glob("*.json"))


def test_unconvertible_dims_names_the_option(tmp_path, capsys):
    assert run(["stability", "--out", tmp_path / "st", "--dims", "8xa"]) == 2
    assert capsys.readouterr().err.startswith("error: --dims")


def test_unconvertible_threads_env_names_the_variable(tmp_path, toy_dataset, monkeypatch, capsys):
    monkeypatch.setenv("GLOG_THREADS", "abc")
    assert run(extract_args(toy_dataset, tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: GLOG_THREADS")


@pytest.mark.parametrize("label", [-1.0, 0.5, 2.0**40],
                         ids=["negative", "fractional", "more-classes-than-rows"])
def test_train_rejects_labels_that_are_not_class_indices(tmp_path, capsys, label):
    # written by hand: write_feature_bin refuses the first two itself; the
    # last is a valid label, but an output layer of 2**40 + 1 classes would
    # ask for 512 TiB
    out = tmp_path / "labels"
    out.mkdir()
    rows = np.column_stack(([0, 1, 0, 1], np.random.default_rng(5).random((4, 3))))
    write_glf1(out / "features_val.bin", rows)
    rows[3, 0] = label
    write_glf1(out / "features_train.bin", rows)
    assert run(["train", "--out", out, "--epochs", "2", "--patience", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label" in err
    if label == 2**40:
        assert f"label {2**40}:" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_feature_value_is_format_error(tmp_path, capsys, command):
    from glogtda.learn import init_model, model_dims_for, save_checkpoint

    out = tmp_path / "inf"
    out.mkdir()
    rows = np.column_stack(([0, 1, 0, 1], np.random.default_rng(8).random((4, 3))))
    write_glf1(out / "features_val.bin", rows)
    if command == "eval":
        save_checkpoint(out / "checkpoint.bin", init_model(model_dims_for(3, 2), 0))
    rows[2, 1] = np.inf
    write_glf1(out / ("features_train.bin" if command == "train" else "features_test.bin"), rows)
    short = ["--epochs", "2", "--patience", "2"] if command == "train" else []
    assert run([command, "--out", out, *short]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not list(out.glob("*.json"))
    assert (out / "checkpoint.bin").exists() == (command == "eval")


def test_eval_perfect_classifier_fixture(tmp_path):
    # separable 4D features: the trained model must reach ACC = AUC = 1.0
    rng = np.random.default_rng(0)
    from glogtda.vectorize import FeatureVector, write_feature_bin

    def split(n, seed):
        r = np.random.default_rng(seed)
        y = np.tile([0, 1], n // 2)
        x = r.normal(0, 0.2, (n, 4))
        x[y == 1, 0] += 4.0
        return [FeatureVector(row) for row in x], y

    out = tmp_path / "perfect"
    out.mkdir()
    for name, seed in (("train", 1), ("val", 2), ("test", 3)):
        feats, y = split(40, seed)
        write_feature_bin(out / f"features_{name}.bin", feats, y)
    assert run(["train", "--out", out, "--epochs", "40", "--patience", "40"]) == 0
    assert run(["eval", "--out", out]) == 0
    metrics = json.loads((out / "eval_metrics.json").read_text())
    assert metrics["acc"] == 1.0 and metrics["auc"] == 1.0


def test_eval_single_class_truth_is_error(tmp_path):
    from glogtda.vectorize import FeatureVector, write_feature_bin

    out = tmp_path / "single"
    out.mkdir()
    rng = np.random.default_rng(4)
    feats = [FeatureVector(rng.random(4)) for _ in range(8)]
    write_feature_bin(out / "features_train.bin", feats, np.tile([0, 1], 4))
    write_feature_bin(out / "features_val.bin", feats, np.tile([0, 1], 4))
    write_feature_bin(out / "features_test.bin", feats, np.zeros(8, dtype=int))
    assert run(["train", "--out", out, "--epochs", "2", "--patience", "2"]) == 0
    assert run(["eval", "--out", out]) == 2  # undefined metric surfaces as error


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_feature_table_is_error(tmp_path, capsys, command):
    from glogtda.learn import init_model, model_dims_for, save_checkpoint
    from glogtda.vectorize import FeatureVector, write_feature_bin

    out = tmp_path / "empty"
    out.mkdir()
    feats = [FeatureVector(row) for row in np.random.default_rng(6).random((4, 4))]
    write_feature_bin(out / "features_val.bin", feats, [0, 1, 0, 1])
    save_checkpoint(out / "checkpoint.bin", init_model(model_dims_for(4, 2), 0))
    empty = "features_train.bin" if command == "train" else "features_test.bin"
    (out / empty).write_bytes(b"GLF1" + struct.pack("<II", 0, 5))  # no rows of width 5
    assert run([command, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no samples" in err


@pytest.mark.parametrize("args", [["stability", "--trials", "0"], ["stability", "--dims=-3x3"],
                                  ["decomposition-demo", "--geometries", "-2"]],
                         ids=["no-trials", "negative-extent", "negative-geometries"])
def test_certification_without_work_is_error(tmp_path, capsys, args):
    out = tmp_path / "cert"
    assert run([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(out.glob("*.json"))


def test_threads_env_fallback(tmp_path, toy_dataset, monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("GLOG_THREADS", "2")
    assert run(extract_args(toy_dataset, out)) == 0
    monkeypatch.setenv("GLOG_THREADS", "0")
    assert run(extract_args(toy_dataset, tmp_path / "bad")) == 2


def test_stability_command(tmp_path):
    out = tmp_path / "st"
    code = run(["stability", "--out", out, "--trials", "2", "--dims", "5x5",
                "--num-lines", "5", "--sigma-gauss", "1.0"])
    assert code == 0
    payload = json.loads((out / "stability_report.json").read_text())
    assert payload[0]["passed"] is True


def test_stability_noise_zero(tmp_path):
    code = run(["stability", "--out", tmp_path / "st0", "--trials", "1",
                "--dims", "5x5", "--num-lines", "4", "--noise-eps", "0",
                "--sigma-gauss", "0.5"])
    assert code == 0


def test_stability_tampered_bound_fails(tmp_path, monkeypatch):
    from glogtda import stability_harness

    sup_distance = stability_harness.sup_distance
    monkeypatch.setattr(stability_harness, "sup_distance",
                        lambda f1, f2: 0.01 * sup_distance(f1, f2))
    code = run(["stability", "--out", tmp_path / "bad", "--trials", "2",
                "--dims", "5x5", "--num-lines", "5", "--sigma-gauss", "1.0"])
    assert code == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_stability_bound_cannot_be_rescaled(tmp_path, capsys, source):
    # the certified bound is fixed; negative controls live in the tests
    out = tmp_path / "st"
    args = ["stability", "--out", out, "--trials", "1", "--dims", "5x5", "--num-lines", "4"]
    if source == "flag":
        args += ["--debug-bound-scale", "0.5"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"debug_bound_scale": 0.5}))
        args = ["--config", cfg, *args]
    try:
        code = run(args)
    except SystemExit as exc:  # argparse refuses an unknown flag itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert any("error:" in line and "debug" in line for line in err)
    assert not out.exists()


def test_decomposition_demo(tmp_path):
    out = tmp_path / "dc"
    assert run(["decomposition-demo", "--out", out, "--geometries", "3",
                "--num-lines", "8"]) == 0
    payload = json.loads((out / "decomposition_report.json").read_text())
    assert payload["passed"] is True
