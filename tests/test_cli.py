import json

import numpy as np
import pytest

from glogtda.cli import main
from glogtda.vectorize import read_feature_bin

from synthdata import disk_annulus_images, write_split_npz
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
    from glogtda.volume_io import write_npz

    path = tmp_path / "empty.npz"
    write_npz(path, {
        "train_images": np.zeros((0, 8, 8), dtype=np.uint8),
        "train_labels": np.zeros((0, 1), dtype=np.uint8),
    })
    assert run(["extract", "--dataset", path, "--out", tmp_path / "o"]) == 2


def test_mixed_2d_3d_splits_rejected(tmp_path, capsys):
    from glogtda.volume_io import write_npz

    rng = np.random.default_rng(7)
    path = tmp_path / "mixed.npz"
    write_npz(path, {
        "train_images": rng.integers(0, 256, (4, 8, 8), dtype=np.uint8),
        "train_labels": np.array([[0], [1], [0], [1]], dtype=np.uint8),
        "test_images": rng.integers(0, 256, (2, 6, 8, 8), dtype=np.uint8),
        "test_labels": np.array([[0], [1]], dtype=np.uint8),
    })
    out = tmp_path / "o"
    assert run(["extract", "--dataset", path, "--out", out,
                "--num-lines", "4", "--resolution", "8"]) == 2
    assert "test split holds 3D volumes" in capsys.readouterr().err
    assert not (out / "features_test.bin").exists()


def test_timing_reports_clipped_samples(tmp_path):
    from glogtda.bifiltration import compute_glog
    from glogtda.volume_io import Volume, normalize, write_npz

    # the val images are brighter than any train image, so every val grade box
    # reaches past the train box, which covers every train sample
    rng = np.random.default_rng(9)
    train = rng.integers(0, 100, (4, 8, 8), dtype=np.uint8)
    val = rng.integers(150, 256, (3, 8, 8), dtype=np.uint8)
    path = tmp_path / "bright.npz"
    write_npz(path, {
        "train_images": train, "train_labels": np.array([[0], [1], [0], [1]], dtype=np.uint8),
        "val_images": val, "val_labels": np.array([[0], [1], [0]], dtype=np.uint8),
    })
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
    from glogtda.volume_io import load_dataset, write_npz

    rng = np.random.default_rng(8)
    path = tmp_path / "colour.npz"
    labels = np.array([[0], [1], [0], [1]], dtype=np.uint8)
    write_npz(path, {
        "train_images": rng.integers(0, 256, shape, dtype=np.uint8), "train_labels": labels,
        "val_images": rng.integers(0, 256, shape, dtype=np.uint8), "val_labels": labels,
    })
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


def test_eval_perfect_classifier_fixture(tmp_path):
    # separable 4D features: the trained model must reach ACC = AUC = 1.0
    rng = np.random.default_rng(0)
    from glogtda.vectorize import FeatureVector, write_feature_bin

    def split(n, seed):
        r = np.random.default_rng(seed)
        y = np.tile([0, 1], n // 2)
        x = r.normal(0, 0.2, (n, 4))
        x[y == 1, 0] += 4.0
        return [FeatureVector(row, ((0, 4),)) for row in x], y

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
    feats = [FeatureVector(rng.random(4), ((0, 4),)) for _ in range(8)]
    write_feature_bin(out / "features_train.bin", feats, np.tile([0, 1], 4))
    write_feature_bin(out / "features_val.bin", feats, np.tile([0, 1], 4))
    write_feature_bin(out / "features_test.bin", feats, np.zeros(8, dtype=int))
    assert run(["train", "--out", out, "--epochs", "2", "--patience", "2"]) == 0
    assert run(["eval", "--out", out]) == 2  # undefined metric surfaces as error


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


def test_stability_tampered_bound_fails(tmp_path):
    code = run(["stability", "--out", tmp_path / "bad", "--trials", "2",
                "--dims", "5x5", "--num-lines", "5", "--sigma-gauss", "1.0",
                "--debug-bound-scale", "0.5"])
    assert code == 1


def test_decomposition_demo(tmp_path):
    out = tmp_path / "dc"
    assert run(["decomposition-demo", "--out", out, "--geometries", "3",
                "--num-lines", "8"]) == 0
    payload = json.loads((out / "decomposition_report.json").read_text())
    assert payload["passed"] is True
