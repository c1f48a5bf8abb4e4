"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The synthetic 400-sample disk/annulus set stands in for full-scale benchmark
data; it exercises the identical pipeline end to end.
"""

import itertools
import time

import numpy as np
import pytest

from glogtda.bifiltration import compute_glog
from glogtda.cubical_persistence import betti_oracle, build_complex, component_count, compute_persistence
from glogtda.learn import (
    TrainConfig,
    accuracy,
    auc,
    forward,
    init_model,
    loss_and_grads,
    model_dims_for,
    save_checkpoint,
    train,
)
from glogtda.stability_harness import run_decomposition_suite, run_stability_suite
from glogtda.vectorize import MpiConfig, build_features, compute_global_box, render_mpi, write_feature_bin
from glogtda.bifiltration import BiGradedField
from glogtda.fibered import make_line_grid
from glogtda.volume_io import Volume, normalize

from synthdata import disk_annulus_images
from test_vectorize import quadrature_mass, single_bar_barcode


def report(num, ok, desc, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d}: {state} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


# --- shared pipeline fixtures --------------------------------------------------


@pytest.fixture(scope="session")
def synth400():
    images, labels = disk_annulus_images(400, size=28, noise=0.05, seed=2026)
    splits = {
        "train": (images[:240], labels[:240]),
        "val": (images[240:320], labels[240:320]),
        "test": (images[320:], labels[320:]),
    }
    return splits


def run_pipeline(splits, sigma_gauss, seed=0):
    t_start = time.perf_counter()
    volumes = {
        split: [normalize(Volume(img.astype(float))) for img in imgs]
        for split, (imgs, _) in splits.items()
    }
    per_sample = []
    fields = {}
    for split, vols in volumes.items():
        out = []
        for v in vols:
            t0 = time.perf_counter()
            out.append(compute_glog(v, sigma_gauss, 1.0))
            per_sample.append(time.perf_counter() - t0)
        fields[split] = out
    cfg = MpiConfig(box=compute_global_box(fields["train"]))
    grid = make_line_grid(cfg.box, 50)
    features = {}
    k = 0
    for split, fs in fields.items():
        feats = []
        for f in fs:
            t0 = time.perf_counter()
            feats.append(build_features([f], cfg, grid=grid)[0])
            per_sample[k] += time.perf_counter() - t0
            k += 1
        features[split] = np.vstack([fv.values for fv in feats])
    t_extract = time.perf_counter() - t_start

    model = init_model(model_dims_for(features["train"].shape[1], 2), seed)
    best, history = train(
        model,
        features["train"], splits["train"][1],
        features["val"], splits["val"][1],
        TrainConfig(rng_seed=seed),
    )
    probs = forward(best, features["test"])
    result = {
        "auc": auc(probs, splits["test"][1]),
        "acc": accuracy(probs.argmax(axis=1), splits["test"][1]),
        "feature_dim": features["train"].shape[1],
        "per_sample": per_sample,
        "epochs": len(history.rows),
        "runtime": time.perf_counter() - t_start,
        "extract_seconds": t_extract,
    }
    return result


@pytest.fixture(scope="session")
def pipeline_05(synth400):
    return run_pipeline(synth400, sigma_gauss=0.5, seed=0)


@pytest.fixture(scope="session")
def pipeline_00(synth400):
    return run_pipeline(synth400, sigma_gauss=0.0, seed=0)


@pytest.fixture(scope="session")
def stability_runs():
    reports = []
    for eps, sg in itertools.product((0.01, 0.1), (0.5, 1.0, 1.5)):
        reports.append(
            run_stability_suite(
                n_trials=9, dims=(8, 8), sigma_gauss=sg, sigma_log=1.0,
                noise_eps=eps, seed=int(eps * 1000) + int(sg * 10), num_lines=50,
            )
        )
    return reports


# --- criteria -------------------------------------------------------------------


def test_criterion_1_oracle_equivalence_barcodes():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        f = rng.integers(0, 7, (4, 4)).astype(float) / 6.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert [bc.alive_count(t, k) for k in range(2)] == betti_oracle(c, t)
            checked += 1
    for _ in range(20):
        f = rng.integers(0, 5, (3, 3, 3)).astype(float) / 4.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert [bc.alive_count(t, k) for k in range(3)] == betti_oracle(c, t)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1, elapsed < 60.0,
        "barcode/Betti oracle equivalence on 100 random 2D + 20 random 3D fields",
        f"{checked} threshold checks, {elapsed:.2f}s",
    )


def test_criterion_2_union_find_component_counts():
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(100):
        f = rng.integers(0, 7, (4, 4)).astype(float) / 6.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert bc.alive_count(t, 0) == component_count(c, t)
            checked += 1
    for _ in range(20):
        f = rng.integers(0, 5, (3, 3, 3)).astype(float) / 4.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert bc.alive_count(t, 0) == component_count(c, t)
            checked += 1
    report(2, True, "degree-0 bars match union-find component counts",
           f"{checked} threshold checks")


def test_criterion_3_discrete_field_stability(stability_runs):
    trials = [t for rep in stability_runs for t in rep.trials]
    violations = [t for t in trials if not t.field_ok]
    ratios = [rep.gauss_shift_ratio for rep in stability_runs]
    ok = len(trials) >= 50 and not violations and min(ratios) >= 0.999
    report(
        3, ok,
        "field sup-distance bounded by max(L1,L2)*|phi1-phi2| with tight constant shift",
        f"{len(trials)} pairs, 0 violations, worst shift ratio {min(ratios):.6f}",
    )


def test_criterion_4_per_line_bottleneck_stability(stability_runs):
    trials = [t for rep in stability_runs for t in rep.trials]
    bad = [t for t in trials if not t.lines_ok]
    worst = max(
        (max(t.max_bottleneck.values()) - t.field_distance for t in trials),
        default=0.0,
    )
    report(
        4, len(trials) >= 50 and not bad,
        "per-line bottleneck bounded by field sup-distance on every line and degree",
        f"{len(trials)} pairs x 50 lines, worst slack {worst:.2e}",
    )


def test_criterion_5_essential_single_parameter_decomposition():
    rep = run_decomposition_suite(seed=505, n_geometries=20, dims=(12, 12), num_lines=30)
    applicable = [g for g in rep.geometries if g.applicable]
    bars = sum(g.bars_checked for g in applicable)
    ok = rep.passed and len(applicable) >= 20
    report(
        5, ok,
        "degree-1 fibered bars decompose as the union of single-parameter barcodes",
        f"{len(applicable)} geometries, {bars} bars, exact multiset equality",
    )


def test_criterion_6_feature_dimensions(pipeline_05):
    dim2d = pipeline_05["feature_dim"]
    rng = np.random.default_rng(106)
    fields3 = [BiGradedField(g1=rng.random((5, 5, 5)), g2=rng.uniform(-1, 1, (5, 5, 5)))
               for _ in range(2)]
    cfg3 = MpiConfig(box=compute_global_box(fields3))
    feats3 = build_features(fields3, cfg3, grid=make_line_grid(cfg3.box, 6))
    ok = dim2d == 5000 and all(len(f) == 7500 for f in feats3)
    report(6, ok, "feature dimensions: 2D -> 5000, 3D -> 7500",
           f"2D {dim2d}, 3D {len(feats3[0])}")


def test_criterion_7_mpi_vs_quadrature_oracle():
    fixtures = [
        ((0.0, 0.0, 1.0, 1.0), 0.3, 0.7, 0.0, 0.01, 2.0),
        ((0.0, 0.0, 1.0, 1.0), 0.25, 0.55, 0.0, 0.01, 2.0),
        ((0.0, 0.0, 2.0, 2.0), 0.5, 1.2, 0.0, 0.05, 1.0),
    ]
    worst = 0.0
    for box, birth, death, offset, bw, p in fixtures:
        cfg = MpiConfig(box=box, bandwidth=bw, weight_power=p)
        fb, off = single_bar_barcode(birth, death, offset, box)
        got = render_mpi(fb, 0, cfg).sum()
        want = quadrature_mass(birth, death, off, cfg, fb.grid.delta, factor=10)
        worst = max(worst, abs(got - want) / want)
    report(7, worst < 0.02, "MPI mass matches 10x-oversampled quadrature oracle",
           f"worst relative error {worst:.4%}")


def test_criterion_8_mlp_gradient_check():
    rng = np.random.default_rng(108)
    model = init_model((20, 256, 128, 64, 3), seed=8)
    x = rng.random((16, 20))
    y = rng.integers(0, 3, 16)
    _, gw, gb = loss_and_grads(model, x, y)
    params = list(model.weights) + list(model.biases)
    grads = list(gw) + list(gb)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        pi = int(rng.integers(0, len(params)))
        arr = params[pi]
        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp, _, _ = loss_and_grads(model, x, y)
        arr[idx] = orig - h
        lm, _, _ = loss_and_grads(model, x, y)
        arr[idx] = orig
        fd = (lp - lm) / (2 * h)
        rel = abs(fd - grads[pi][idx]) / max(abs(fd), abs(grads[pi][idx]), 1e-8)
        worst = max(worst, rel)
    report(8, worst < 1e-4, "analytic gradients match central finite differences",
           f"10 random parameters, worst relative error {worst:.2e}")


def test_criterion_9_end_to_end_synthetic_classification(pipeline_05):
    r = pipeline_05
    ok = r["acc"] >= 0.90 and r["auc"] >= 0.95 and r["runtime"] < 300.0
    report(
        9, ok,
        "400-sample disk/annulus pipeline at sigma=0.5 classifies the test split",
        f"ACC {r['acc']:.3f}, AUC {r['auc']:.3f}, runtime {r['runtime']:.0f}s "
        f"({r['epochs']} epochs)",
    )


def test_criterion_10_throughput(pipeline_05):
    mean_s = float(np.mean(pipeline_05["per_sample"]))
    p95 = float(np.quantile(pipeline_05["per_sample"], 0.95))
    report(10, mean_s <= 1.0, "per-sample module + feature extraction within 1 s",
           f"mean {mean_s:.3f}s, p95 {p95:.3f}s")


def test_criterion_11_determinism(tmp_path, synth400):
    images, labels = synth400["train"]
    subset = [normalize(Volume(img.astype(float))) for img in images[:6]]
    sub_labels = labels[:6]

    def feature_bytes(path):
        fields = [compute_glog(v, 0.5, 1.0) for v in subset]
        cfg = MpiConfig(box=compute_global_box(fields))
        feats = build_features(fields, cfg, grid=make_line_grid(cfg.box, 20))
        write_feature_bin(path, feats, sub_labels)
        return path.read_bytes(), np.vstack([f.values for f in feats])

    b1, mat = feature_bytes(tmp_path / "f1.bin")
    b2, _ = feature_bytes(tmp_path / "f2.bin")
    features_same = b1 == b2

    def checkpoint_bytes(path):
        model = init_model(model_dims_for(mat.shape[1], 2), seed=11)
        cfg = TrainConfig(epochs=5, patience=5, rng_seed=11)
        best, _ = train(model, mat, sub_labels, mat, sub_labels, cfg)
        save_checkpoint(path, best)
        return path.read_bytes()

    ckpt_same = checkpoint_bytes(tmp_path / "m1.bin") == checkpoint_bytes(tmp_path / "m2.bin")

    kw = dict(n_trials=3, dims=(6, 6), sigma_gauss=0.5, noise_eps=0.05, seed=3, num_lines=8)
    reports_same = run_stability_suite(**kw).to_json() == run_stability_suite(**kw).to_json()

    report(
        11, features_same and ckpt_same and reports_same,
        "identical seeds give bit-identical feature files, checkpoints, reports",
        f"features {features_same}, checkpoints {ckpt_same}, reports {reports_same}",
    )


def test_criterion_12_sigma_sensitivity(pipeline_05, pipeline_00):
    a, b = pipeline_05["auc"], pipeline_00["auc"]
    report(
        12, a >= b - 0.02,
        "sigma=0.5 AUC within 0.02 of the sigma=0 run on the same data",
        f"AUC(0.5) {a:.3f} vs AUC(0) {b:.3f}",
    )
