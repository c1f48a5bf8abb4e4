"""glogtda benchmark: extraction throughput on 2D and 3D volumes, MLP training,
and per-layer timing from outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload 2d-disk-28 --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop in this one process: a step starts only
after the previous one has finished. A step is one volume through
``compute_glog`` and ``build_features`` (extraction workloads) or one training
job (read, init, train, val forward, checkpoint). Inputs are generated from
``--seed`` by ``workloads.py``; the program sees only the generated files.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
Lines above it give a readable summary and the run's provenance. Every run
also writes its result (and, when traced, its spans) under ``perfbench/.out``.
"""

import os

# BLAS threads are pinned before numpy loads. One thread is at most nproc on
# any machine, keeps the checkpoint digests independent of the core count,
# and keeps a shared 2-core machine from measuring its scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
REFERENCE = BENCH / "reference"

SPLITS = ("train", "val", "test")
# Cold set-ups per run, half before the timed loop and half after it, so the
# median spans the run rather than one moment of a machine whose speed drifts.
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60
# Features may change in summation order only (see ROADMAP): each degree
# block's sum and seeded projection must match the reference to this share
# of the block's L1 norm.
FEATURE_RTOL = 1e-9
# Modules whose self time is reported per step. volume_io runs only in
# set-up, where ``volume_io.load_s`` covers it.
MODULES = ("kernels", "bifiltration", "cubical_persistence", "fibered", "vectorize", "learn")

# Metric names and units, as BENCHMARK.json declares them.
_MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _MANIFEST["per_layer"]}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import glogtda from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "glogtda" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import glogtda
    from glogtda import (  # noqa: F401  (loads every module the tracer wraps)
        bifiltration,
        cubical_persistence,
        fibered,
        kernels,
        learn,
        vectorize,
        volume_io,
    )

    if SRC not in Path(glogtda.__file__).resolve().parents:
        raise ProgramMissing(f"glogtda imported from {glogtda.__file__}, not {SRC}")
    return glogtda


# --- provenance ---------------------------------------------------------------


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def src_digest(*dirs: Path) -> str:
    """SHA-256 over the Python files of the program (and of ``dirs``)."""
    h = hashlib.sha256()
    for d in (SRC / "glogtda", *dirs):
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.split()[-1].lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "loop": "closed, one process, one step in flight",
    }


# --- bookkeeping --------------------------------------------------------------


class Checks:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{what}: {traceback.format_exc(limit=3)}")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def setup_probes(dataset, count: int) -> list:
    """``count`` cold set-ups, each in a fresh interpreter (import + load + warm-up)."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    if dataset is not None:
        cmd.append(str(dataset))
    runs = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def probe_medians(runs) -> dict:
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def load_reference(workload: str, seed: int):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def exact_repeat(checks: Checks, workload: str, seed: int, counts: dict) -> None:
    """Counts from every run of this seed, program and benchmark must agree exactly."""
    path = OUT / f"ledger-{workload}-{seed}.json"
    digest = src_digest(BENCH)
    seen = {}
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored.get("src_sha256") == digest:
            seen = stored["counts"]
    for key, value in counts.items():
        if key in seen:
            checks.check(seen[key] == value, f"exact repeat: {key} was {seen[key]}, now {value}")
    seen.update(counts)
    path.write_text(json.dumps({"src_sha256": digest, "counts": seen}, sort_keys=True))


def paired(tracer: Tracer, trace: bool, k: int, step):
    """Run ``step`` once, or, when tracing, once untraced and once traced.

    The order alternates with ``k`` so neither copy always runs on warm
    caches. Returns (untraced result, traced result or None, walls).
    """
    if not trace:
        t0 = time.perf_counter()
        out = step()
        return out, None, (time.perf_counter() - t0, None)
    results, walls = {}, {}
    for traced in ((True, False) if k % 2 == 0 else (False, True)):
        tracer.enabled = traced
        tracer.step = k
        t0 = time.perf_counter()
        with tracer.span("bench.step"):
            results[traced] = step()
        walls[traced] = time.perf_counter() - t0
    tracer.enabled = False
    return results[False], results[True], (walls[False], walls[True])


# --- extraction workloads -----------------------------------------------------


def feature_summary(values: np.ndarray, n_blocks: int):
    """Per degree block: sum and a seeded projection (compared within FEATURE_RTOL)."""
    blocks = values.reshape(n_blocks, -1)
    proj = np.random.default_rng(20260217).uniform(-1.0, 1.0, blocks.shape[1])
    return blocks.sum(axis=1).tolist(), (blocks @ proj).tolist()


def spot_triples(spec, seed: int):
    """Seeded (sample, line, grade quantile) triples for the oracle checks."""
    rng = np.random.default_rng([seed, 17])
    n = sum(spec.splits)
    return [
        (int(rng.integers(n)), int(rng.integers(spec.num_lines)), float(rng.random()))
        for _ in range(spec.spot_checks)
    ]


def spot_check(g, field, offset: float, quantile: float):
    """Persistence of one slice against the independent oracles.

    Returns (bars per degree, alive counts, betti_oracle ranks, component count)
    at the grade picked by ``quantile`` among the complex's distinct grades.
    """
    cp = g.cubical_persistence
    c = cp.build_complex(np.maximum(field.g1, field.g2 - offset))
    barcode = cp.compute_persistence(c)
    n = len(field.dims)
    bars = [sum(1 for b in barcode.bars if b.degree == d) for d in range(n)]
    grades = np.unique(c.grades)
    t = float(grades[int(quantile * len(grades))])
    alive = [barcode.alive_count(t, d) for d in range(n)]
    return bars, alive, cp.betti_oracle(c, t), cp.component_count(c, t)


def read_glf1(path):
    data = Path(path).read_bytes()
    rows, width = np.frombuffer(data, "<u4", count=2, offset=4)
    return data[:4], np.frombuffer(data, "<f8", offset=12).reshape(int(rows), int(width))


def extraction_inputs(g, spec, seed: int, work: Path):
    """Write the seeded dataset and load it with the program: (npz, volumes, labels)."""
    npz = work / "data.npz"
    workloads.write_dataset_npz(npz, spec, seed)
    datasets = [g.volume_io.load_dataset(npz, s) for s in SPLITS]
    vols = [v for ds in datasets for v in ds.volumes]
    return npz, vols, np.concatenate([ds.labels for ds in datasets])


def fit_grid(g, spec, vols):
    """glog of the train split, its global grade box, and the line grid over it."""
    train_fields = [g.bifiltration.compute_glog(v, spec.sigma_gauss, spec.sigma_log) for v in vols[: spec.splits[0]]]
    cfg = g.vectorize.MpiConfig(
        box=g.vectorize.compute_global_box(train_fields), resolution=(spec.resolution,) * 2
    )
    return cfg, g.fibered.make_line_grid(cfg.box, spec.num_lines)


def run_extraction(g, spec, seed: int, seconds: float, tracer: Tracer, trace: bool, reference, checks: Checks):
    bif, vec, cp = g.bifiltration, g.vectorize, g.cubical_persistence
    work = OUT / f"{spec.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    npz, vols, labels = extraction_inputs(g, spec, seed, work)
    probes = setup_probes(npz, SETUP_PROBES // 2)
    cp.build_complex(np.zeros(vols[0].dims))  # the structure cache is set-up work
    n_train, n_all = spec.splits[0], len(vols)
    degrees = tuple(range(vols[0].n))

    def sample_step(sid):
        def step():
            t0 = time.perf_counter()
            f = bif.compute_glog(vols[sid], spec.sigma_gauss, spec.sigma_log)
            t1 = time.perf_counter()
            fv = vec.build_features([f], cfg, degrees=degrees, grid=grid)[0]
            return fv, time.perf_counter() - t1, t1 - t0

        return step

    # Only a digest of each sample's first features is kept, so memory does
    # not grow with the number of steps and peak RSS measures the program.
    first = {}  # sid -> SHA-256 of its first features

    def check_sample(sid, fv, traced_out):
        if traced_out is not None:
            checks.check(
                np.array_equal(fv.values, traced_out[0].values), f"sample {sid}: traced and untraced features differ"
            )
        ok = checks.check(
            len(fv) == len(degrees) * spec.resolution**2
            and bool(np.all(np.isfinite(fv.values)))
            and bool(np.all(fv.values >= 0)),
            f"sample {sid}: features have the wrong size or bad values",
        )
        if not ok:
            return
        digest = hashlib.sha256(fv.values.tobytes()).digest()
        if sid in first:
            checks.check(first[sid] == digest, f"sample {sid}: repeat differs")
            return
        first[sid] = digest
        if reference is not None:
            ref = reference["samples"][sid]
            sums, projs = feature_summary(fv.values, len(degrees))
            scale = [max(abs(s), 1e-300) for s in ref["sum"]]
            checks.check(
                all(abs(a - b) <= FEATURE_RTOL * s for a, b, s in zip(sums, ref["sum"], scale))
                and all(abs(a - b) <= FEATURE_RTOL * s for a, b, s in zip(projs, ref["proj"], scale)),
                f"sample {sid}: features differ from the reference",
            )

    def write_batch(b, batch):
        feats = [fv for _, fv in batch]
        labs = labels[[sid for sid, _ in batch]]
        tracer.enabled, tracer.step = trace, f"write{b}"
        with tracer.span("bench.write_csv"):
            text = vec.features_to_csv(feats, labs)
            (work / "features.csv").write_text(text)
        with tracer.span("bench.write_bin"):
            vec.write_feature_bin(work / "features.bin", feats, labs)
        tracer.enabled = False
        return len(text.encode()) + (work / "features.bin").stat().st_size

    t_start = time.perf_counter()
    tracer.enabled, tracer.step = trace, "box"
    cfg, grid = fit_grid(g, spec, vols)
    tracer.enabled = False
    deadline = t_start + seconds

    done = []  # (position, sid, build_s, walls)
    batch, batch_bytes = [], []
    check_s = 0.0  # spent on checks inside the loop; not part of the timed wall
    k = 0
    # a traced run goes on until it has traced every sample once
    while not batch_bytes or time.perf_counter() < deadline or (trace and k < n_all):
        batch = []
        for _ in range(spec.batch):
            sid = k % n_all
            try:
                (fv, build_s, _), traced_out, walls = paired(tracer, trace, k, sample_step(sid))
            except Exception:
                tracer.enabled = False
                checks.error(f"sample {sid}")
            else:
                t0 = time.perf_counter()
                check_sample(sid, fv, traced_out)
                check_s += time.perf_counter() - t0
                done.append((k, sid, build_s, walls))
                batch.append((sid, fv))
            k += 1
        if batch:
            try:
                batch_bytes.append(write_batch(len(batch_bytes), batch))
            except Exception:
                checks.error(f"write batch {len(batch_bytes)}")
                break
        else:
            break
    t_total = time.perf_counter() - t_start - check_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    probes = probe_medians(probes + setup_probes(npz, SETUP_PROBES - SETUP_PROBES // 2))

    # --- correctness, outside the timed region ---
    if batch:
        magic, matrix = read_glf1(work / "features.bin")
        expect = np.array([[labels[sid], *fv.values] for sid, fv in batch])
        checks.check(magic == b"GLF1" and np.array_equal(matrix, expect), "GLF1 file differs from features")
        rows = [[float(x) for x in line.split(",")] for line in (work / "features.csv").read_text().splitlines()]
        checks.check(np.array_equal(np.array(rows), expect), "CSV file differs from features")

    for i, (sid, line, quantile) in enumerate(spot_triples(spec, seed)):
        try:
            field = bif.compute_glog(vols[sid], spec.sigma_gauss, spec.sigma_log)
            bars, alive, betti, comps = spot_check(g, field, float(grid.offsets[line]), quantile)
        except Exception:
            checks.error(f"spot check {i}")
            continue
        what = f"spot check (sample {sid}, line {line})"
        checks.check(alive == list(betti), f"{what}: alive counts {alive} != betti_oracle {list(betti)}")
        checks.check(alive[0] == comps, f"{what}: H0 {alive[0]} != component_count {comps}")
        if reference is not None:
            checks.check(bars == reference["spot"][i], f"{what}: bars {bars} != reference {reference['spot'][i]}")

    counts = {f"batch{b}.bytes": n for b, n in enumerate(batch_bytes)}
    result = {
        "steps": len(done),
        "extra": {"sample_s_p50": (median([d[2] for d in done]), "s")},
        "e2e": {
            "setup_s": probes["setup_s"],
            "samples_per_s": len(done) / t_total,
            "step_s_p50": median([d[2] for d in done]),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        samples = sample_counts(tracer, done, degrees)
        if reference is not None:
            for sid in sorted({d[1] for d in done}):
                bars = [samples[f"sample{sid}.bars_h{d}"] for d in degrees]
                want = reference["samples"][sid]["bars"]
                checks.check(bars == want, f"sample {sid}: raw bars {bars} != reference {want}")
        layer, figures = extraction_layers(tracer, spec, done, samples, probes, batch_bytes)
        result["extra"].update(figures)
        train_box = cfg.box
        excursions = []
        for v in vols[n_train:]:
            b = bif.compute_glog(v, spec.sigma_gauss, spec.sigma_log).box
            excursions.append(max(train_box[0] - b[0], train_box[1] - b[1], b[2] - train_box[2], b[3] - train_box[3], 0.0))
        layer["fibered.out_of_box_samples"] = sum(1 for e in excursions if e > 0)
        layer["fibered.max_excursion"] = max(excursions, default=0.0)
        counts.update(samples)
        result["layer"] = layer
        tracer.dump(work / "spans.json")
    exact_repeat(checks, spec.name, seed, counts)
    return result


def _by_step(tracer: Tracer, self_t):
    """Spans of traced steps grouped by step, with their self times."""
    groups = defaultdict(list)
    for sp, s in zip(tracer.spans, self_t):
        groups[sp.step].append((sp, s))
    return groups


def _module_self(rows) -> dict:
    out = dict.fromkeys(MODULES, 0.0)
    for sp, s in rows:
        mod = sp.name.split(".")[0]
        if mod in out:
            out[mod] += s
    return out


def _trace_summary(tracer, steps, walls) -> dict:
    """Self time by module per step, and the tracing overhead per step."""
    self_t = tracer.self_times()
    groups = _by_step(tracer, self_t)
    per_step = [_module_self(groups[k]) for k in steps]
    layer = {f"{m}.self_s": median([p[m] for p in per_step]) for m in MODULES}
    layer["trace.untraced_step_s"] = median([w[0] for w in walls])
    layer["trace.layer_self_s"] = median([sum(p.values()) for p in per_step])
    layer["trace.overhead_s"] = median([w[1] - w[0] for w in walls])
    # self times of the layer spans against the traced step they explain
    share = median([sum(p.values()) / w[1] for p, w in zip(per_step, walls)])
    return layer, {"layer_self_share": (share, "of traced step")}


def _durations(tracer, name, steps=None):
    return [sp.duration for sp in tracer.spans if sp.name == name and (steps is None or sp.step in steps)]


def sample_counts(tracer, done, degrees) -> dict:
    """Exact counts per sample, from the spans of its first traced copy."""
    first_step = {}
    for k, sid, *_ in done:
        first_step.setdefault(sid, k)
    sid_of = {k: sid for sid, k in first_step.items()}
    counts = defaultdict(int)
    for sid in first_step:
        for d in degrees:
            counts[f"sample{sid}.bars_h{d}"] = 0
    for sp in tracer.spans:
        if sp.step not in sid_of:
            continue
        key = f"sample{sid_of[sp.step]}."
        if sp.name == "cubical_persistence.build_complex":
            counts[key + "cells"] += sp.attrs["cells"]
        elif sp.name == "cubical_persistence.compute_persistence":
            for d in degrees:
                counts[key + f"bars_h{d}"] += sp.attrs.get(f"bars_h{d}", 0)
        elif sp.name == "fibered.clip_bars":
            counts[key + "clip_given"] += sp.attrs["given"]
            counts[key + "clip_kept"] += sp.attrs["kept"]
        elif sp.name == "vectorize.render_segments":
            degree = tracer.spans[sp.parent].attrs["degree"]
            counts[key + f"segments_h{degree}"] += sp.attrs["segments"]
    return dict(counts)


def extraction_layers(tracer, spec, done, samples, probes, batch_bytes):
    layer = dict.fromkeys(PER_LAYER, 0.0)
    steps = [d[0] for d in done]
    summary, figures = _trace_summary(tracer, steps, [d[3] for d in done])
    layer.update(summary)
    persistence = _durations(tracer, "cubical_persistence.compute_persistence")
    layer.update(
        {
            "volume_io.load_s": probes["load_s"],
            "cubical_persistence.structure_s": probes["structure_s"],
            "bifiltration.glog_s": median(_durations(tracer, "bifiltration.compute_glog", steps)),
            "bifiltration.slice_s": median(_durations(tracer, "bifiltration.slice_scalar_field")),
            "cubical_persistence.complex_s": median(_durations(tracer, "cubical_persistence.build_complex")),
            "cubical_persistence.persistence_s_p50": median(persistence),
            "cubical_persistence.persistence_s_p99": float(np.percentile(persistence, 99)) if persistence else 0.0,
            "fibered.clip_s": median(_durations(tracer, "fibered.clip_bars")),
            "vectorize.render_s": median(_durations(tracer, "vectorize.render_mpi")),
            "vectorize.write_csv_s": median(_durations(tracer, "bench.write_csv")) / spec.batch,
            "vectorize.write_bin_s": median(_durations(tracer, "bench.write_bin")) / spec.batch,
            "vectorize.bytes_written": batch_bytes[0] if batch_bytes else 0,
        }
    )
    # the reported counts cover batch 0 (samples 0 .. batch-1), which every run completes
    batch0 = defaultdict(int)
    for key, value in samples.items():
        sid, metric = key.split(".", 1)
        if int(sid[len("sample"):]) < spec.batch:
            batch0[metric] += value
    for metric, value in batch0.items():
        if metric.startswith("segments"):
            layer["vectorize." + metric] = value
        elif not metric.startswith("clip"):
            layer["cubical_persistence." + metric] = value
    layer["fibered.kept_ratio"] = batch0["clip_kept"] / batch0["clip_given"] if batch0["clip_given"] else 0.0
    return layer, figures


# --- training workload --------------------------------------------------------


def training_inputs(spec, seed: int, work: Path) -> None:
    """Write the seeded train and val feature tables as GLF1 files."""
    (tx, ty), (vx, vy) = workloads.training_features(spec, seed)
    workloads.write_glf1(work / "train.bin", tx, ty)
    workloads.write_glf1(work / "val.bin", vx, vy)


# A fixed epoch count (patience = epochs, so early stopping never fires) gives
# every job the same work, so a run holds several equal jobs to take the
# median of; the per-epoch path (batches, Adam, val AUC, best snapshot) is
# the one the default settings run.
TRAIN_EPOCHS = 20


def training_job(g, work: Path, seed: int) -> dict:
    """Read, init, train, val forward and checkpoint, as ``glogtda train`` does."""
    vec, learn = g.vectorize, g.learn
    t0 = time.perf_counter()
    train_x, train_y = vec.read_feature_bin(work / "train.bin")
    val_x, val_y = vec.read_feature_bin(work / "val.bin")
    model = learn.init_model(learn.model_dims_for(train_x.shape[1], 2), seed)
    t1 = time.perf_counter()
    cfg = learn.TrainConfig(epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS, rng_seed=seed)
    best, history = learn.train(model, train_x, train_y, val_x, val_y, cfg)
    t2 = time.perf_counter()
    val_auc = learn.auc(learn.forward(best, val_x), val_y)
    learn.save_checkpoint(work / "checkpoint.bin", best)
    return {
        "job_s": time.perf_counter() - t0,
        "epoch_s": (t2 - t1) / len(history.rows),
        "epochs_run": len(history.rows),
        "rows": len(train_x),
        "val_auc": val_auc,
        "checkpoint_sha256": hashlib.sha256((work / "checkpoint.bin").read_bytes()).hexdigest(),
        "best": best,
    }


def run_training(g, spec, seed: int, seconds: float, tracer: Tracer, trace: bool, reference, checks: Checks):
    learn = g.learn
    work = OUT / f"{spec.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    training_inputs(spec, seed, work)
    probes = setup_probes(None, SETUP_PROBES // 2)

    def step():
        return training_job(g, work, seed)

    deadline = time.perf_counter() + seconds
    done = []  # (position, untraced job, traced job or None, walls)
    k = 0
    while not done or time.perf_counter() < deadline:
        try:
            done.append((k, *paired(tracer, trace, k, step)))
        except Exception:
            tracer.enabled = False
            checks.error(f"training job {k}")
            break
        # keep only the newest model, so peak RSS does not grow with the job count
        last_best = done[-1][1].pop("best")
        if done[-1][2] is not None:
            done[-1][2].pop("best")
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = probe_medians(probes + setup_probes(None, SETUP_PROBES - SETUP_PROBES // 2))

    keys = ("epochs_run", "val_auc", "checkpoint_sha256")
    jobs = [(k, job) for k, out, traced_out, _ in done for job in (out, traced_out) if job is not None]
    for k, job in jobs:
        want = {key: jobs[0][1][key] for key in keys}
        got = {key: job[key] for key in keys}
        checks.check(got == want, f"training job {k}: {got} differs from job 0 {want}")
        checks.check(0.0 <= job["val_auc"] <= 1.0, f"training job {k}: AUC {job['val_auc']}")
    if not done:
        return {"steps": 0, "e2e": dict.fromkeys(END_TO_END, 0.0), "layer": dict.fromkeys(PER_LAYER, 0.0), "extra": {}}
    first = done[0][1]
    loaded = learn.load_checkpoint(work / "checkpoint.bin")
    checks.check(
        all(np.array_equal(a, b) for a, b in zip(loaded.weights + loaded.biases, last_best.weights + last_best.biases)),
        "checkpoint does not load back to the trained model",
    )
    if reference is not None:
        got = {key: first[key] for key in keys}
        checks.check(got == reference, f"training differs from the reference: {got} != {reference}")
    exact_repeat(checks, spec.name, seed, {key: first[key] for key in ("epochs_run", "checkpoint_sha256")})

    untraced = [out for _, out, _, _ in done]
    result = {
        "steps": len(untraced),
        "e2e": {
            "setup_s": probes["setup_s"],
            "samples_per_s": sum(o["rows"] * o["epochs_run"] for o in untraced) / sum(o["job_s"] for o in untraced),
            "step_s_p50": median([o["epoch_s"] for o in untraced]),
            "peak_rss_mb": peak_rss_mb,
        },
        "extra": {
            "train_s": (median([o["job_s"] for o in untraced]), "s"),
            "epoch_s": (median([o["epoch_s"] for o in untraced]), "s"),
        },
    }
    if trace:
        steps = [d[0] for d in done]
        groups = _by_step(tracer, tracer.self_times())
        train_s = median(_durations(tracer, "learn.train"))
        epochs = first["epochs_run"]
        layer = dict.fromkeys(PER_LAYER, 0.0)
        summary, figures = _trace_summary(tracer, steps, [d[3] for d in done])
        layer.update(summary)
        result["extra"].update(figures)
        layer.update(
            {
                "vectorize.read_bin_s": median(
                    [sum(sp.duration for sp, _ in groups[k] if sp.name == "vectorize.read_feature_bin") for k in steps]
                ),
                "learn.train_s": train_s,
                "learn.epochs_run": epochs,
                "learn.epoch_s": train_s / epochs,
                "learn.train_self_s": median([sum(s for sp, s in groups[k] if sp.name == "learn.train") for k in steps])
                / epochs,
                "learn.forward_s": median(_durations(tracer, "learn.forward")),
                "learn.checkpoint_s": median(_durations(tracer, "learn.save_checkpoint")),
            }
        )
        result["layer"] = layer
        tracer.dump(work / "spans.json")
    return result


# --- entry point --------------------------------------------------------------


def run(spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (metrics, checks, provenance)."""
    g = load_program()
    checks = Checks()
    reference = load_reference(spec.name, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    runner = run_training if isinstance(spec, workloads.Training) else run_extraction
    tracer = Tracer()
    if trace:
        tracer.install(g)
    try:
        res = runner(g, spec, seed, seconds, tracer, trace, reference, checks)
    finally:
        tracer.uninstall()
    units = PER_LAYER if trace else END_TO_END
    values = res["layer"] if trace else res["e2e"]
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        "failures": checks.notes,
        "steps": res["steps"],
        "figures": res["extra"],
        "reference_checked": reference is not None,
        "provenance": provenance(spec.name, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for note in record["failures"]:
        print(f"FAILED: {note}")
    ratio = record["failed"] / record["attempted"]
    print(f"failed_ratio {ratio:.6g} ({record['failed']} of {record['attempted']} operations), "
          f"steps {record['steps']}, reference checked: {record['reference_checked']}")
    for name, (value, unit) in record["figures"].items():
        print(f"{name:40s} {value:.6g} {unit}")
    for metric, m in record["metrics"].items():
        print(f"{metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
