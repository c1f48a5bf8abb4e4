"""Seeded inputs for the benchmark workloads.

Every generator here is the benchmark's own code and depends only on numpy,
so a change to the program or to its tests cannot change a workload. The
program only ever sees the arrays and files these functions produce.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Extraction:
    """A volume set extracted with the paper's defaults (50 lines, 50x50 px)."""

    name: str
    kind: str  # "disk" (2D disk/annulus images) or "smooth" (smoothed 3D noise)
    size: int
    splits: tuple[int, int, int]  # train, val, test sample counts
    sigma_gauss: float
    batch: int  # samples per feature write; batch 0 fixes the exact counts
    spot_checks: int  # (sample, line, t) oracle triples checked per run
    sigma_log: float = 1.0
    num_lines: int = 50
    resolution: int = 50


@dataclass(frozen=True)
class Training:
    """Two-class nonnegative feature rows trained with the paper's MLP."""

    name: str
    dim: int
    n_train: int
    n_val: int


WORKLOADS = {
    w.name: w
    for w in (
        Extraction("2d-disk-28", "disk", 28, (24, 8, 8), 0.5, batch=8, spot_checks=8),
        Extraction("3d-smooth-16", "smooth", 16, (4, 1, 1), 1.0, batch=1, spot_checks=3),
        Training("train-mlp-5000", 5000, 240, 80),
    )
}

#: Small variants with the same code paths, for the smoke test.
TINY = {
    w.name: w
    for w in (
        Extraction("2d-disk-tiny", "disk", 10, (3, 1, 1), 0.5, 2, 2, num_lines=6, resolution=8),
        Extraction("3d-smooth-tiny", "smooth", 5, (2, 1, 1), 1.0, 1, 1, num_lines=4, resolution=6),
        Training("train-mlp-tiny", 40, 24, 12),
    )
}

def disk_annulus_images(n, size=28, noise=0.05, seed=0):
    """Class 0 a bright disk, class 1 a bright annulus, both with bounded noise.

    The same generator as the test suite's synthetic set, kept here so the
    workload is fixed independently of the tests.
    """
    rng = np.random.default_rng(seed)
    images = np.zeros((n, size, size), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    amp = noise * 255.0
    yy, xx = np.mgrid[:size, :size].astype(float)
    for i in range(n):
        label = i % 2
        r = rng.uniform(0.20 * size, 0.30 * size)
        cx = rng.uniform(r + 1.5, size - r - 2.5)
        cy = rng.uniform(r + 1.5, size - r - 2.5)
        dist = np.hypot(yy - cy, xx - cx)
        if label == 0:
            mask = dist <= r
        else:
            mask = (dist <= r) & (dist >= r * rng.uniform(0.45, 0.6))
        img = rng.uniform(0.0, amp, (size, size))
        img[mask] = 255.0 - rng.uniform(0.0, amp, int(mask.sum()))
        images[i] = np.rint(img).astype(np.uint8)
        labels[i] = label
    return images, labels


def smooth_volumes(n, size=16, smooth_sigma=1.5, seed=0):
    """Uniform noise, Gaussian-smoothed (reflecting edges), rescaled to uint8.

    Labels alternate 0/1; they carry no signal and only feed the feature files.
    """
    rng = np.random.default_rng(seed)
    vols = rng.uniform(0.0, 1.0, (n, size, size, size))
    radius = int(np.ceil(3 * smooth_sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / smooth_sigma) ** 2)
    taps /= taps.sum()
    for axis in (1, 2, 3):
        pad = [(0, 0)] * 4
        pad[axis] = (radius, radius)
        padded = np.pad(vols, pad, mode="reflect")
        out = np.zeros_like(vols)
        for k, w in enumerate(taps):
            sl = [slice(None)] * 4
            sl[axis] = slice(k, k + size)
            out += w * padded[tuple(sl)]
        vols = out
    lo = vols.min(axis=(1, 2, 3), keepdims=True)
    hi = vols.max(axis=(1, 2, 3), keepdims=True)
    images = np.rint((vols - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return images, np.arange(n, dtype=np.int64) % 2


def write_dataset_npz(path: Path, spec: Extraction, seed: int) -> None:
    """Write the seeded train/val/test NPZ archive (uint8 images, (N, 1) labels)."""
    n = sum(spec.splits)
    if spec.kind == "disk":
        images, labels = disk_annulus_images(n, spec.size, seed=seed)
    else:
        images, labels = smooth_volumes(n, spec.size, seed=seed)
    bounds = np.cumsum((0,) + spec.splits)
    arrays = {}
    for split, lo, hi in zip(("train", "val", "test"), bounds[:-1], bounds[1:]):
        arrays[f"{split}_images"] = images[lo:hi]
        arrays[f"{split}_labels"] = labels[lo:hi].reshape(-1, 1).astype(np.uint8)
    np.savez(path, **arrays)  # stored (uncompressed) members, NPY v1.0


def training_features(spec: Training, seed: int):
    """Sparse nonnegative rows; class 1 adds a seeded template at low amplitude.

    The amplitude is set so validation AUC stays below 1, which keeps early
    stopping sensitive to the optimizer rather than stopping at epoch 21.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_train + spec.n_val
    labels = np.arange(n, dtype=np.int64) % 2
    rng.shuffle(labels)
    x = rng.gamma(0.5, 1.0, (n, spec.dim)) * (rng.random((n, spec.dim)) < 0.3)
    template = rng.gamma(2.0, 1.0, spec.dim) * (rng.random(spec.dim) < 0.02)
    x += 0.1 * labels[:, None] * template[None, :]
    return (x[: spec.n_train], labels[: spec.n_train]), (x[spec.n_train :], labels[spec.n_train :])


def write_glf1(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    """GLF1 feature table (magic, u32 rows, u32 width, float64 rows, label first)."""
    matrix = np.empty((len(x), x.shape[1] + 1), dtype="<f8")
    matrix[:, 0] = labels
    matrix[:, 1:] = x
    with open(path, "wb") as fh:
        fh.write(b"GLF1" + struct.pack("<II", *matrix.shape) + matrix.tobytes())

