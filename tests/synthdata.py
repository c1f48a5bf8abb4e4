"""Synthetic image sets used by the CLI and acceptance tests.

disk_annulus_images: class 0 is a filled bright disk on a dark background,
class 1 a bright annulus. sharp_soft_disk_images: both classes are bright
disks, class 0 with a sharp edge, class 1 with a linear ramp edge, so the
class is carried by the edge rather than by the topology of the intensity.
Position and radius are randomized and every pixel carries bounded uniform
noise. Images are uint8 in [0, 255] so they flow through the same loading
path as real datasets.
"""

import numpy as np


def disk_annulus_images(n, size=28, noise=0.05, seed=0):
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


def sharp_soft_disk_images(n, size=28, noise=0.05, seed=0):
    """Bright disks of radius U(0.20, 0.30) * size on a dark background. Class 0
    has a sharp edge; class 1 falls linearly from full to none over a ramp
    U(3, 5) px wide centred on the radius. Noise is uniform in [0, noise * 255]."""
    rng = np.random.default_rng(seed)
    images = np.zeros((n, size, size), dtype=np.uint8)
    labels = np.arange(n, dtype=np.int64) % 2
    amp = noise * 255.0
    yy, xx = np.mgrid[:size, :size].astype(float)
    for i in range(n):
        r = rng.uniform(0.20 * size, 0.30 * size)
        cx = rng.uniform(r + 3.0, size - r - 3.0)
        cy = rng.uniform(r + 3.0, size - r - 3.0)
        dist = np.hypot(yy - cy, xx - cx)
        if labels[i] == 0:
            level = (dist <= r).astype(float)
        else:
            width = rng.uniform(3.0, 5.0)
            level = np.clip((r - dist) / width + 0.5, 0.0, 1.0)
        img = level * (255.0 - amp) + rng.uniform(0.0, amp, (size, size))
        images[i] = np.rint(img).astype(np.uint8)
    return images, labels


def write_split_npz(path, images, labels, split_sizes=(None, None, None)):
    """Write train/val/test entries in the (N, 1)-label layout loaders expect."""
    n = len(images)
    n_train = split_sizes[0] or int(0.6 * n)
    n_val = split_sizes[1] or int(0.2 * n)
    arrays = {}
    bounds = [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, n)]
    for split, (lo, hi) in zip(("train", "val", "test"), bounds):
        arrays[f"{split}_images"] = images[lo:hi]
        arrays[f"{split}_labels"] = labels[lo:hi].reshape(-1, 1).astype(np.uint8)
    np.savez(path, **arrays)  # stored NPY v1.0 members
    return path
