"""Persistence images for fibered barcodes and fixed-length feature assembly.

Every bar of a fibered barcode occupies the segment from (birth, birth+b) to
(death, death+b) in the grade plane. After normalizing the dataset-global box
to the unit square, each pixel accumulates

    persistence^p * exp(-dist(center, segment)^2 / (2 bandwidth^2)) * delta/diag

summed over all bars of all lines, where dist is Euclidean point-to-segment
distance (a bar adds nothing past eight bandwidths), persistence is measured in
line-parameter units and delta/diag normalizes for line density. One image per
homology degree, drawn by coverage one line at a time from that line's
(birth, death) rows and its offset b alone: where a pixel lies inside bars'
spans along the line their weights come from prefix sums, and only bars ending
near it take an exp each. build_features alone picks the degrees drawn, and
concatenates their images in ascending degree order, pixels row-major.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .bifiltration import BiGradedField, Box, union_box
from .errors import FormatError, LengthError, ParameterError, ShapeError
from .fibered import (
    FiberedBarcode,
    LineGrid,
    compute_fibered_barcode,
    widen_box,
)
from .volume_io import LABEL_RULE, is_label

MAGIC_FEATURES = b"GLF1"


@dataclass(frozen=True)
class MpiConfig:
    """Rendering parameters; the box is the dataset-global grade rectangle."""

    box: Box
    resolution: tuple[int, int] = (50, 50)
    bandwidth: float = 0.01
    weight_power: float = 2.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ParameterError(f"bandwidth must be > 0, got {self.bandwidth}")
        if any(r < 1 for r in self.resolution):
            raise ParameterError(f"resolution must be >= 1, got {self.resolution}")
        object.__setattr__(self, "box", widen_box(self.box))


@dataclass(frozen=True)
class FeatureVector:
    """Per-degree images concatenated in ascending degree order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, order="C")  # a private copy
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


_CUTOFF_BANDWIDTHS = 8.0  # kernel mass beyond this is ~exp(-32), below rounding


@functools.lru_cache(maxsize=8)
def _pixel_frame(resolution: tuple[int, int], box: Box):
    """Grade-to-unit-square scale s along a line; pixel centers' (along, across), read-only."""
    min1, min2, max1, max2 = box
    s = np.hypot(1.0 / (max1 - min1), 1.0 / (max2 - min2))
    ux, uy = 1.0 / (max1 - min1) / s, 1.0 / (max2 - min2) / s  # the diagonal direction
    r1, r2 = resolution
    px, py = np.meshgrid((np.arange(r1) + 0.5) / r1, (np.arange(r2) + 0.5) / r2, indexing="ij")
    frame = np.stack(((px * ux + py * uy).ravel(), (py * ux - px * uy).ravel()))
    frame.setflags(write=False)
    return s, frame


def render_segments(
    bars: np.ndarray, offset: float, weights: np.ndarray, cfg: MpiConfig
) -> np.ndarray:
    """Accumulate weighted Gaussian masses of one line's bars onto pixels.

    bars is (m, 2) rows (birth, death), birth <= death, in grade units on the
    line {(t, t + offset)}; weights include every per-bar factor. In the unit
    square t lies t*s + shift along the line, s = hypot(1/span1, 1/span2), and
    the whole line one distance across the diagonal. A pixel at c across the
    line lies at squared distance c^2 + e^2 from a bar, e its excess beyond the
    bar's ends, and gets nothing from it past 8 bandwidths. Bars spanning the
    pixel add a prefix sum difference of weights times exp(-c^2/2h^2); only
    near ends take an exp.
    """
    bars = np.reshape(bars, (-1, 2))
    img = np.zeros(cfg.resolution[0] * cfg.resolution[1], dtype=np.float64)
    m = len(bars)
    if not m:
        return img.reshape(cfg.resolution)
    min1, min2, max1, max2 = cfg.box
    span1, span2 = max1 - min1, max2 - min2
    s, (px_along, px_across) = _pixel_frame(cfg.resolution, cfg.box)
    shift = ((offset - min2) / span2**2 - min1 / span1**2) / s
    across = (offset - min2 + min1) / (span1 * span2 * s)
    lo, hi = (bars * s + shift).T
    margin = _CUTOFF_BANDWIDTHS * cfg.bandwidth
    c2 = (px_across - across) ** 2
    band = np.flatnonzero(c2 <= margin**2)
    along, c2 = px_along[band], c2[band]
    by_hi, by_lo = np.argsort(hi), np.argsort(lo)
    # the sorted high ends, then the sorted low ends; weights and prefix sums in both orders
    ends = np.concatenate((hi[by_hi], lo[by_lo]))
    w_end = np.ravel(weights)[np.concatenate((by_hi, by_lo))]
    cw = np.concatenate((np.zeros((2, 1)), np.cumsum(w_end.reshape(2, m), axis=1)), axis=1)
    hi, lo = ends[:m], ends[m:]
    n_hi_lt = np.searchsorted(hi, along, "left")  # bars ending before the pixel
    n_lo_le = np.searchsorted(lo, along, "right")  # bars starting at or before it
    inside = np.where(n_lo_le > n_hi_lt, cw[1, n_lo_le] - cw[0, n_hi_lt], 0.0)
    # ragged ranges of the ends within reach, high ends before the pixel and low
    # ends after it; the slack keeps every pair the cutoff rule lets through
    reach = np.sqrt(margin**2 - c2) + 1e-6 * margin
    first = np.concatenate((np.searchsorted(hi, along - reach), n_lo_le + m))
    count = np.concatenate((n_hi_lt, np.searchsorted(lo, along + reach, "right") + m)) - first
    pixel = np.repeat(np.tile(np.arange(len(band)), 2), count)
    end = np.arange(len(pixel)) + np.repeat(first - np.cumsum(count) + count, count)
    d2 = c2[pixel] + (ends[end] - along[pixel]) ** 2
    kernel = np.exp(-d2 / (2.0 * cfg.bandwidth**2), out=np.zeros_like(d2), where=d2 <= margin**2)
    near = np.bincount(pixel, w_end[end] * kernel, minlength=len(band))
    img[band] = inside * np.exp(-c2 / (2.0 * cfg.bandwidth**2)) + near
    return img.reshape(cfg.resolution)


def render_mpi(fb: FiberedBarcode, degree: int, cfg: MpiConfig) -> np.ndarray:
    """Persistence image of one homology degree; one render_segments call per line.

    Bars are drawn as clip_bars left them, clipped to where their line
    crosses the grid's box; build_features makes that box the config's. A
    degree with no rows draws an all-zero image.
    """
    density = fb.grid.delta / float(np.hypot(cfg.box[2] - cfg.box[0], cfg.box[3] - cfg.box[1]))
    img = np.zeros(cfg.resolution, dtype=np.float64)
    for i, offset in enumerate(fb.grid.offsets.tolist()):
        bars = fb.bars_at(i, degree)[:, :2]
        weights = (bars[:, 1] - bars[:, 0]) ** cfg.weight_power * density
        img += render_segments(bars, offset, weights, cfg)
    return img


def compute_global_box(fields: list[BiGradedField]) -> Box:
    """Tight grade box over a training split (errors when empty)."""
    if not fields:
        raise ParameterError("training split is empty; cannot fix a global box")
    return union_box(*(f.box for f in fields))


def build_features(
    fields: list[BiGradedField],
    cfg: MpiConfig,
    grid: LineGrid,
    degrees: tuple[int, ...] | None = None,
) -> list[FeatureVector]:
    """Fibered barcode -> per-degree images -> concatenated vector, per field.

    Degrees are 0..n-1 for fields of n axes, or given: distinct, at least one,
    each in 0..n-1. All fields share the line grid, built over the config's
    global box, so features are comparable across samples; grades outside
    the box are clipped to it. Fields with different numbers of axes, which
    would not share one set of degrees, are refused.
    """
    if tuple(grid.box) != tuple(cfg.box):
        raise ParameterError(f"line grid box {grid.box} is not the config box {cfg.box}")
    axes = {len(f.dims) for f in fields}
    if len(axes) > 1:
        raise ShapeError(f"fields mix grids of {sorted(axes)} axes")
    if not fields:
        return []
    n = axes.pop()
    degrees = sorted(range(n) if degrees is None else degrees)
    if not degrees or degrees != sorted(set(degrees) & set(range(n))):
        raise ParameterError(f"degrees must be one or more distinct values in 0..{n - 1}, got {degrees}")
    out = []
    for f in fields:
        fb = compute_fibered_barcode(f, grid)
        blocks = [render_mpi(fb, d, cfg).ravel() for d in degrees]
        out.append(FeatureVector(np.concatenate(blocks)))
    return out


# --- feature persistence (CSV and binary) -----------------------------------


def feature_table(features: list[FeatureVector], labels) -> np.ndarray:
    """The (N, 1+D) rows both writers store, label first; ParameterError
    unless read_feature_bin would accept them back."""
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != len(features) or not is_label(labels).all():
        raise ParameterError(f"need one label per feature vector, each {LABEL_RULE}")
    if len({len(fv) for fv in features}) > 1:
        raise ParameterError("ragged feature lengths")
    table = np.empty((len(features), 1 + (len(features[0]) if features else 0)), dtype="<f8")
    table[:, 0] = labels
    for row, fv in zip(table[:, 1:], features):
        row[:] = fv.values
    if not np.isfinite(table[:, 1:]).all():
        raise ParameterError("feature values must be finite")
    return table


def features_to_csv(features: list[FeatureVector], labels) -> str:
    """One row per sample: label first (exact integer text), then the values."""
    rows = [",".join([str(int(row[0])), *map(repr, row[1:].tolist())])
            for row in feature_table(features, labels)]
    return "\n".join(rows) + "\n"


def glf1_header(count: int, width: int) -> bytes:
    """GLF1's 12 bytes: magic, u32 row count, u32 row width (label included)."""
    return MAGIC_FEATURES + struct.pack("<II", count, width)


def write_feature_bin(path, features: list[FeatureVector], labels) -> None:
    """Binary feature table: magic GLF1, u32 count, u32 row width, float64 rows.

    Rows mirror the CSV layout (label first, then features) so the file is
    self-contained for reload.
    """
    table = feature_table(features, labels)
    with open(path, "wb") as fh:
        fh.write(glf1_header(*table.shape))
        fh.write(table.tobytes(order="C"))


def read_feature_bin(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a GLF1 feature table -> (features (N, D), integer labels (N,)).

    The features are a read-only view into the one array the file is read
    into, not a copy.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != MAGIC_FEATURES:
            raise FormatError("bad feature file magic")
        if len(head) < 12:
            raise LengthError(f"feature file is {len(head)} bytes, shorter than its header")
        count, dim = struct.unpack_from("<II", head, 4)
        if dim < 1:
            raise FormatError("feature rows have width 0, not even a label")
        size = os.fstat(fh.fileno()).st_size
        expected = 12 + count * dim * 8
        if size != expected:
            raise LengthError(f"feature file is {size} bytes, expected {expected}")
        matrix = np.fromfile(fh, dtype="<f8", count=count * dim)
    if len(matrix) != count * dim:  # the file shrank after its size was read
        raise LengthError(f"feature file ended after {12 + matrix.nbytes} bytes, expected {expected}")
    matrix.setflags(write=False)  # on the owner, so no view of it can be made writable
    matrix = matrix.reshape(count, dim)
    labels = matrix[:, 0]
    if not is_label(labels).all():
        raise FormatError(f"feature labels must each be {LABEL_RULE}")
    if not np.isfinite(matrix[:, 1:]).all():
        raise FormatError("feature values must be finite")
    return matrix[:, 1:], labels.astype(np.int64)
