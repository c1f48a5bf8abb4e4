"""Persistence images for fibered barcodes and fixed-length feature assembly.

Every bar of a fibered barcode occupies the segment from (birth, birth+b) to
(death, death+b) in the grade plane. After normalizing the dataset-global box
to the unit square, each pixel accumulates

    persistence^p * exp(-dist(center, segment)^2 / (2 bandwidth^2)) * delta/diag

summed over all bars of all lines, where dist is Euclidean point-to-segment
distance (a bar adds nothing past eight bandwidths), persistence is measured in
line-parameter units and delta/diag normalizes for line density. One image per
homology degree, drawn by coverage one line at a time from that line's
(birth, death) rows of the degree, in compute_fibered_barcode's table for it,
and its offset b in the grid: where a pixel lies inside bars' spans along the
line their weights come from prefix sums, and only bars ending near it take an
exp each. build_features alone picks the degrees drawn, and concatenates their
images in ascending degree order, pixels row-major.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .bifiltration import BiGradedField, Box, union_box
from .errors import FormatError, LengthError, ParameterError, ShapeError
from .fibered import LineGrid, compute_fibered_barcode, widen_box
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
        reach = _CUTOFF_BANDWIDTHS * self.bandwidth  # squared by products, which cannot raise
        if not np.isfinite(reach * reach) or 2.0 * (self.bandwidth * self.bandwidth) == 0:
            raise ParameterError(f"bandwidth {self.bandwidth} squares past the float range")
        res = tuple(self.resolution) if isinstance(self.resolution, (tuple, list)) else ()
        if len(res) != 2 or not all(isinstance(r, (int, np.integer)) and r >= 1 for r in res):
            raise ParameterError(f"resolution must be two positive integers, got {self.resolution!r}")
        object.__setattr__(self, "resolution", tuple(map(int, res)))
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


@functools.lru_cache(maxsize=128)
def _line_frame(resolution: tuple[int, int], box: Box, bandwidth: float, offset: float):
    """What render_segments takes from the line {(t, t + offset)} alone, read-only: s, shift,
    and for the pixels within 8 bandwidths their flat indices, band positions 0..n-1 twice,
    c^2, exp(-c^2/2h^2) and rows (along - reach, along, along + reach). At 64 bytes per band
    pixel, 128 frames hold at most 8 KB per image pixel; 50 lines at the defaults ~1.2 MB."""
    min1, min2, max1, max2 = box
    span1, span2 = max1 - min1, max2 - min2
    s, (px_along, px_across) = _pixel_frame(resolution, box)
    shift = ((offset - min2) / span2**2 - min1 / span1**2) / s
    across = (offset - min2 + min1) / (span1 * span2 * s)
    margin = _CUTOFF_BANDWIDTHS * bandwidth
    c2 = (px_across - across) ** 2
    band = (c2 <= margin**2).nonzero()[0]
    along, c2 = px_along[band], c2[band]
    reach = np.sqrt(margin**2 - c2) + 1e-6 * margin  # slack keeps every pair the cutoff lets through
    frame = (band, np.tile(np.arange(band.size), 2), c2,
             np.exp(-c2 / (2.0 * bandwidth**2)), np.stack((along - reach, along, along + reach)))
    for a in frame:
        a.setflags(write=False)
    return (s, shift, *frame)


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
    near ends take an exp. What the line alone decides comes from _line_frame.
    """
    bars = bars.reshape(-1, 2)
    img = np.zeros(cfg.resolution[0] * cfg.resolution[1], dtype=np.float64)
    m = len(bars)
    if not m:
        return img.reshape(cfg.resolution)
    s, shift, band, pixels, c2, gauss, keys = _line_frame(cfg.resolution, cfg.box, cfg.bandwidth, offset)
    margin = _CUTOFF_BANDWIDTHS * cfg.bandwidth
    # rows of sorted high ends and sorted low ends; their weights and prefix sums
    ends = bars.T[::-1] * s + shift
    order = ends.argsort(axis=1)
    ends, w_end = ends[((0,), (1,)), order], weights.take(order)
    cw = np.zeros((2, m + 1))
    w_end.cumsum(axis=1, out=cw[:, 1:])
    # per pixel: the first high end within reach, the high ends before it, the
    # low ends at or before it, the last low end within reach
    b = np.concatenate((ends[0].searchsorted(keys[:2]), ends[1].searchsorted(keys[1:], "right")))
    inside = cw[1].take(b[2]) - cw[0].take(b[1])
    inside[b[2] <= b[1]] = 0.0
    # ragged ranges, in ends flattened, of the ends within reach: high ends before
    # the pixel and low ends after it
    b[2:] += m
    count = (b[1::2] - b[::2]).ravel()
    pixel = pixels.repeat(count)
    end = (b[::2].ravel() - count.cumsum() + count).repeat(count) + np.arange(len(pixel))
    d2 = c2.take(pixel) + (ends.take(end) - keys[1].take(pixel)) ** 2
    kernel = np.exp(d2 / (-2.0 * cfg.bandwidth**2), out=np.zeros(len(d2)), where=d2 <= margin**2)
    img[band] = inside * gauss + np.bincount(pixel, w_end.take(end) * kernel, minlength=len(band))
    return img.reshape(cfg.resolution)


def render_mpi(
    lines: tuple[np.ndarray, ...], degree: int, cfg: MpiConfig, grid: LineGrid
) -> np.ndarray:
    """Persistence image of one homology degree; one render_segments call per line.

    lines is compute_fibered_barcode's tuple for this grid (ValueError if
    its length is not the grid's). Bars are drawn as clip_bars left them,
    clipped to where their line crosses the grid's box; build_features makes
    that box the config's. A degree with no rows draws an all-zero image.
    """
    density = grid.delta / float(np.hypot(cfg.box[2] - cfg.box[0], cfg.box[3] - cfg.box[1]))
    img = np.zeros(cfg.resolution, dtype=np.float64)
    for offset, table in zip(grid.offsets.tolist(), lines, strict=True):
        bars = table[table[:, 2] == degree, :2]
        weights = (bars[:, 1] - bars[:, 0]) ** cfg.weight_power * density
        img += render_segments(bars, offset, weights, cfg)
    return img


def compute_global_box(fields: list[BiGradedField]) -> Box:
    """Tight grade box over a training split (union_box errors when empty)."""
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
        lines = compute_fibered_barcode(f, grid)
        blocks = [render_mpi(lines, d, cfg, grid).ravel() for d in degrees]
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
    """GLF1's 12 bytes: magic, u32 row count, u32 row width (label included).
    ParameterError when either does not fit its u32 field."""
    if max(count, width) >= 2**32:
        raise ParameterError(f"{count} rows of width {width} do not fit GLF1's u32 fields")
    return MAGIC_FEATURES + struct.pack("<II", count, width)


def write_feature_bin(path, features: list[FeatureVector], labels) -> None:
    """Binary feature table: magic GLF1, u32 count, u32 row width, float64 rows
    of feature_table (label first, then features), self-contained for reload."""
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
