"""Persistence images for fibered barcodes and fixed-length feature assembly.

Every bar of a fibered barcode occupies the segment from (birth, birth+b) to
(death, death+b) in the grade plane. After normalizing the dataset-global box
to the unit square, each pixel accumulates

    persistence^p * exp(-dist(center, segment)^2 / (2 bandwidth^2)) * delta/diag

summed over all bars of all lines, where dist is Euclidean point-to-segment
distance, persistence is measured in line-parameter units and delta/diag
normalizes for line density. One image per homology degree, drawn one line at
a time as numpy arrays; images are concatenated in ascending degree order,
pixels row-major.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bifiltration import BiGradedField, Box, union_box
from .errors import FormatError, LengthError, ParameterError
from .fibered import (
    FiberedBarcode,
    LineGrid,
    compute_fibered_barcode,
    widen_box,
)

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
    """Concatenated per-degree images; layout records (degree, block length)."""

    values: np.ndarray
    layout: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


_CUTOFF_BANDWIDTHS = 8.0  # kernel mass beyond this is ~exp(-32), below rounding


def render_segments(
    segments: np.ndarray, weights: np.ndarray, cfg: MpiConfig
) -> np.ndarray:
    """Accumulate weighted Gaussian masses of normalized segments onto pixels.

    segments is (m, 4) rows (x0, y0, x1, y1) in unit-square coordinates, all
    parallel to the grade-plane diagonal (1, 1) mapped into the unit square,
    the direction (1/span1, 1/span2); weights already include every per-bar
    factor. A pixel's squared distance to a segment is its offset across the
    segment's line squared plus its excess beyond the segment's ends along it
    squared. A segment adds nothing to pixels farther than eight bandwidths
    from it; pixels that far across from every segment's line are skipped.
    """
    min1, min2, max1, max2 = cfg.box
    ux, uy = 1.0 / (max1 - min1), 1.0 / (max2 - min2)
    norm = np.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    r1, r2 = cfg.resolution
    px, py = np.meshgrid((np.arange(r1) + 0.5) / r1, (np.arange(r2) + 0.5) / r2, indexing="ij")
    px_along, px_across = (px * ux + py * uy).ravel(), (py * ux - px * uy).ravel()
    x0, y0, x1, y1 = np.reshape(segments, (-1, 4)).T
    s0, s1, across = x0 * ux + y0 * uy, x1 * ux + y1 * uy, y0 * ux - x0 * uy
    margin = _CUTOFF_BANDWIDTHS * cfg.bandwidth
    band = np.flatnonzero(
        (px_across >= across.min(initial=np.inf) - margin)
        & (px_across <= across.max(initial=-np.inf) + margin)
    )
    along = px_along[band, None]
    excess = np.clip(along, np.minimum(s0, s1), np.maximum(s0, s1)) - along
    d2 = (px_across[band, None] - across) ** 2 + excess**2
    kernel = np.exp(-d2 / (2.0 * cfg.bandwidth**2), out=np.zeros_like(d2), where=d2 <= margin**2)
    img = np.zeros(r1 * r2, dtype=np.float64)
    img[band] = (np.ravel(weights) * kernel).sum(axis=1)
    return img.reshape(cfg.resolution)


def render_mpi(fb: FiberedBarcode, degree: int, cfg: MpiConfig) -> np.ndarray:
    """Persistence image of one homology degree; one render_segments call per line.

    Bars are drawn as clip_bars left them, clipped to where their line
    crosses the grid's box; build_features makes that box the config's.
    """
    if degree not in fb.degrees_present:
        raise ParameterError(f"degree {degree} absent from barcode {fb.degrees_present}")
    min1, min2, max1, max2 = cfg.box
    span1, span2 = max1 - min1, max2 - min2
    density = fb.grid.delta / float(np.hypot(span1, span2))
    img = np.zeros(cfg.resolution, dtype=np.float64)
    for offset, table in zip(fb.grid.offsets.tolist(), fb.barcodes):
        birth, death = table[table[:, 2] == degree, :2].T
        segments = np.column_stack(
            ((birth - min1) / span1, (birth + offset - min2) / span2,
             (death - min1) / span1, (death + offset - min2) / span2)
        )
        img += render_segments(segments, (death - birth) ** cfg.weight_power * density, cfg)
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

    All fields share the line grid, which must be built over the config's
    global box, so features are comparable across samples; grades outside the
    box are clipped to it.
    """
    if tuple(grid.box) != tuple(cfg.box):
        raise ParameterError(f"line grid box {grid.box} is not the config box {cfg.box}")
    out = []
    for f in fields:
        if degrees is None:
            degrees = tuple(range(len(f.dims)))
        fb = compute_fibered_barcode(f, grid, degrees, allow_clip=True)
        blocks = [render_mpi(fb, d, cfg).ravel() for d in sorted(degrees)]
        layout = tuple((d, b.size) for d, b in zip(sorted(degrees), blocks))
        out.append(FeatureVector(np.concatenate(blocks), layout))
    return out


# --- feature persistence (CSV and binary) -----------------------------------


def features_to_csv(features: list[FeatureVector], labels) -> str:
    """One row per sample: label first, then the feature values."""
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != len(features):
        raise ParameterError("labels and features must have equal length")
    rows = []
    for lab, fv in zip(labels, features):
        rows.append(",".join([str(int(lab))] + [repr(v) for v in fv.values.tolist()]))
    return "\n".join(rows) + "\n"


def write_feature_bin(path, features: list[FeatureVector], labels) -> None:
    """Binary feature table: magic GLF1, u32 count, u32 row width, float64 rows.

    Rows mirror the CSV layout (label first, then features) so the file is
    self-contained for reload.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(labels) != len(features):
        raise ParameterError("labels and features must have equal length")
    dim = 1 + (len(features[0]) if features else 0)
    matrix = np.empty((len(features), dim), dtype="<f8")
    matrix[:, 0] = labels
    for i, fv in enumerate(features):
        if 1 + len(fv) != dim:
            raise ParameterError("ragged feature lengths")
        matrix[i, 1:] = fv.values
    with open(path, "wb") as fh:
        fh.write(MAGIC_FEATURES)
        fh.write(struct.pack("<II", len(features), dim))
        fh.write(matrix.tobytes(order="C"))


def read_feature_bin(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a GLF1 feature table -> (features (N, D), integer labels (N,))."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC_FEATURES:
        raise FormatError("bad feature file magic")
    if len(data) < 12:
        raise LengthError(f"feature file is {len(data)} bytes, shorter than its header")
    count, dim = struct.unpack_from("<II", data, 4)
    if dim < 1:
        raise FormatError("feature rows have width 0, not even a label")
    expected = 12 + count * dim * 8
    if len(data) != expected:
        raise LengthError(f"feature file is {len(data)} bytes, expected {expected}")
    matrix = np.frombuffer(data, dtype="<f8", offset=12).reshape(count, dim)
    return matrix[:, 1:].copy(), matrix[:, 0].astype(np.int64)
