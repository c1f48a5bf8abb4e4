"""Bi-graded scalar fields: smoothed intensity (g1) paired with edge response (g2).

A BiGradedField assigns each voxel a pair of grades; sublevel sets of the pair
under the product order form a two-parameter filtration. Slicing along a line
of slope (1, 1) collapses the pair to a single scalar field whose sublevel
sets reproduce the restriction of the bifiltration to that line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .kernels import convolve, gaussian_kernel, log_kernel
from .volume_io import Volume

#: Bounding rectangle of grade pairs: (min1, min2, max1, max2).
Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class BiGradedField:
    """Per-voxel grade pairs (g1, g2) with their tight bounding box."""

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        g1 = np.ascontiguousarray(self.g1, dtype=np.float64)
        g2 = np.ascontiguousarray(self.g2, dtype=np.float64)
        if g1.shape != g2.shape:
            raise ShapeError(f"grade arrays disagree: {g1.shape} vs {g2.shape}")
        g1.setflags(write=False)
        g2.setflags(write=False)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.g1.shape

    @property
    def box(self) -> Box:
        return (
            float(self.g1.min()),
            float(self.g2.min()),
            float(self.g1.max()),
            float(self.g2.max()),
        )


def compute_glog(
    v: Volume, sigma_gauss: float, sigma_log: float
) -> BiGradedField:
    """Build the bi-graded field of a normalized volume.

    g1 is the Gaussian-smoothed intensity (the volume itself when
    sigma_gauss == 0, meaning no convolution); g2 is the mean-corrected
    Laplacian-of-Gaussian response at sigma_log.
    """
    if sigma_log <= 0:
        raise ParameterError(f"sigma_log must be > 0, got {sigma_log}")
    if sigma_gauss < 0:
        raise ParameterError(f"sigma_gauss must be >= 0, got {sigma_gauss}")
    n = v.n
    if sigma_gauss == 0:
        g1 = v.data.copy()
    else:
        g1 = convolve(v.data, gaussian_kernel(sigma_gauss, n))
    g2 = convolve(v.data, log_kernel(sigma_log, n))
    return BiGradedField(g1=g1, g2=g2)


def slice_scalar_field(f: BiGradedField, offset: float) -> np.ndarray:
    """Scalar field whose sublevel sets restrict the bifiltration to the line
    {(t, t + offset)} of direction (1, 1) in the (g1, g2) plane.

    out[x] = max(g1[x], g2[x] - offset): the voxel satisfies g1 <= t and
    g2 <= t + offset exactly when out[x] <= t.
    """
    return np.maximum(f.g1, f.g2 - offset)


def sup_distance(f: BiGradedField, h: BiGradedField) -> float:
    """Sup norm over voxels of the larger coordinate difference."""
    if f.dims != h.dims:
        raise ShapeError(f"field dims disagree: {f.dims} vs {h.dims}")
    d1 = np.abs(f.g1 - h.g1).max()
    d2 = np.abs(f.g2 - h.g2).max()
    return float(max(d1, d2))


def union_box(*boxes: Box) -> Box:
    """Smallest box containing all given boxes."""
    if not boxes:
        raise ParameterError("need at least one box")
    return (
        min(b[0] for b in boxes),
        min(b[1] for b in boxes),
        max(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )
