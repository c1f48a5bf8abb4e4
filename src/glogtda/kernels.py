"""Discrete Gaussian and Laplacian-of-Gaussian kernels and convolution.

Kernels are point samples of the continuous functions

    G(x)      = exp(-|x|^2 / (2 sigma^2))
    Lap G(x)  = (|x|^2 - n sigma^2) / sigma^4 * exp(-|x|^2 / (2 sigma^2))

on the integer hypercube [-radius, radius]^n. The Gaussian is renormalized
to sum to 1 and the LoG is mean-corrected to sum to 0, restoring the two
continuum identities (unit mass, zero DC response) that truncation breaks.

Convolution uses symmetric boundary reflection (index -1 -> 0, index d -> d-1,
recursively), so sublevel sets near image borders see mirrored data instead of
an artificial dark frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


def default_radius(sigma: float) -> int:
    """Truncation half-width: ceil(3 sigma), at least 1."""
    return max(1, math.ceil(3.0 * sigma))


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of a sampled kernel."""

    sigma: float
    dims_n: int

    def __post_init__(self):
        if self.dims_n not in (2, 3):
            raise ParameterError(f"dims_n must be 2 or 3, got {self.dims_n}")
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")

    @property
    def radius(self) -> int:
        return default_radius(self.sigma)


@dataclass(frozen=True)
class DiscreteKernel:
    """Sampled kernel weights on [-radius, radius]^dims_n (C-order array)."""

    dims_n: int
    radius: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        side = 2 * self.radius + 1
        if w.shape != (side,) * self.dims_n:
            raise ShapeError(f"weights must have shape {(side,) * self.dims_n}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _squared_offsets(radius: int, n: int) -> np.ndarray:
    axes = np.arange(-radius, radius + 1, dtype=np.float64)
    grids = np.meshgrid(*([axes] * n), indexing="ij")
    return sum(g * g for g in grids)


def gaussian_kernel(spec: KernelSpec) -> DiscreteKernel:
    """Sample G at integer offsets and normalize the weights to sum to 1."""
    r2 = _squared_offsets(spec.radius, spec.dims_n)
    w = np.exp(-r2 / (2.0 * spec.sigma**2))
    w /= w.sum()
    return DiscreteKernel(spec.dims_n, spec.radius, w)


def log_kernel(spec: KernelSpec) -> DiscreteKernel:
    """Sample Lap G at integer offsets, then subtract the mean so the sum is 0."""
    s2 = spec.sigma**2
    r2 = _squared_offsets(spec.radius, spec.dims_n)
    w = (r2 - spec.dims_n * s2) / (s2 * s2) * np.exp(-r2 / (2.0 * s2))
    w -= w.mean()
    return DiscreteKernel(spec.dims_n, spec.radius, w)


def convolve(volume: np.ndarray, kernel: DiscreteKernel) -> np.ndarray:
    """Convolve a scalar field with a kernel under symmetric reflection.

    out[x] = sum_a volume[reflect(x - a)] * weights[a]. Shape is preserved.
    """
    arr = np.asarray(volume, dtype=np.float64)
    if arr.ndim != kernel.dims_n:
        raise ShapeError(
            f"volume is {arr.ndim}D but kernel expects {kernel.dims_n}D"
        )
    r = kernel.radius
    padded = np.pad(arr, r, mode="symmetric")
    out = np.zeros_like(arr)
    for offset in np.ndindex(kernel.weights.shape):
        w = kernel.weights[offset]
        if w == 0.0:
            continue
        # offset a = offset - r; v[x - a] sits at padded[x + r - a]
        sl = tuple(
            slice(2 * r - o, 2 * r - o + d) for o, d in zip(offset, arr.shape)
        )
        out += w * padded[sl]
    return out


def lipschitz_constant(kernel: DiscreteKernel) -> float:
    """Exact sup-norm operator bound of convolve with this kernel: sum |w|."""
    return float(np.abs(kernel.weights).sum())


def continuum_lipschitz_bound(sigma: float, n: int) -> float:
    """Analytic sup-norm bound for the continuous G / LoG convolution pair.

    max((2 pi sigma^2)^(n/2), 2 n (2 pi sigma^2)^(n/2) / sigma^2); reported for
    reference only — the discrete kernels actually used are normalized and
    truncated, so their exact constants come from lipschitz_constant.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    gauss_mass = (2.0 * math.pi * sigma**2) ** (n / 2.0)
    return max(gauss_mass, 2.0 * n * gauss_mass / sigma**2)
