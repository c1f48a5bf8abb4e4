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

import numpy as np

from .errors import ParameterError, ShapeError


def default_radius(sigma: float) -> int:
    """Truncation half-width: ceil(3 sigma), at least 1."""
    return max(1, math.ceil(3.0 * sigma))


def _squared_offsets(sigma: float, n: int, kind: str) -> np.ndarray:
    """|a|^2 at every offset a of [-radius, radius]^n, radius = default_radius(sigma)."""
    if n not in (2, 3):
        raise ParameterError(f"n must be 2 or 3, got {n}")
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    radius = default_radius(min(sigma, 1e300))  # 3 sigma is no float past about 6e307
    if (2 * radius + 1) ** n > np.iinfo(np.intp).max:
        raise ParameterError(f"{kind} sigma {sigma} needs more kernel weights than numpy indexes")
    axes = np.arange(-radius, radius + 1, dtype=np.float64)
    grids = np.meshgrid(*([axes] * n), indexing="ij")
    return sum(g * g for g in grids)


def _finished(w: np.ndarray, kind: str, sigma: float) -> np.ndarray:
    """w made read-only, or ParameterError naming the sigma if a weight is not finite."""
    if not np.isfinite(w).all():
        raise ParameterError(f"{kind} sigma {sigma} gives kernel weights that are not finite")
    w.setflags(write=False)
    return w


def gaussian_kernel(sigma: float, n: int) -> np.ndarray:
    """Sample G on [-radius, radius]^n, radius = default_radius(sigma), and
    scale the read-only float64 weights to sum to 1."""
    r2 = _squared_offsets(sigma, n, "Gaussian")
    with np.errstate(all="ignore"):  # a weight out of range is refused below
        w = np.exp(-r2 / (2.0 * sigma**2))
        w /= w.sum()
    return _finished(w, "Gaussian", sigma)


def log_kernel(sigma: float, n: int) -> np.ndarray:
    """Sample Lap G on [-radius, radius]^n, radius = default_radius(sigma), then
    subtract the mean so the read-only float64 weights sum to 0."""
    r2 = _squared_offsets(sigma, n, "LoG")
    s2 = sigma**2  # finite once the kernel's size is
    with np.errstate(all="ignore"):  # a weight out of range is refused below
        w = (r2 - n * s2) / (s2 * s2) * np.exp(-r2 / (2.0 * s2))
        w -= w.mean()
    return _finished(w, "LoG", sigma)


def convolve(volume: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convolve a scalar field with a kernel under symmetric reflection.

    weights is an odd-sided cube with as many axes as the volume; its centre
    is offset 0. out[x] = sum_a volume[reflect(x - a)] * weights[a]. Shape
    is preserved.
    """
    arr = np.asarray(volume, dtype=np.float64)
    if weights.ndim != arr.ndim or len(set(weights.shape)) != 1 or weights.shape[0] % 2 == 0:
        raise ShapeError(
            f"weights of shape {weights.shape} are not an odd-sided {arr.ndim}D cube"
        )
    r = weights.shape[0] // 2
    padded = np.pad(arr, r, mode="symmetric")
    out = np.zeros_like(arr)
    for offset in np.ndindex(weights.shape):
        w = weights[offset]
        if w == 0.0:
            continue
        # offset a = offset - r; v[x - a] sits at padded[x + r - a]
        sl = tuple(
            slice(2 * r - o, 2 * r - o + d) for o, d in zip(offset, arr.shape)
        )
        out += w * padded[sl]
    return out


def lipschitz_constant(weights: np.ndarray) -> float:
    """Exact sup-norm operator bound of convolve with these weights: sum |w|."""
    return float(np.abs(weights).sum())


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
