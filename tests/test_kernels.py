import itertools
import math

import numpy as np
import pytest

from glogtda.errors import ParameterError, ShapeError
from glogtda.kernels import (
    continuum_lipschitz_bound,
    convolve,
    default_radius,
    gaussian_kernel,
    lipschitz_constant,
    log_kernel,
)


def reflect(i, d):
    while i < 0 or i >= d:
        if i < 0:
            i = -1 - i
        if i >= d:
            i = 2 * d - 1 - i
    return i


def conv_oracle(vol, weights):
    """Direct summation over all offsets with explicit index folding."""
    r = weights.shape[0] // 2
    out = np.zeros_like(vol)
    offsets = list(itertools.product(range(-r, r + 1), repeat=vol.ndim))
    for x in itertools.product(*(range(d) for d in vol.shape)):
        acc = 0.0
        for a in offsets:
            src = tuple(reflect(xi - ai, d) for xi, ai, d in zip(x, a, vol.shape))
            w = weights[tuple(ai + r for ai in a)]
            acc += vol[src] * w
        out[x] = acc
    return out


def test_default_radius():
    assert default_radius(0.3) == 1
    assert default_radius(0.5) == 2
    assert default_radius(1.0) == 3
    assert default_radius(1.5) == 5


def test_gaussian_center_and_ratio():
    k = gaussian_kernel(1.0, 2)
    c = k[3, 3]
    # un-normalized center sample is exp(0) = 1, so ratios are pure samples
    assert np.isclose(k[4, 3] / c, math.exp(-0.5), rtol=1e-12)
    assert np.isclose(k[4, 4] / c, math.exp(-1.0), rtol=1e-12)


def test_gaussian_sums_to_one():
    for sigma in (0.5, 1.0, 1.5):
        k = gaussian_kernel(sigma, 2)
        assert abs(k.sum() - 1.0) <= 1e-12
    k3 = gaussian_kernel(1.0, 3)
    assert abs(k3.sum() - 1.0) <= 1e-12


def test_gaussian_radial_decay_and_symmetry():
    w = gaussian_kernel(1.0, 2)
    r = default_radius(1.0)
    for a in itertools.product(range(-r, r + 1), repeat=2):
        for b in itertools.product(range(-r, r + 1), repeat=2):
            if all(abs(ai) <= abs(bi) for ai, bi in zip(a, b)):
                assert w[a[0] + r, a[1] + r] >= w[b[0] + r, b[1] + r]
        assert w[a[0] + r, a[1] + r] == w[-a[0] + r, -a[1] + r]
        assert w[a[0] + r, a[1] + r] == w[a[1] + r, a[0] + r]


def test_log_raw_center_values():
    # raw sample at the origin is -n / sigma^2 before mean correction
    for n, expected in ((2, -2.0), (3, -3.0)):
        k = log_kernel(1.0, n)
        r = default_radius(1.0)
        axes = np.arange(-r, r + 1, dtype=float)
        grids = np.meshgrid(*([axes] * n), indexing="ij")
        r2 = sum(g * g for g in grids)
        raw = (r2 - n) * np.exp(-r2 / 2.0)  # sigma = 1
        center = tuple([r] * n)
        assert np.isclose(raw[center], expected, rtol=1e-12)
        np.testing.assert_allclose(k, raw - raw.mean(), atol=1e-15)


def test_log_sums_to_zero():
    k = log_kernel(1.0, 2)
    assert abs(k.sum()) <= 1e-12
    k3 = log_kernel(1.0, 3)
    assert abs(k3.sum()) <= 1e-12


def test_log_symmetry():
    w = log_kernel(1.0, 2)
    assert np.allclose(w, w[::-1, :]) and np.allclose(w, w[:, ::-1])
    assert np.allclose(w, w.T)


def test_sigma_validation():
    with pytest.raises(ParameterError):
        gaussian_kernel(0.0, 2)
    with pytest.raises(ParameterError):
        log_kernel(0.0, 2)
    with pytest.raises(ParameterError):
        gaussian_kernel(-1.0, 2)
    with pytest.raises(ParameterError):
        log_kernel(1.0, 4)


def test_convolve_constant_eigenfunction():
    k = gaussian_kernel(1.0, 2)
    out = convolve(np.full((6, 6), 0.7), k)
    np.testing.assert_allclose(out, 0.7, rtol=1e-12)


def test_convolve_constant_log_zero():
    k = log_kernel(1.0, 2)
    out = convolve(np.full((6, 6), 0.7), k)
    assert np.abs(out).max() <= 1e-12


def test_convolve_delta_center():
    k = gaussian_kernel(0.5, 2)
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    out = convolve(img, k)
    oracle = conv_oracle(img, k)
    np.testing.assert_allclose(out, oracle, atol=1e-15)
    assert np.isclose(out[2, 2], k[2, 2], rtol=1e-12)


def test_convolve_matches_oracle_random():
    rng = np.random.default_rng(5)
    img = rng.random((6, 7))
    for k in (
        gaussian_kernel(0.5, 2),
        log_kernel(1.0, 2),
    ):
        np.testing.assert_allclose(convolve(img, k), conv_oracle(img, k), atol=1e-12)


def test_convolve_radius_larger_than_image():
    rng = np.random.default_rng(6)
    img = rng.random((3, 3))
    k = gaussian_kernel(1.5, 2)  # radius 5 > 3
    np.testing.assert_allclose(convolve(img, k), conv_oracle(img, k), atol=1e-12)


def test_convolve_3d_matches_oracle():
    rng = np.random.default_rng(7)
    vol = rng.random((4, 3, 5))
    k = gaussian_kernel(0.5, 3)
    np.testing.assert_allclose(convolve(vol, k), conv_oracle(vol, k), atol=1e-12)


def test_convolve_linearity():
    rng = np.random.default_rng(8)
    u, v = rng.random((5, 5)), rng.random((5, 5))
    k = log_kernel(1.0, 2)
    lhs = convolve(2.5 * u - 0.5 * v, k)
    rhs = 2.5 * convolve(u, k) - 0.5 * convolve(v, k)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_builders_return_read_only_cubes():
    for build, sigma in ((gaussian_kernel, 0.5), (log_kernel, 1.5)):
        for n in (2, 3):
            k = build(sigma, n)
            side = 2 * default_radius(sigma) + 1
            assert k.shape == (side,) * n and k.dtype == np.float64
            with pytest.raises(ValueError):
                k[(0,) * n] = 1.0


def test_convolve_shape_error():
    # the weights must be an odd-sided cube with one axis per volume axis
    for vol_shape, w_shape in (((3, 3, 3), (7, 7)), ((6, 6), (3, 3, 3)), ((6, 6), (4, 4)),
                               ((6, 6), (3, 5)), ((6, 6), (3,))):
        with pytest.raises(ShapeError):
            convolve(np.zeros(vol_shape), np.ones(w_shape))


def test_lipschitz_constant():
    g = gaussian_kernel(1.0, 2)
    assert abs(lipschitz_constant(g) - 1.0) <= 1e-12
    w = np.zeros((3, 3))
    w[0, 1], w[2, 1] = 1.0, -1.0
    assert lipschitz_constant(w) == 2.0


def test_continuum_bound_value():
    # max(2 pi, 8 pi) = 8 pi for n=2, sigma=1
    assert np.isclose(continuum_lipschitz_bound(1.0, 2), 8 * math.pi, rtol=1e-12)
    with pytest.raises(ParameterError):
        continuum_lipschitz_bound(0.0, 2)


def test_discrete_stability_bound_and_tightness():
    rng = np.random.default_rng(9)
    for k in (
        gaussian_kernel(0.5, 2),
        log_kernel(1.0, 2),
    ):
        lip = lipschitz_constant(k)
        for _ in range(20):
            u, v = rng.random((7, 7)), rng.random((7, 7))
            lhs = np.abs(convolve(u, k) - convolve(v, k)).max()
            assert lhs <= lip * np.abs(u - v).max() + 1e-12
    # equality when the difference is constant and the kernel has unit mass
    g = gaussian_kernel(1.0, 2)
    u = rng.random((7, 7))
    diff = np.abs(convolve(u + 0.25, g) - convolve(u, g)).max()
    assert diff >= 0.999 * 0.25 * lipschitz_constant(g)
