import numpy as np
import pytest

from glogtda.bifiltration import (
    BiGradedField,
    compute_glog,
    slice_scalar_field,
    sup_distance,
    union_box,
)
from glogtda.errors import ParameterError, ShapeError
from glogtda.kernels import KernelSpec, gaussian_kernel, lipschitz_constant, log_kernel
from glogtda.volume_io import Volume

from test_kernels import conv_oracle


def test_constant_volume_grades():
    f = compute_glog(Volume(np.full((6, 6), 0.5)), 1.0, 1.0)
    np.testing.assert_allclose(f.g1, 0.5, rtol=1e-12)
    assert np.abs(f.g2).max() <= 1e-12


def test_sigma_zero_is_identity():
    rng = np.random.default_rng(0)
    data = rng.random((6, 6))
    f = compute_glog(Volume(data), 0.0, 1.0)
    np.testing.assert_array_equal(f.g1, data)


def test_sigma_validation():
    v = Volume(np.zeros((4, 4)))
    with pytest.raises(ParameterError):
        compute_glog(v, 0.5, 0.0)
    with pytest.raises(ParameterError):
        compute_glog(v, -0.5, 1.0)


def test_log_sign_pattern_on_bright_block():
    img = np.zeros((9, 9))
    img[3:6, 3:6] = 1.0
    f = compute_glog(Volume(img), 0.0, 1.0)
    oracle = conv_oracle(img, log_kernel(KernelSpec(1.0, 2)))
    np.testing.assert_allclose(f.g2, oracle, atol=1e-12)
    assert f.g2[4, 4] < 0  # block interior
    assert f.g2[4, 6] > 0 and f.g2[6, 4] > 0  # just outside the edge


def test_slice_values():
    f = BiGradedField(g1=np.full((2, 2), 0.2), g2=np.full((2, 2), 0.5))
    assert slice_scalar_field(f, 0.0)[0, 0] == 0.5
    assert slice_scalar_field(f, 0.5)[0, 0] == pytest.approx(0.2)


def test_slice_sublevel_equivalence():
    rng = np.random.default_rng(1)
    f = BiGradedField(g1=rng.random((4, 4)), g2=rng.uniform(-1, 1, (4, 4)))
    for b in (-0.7, 0.0, 0.4):
        out = slice_scalar_field(f, b)
        for t in np.linspace(-1.2, 1.2, 20):
            want = (f.g1 <= t) & (f.g2 <= t + b)
            np.testing.assert_array_equal(out <= t, want)


def test_slice_monotone_nested():
    rng = np.random.default_rng(2)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))
    out = slice_scalar_field(f, 0.3)
    prev = None
    for t in np.sort(out.ravel()):
        cur = out <= t
        if prev is not None:
            assert (prev <= cur).all()
        prev = cur


def test_sup_distance():
    rng = np.random.default_rng(3)
    f = BiGradedField(g1=rng.random((4, 4)), g2=rng.random((4, 4)))
    assert sup_distance(f, f) == 0.0
    h = BiGradedField(g1=f.g1 + 0.3, g2=f.g2)
    assert sup_distance(f, h) == pytest.approx(0.3, rel=1e-12)
    h2 = BiGradedField(g1=rng.random((4, 4)), g2=rng.random((4, 4)))
    brute = max(
        max(abs(f.g1[i, j] - h2.g1[i, j]), abs(f.g2[i, j] - h2.g2[i, j]))
        for i in range(4)
        for j in range(4)
    )
    assert sup_distance(f, h2) == brute


def test_sup_distance_shape_error():
    f = BiGradedField(g1=np.zeros((4, 4)), g2=np.zeros((4, 4)))
    h = BiGradedField(g1=np.zeros((5, 5)), g2=np.zeros((5, 5)))
    with pytest.raises(ShapeError):
        sup_distance(f, h)


def test_slice_is_lipschitz_in_field():
    rng = np.random.default_rng(4)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))
    h = BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))
    d = sup_distance(f, h)
    for b in (-0.5, 0.0, 1.0):
        gap = np.abs(
            slice_scalar_field(f, b) - slice_scalar_field(h, b)
        ).max()
        assert gap <= d + 1e-12


def test_field_stability_bound():
    rng = np.random.default_rng(5)
    sg, sl = 1.0, 1.0
    lip = max(
        lipschitz_constant(gaussian_kernel(KernelSpec(sg, 2))),
        lipschitz_constant(log_kernel(KernelSpec(sl, 2))),
    )
    for _ in range(10):
        u = rng.random((6, 6))
        v = np.clip(u + rng.uniform(-0.1, 0.1, (6, 6)), 0, 1)
        fu = compute_glog(Volume(u), sg, sl)
        fv = compute_glog(Volume(v), sg, sl)
        assert sup_distance(fu, fv) <= lip * np.abs(u - v).max() + 1e-9


def test_box_and_union_box():
    f = BiGradedField(g1=np.array([[0.1, 0.4], [0.2, 0.3]]),
                      g2=np.array([[-1.0, 2.0], [0.0, 0.5]]))
    assert f.box == (0.1, -1.0, 0.4, 2.0)
    assert union_box((0, 0, 1, 1), (-1, 0.5, 0.5, 2)) == (-1, 0, 1, 2)
    with pytest.raises(ParameterError):
        union_box()
