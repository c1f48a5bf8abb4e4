import math
import struct

import numpy as np
import pytest

from glogtda.bifiltration import BiGradedField, compute_glog
from glogtda.cubical_persistence import Bar
from glogtda.errors import FormatError, LengthError, ParameterError
from glogtda.fibered import (
    FiberedBarcode,
    clip_bars,
    compute_fibered_barcode,
    make_line_grid,
)
from glogtda.vectorize import (
    FeatureVector,
    MpiConfig,
    build_features,
    compute_global_box,
    features_to_csv,
    read_feature_bin,
    render_mpi,
    render_segments,
    write_feature_bin,
)
from glogtda.volume_io import Volume, normalize
import reference_render
from synthdata import disk_annulus_images


def fibered_barcode(grid, rows_per_line, degrees=(0,)):
    """FiberedBarcode holding the given (birth, death, degree, was_infinite)
    rows on each line, in clip_bars' array form."""
    tables = tuple(np.array(rows, dtype=np.float64).reshape(-1, 4) for rows in rows_per_line)
    return FiberedBarcode(grid, tables, degrees)


def single_bar_barcode(birth, death, offset, box, degree=0, num_lines=5):
    grid = make_line_grid(box, num_lines)
    idx = int(np.argmin(np.abs(grid.offsets - offset)))
    rows = [[]] * len(grid)
    rows[idx] = [(birth, death, degree, False)]
    return fibered_barcode(grid, rows, (degree,)), grid.offsets[idx]


def quadrature_mass(birth, death, offset, cfg, grid_delta, factor=10):
    """Dense reference: evaluate the exact segment density on a factor-times
    finer pixel grid (no truncation) and rescale to the coarse cell size."""
    min1, min2, max1, max2 = cfg.box
    span1, span2 = max1 - min1, max2 - min2
    r1, r2 = cfg.resolution[0] * factor, cfg.resolution[1] * factor
    xs = (np.arange(r1) + 0.5) / r1
    ys = (np.arange(r2) + 0.5) / r2
    px, py = np.meshgrid(xs, ys, indexing="ij")
    x0, y0 = (birth - min1) / span1, (birth + offset - min2) / span2
    x1, y1 = (death - min1) / span1, (death + offset - min2) / span2
    dx, dy = x1 - x0, y1 - y0
    t = np.clip(((px - x0) * dx + (py - y0) * dy) / (dx * dx + dy * dy), 0, 1)
    d2 = (px - (x0 + t * dx)) ** 2 + (py - (y0 + t * dy)) ** 2
    dens = np.exp(-d2 / (2 * cfg.bandwidth**2))
    weight = (death - birth) ** cfg.weight_power * grid_delta / np.hypot(span1, span2)
    return weight * dens.sum() / factor**2


def test_empty_barcode_renders_zero():
    grid = make_line_grid((0.0, 0.0, 1.0, 1.0), 3)
    fb = fibered_barcode(grid, [[]] * 3, (0, 1))
    cfg = MpiConfig(box=grid.box)
    img = render_mpi(fb, 0, cfg)
    assert img.shape == (50, 50)
    assert (img == 0).all()


def test_single_bar_mass_matches_quadrature():
    box = (0.0, 0.0, 1.0, 1.0)
    cfg = MpiConfig(box=box, bandwidth=0.01, weight_power=2.0)
    fb, offset = single_bar_barcode(0.3, 0.7, 0.0, box)
    img = render_mpi(fb, 0, cfg)
    want = quadrature_mass(0.3, 0.7, offset, cfg, fb.grid.delta)
    assert img.sum() == pytest.approx(want, rel=0.02)


def test_single_bar_mass_wider_bandwidth():
    box = (0.0, 0.0, 2.0, 2.0)
    cfg = MpiConfig(box=box, bandwidth=0.05, weight_power=1.0)
    fb, offset = single_bar_barcode(0.5, 1.2, 0.0, box, num_lines=7)
    img = render_mpi(fb, 0, cfg)
    want = quadrature_mass(0.5, 1.2, offset, cfg, fb.grid.delta)
    assert img.sum() == pytest.approx(want, rel=0.02)


def test_weight_homogeneity_times_four():
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0))
    segments = np.array([[0.2, 0.2, 0.6, 0.6], [0.1, 0.5, 0.4, 0.8]])
    weights = np.array([0.3, 1.1])
    base = render_segments(segments, weights, cfg)
    scaled = render_segments(segments, 4.0 * weights, cfg)
    # scaling by 4 is exact except at the subnormal floor of the Gaussian tail
    assert np.abs(scaled - 4.0 * base).max() <= 1e-300
    mass = base.sum()
    assert scaled.sum() == pytest.approx(4.0 * mass, rel=1e-15)


def test_far_bar_contributes_nothing():
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0), bandwidth=0.01)
    img = render_segments(np.array([[2.0, 2.0, 2.5, 2.5]]), np.array([5.0]), cfg)
    assert img.sum() < 1e-6


def test_adding_a_bar_is_monotone():
    box = (0.0, 0.0, 1.0, 1.0)
    cfg = MpiConfig(box=box)
    grid = make_line_grid(box, 5)
    one = fibered_barcode(grid, [[], [(0.1, 0.5, 0, False)], [], [], []])
    two = fibered_barcode(
        grid, [[], [(0.1, 0.5, 0, False)], [(0.2, 0.9, 0, False)], [], []]
    )
    assert (render_mpi(two, 0, cfg) >= render_mpi(one, 0, cfg)).all()


def test_flagged_infinite_bars_render_with_clipped_persistence():
    box = (0.0, 0.0, 1.0, 1.0)
    grid = make_line_grid(box, 5)
    mid = len(grid) // 2
    rows = [[]] * len(grid)
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])
    rows[mid] = [(t_enter, t_exit + grid.delta, 0, True)]
    fb = fibered_barcode(grid, rows)
    img = render_mpi(fb, 0, MpiConfig(box=box, bandwidth=0.05))
    assert img.sum() > 0.0


def test_image_clamp_shortens_or_drops_stubs_born_past_exit():
    # clip_bars ends an essential class born past t_exit at t_exit + delta,
    # and leaves no row when it is born at or past that; the image draws the
    # clipped rows as they are
    box = (0.0, 0.0, 1.0, 1.0)
    grid = make_line_grid(box, 50)
    cfg = MpiConfig(box=box, bandwidth=0.05)
    mid = len(grid) // 2
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])

    def image(rows):
        lines = [[]] * len(grid)
        lines[mid] = rows
        return render_mpi(fibered_barcode(grid, lines), 0, cfg)

    born = t_exit + grid.delta / 2
    stub = clip_bars([Bar(born, math.inf, 0)], t_enter, t_exit, grid.delta, (0,))
    assert stub.tolist() == [[born, t_exit + grid.delta, 0.0, 1.0]]
    shortened = image([(born, t_exit + grid.delta, 0, True)])
    assert shortened.sum() > 0.0
    assert np.array_equal(image(stub), shortened)

    born = t_exit + grid.delta
    stub = clip_bars([Bar(born, math.inf, 0)], t_enter, t_exit, grid.delta, (0,))
    assert stub.shape == (0, 4)
    assert (image(stub) == 0.0).all()


def test_per_line_renderer_matches_loop_reference():
    # summation order differs from the per-segment loop, so equality holds to
    # rounding; the last sample of each set lies partly outside the box
    images, _ = disk_annulus_images(3, size=28, seed=1)
    fields2 = [compute_glog(normalize(Volume(im)), 0.5, 1.0) for im in images]
    rng = np.random.default_rng(11)
    fields3 = [compute_glog(Volume(rng.random((8, 8, 8))), 0.5, 1.0) for _ in range(2)]
    for fields in (fields2, fields3):
        cfg = MpiConfig(box=compute_global_box(fields[:-1]))
        grid = make_line_grid(cfg.box, 50)
        for f in fields:
            fb = compute_fibered_barcode(f, grid, allow_clip=True)
            assert fb.degrees_present == tuple(range(len(f.dims)))
            for degree in fb.degrees_present:
                want = reference_render.render_mpi(fb, degree, cfg)
                got = render_mpi(fb, degree, cfg)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_render_missing_degree():
    grid = make_line_grid((0.0, 0.0, 1.0, 1.0), 3)
    fb = fibered_barcode(grid, [[]] * 3)
    with pytest.raises(ParameterError):
        render_mpi(fb, 1, MpiConfig(box=grid.box))


def test_config_validation():
    with pytest.raises(ParameterError):
        MpiConfig(box=(0, 0, 1, 1), bandwidth=0.0)
    with pytest.raises(ParameterError):
        MpiConfig(box=(0, 0, 1, 1), resolution=(0, 50))
    widened = MpiConfig(box=(0.5, 0.5, 0.5, 0.5))
    assert widened.box[2] > widened.box[0]


def test_feature_dimensions_2d_and_3d():
    rng = np.random.default_rng(0)
    fields2 = [
        BiGradedField(g1=rng.random((6, 6)), g2=rng.uniform(-1, 1, (6, 6)))
        for _ in range(3)
    ]
    cfg = MpiConfig(box=compute_global_box(fields2))
    feats = build_features(fields2, cfg, grid=make_line_grid(cfg.box, 8))
    assert all(len(f) == 5000 for f in feats)
    assert feats[0].layout == ((0, 2500), (1, 2500))
    fields3 = [
        BiGradedField(g1=rng.random((4, 4, 4)), g2=rng.uniform(-1, 1, (4, 4, 4)))
        for _ in range(2)
    ]
    cfg3 = MpiConfig(box=compute_global_box(fields3))
    feats3 = build_features(fields3, cfg3, grid=make_line_grid(cfg3.box, 6))
    assert all(len(f) == 7500 for f in feats3)
    assert feats3[0].layout == ((0, 2500), (1, 2500), (2, 2500))


def test_features_nonnegative_finite_and_deterministic():
    rng = np.random.default_rng(1)
    f = BiGradedField(g1=rng.random((6, 6)), g2=rng.uniform(-1, 1, (6, 6)))
    cfg = MpiConfig(box=f.box)
    a = build_features([f], cfg, grid=make_line_grid(cfg.box, 8))[0]
    b = build_features([f], cfg, grid=make_line_grid(cfg.box, 8))[0]
    assert (a.values >= 0).all() and np.isfinite(a.values).all()
    assert a.values.tobytes() == b.values.tobytes()


def test_out_of_box_sample_is_clipped_not_rejected():
    rng = np.random.default_rng(2)
    train = [BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))]
    cfg = MpiConfig(box=compute_global_box(train))
    wild = BiGradedField(g1=rng.random((5, 5)) * 3.0, g2=rng.random((5, 5)) * 2.0)
    feats = build_features([wild], cfg, grid=make_line_grid(cfg.box, 6))
    assert np.isfinite(feats[0].values).all()


def test_grid_over_another_box_is_rejected():
    # render_mpi draws the bars as clip_bars left them, clipped to the grid's
    # box, so a grid over any other box would misplace them silently
    rng = np.random.default_rng(4)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))
    cfg = MpiConfig(box=f.box)
    min1, min2, max1, max2 = cfg.box
    same = make_line_grid(cfg.box, 6)
    assert len(build_features([f], cfg, grid=same)[0]) == 5000
    for box in ((min1, min2, max1 + 0.5, max2), (min1 - 0.1, min2, max1, max2)):
        with pytest.raises(ParameterError):
            build_features([f], cfg, grid=make_line_grid(box, 6))


def test_compute_global_box_empty():
    with pytest.raises(ParameterError):
        compute_global_box([])


def test_feature_csv_layout():
    feats = [FeatureVector(np.array([0.5, 1.5]), ((0, 2),))]
    csv = features_to_csv(feats, [3])
    assert csv == "3,0.5,1.5\n"


def test_feature_bin_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    feats = [FeatureVector(rng.random(10), ((0, 10),)) for _ in range(4)]
    labels = [0, 1, 1, 0]
    path = tmp_path / "f.bin"
    write_feature_bin(path, feats, labels)
    mat, labs = read_feature_bin(path)
    assert labs.tolist() == labels
    np.testing.assert_array_equal(mat, np.vstack([f.values for f in feats]))


def test_feature_bin_errors(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"XXXX" + bytes(8))
    with pytest.raises(FormatError):
        read_feature_bin(path)
    feats = [FeatureVector(np.zeros(4), ((0, 4),))]
    write_feature_bin(path, feats, [0])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(LengthError):
        read_feature_bin(path)
    path.write_bytes(b"GLF1")  # no room for the row count and width
    with pytest.raises(LengthError):
        read_feature_bin(path)
    path.write_bytes(b"GLF1" + struct.pack("<II", 3, 0))  # rows without a label
    with pytest.raises(FormatError) as err:
        read_feature_bin(path)
    assert err.type is FormatError
