import math
import struct

import numpy as np
import pytest

from glogtda import vectorize
from glogtda.bifiltration import BiGradedField, compute_glog
from glogtda.cubical_persistence import Bar
from glogtda.errors import FormatError, LengthError, ParameterError, ShapeError
from glogtda.fibered import (
    FiberedBarcode,
    LineGrid,
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


def fibered_barcode(grid, rows_per_line):
    """FiberedBarcode holding the given (birth, death, degree) rows on each
    line, in clip_bars' array form."""
    tables = tuple(np.array(rows, dtype=np.float64).reshape(-1, 3) for rows in rows_per_line)
    return FiberedBarcode(grid, tables)


def single_bar_barcode(birth, death, offset, box, degree=0, num_lines=5):
    grid = make_line_grid(box, num_lines)
    idx = int(np.argmin(np.abs(grid.offsets - offset)))
    rows = [[]] * len(grid)
    rows[idx] = [(birth, death, degree)]
    return fibered_barcode(grid, rows), grid.offsets[idx]


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
    fb = fibered_barcode(grid, [[]] * 3)
    cfg = MpiConfig(box=grid.box)
    img = render_mpi(fb, 0, cfg)
    assert img.shape == (50, 50)
    assert (img == 0).all()
    # a degree with no rows on any line draws the same empty image
    fb = fibered_barcode(grid, [[(0.2, 0.6, 0)]] * 3)
    assert render_mpi(fb, 0, cfg).sum() > 0.0
    assert (render_mpi(fb, 1, cfg) == 0).all()


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
    # (birth, death) rows at offsets 0 and 0.4: on the unit box they run from
    # (0.2, 0.2) to (0.6, 0.6) and from (0.1, 0.5) to (0.4, 0.8)
    rows, offsets = np.array([[0.2, 0.6], [0.1, 0.4]]), (0.0, 0.4)
    weights = np.array([0.3, 1.1])

    def image(w):
        # the two bars lie on different lines: one call per line
        return sum(render_segments(r[None], b, x[None], cfg) for r, b, x in zip(rows, offsets, w))

    base = image(weights)
    scaled = image(4.0 * weights)
    # scaling by 4 is exact except at the subnormal floor of the Gaussian tail
    assert np.abs(scaled - 4.0 * base).max() <= 1e-300
    mass = base.sum()
    assert scaled.sum() == pytest.approx(4.0 * mass, rel=1e-15)


def test_no_segments_render_zero():
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0), resolution=(7, 5))
    img = render_segments(np.empty((0, 2)), 0.0, np.empty(0), cfg)
    assert img.shape == (7, 5)
    assert (img == 0.0).all()


def test_gap_between_heavy_segments_reads_exactly_zero():
    # three nested heavy segments before a gap of 40 bandwidths and one after
    # it: the weights before the gap sum in a different order by low end than
    # by high end, so a bare prefix-sum difference leaves rounding residue
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0), bandwidth=0.01)
    rows = np.array([[0.02, 0.30], [0.05, 0.25], [0.10, 0.28], [0.70, 0.95]])
    weights = np.array([1e6 / 3, 2e6 / 3, 1e6 / 7, 1e6])
    img = render_segments(rows, 0.0, weights, cfg)
    assert (img[20:30, 20:30] == 0.0).all()
    assert img[10, 10] > 0.0 and img[40, 40] > 0.0


def test_far_bar_contributes_nothing():
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0), bandwidth=0.01)
    img = render_segments(np.array([[2.0, 2.5]]), 0.0, np.array([5.0]), cfg)
    assert img.sum() < 1e-6


def test_pixel_just_past_the_cutoff_reads_exactly_zero():
    cfg = MpiConfig(box=(0.0, 0.0, 1.0, 1.0), bandwidth=0.01)
    # a diagonal segment ending 8.000004 bandwidths before pixel (25, 25)
    end = 0.51 - 8 * cfg.bandwidth * (1 + 5e-7) / math.sqrt(2)
    img = render_segments(np.array([[0.1, end]]), 0.0, np.array([1.0]), cfg)
    assert img[25, 25] == 0.0 and img[24, 24] > 0.0


def test_adding_a_bar_is_monotone():
    box = (0.0, 0.0, 1.0, 1.0)
    cfg = MpiConfig(box=box)
    grid = make_line_grid(box, 5)
    one = fibered_barcode(grid, [[], [(0.1, 0.5, 0)], [], [], []])
    two = fibered_barcode(
        grid, [[], [(0.1, 0.5, 0)], [(0.2, 0.9, 0)], [], []]
    )
    assert (render_mpi(two, 0, cfg) >= render_mpi(one, 0, cfg)).all()


def test_flagged_infinite_bars_render_with_clipped_persistence():
    box = (0.0, 0.0, 1.0, 1.0)
    grid = make_line_grid(box, 5)
    mid = len(grid) // 2
    rows = [[]] * len(grid)
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])
    rows[mid] = [(t_enter, t_exit + grid.delta, 0)]
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
    stub = clip_bars([Bar(born, math.inf, 0)], t_enter, t_exit, grid.delta)
    assert stub.tolist() == [[born, t_exit + grid.delta, 0.0]]
    shortened = image([(born, t_exit + grid.delta, 0)])
    assert shortened.sum() > 0.0
    assert np.array_equal(image(stub), shortened)

    born = t_exit + grid.delta
    stub = clip_bars([Bar(born, math.inf, 0)], t_enter, t_exit, grid.delta)
    assert stub.shape == (0, 3)
    assert (image(stub) == 0.0).all()


@pytest.fixture(scope="module")
def clipped_barcodes():
    """(fibered barcode, config) pairs of 28x28 disks and 8^3 noise volumes;
    the last sample of each set lies partly outside the box."""
    images, _ = disk_annulus_images(3, size=28, seed=1)
    fields2 = [compute_glog(normalize(Volume(im)), 0.5, 1.0) for im in images]
    rng = np.random.default_rng(11)
    fields3 = [compute_glog(Volume(rng.random((8, 8, 8))), 0.5, 1.0) for _ in range(2)]
    out = []
    for fields in (fields2, fields3):
        cfg = MpiConfig(box=compute_global_box(fields[:-1]))
        grid = make_line_grid(cfg.box, 50)
        for f in fields:
            fb = compute_fibered_barcode(f, grid)
            # every degree of the field has rows to draw
            assert set(np.concatenate(fb.barcodes)[:, 2]) == set(range(len(f.dims)))
            out.append((fb, cfg, len(f.dims)))
    return out


def test_per_line_renderer_matches_loop_reference(clipped_barcodes):
    # summation order differs from the per-segment loop, so equality holds to
    # rounding
    for fb, cfg, n in clipped_barcodes:
        for degree in range(n):
            want = reference_render.render_mpi(fb, degree, cfg)
            got = render_mpi(fb, degree, cfg)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_zero_pixels_match_loop_reference(clipped_barcodes):
    for fb, cfg, n in clipped_barcodes:
        for degree in range(n):
            want = reference_render.render_mpi(fb, degree, cfg)
            assert np.array_equal(render_mpi(fb, degree, cfg) == 0.0, want == 0.0)


def test_one_render_call_per_line_with_its_rows_and_offset(clipped_barcodes, monkeypatch):
    # the bench's observer counts segments per render_segments call from its
    # first positional argument, so each grid line must be drawn by its own
    # call holding exactly that line's rows of the degree, at that line's offset
    calls = []
    render = vectorize.render_segments

    def spy(*args, **kwargs):
        calls.append(args)
        return render(*args, **kwargs)

    monkeypatch.setattr(vectorize, "render_segments", spy)
    for fb, cfg, n in clipped_barcodes[::3]:
        for degree in range(n):
            calls.clear()
            render_mpi(fb, degree, cfg)
            assert len(calls) == len(fb.grid)
            for i, (rows, offset, *_) in enumerate(calls):
                assert offset == fb.grid.offsets[i]
                assert np.array_equal(rows, fb.bars_at(i, degree)[:, :2])
            assert sum(len(rows) for rows, *_ in calls) > 0


@pytest.mark.parametrize("degrees", [(0, 5), (-1,), (0, 0), ()],
                         ids=["past-the-field", "negative", "repeated", "none"])
def test_build_features_refuses_degrees_the_field_lacks(degrees):
    # a 2D field has degrees 0 and 1 only: anything else would be an all-zero
    # block or a repeated one, and no degree at all no feature vector
    rng = np.random.default_rng(6)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.random((5, 5)))
    cfg = MpiConfig(box=f.box, resolution=(4, 4))
    grid = make_line_grid(cfg.box, 4)
    with pytest.raises(ParameterError, match="degrees"):
        build_features([f], cfg, grid=grid, degrees=degrees)
    # the same degrees in another order draw the same blocks in ascending order
    both = build_features([f], cfg, grid=grid, degrees=(1, 0))[0]
    assert both.values.tobytes() == build_features([f], cfg, grid=grid)[0].values.tobytes()
    assert len(build_features([f], cfg, grid=grid, degrees=(1,))[0]) == 16


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
    fields3 = [
        BiGradedField(g1=rng.random((4, 4, 4)), g2=rng.uniform(-1, 1, (4, 4, 4)))
        for _ in range(2)
    ]
    cfg3 = MpiConfig(box=compute_global_box(fields3))
    feats3 = build_features(fields3, cfg3, grid=make_line_grid(cfg3.box, 6))
    assert all(len(f) == 7500 for f in feats3)


def test_fields_with_different_numbers_of_axes_are_rejected():
    # the first field would fix the degrees for both: a 3D field losing H2,
    # or a 2D one gaining an all-zero H2 block, depending on the order
    rng = np.random.default_rng(5)
    flat = BiGradedField(g1=rng.random((6, 6)), g2=rng.random((6, 6)))
    cube = BiGradedField(g1=rng.random((5, 5, 5)), g2=rng.random((5, 5, 5)))
    cfg = MpiConfig(box=compute_global_box([flat, cube]), resolution=(4, 4))
    grid = make_line_grid(cfg.box, 4)
    for fields in ([flat, cube], [cube, flat]):
        with pytest.raises(ShapeError, match="axes"):
            build_features(fields, cfg, grid=grid)


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
    feats = [FeatureVector(np.array([0.5, 1.5]))]
    csv = features_to_csv(feats, [3])
    assert csv == "3,0.5,1.5\n"


def test_feature_csv_text_on_awkward_values():
    # shortest round-trip reprs, signed zero, subnormals and the largest labels
    feats = [FeatureVector(np.array([-0.0, 1e-300, 0.1 + 0.2, 5e-324])),
             FeatureVector(np.array([1 / 3, 1e300, 2.0**53 + 2, 0.0]))]
    csv = features_to_csv(feats, np.array([2**53 - 2, 2**53 - 1], dtype=np.int64))
    assert csv == ("9007199254740990,-0.0,1e-300,0.30000000000000004,5e-324\n"
                   "9007199254740991,0.3333333333333333,1e+300,9007199254740994.0,0.0\n")
    assert features_to_csv([FeatureVector(np.array([]))], [7]) == "7\n"


def test_feature_bin_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    feats = [FeatureVector(rng.random(10)) for _ in range(4)]
    labels = [0, 1, 1, 0]
    path = tmp_path / "f.bin"
    write_feature_bin(path, feats, labels)
    mat, labs = read_feature_bin(path)
    assert labs.tolist() == labels
    np.testing.assert_array_equal(mat, np.vstack([f.values for f in feats]))


def test_feature_bin_features_are_a_read_only_view(tmp_path):
    rng = np.random.default_rng(4)
    feats = [FeatureVector(rng.random(6)) for _ in range(3)]
    path = tmp_path / "f.bin"
    write_feature_bin(path, feats, [1, 0, 1])
    mat, labs = read_feature_bin(path)
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    with pytest.raises(ValueError):
        mat.setflags(write=True)  # its base, holding the labels too, is read-only
    write_feature_bin(path, [FeatureVector(row) for row in mat], labs)  # and it round-trips
    again, labs_again = read_feature_bin(path)
    assert again.tobytes() == np.vstack([f.values for f in feats]).tobytes()
    assert labs_again.tolist() == [1, 0, 1]


def test_line_grid_and_feature_vector_keep_private_copies():
    o, v = np.linspace(-1.0, 1.0, 5), np.arange(6.0)
    grid = LineGrid(o, 0.1, (0.0, 0.0, 1.0, 1.0))
    fv = FeatureVector(v)
    # the caller's arrays stay writable, and what they hold is not shared
    assert o.flags.writeable and v.flags.writeable
    assert not np.shares_memory(grid.offsets, o) and not np.shares_memory(fv.values, v)
    o[0], v[0] = 9.0, 9.0
    assert grid.offsets[0] == -1.0 and fv.values[0] == 0.0
    assert not grid.offsets.flags.writeable and not fv.values.flags.writeable


def write_glf1(path, rows):
    """A GLF1 file holding the given (label, *values) rows as they are."""
    table = np.array(rows, dtype="<f8")
    path.write_bytes(b"GLF1" + struct.pack("<II", *table.shape) + table.tobytes())


def test_feature_bin_errors(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"XXXX" + bytes(8))
    with pytest.raises(FormatError):
        read_feature_bin(path)
    feats = [FeatureVector(np.zeros(4))]
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
    for label in (-1.0, 0.5, math.nan, math.inf, 1e300, 2.0**53):
        write_glf1(path, [[0.0, 0, 0, 0, 0], [label, 0, 0, 0, 0]])
        with pytest.raises(FormatError, match="label"):
            read_feature_bin(path)
    for value in (math.nan, math.inf, -math.inf):
        write_glf1(path, [[0.0, 0, 0, 0, 0], [1.0, 0, value, 0, 0]])
        with pytest.raises(FormatError, match="finite"):
            read_feature_bin(path)


@pytest.mark.parametrize("writer", ["csv", "bin"])
def test_feature_writers_refuse_what_the_reader_refuses(tmp_path, writer):
    def write(feats, labels):
        if writer == "csv":
            return features_to_csv(feats, labels)
        write_feature_bin(tmp_path / "f.bin", feats, labels)

    feats = [FeatureVector(np.zeros(4)), FeatureVector(np.ones(4))]
    # from 2**53 on, GLF1's float64 would round the label or read it back refused
    for label in (-1, -1.0, 0.5, math.nan, math.inf, 1e300, 2.0**63, 2**53, 2**53 + 1):
        with pytest.raises(ParameterError, match="label"):
            write(feats, [0, label])
    for value in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            write([feats[0], FeatureVector([1.0, value, 0.0, 0.0])], [0, 1])
    with pytest.raises(ParameterError, match="ragged"):
        write([feats[0], FeatureVector(np.ones(3))], [0, 1])
    with pytest.raises(ParameterError, match="one label per"):
        write(feats, [0])
    write(feats, np.array([0.0, 3.0]))  # integral floats are labels
