import numpy as np
import pytest
from scipy import ndimage

from glogtda import cubical_persistence, fibered
from glogtda.bifiltration import (
    BiGradedField,
    compute_glog,
    slice_scalar_field,
    sup_distance,
    union_box,
)
from glogtda.cubical_persistence import (
    Bar,
    betti_oracle,
    bottleneck,
    build_complex,
    compute_persistence,
)
from glogtda.errors import ParameterError
from glogtda.fibered import (
    LineGrid,
    clip_bars,
    compute_fibered_barcode,
    line_barcodes,
    make_line_grid,
)
from glogtda.volume_io import Volume

import synthdata


def degree_rows(table, degree):
    """The (birth, death) rows of one degree of a clip_bars table."""
    return table[table[:, 2] == degree][:, :2]


def test_line_grid_unit_box():
    grid = make_line_grid((0.0, 0.0, 1.0, 1.0), 3)
    np.testing.assert_allclose(grid.offsets, [-1.0, 0.0, 1.0])
    assert grid.delta == 1.0


def test_line_grid_single_line():
    grid = make_line_grid((0.0, 0.0, 1.0, 1.0), 1)
    np.testing.assert_allclose(grid.offsets, [0.0])
    assert grid.delta == 2.0  # the whole span


def test_line_grid_rect_box():
    grid = make_line_grid((0.0, 0.0, 1.0, 2.0), 50)
    assert len(grid) == 50
    assert grid.offsets[0] == -1.0 and grid.offsets[-1] == 2.0
    assert grid.delta == pytest.approx(3.0 / 49.0, rel=1e-15)
    steps = np.diff(grid.offsets)
    assert np.abs(steps - grid.delta).max() <= 1e-12


def test_line_grid_validation_and_degenerate():
    with pytest.raises(ParameterError):
        make_line_grid((0.0, 0.0, 1.0, 1.0), 0)
    grid = make_line_grid((0.5, 0.5, 0.5, 0.5), 5)  # point box widened
    assert grid.box[2] > grid.box[0] and grid.box[3] > grid.box[1]
    assert len(grid) == 5


def test_constant_field_single_bar_every_line():
    c1, c2 = 0.4, 0.7
    f = BiGradedField(g1=np.full((4, 4), c1), g2=np.full((4, 4), c2))
    grid = make_line_grid(f.box, 7)
    lines = compute_fibered_barcode(f, grid)
    # the two end lines only touch the widened box: the class is born at or
    # past t_exit + delta there, so the clip leaves it no row
    assert [len(bars) for bars in lines] == [0, 1, 1, 1, 1, 1, 0]
    for offset, bars in zip(grid.offsets.tolist()[1:-1], lines[1:-1]):
        birth, death, degree = bars[0]
        _, t_exit = grid.crossing_interval(offset)
        assert degree == 0 and death > t_exit  # the clipped essential class
        assert birth == max(c1, c2 - offset)
        assert death == t_exit + grid.delta


def test_fibered_barcode_is_one_clipped_table_per_line():
    rng = np.random.default_rng(13)
    for dims in ((6, 5), (3, 4, 3)):
        f = BiGradedField(g1=rng.random(dims), g2=rng.uniform(-0.5, 0.5, dims))
        grid = make_line_grid(f.box, 9)
        lines = compute_fibered_barcode(f, grid)
        assert isinstance(lines, tuple) and len(lines) == len(grid)
        offsets = grid.offsets.tolist()
        for table, offset, barcode in zip(lines, offsets, line_barcodes(f, offsets)):
            assert table.dtype == np.float64 and table.ndim == 2 and table.shape[1] == 3
            assert not table.flags.writeable
            want = clip_bars(barcode.table, *grid.crossing_interval(offset), grid.delta)
            assert np.array_equal(table, want)
        assert sum(len(table) for table in lines) > 0


def test_zero_g2_line_at_origin_reproduces_single_parameter():
    g1 = np.zeros((5, 5))
    g1[2, 2] = 1.0
    g1[1, 3] = 0.5
    f = BiGradedField(g1=g1, g2=np.zeros((5, 5)))
    box = f.box
    grid = LineGrid(np.array([0.0]), 0.5, box)
    lines = compute_fibered_barcode(f, grid)
    single = compute_persistence(build_complex(g1))
    t_enter, t_exit = grid.crossing_interval(0.0)
    expected = clip_bars(single.bars, t_enter, t_exit, grid.delta)
    assert np.array_equal(lines[0], expected)


def test_fibered_bars_match_sliced_betti_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = BiGradedField(g1=rng.random((4, 4)), g2=rng.uniform(-0.5, 0.5, (4, 4)))
        grid = make_line_grid(f.box, 9)
        lines = compute_fibered_barcode(f, grid)
        for li, offset in enumerate(grid.offsets.tolist()):
            c = build_complex(slice_scalar_field(f, offset))
            t_enter, t_exit = grid.crossing_interval(offset)
            for t in np.unique(c.grades):
                if not (t_enter <= t < t_exit):
                    continue
                betti = betti_oracle(c, t)
                birth, death, degree = lines[li].T
                for k in range(2):
                    alive = np.count_nonzero((degree == k) & (birth <= t) & (t < death))
                    assert alive == betti[k]


def test_bar_births_respect_entry_parameter():
    rng = np.random.default_rng(1)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.uniform(-1, 1, (5, 5)))
    grid = make_line_grid(f.box, 12)
    lines = compute_fibered_barcode(f, grid)
    for offset, bars in zip(grid.offsets.tolist(), lines):
        t_enter, _ = grid.crossing_interval(offset)
        assert (bars[:, 0] >= t_enter - 1e-9).all()


def test_infinite_bars_clipped_with_flag():
    f = BiGradedField(g1=np.zeros((3, 3)), g2=np.zeros((3, 3)))
    grid = make_line_grid(f.box, 3)
    lines = compute_fibered_barcode(f, grid)
    mid = len(grid) // 2
    birth, death, _ = lines[mid][0]
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])
    assert death > t_exit  # a death past t_exit flags a bar that was infinite
    assert death == t_exit + grid.delta


def test_clip_bars_contract():
    rng = np.random.default_rng(12)
    t_enter, t_exit, delta = 0.25, 0.75, 0.125
    for _ in range(20):
        n = 60
        birth = rng.uniform(-0.5, 1.2, n)  # before t_enter to past t_exit + delta
        exact = rng.random(n) < 0.4
        birth[exact] = rng.choice([t_enter, t_exit, t_exit + delta], exact.sum())
        death = np.where(rng.random(n) < 0.3, np.inf, birth + rng.uniform(0.0, 0.6, n))
        degree = rng.integers(0, 3, n)
        bars = tuple(map(Bar, birth.tolist(), death.tolist(), degree.tolist()))
        out = clip_bars(bars, t_enter, t_exit, delta)
        assert out.dtype == np.float64 and out.shape[1] == 3
        with pytest.raises(ValueError):
            out[:, 0] = 0.0
        b, d, k = out.T
        assert ((t_enter <= b) & (b < d)).all()
        assert ((d <= t_exit) | (d == t_exit + delta)).all()
        assert set(k.tolist()) <= {0.0, 1.0, 2.0}
        assert np.lexsort((d, b, k)).tolist() == list(range(len(out)))
        # a bar is dropped exactly when its clipped interval is empty, and its
        # clipped death lies past t_exit exactly when it was infinite
        clipped = [
            (max(x.birth, t_enter), t_exit + delta if np.isinf(x.death) else min(x.death, t_exit),
             x.degree, np.isinf(x.death))
            for x in bars
        ]
        want = sorted((r for r in clipped if r[1] > r[0]), key=lambda r: (r[2], r[0], r[1]))
        assert out.tolist() == [[b_, d_, float(k_)] for b_, d_, k_, _ in want]
        assert (d > t_exit).tolist() == [bool(i_) for *_, i_ in want]


def test_out_of_box_grades_are_clipped_to_the_grid_box():
    # grades reach past the grid box on every side, so bars are born before
    # t_enter and die after t_exit
    rng = np.random.default_rng(7)
    f = BiGradedField(g1=rng.uniform(-0.5, 1.5, (6, 6)), g2=rng.uniform(-0.5, 1.5, (6, 6)))
    small = make_line_grid((0.0, 0.0, 1.0, 1.0), 5)
    (lo1, lo2, hi1, hi2), box = small.box, f.box
    assert box[0] < lo1 and box[1] < lo2 and box[2] > hi1 and box[3] > hi2
    lines = compute_fibered_barcode(f, small)
    assert sum(len(bars) for bars in lines) > 0
    for offset, bars in zip(small.offsets.tolist(), lines):
        t_enter, t_exit = small.crossing_interval(offset)
        birth, death = bars[:, 0], bars[:, 1]
        assert (birth >= t_enter).all()
        assert (death <= t_exit + small.delta).all()


def test_per_line_stability_of_clipped_barcodes():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g1, g2 = rng.random((5, 5)), rng.uniform(-0.5, 0.5, (5, 5))
        f = BiGradedField(g1=g1, g2=g2)
        h = BiGradedField(
            g1=g1 + rng.uniform(-0.05, 0.05, (5, 5)),
            g2=g2 + rng.uniform(-0.05, 0.05, (5, 5)),
        )
        d = sup_distance(f, h)
        grid = make_line_grid(union_box(f.box, h.box), 10)
        lines_f = compute_fibered_barcode(f, grid)
        lines_h = compute_fibered_barcode(h, grid)
        for li in range(len(grid)):
            for k in (0, 1):
                bn = bottleneck(degree_rows(lines_f[li], k), degree_rows(lines_h[li], k))
                assert bn <= d + 1e-9


def test_per_line_stability_3d():
    rng = np.random.default_rng(4)
    g1, g2 = rng.random((3, 3, 3)), rng.uniform(-0.5, 0.5, (3, 3, 3))
    f = BiGradedField(g1=g1, g2=g2)
    h = BiGradedField(
        g1=g1 + rng.uniform(-0.05, 0.05, (3, 3, 3)),
        g2=g2 + rng.uniform(-0.05, 0.05, (3, 3, 3)),
    )
    d = sup_distance(f, h)
    grid = make_line_grid(union_box(f.box, h.box), 8)
    lines_f = compute_fibered_barcode(f, grid)
    lines_h = compute_fibered_barcode(h, grid)
    for li in range(len(grid)):
        for k in (0, 1, 2):
            bn = bottleneck(degree_rows(lines_f[li], k), degree_rows(lines_h[li], k))
            assert bn <= d + 1e-9


def test_monotone_refinement():
    rng = np.random.default_rng(3)
    f = BiGradedField(g1=rng.random((4, 4)), g2=rng.random((4, 4)))
    coarse = make_line_grid(f.box, 7)
    fine = make_line_grid(f.box, 13)  # doubles the resolution: 2L-1 lines
    lines_coarse = compute_fibered_barcode(f, coarse)
    lines_fine = compute_fibered_barcode(f, fine)
    common = 0
    for i, off in enumerate(coarse.offsets.tolist()):
        matches = np.nonzero(fine.offsets == off)[0]
        if len(matches) == 0:
            continue
        j = int(matches[0])
        common += 1
        bc, bf = lines_coarse[i], lines_fine[j]
        # deltas differ, so compare everything except the infinite bars'
        # deaths, which are t_exit + delta
        _, t_exit = coarse.crossing_interval(off)
        assert np.array_equal(bc[:, [0, 2]], bf[:, [0, 2]])
        finite = bc[:, 1] <= t_exit
        assert np.array_equal(finite, bf[:, 1] <= t_exit)
        assert np.array_equal(bc[finite, 1], bf[finite, 1])
    assert common == len(coarse)


def test_one_complex_and_one_persistence_call_per_line(monkeypatch):
    # the bench's per-call observers count bars per compute_persistence call,
    # so each grid line must build its own complex, compute its own barcode
    # and hand exactly that barcode's table to clip_bars
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, args, out))
            return out
        monkeypatch.setattr(fibered, name, wrapped)

    for name in ("build_complex", "compute_persistence", "clip_bars"):
        spy(name, getattr(fibered, name))
    rng = np.random.default_rng(11)
    f = BiGradedField(g1=rng.random((5, 4)), g2=rng.random((5, 4)))
    grid = make_line_grid(f.box, 6)
    lines = compute_fibered_barcode(f, grid)
    names = [name for name, _, _ in calls]
    assert names == ["build_complex", "compute_persistence", "clip_bars"] * len(grid)
    previous = None
    for i in range(len(grid)):
        (_, _, complex_), (_, args, barcode), (_, clip_args, clipped) = calls[3 * i: 3 * i + 3]
        # each call is handed the barcode returned for the line before
        assert args[0] is complex_ and args[1] is previous
        assert clip_args[0] is barcode.table
        assert lines[i] is clipped
        previous = barcode


def test_a_fibered_barcode_does_not_depend_on_the_one_before(monkeypatch):
    # B's last line, whose slice is B.g1, repeats the ranks of A's first line,
    # whose slice is A.g2 shifted; A's second run must still pair that line
    runs = []
    pair_ranks = cubical_persistence._pair_ranks
    monkeypatch.setattr(cubical_persistence, "_pair_ranks",
                        lambda *args: runs.append(1) or pair_ranks(*args))
    rng = np.random.default_rng(12)
    a = BiGradedField(g1=rng.random((5, 6)), g2=rng.random((5, 6)))
    b = BiGradedField(g1=2.0 * a.g2, g2=rng.random((5, 6)))
    tables, counts = [], []
    for f in (a, b, a):
        before = len(runs)
        tables.append(compute_fibered_barcode(f, make_line_grid(f.box, 30)))
        counts.append(len(runs) - before)
    assert len(tables[0]) == len(tables[2]) == 30
    assert all(x.tobytes() == y.tobytes() for x, y in zip(tables[0], tables[2]))
    assert counts[0] == counts[2] < 30


@pytest.mark.parametrize("case", ["disk-28x28", "smooth-16x16x16"])
def test_every_line_matches_labels_of_the_bifiltration_sets(case):
    # the sets {g1 <= t, g2 <= t + b} labelled from g1 and g2 themselves, not
    # from a slice: face-connected components are the alive degree-0 bars, and
    # the bounded fully connected components of the complement, padded with an
    # outside layer, the alive degree-(n-1) bars (Alexander duality)
    if case == "disk-28x28":
        image = synthdata.disk_annulus_images(1, 28, seed=5)[0][0]
        f = compute_glog(Volume(image / 255.0), 0.5, 1.0)
    else:
        volume = np.random.default_rng(7).integers(0, 256, (16, 16, 16))
        f = compute_glog(Volume(volume / 255.0), 1.5, 1.0)
    n = len(f.dims)
    offsets = make_line_grid(f.box, 50).offsets.tolist()
    for b, bc in zip(offsets, line_barcodes(f, offsets)):
        # grades halfway between consecutive breakpoints of the line, so no
        # rounding at a breakpoint decides which voxels a set holds
        values = np.unique(np.concatenate((f.g1.ravel(), f.g2.ravel() - b)))
        gaps = np.diff(values)
        mids = (values[:-1] + gaps / 2)[gaps > 1e-9]
        for t in mids[np.linspace(0, mids.size - 1, 8).round().astype(int)]:
            inside = (f.g1 <= t) & (f.g2 <= t + b)
            assert ndimage.label(inside)[1] == bc.alive_count(t, 0), (b, t)
            outside = np.pad(~inside, 1, constant_values=True)
            holes = ndimage.label(outside, np.ones((3,) * n))[1] - 1
            assert holes == bc.alive_count(t, n - 1), (b, t)
