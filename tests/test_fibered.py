import numpy as np
import pytest

from glogtda import fibered
from glogtda.bifiltration import BiGradedField, slice_scalar_field, sup_distance, union_box
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
    make_line_grid,
)


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


def test_grid_covers():
    grid = make_line_grid((0.0, 0.0, 1.0, 1.0), 3)
    assert grid.covers((0.1, 0.1, 0.9, 0.9))
    assert not grid.covers((-0.5, 0.0, 1.0, 1.0))


def test_constant_field_single_bar_every_line():
    c1, c2 = 0.4, 0.7
    f = BiGradedField(g1=np.full((4, 4), c1), g2=np.full((4, 4), c2))
    grid = make_line_grid(f.box, 7)
    fb = compute_fibered_barcode(f, grid)
    # the two end lines only touch the widened box: the class is born at or
    # past t_exit + delta there, so the clip leaves it no row
    assert [len(bars) for bars in fb.barcodes] == [0, 1, 1, 1, 1, 1, 0]
    for offset, bars in zip(grid.offsets.tolist()[1:-1], fb.barcodes[1:-1]):
        birth, death, degree, was_infinite = bars[0]
        assert degree == 0 and was_infinite
        assert birth == max(c1, c2 - offset)
        _, t_exit = grid.crossing_interval(offset)
        assert death == t_exit + grid.delta


def test_zero_g2_line_at_origin_reproduces_single_parameter():
    g1 = np.zeros((5, 5))
    g1[2, 2] = 1.0
    g1[1, 3] = 0.5
    f = BiGradedField(g1=g1, g2=np.zeros((5, 5)))
    box = f.box
    grid = LineGrid(np.array([0.0]), 0.5, box)
    fb = compute_fibered_barcode(f, grid)
    single = compute_persistence(build_complex(g1))
    t_enter, t_exit = grid.crossing_interval(0.0)
    expected = clip_bars(single.bars, t_enter, t_exit, grid.delta, (0, 1))
    assert np.array_equal(fb.barcodes[0], expected)


def test_fibered_bars_match_sliced_betti_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = BiGradedField(g1=rng.random((4, 4)), g2=rng.uniform(-0.5, 0.5, (4, 4)))
        grid = make_line_grid(f.box, 9)
        fb = compute_fibered_barcode(f, grid)
        for li, offset in enumerate(grid.offsets.tolist()):
            c = build_complex(slice_scalar_field(f, offset))
            t_enter, t_exit = grid.crossing_interval(offset)
            for t in np.unique(c.grades):
                if not (t_enter <= t < t_exit):
                    continue
                betti = betti_oracle(c, t)
                birth, death, degree, _ = fb.barcodes[li].T
                for k in range(2):
                    alive = np.count_nonzero((degree == k) & (birth <= t) & (t < death))
                    assert alive == betti[k]


def test_bar_births_respect_entry_parameter():
    rng = np.random.default_rng(1)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.uniform(-1, 1, (5, 5)))
    grid = make_line_grid(f.box, 12)
    fb = compute_fibered_barcode(f, grid)
    for offset, bars in zip(grid.offsets.tolist(), fb.barcodes):
        t_enter, _ = grid.crossing_interval(offset)
        assert (bars[:, 0] >= t_enter - 1e-9).all()


def test_infinite_bars_clipped_with_flag():
    f = BiGradedField(g1=np.zeros((3, 3)), g2=np.zeros((3, 3)))
    grid = make_line_grid(f.box, 3)
    fb = compute_fibered_barcode(f, grid)
    mid = len(grid) // 2
    birth, death, _, was_infinite = fb.barcodes[mid][0]
    assert was_infinite
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])
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
        out = clip_bars(bars, t_enter, t_exit, delta, (0, 1))
        assert out.dtype == np.float64 and out.shape[1] == 4
        with pytest.raises(ValueError):
            out[:, 0] = 0.0
        b, d, k, was_inf = out.T
        assert ((t_enter <= b) & (b < d)).all()
        assert (d[was_inf == 0] <= t_exit).all()
        assert (d[was_inf == 1] == t_exit + delta).all()
        assert set(k.tolist()) <= {0.0, 1.0}
        assert np.lexsort((d, b, k)).tolist() == list(range(len(out)))
        # a bar is dropped exactly when its clipped interval is empty
        clipped = [
            (max(x.birth, t_enter), t_exit + delta if np.isinf(x.death) else min(x.death, t_exit),
             x.degree, np.isinf(x.death))
            for x in bars if x.degree in (0, 1)
        ]
        want = sorted((r for r in clipped if r[1] > r[0]), key=lambda r: (r[2], r[0], r[1]))
        assert out.tolist() == [[b_, d_, float(k_), float(i_)] for b_, d_, k_, i_ in want]


def test_coverage_violation_raises_and_allow_clip():
    f = BiGradedField(g1=np.array([[0.0, 2.0], [0.5, 1.0]]), g2=np.zeros((2, 2)))
    small = make_line_grid((0.0, 0.0, 1.0, 1.0), 5)
    with pytest.raises(ParameterError):
        compute_fibered_barcode(f, small)
    fb = compute_fibered_barcode(f, small, allow_clip=True)
    for bars in fb.barcodes:
        birth = bars[:, 0]
        assert ((birth >= small.box[0] - 1e-9) | (birth >= small.box[1] - 1e-9)).all()


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
        fb_f = compute_fibered_barcode(f, grid)
        fb_h = compute_fibered_barcode(h, grid)
        for li in range(len(grid)):
            for k in (0, 1):
                bn = bottleneck(fb_f.bars_at(li, k)[:, :2], fb_h.bars_at(li, k)[:, :2])
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
    fb_f = compute_fibered_barcode(f, grid)
    fb_h = compute_fibered_barcode(h, grid)
    for li in range(len(grid)):
        for k in (0, 1, 2):
            bn = bottleneck(fb_f.bars_at(li, k)[:, :2], fb_h.bars_at(li, k)[:, :2])
            assert bn <= d + 1e-9


def test_monotone_refinement():
    rng = np.random.default_rng(3)
    f = BiGradedField(g1=rng.random((4, 4)), g2=rng.random((4, 4)))
    coarse = make_line_grid(f.box, 7)
    fine = make_line_grid(f.box, 13)  # doubles the resolution: 2L-1 lines
    fb_coarse = compute_fibered_barcode(f, coarse)
    fb_fine = compute_fibered_barcode(f, fine)
    common = 0
    for i, off in enumerate(coarse.offsets.tolist()):
        matches = np.nonzero(fine.offsets == off)[0]
        if len(matches) == 0:
            continue
        j = int(matches[0])
        common += 1
        bc, bf = fb_coarse.barcodes[i], fb_fine.barcodes[j]
        # deltas differ, so compare everything except the infinite bars'
        # deaths, which are t_exit + delta
        assert np.array_equal(bc[:, [0, 2, 3]], bf[:, [0, 2, 3]])
        finite = bc[:, 3] == 0
        assert np.array_equal(bc[finite, 1], bf[finite, 1])
    assert common == len(coarse)


def test_fibered_csv():
    f = BiGradedField(g1=np.zeros((3, 3)), g2=np.zeros((3, 3)))
    grid = make_line_grid(f.box, 3)
    fb = compute_fibered_barcode(f, grid)
    csv = fb.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "offset,degree,birth,death,was_infinite"
    assert len(lines) == 1 + sum(len(b) for b in fb.barcodes)
    assert lines[1].endswith(",1")  # constant field bars are clipped essentials


def test_one_complex_and_one_persistence_call_per_line(monkeypatch):
    # the bench's per-call observers count bars per compute_persistence call,
    # so each grid line must build its own complex, compute its own barcode
    # and hand exactly those bars to clip_bars
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
    fb = compute_fibered_barcode(f, grid)
    names = [name for name, _, _ in calls]
    assert names == ["build_complex", "compute_persistence", "clip_bars"] * len(grid)
    for i in range(len(grid)):
        (_, _, complex_), (_, (arg,), barcode), (_, clip_args, clipped) = calls[3 * i: 3 * i + 3]
        assert arg is complex_
        assert clip_args[0] is barcode.bars
        assert fb.barcodes[i] is clipped
