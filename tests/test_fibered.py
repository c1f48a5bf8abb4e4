import numpy as np
import pytest

from glogtda import fibered
from glogtda.bifiltration import BiGradedField, Line, slice_scalar_field, sup_distance, union_box
from glogtda.cubical_persistence import betti_oracle, bottleneck, build_complex, compute_persistence
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
    for offset, bars in zip(grid.offsets.tolist(), fb.barcodes):
        assert len(bars) == 1
        bar = bars[0]
        assert bar.degree == 0 and bar.was_infinite
        assert bar.birth == max(c1, c2 - offset)


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
    assert fb.barcodes[0] == expected


def test_fibered_bars_match_sliced_betti_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = BiGradedField(g1=rng.random((4, 4)), g2=rng.uniform(-0.5, 0.5, (4, 4)))
        grid = make_line_grid(f.box, 9)
        fb = compute_fibered_barcode(f, grid)
        for li, offset in enumerate(grid.offsets.tolist()):
            c = build_complex(slice_scalar_field(f, Line(offset)))
            t_enter, t_exit = grid.crossing_interval(offset)
            for t in np.unique(c.grades):
                if not (t_enter <= t < t_exit):
                    continue
                betti = betti_oracle(c, t)
                for k in range(2):
                    alive = sum(
                        1 for b in fb.barcodes[li]
                        if b.degree == k and b.birth <= t < b.death
                    )
                    assert alive == betti[k]


def test_bar_births_respect_entry_parameter():
    rng = np.random.default_rng(1)
    f = BiGradedField(g1=rng.random((5, 5)), g2=rng.uniform(-1, 1, (5, 5)))
    grid = make_line_grid(f.box, 12)
    fb = compute_fibered_barcode(f, grid)
    for offset, bars in zip(grid.offsets.tolist(), fb.barcodes):
        t_enter, _ = grid.crossing_interval(offset)
        for b in bars:
            assert b.birth >= t_enter - 1e-9


def test_infinite_bars_clipped_with_flag():
    f = BiGradedField(g1=np.zeros((3, 3)), g2=np.zeros((3, 3)))
    grid = make_line_grid(f.box, 3)
    fb = compute_fibered_barcode(f, grid)
    mid = len(grid) // 2
    bar = fb.barcodes[mid][0]
    assert bar.was_infinite
    t_enter, t_exit = grid.crossing_interval(grid.offsets[mid])
    assert bar.death == pytest.approx(max(t_exit, bar.birth) + grid.delta)


def test_coverage_violation_raises_and_allow_clip():
    f = BiGradedField(g1=np.array([[0.0, 2.0], [0.5, 1.0]]), g2=np.zeros((2, 2)))
    small = make_line_grid((0.0, 0.0, 1.0, 1.0), 5)
    with pytest.raises(ParameterError):
        compute_fibered_barcode(f, small)
    fb = compute_fibered_barcode(f, small, allow_clip=True)
    for bars in fb.barcodes:
        for b in bars:
            assert b.birth >= small.box[0] - 1e-9 or b.birth >= small.box[1] - 1e-9


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
                bn = bottleneck(
                    [(b.birth, b.death) for b in fb_f.bars_at(li, k)],
                    [(b.birth, b.death) for b in fb_h.bars_at(li, k)],
                )
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
            bn = bottleneck(
                [(b.birth, b.death) for b in fb_f.bars_at(li, k)],
                [(b.birth, b.death) for b in fb_h.bars_at(li, k)],
            )
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
        strip = lambda bars: [(b.birth, b.degree, b.was_infinite) for b in bars]
        # deltas differ, so compare everything except the delta-stub deaths
        assert strip(fb_coarse.barcodes[i]) == strip(fb_fine.barcodes[j])
        for bc, bf in zip(fb_coarse.barcodes[i], fb_fine.barcodes[j]):
            if not bc.was_infinite:
                assert bc.death == bf.death
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
