import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glogtda
from glogtda.bifiltration import compute_glog, slice_scalar_field
from glogtda.cubical_persistence import (
    Bar,
    CubicalComplex,
    _matching_feasible,
    betti_oracle,
    bottleneck,
    build_complex,
    component_count,
    compute_persistence,
)
from glogtda.errors import DomainError, ShapeError
from glogtda.fibered import make_line_grid
from glogtda.volume_io import Volume, normalize
import reference_persistence
import synthdata

INF = math.inf


def bars_set(bc, degree=None):
    return sorted((b.birth, b.death, b.degree) for b in bc.bars
                  if degree is None or b.degree == degree)


# --- complex construction -----------------------------------------------------


def test_cell_counts_2x2():
    c = build_complex(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert c.n_cells == 9
    assert c.structure.counts_by_dim() == {0: 4, 1: 4, 2: 1}
    # the unique square carries the max of all four values
    square = np.nonzero(c.structure.cell_dims == 2)[0][0]
    assert c.grades[square] == 3.0


def test_cell_counts_3x3_constant():
    c = build_complex(np.zeros((3, 3)))
    assert c.n_cells == 25
    assert (c.grades == 0.0).all()


def test_cell_counts_2x2x2():
    c = build_complex(np.zeros((2, 2, 2)))
    assert c.n_cells == 27
    assert c.structure.counts_by_dim() == {0: 8, 1: 12, 2: 6, 3: 1}


@pytest.mark.parametrize("shape", [(3, 4), (3, 2, 3)])
def test_lower_star_grades_match_vertex_maxima(shape):
    rng = np.random.default_rng(0)
    f = rng.random(shape)
    c = build_complex(f)
    doubled = c.structure.doubled
    for pos in itertools.product(*(range(d) for d in doubled)):
        corners = itertools.product(
            *(((p // 2,) if p % 2 == 0 else (p // 2, p // 2 + 1)) for p in pos)
        )
        want = max(f[corner] for corner in corners)
        flat = np.ravel_multi_index(pos, doubled)
        assert c.grades[flat] == want


def test_build_complex_shape_error():
    with pytest.raises(ShapeError):
        build_complex(np.zeros((1, 5)))
    with pytest.raises(DomainError):
        build_complex(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_persistence_reads_voxel_values_not_cell_grades(monkeypatch):
    # the engine ranks the voxel values itself; the cell grades are only for
    # the oracles, so a complex whose grades cannot be read has the same barcode
    rng = np.random.default_rng(6)
    complexes = [build_complex(rng.integers(0, 4, (6, 7))), build_complex(rng.random((4, 5, 3)))]
    want = [compute_persistence(c) for c in complexes]

    def unreadable(self):
        raise AssertionError("compute_persistence read the cell grades")

    monkeypatch.setattr(CubicalComplex, "grades", property(unreadable))
    assert [compute_persistence(c) for c in complexes] == want
    with pytest.raises(AssertionError):
        complexes[0].grades


def test_complex_keeps_a_read_only_copy_of_the_field():
    f = np.arange(6.0).reshape(2, 3)
    c = build_complex(f)
    f[0, 0] = 9.0
    assert c.field[0, 0] == 0.0 and c.field.shape == c.dims
    with pytest.raises(ValueError):
        c.field[0, 0] = 1.0
    signed = build_complex(np.array([[-0.0, 0.0], [1.0, -0.0]]))
    assert not np.signbit(signed.field).any()
    assert compute_persistence(signed).to_csv() == "degree,birth,death\n0,0.0,inf\n"


# --- persistence fixtures ------------------------------------------------------


def test_constant_grid_single_component():
    bc = compute_persistence(build_complex(np.zeros((3, 3))))
    assert bars_set(bc) == [(0.0, INF, 0)]


def test_ring_field():
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    bc = compute_persistence(build_complex(f))
    assert bars_set(bc) == sorted([(0.0, INF, 0), (0.0, 1.0, 1)])


def test_two_components():
    f = np.ones((3, 3))
    f[0, 0] = 0.0
    f[2, 2] = 0.0
    bc = compute_persistence(build_complex(f))
    assert bars_set(bc, 0) == [(0.0, 1.0, 0), (0.0, INF, 0)]


def test_nonempty_complex_has_infinite_degree0_bar():
    rng = np.random.default_rng(1)
    for _ in range(10):
        bc = compute_persistence(build_complex(rng.random((4, 4))))
        assert any(b.degree == 0 and b.death == INF for b in bc.bars)
        assert all(b.death > b.birth for b in bc.bars)


def test_determinism():
    rng = np.random.default_rng(2)
    f = rng.integers(0, 4, (5, 5)).astype(float)
    a = compute_persistence(build_complex(f))
    b = compute_persistence(build_complex(f.copy()))
    assert a == b


# --- oracle equivalence ---------------------------------------------------------


def test_betti_oracle_fixtures():
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    c = build_complex(f)
    assert betti_oracle(c, 0.0) == [1, 1]  # ring at threshold 0
    assert betti_oracle(c, 1.0) == [1, 0]
    assert betti_oracle(c, -0.5) == [0, 0]  # empty sublevel


def test_alive_bars_match_betti_oracle_2d():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = rng.integers(0, 6, (4, 4)).astype(float) / 5.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert [bc.alive_count(t, k) for k in range(2)] == betti_oracle(c, t)


def test_alive_bars_match_betti_oracle_3d():
    rng = np.random.default_rng(4)
    for _ in range(8):
        f = rng.integers(0, 5, (3, 3, 3)).astype(float) / 4.0
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert [bc.alive_count(t, k) for k in range(3)] == betti_oracle(c, t)


def test_degree0_union_find_check():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.integers(0, 5, (5, 4)).astype(float)
        c = build_complex(f)
        bc = compute_persistence(c)
        for t in np.unique(c.grades):
            assert bc.alive_count(t, 0) == component_count(c, t)


def kernel_basis_f2(cols):
    """Kernel vectors of a column family over F2 (columns as bit ints)."""
    pivots = {}
    kernel = []
    for j, col in enumerate(cols):
        combo = 1 << j
        while col:
            p = col.bit_length() - 1
            if p not in pivots:
                pivots[p] = (col, combo)
                break
            pc, pcombo = pivots[p]
            col ^= pc
            combo ^= pcombo
        else:
            kernel.append(combo)
    return kernel


def rank_f2(cols):
    pivots = {}
    rank = 0
    for col in cols:
        while col:
            p = col.bit_length() - 1
            if p not in pivots:
                pivots[p] = col
                rank += 1
                break
            col ^= pivots[p]
    return rank, pivots


def persistent_rank(c, s, t, k):
    """Rank of H_k(sublevel s) -> H_k(sublevel t): dim (Z_s + B_t) - dim B_t.

    Independent of the pairing algorithm: kernel and image spaces come from
    fresh Gaussian eliminations on the two subcomplexes.
    """
    st = c.structure
    keep_s = c.grades <= s
    keep_t = c.grades <= t
    k_cells_s = np.nonzero(keep_s & (st.cell_dims == k))[0].tolist()
    boundary_cols = []
    for cell in k_cells_s:
        col = 0
        for f in st.faces[cell].tolist():
            if f >= 0:
                col ^= 1 << f
        boundary_cols.append(col)
    # kernel combos are expressed over the k-cells of X_s; re-express them as
    # bit sets over raw cell ids so they live in the same space as boundaries
    cycles = []
    for combo in kernel_basis_f2(boundary_cols):
        vec = 0
        j = 0
        while combo:
            if combo & 1:
                vec ^= 1 << k_cells_s[j]
            combo >>= 1
            j += 1
        cycles.append(vec)
    b_cols = []
    for cell in np.nonzero(keep_t & (st.cell_dims == k + 1))[0].tolist():
        col = 0
        for f in st.faces[cell].tolist():
            if f >= 0:
                col ^= 1 << f
        b_cols.append(col)
    rank_b, pivots = rank_f2(b_cols)
    rank_zb = rank_b
    for vec in cycles:
        while vec:
            p = vec.bit_length() - 1
            if p not in pivots:
                pivots[p] = vec
                rank_zb += 1
                break
            vec ^= pivots[p]
    return rank_zb - rank_b


def test_pairing_matches_persistent_rank_oracle():
    rng = np.random.default_rng(8)
    for shape, degrees in (((4, 4), 2), ((3, 3, 3), 3)):
        for _ in range(6):
            f = rng.integers(0, 5, shape).astype(float) / 4.0
            c = build_complex(f)
            bc = compute_persistence(c)
            grades = np.unique(c.grades)
            for i, s in enumerate(grades):
                for t in grades[i:]:
                    for k in range(degrees):
                        alive = sum(
                            1 for b in bc.bars
                            if b.degree == k and b.birth <= s and b.death > t
                        )
                        assert alive == persistent_rank(c, s, t, k), (shape, s, t, k)


@pytest.mark.parametrize(
    "shape",
    [(2, 2), (2, 5), (4, 7), (9, 9), (2, 2, 2), (2, 3, 4), (5, 4, 6), (7, 7, 7),
     (2,), (9,), (2, 9), (2, 2, 9)],  # last four: 1D and slab shapes
)
def test_engine_matches_bitset_reference(shape):
    # integer fields with few levels are full of ties, which the total order
    # breaks by dimension and anchor; the bars and their order must agree
    rng = np.random.default_rng(sum(shape))
    for levels in (1, 2, 3, 5, None):
        for _ in range(20):
            f = rng.random(shape) if levels is None else rng.integers(0, levels, shape)
            c = build_complex(f)
            assert compute_persistence(c) == reference_persistence.compute_persistence(c)


@pytest.mark.parametrize("case", ["noise-16x16x16", "disk-28x28"])
def test_engine_matches_bitset_reference_on_smoothed_volume_slices(case):
    # the 2D case is the bench's setting, where the dual union-find skips the
    # edges that degree 0 merged
    if case == "disk-28x28":
        image = synthdata.disk_annulus_images(1, 28, seed=9)[0][0]
        field = compute_glog(normalize(Volume(image)), 0.5, 1.0)
    else:
        rng = np.random.default_rng(9)
        field = compute_glog(normalize(Volume(rng.integers(0, 256, (16, 16, 16)))), 1.5, 1.0)
    grid = make_line_grid(field.box, 50)
    for offset in grid.offsets[[12, 25, 37]]:
        c = build_complex(slice_scalar_field(field, float(offset)))
        assert compute_persistence(c) == reference_persistence.compute_persistence(c)


def test_one_parameter_stability():
    rng = np.random.default_rng(6)
    for _ in range(15):
        f = rng.random((5, 5))
        g = np.clip(f + rng.uniform(-0.15, 0.15, (5, 5)), 0, 1)
        bf = compute_persistence(build_complex(f))
        bg = compute_persistence(build_complex(g))
        eps = np.abs(f - g).max()
        for k in range(2):
            assert bottleneck(bf.at_degree(k), bg.at_degree(k)) <= eps + 1e-9


# --- bottleneck -----------------------------------------------------------------


def brute_bottleneck(bars_a, bars_b):
    fa = [(b[0], b[1]) for b in bars_a if not math.isinf(b[1])]
    fb = [(b[0], b[1]) for b in bars_b if not math.isinf(b[1])]
    ia = sorted(b[0] for b in bars_a if math.isinf(b[1]))
    ib = sorted(b[0] for b in bars_b if math.isinf(b[1]))
    if len(ia) != len(ib):
        return INF
    inf_cost = 0.0
    if ia:
        inf_cost = min(
            max(abs(x - y) for x, y in zip(ia, perm))
            for perm in itertools.permutations(ib)
        )

    def half(bar):
        return (bar[1] - bar[0]) / 2.0

    def dist(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    best = INF

    def rec(i, used, cur):
        nonlocal best
        if cur >= best:
            return
        if i == len(fa):
            rest = max((half(fb[j]) for j in range(len(fb)) if j not in used), default=0.0)
            best = min(best, max(cur, rest))
            return
        rec(i + 1, used, max(cur, half(fa[i])))
        for j in range(len(fb)):
            if j not in used:
                rec(i + 1, used | {j}, max(cur, dist(fa[i], fb[j])))

    rec(0, frozenset(), 0.0)
    return max(inf_cost, best)


def test_bottleneck_fixtures():
    assert bottleneck([(0.0, 1.0)], [(0.0, 1.0)]) == 0.0
    assert bottleneck([(0.0, 4.0)], []) == 2.0
    assert bottleneck([], []) == 0.0
    assert bottleneck([(0.0, INF)], []) == INF
    assert bottleneck([(0.0, INF)], [(0.7, INF)]) == pytest.approx(0.7)
    assert bottleneck([(0.0, INF), (1.0, 2.0)], [(0.2, INF), (1.0, 2.2)]) == pytest.approx(0.2)


def test_bottleneck_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(120):
        n_a = rng.integers(0, 7)
        n_b = rng.integers(0, 7)

        def bars(n):
            out = []
            for _ in range(n):
                birth = rng.uniform(0, 2)
                if rng.random() < 0.15:
                    out.append((birth, INF))
                else:
                    out.append((birth, birth + rng.uniform(0, 2)))
            return out

        a, b = bars(n_a), bars(n_b)
        got = bottleneck(a, b)
        want = brute_bottleneck(a, b)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_matching_feasible_agrees_with_augmented_graph_search():
    rng = np.random.default_rng(10)
    for _ in range(3000):
        n_a, n_b = rng.integers(0, 8, 2)
        adj = rng.random((n_a, n_b)) < rng.random()
        drop_a = rng.random(n_a) < rng.random()
        drop_b = rng.random(n_b) < rng.random()
        want = reference_persistence._matching_feasible(adj, drop_a, drop_b)
        assert _matching_feasible(adj, drop_a, drop_b) == want


def test_matching_feasible_skips_sides_without_required_bars(monkeypatch):
    import scipy.sparse.csgraph

    def unreachable(*args, **kwargs):
        raise AssertionError("matched a side that has no required bar")

    monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", unreachable)
    adj = np.random.default_rng(11).random((4, 3)) < 0.5
    assert _matching_feasible(adj, np.ones(4, dtype=bool), np.ones(3, dtype=bool))
    assert _matching_feasible(np.zeros((0, 2), dtype=bool), np.zeros(0, dtype=bool),
                              np.ones(2, dtype=bool))


def test_bottleneck_accepts_bar_tuples():
    a = [Bar(0.0, 1.0, 1)]
    b = [Bar(0.1, 1.1, 1)]
    assert bottleneck(a, b) == pytest.approx(0.1)


def test_bottleneck_long_augmenting_paths_need_no_recursion():
    # consecutive bars are 0.25 apart, so matching a_{i+1} to b_i is cheaper
    # than the diagonal pairing and the search meets augmenting paths that run
    # through hundreds of bars; a recursive search needs a frame per step
    a = [(0.25 * i, 0.25 * i + 200.0) for i in range(400)]
    b = [(x + 0.5, y + 0.5) for x, y in a]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert bottleneck(a, b) == 0.5
    finally:
        sys.setrecursionlimit(limit)


def test_extraction_leaves_scipy_unimported():
    # scipy's import time and memory would land on every extraction run, which
    # never compares barcodes; only bottleneck may load it
    script = """
import sys
import numpy as np
import glogtda
rng = np.random.default_rng(0)
f = glogtda.compute_glog(glogtda.Volume(rng.random((8, 8))), 0.5, 1.0)
cfg = glogtda.MpiConfig(f.box, resolution=(8, 8))
glogtda.build_features([f], cfg, grid=glogtda.make_line_grid(cfg.box, 4))
assert not [m for m in sys.modules if m.startswith("scipy")], sorted(sys.modules)
assert glogtda.bottleneck([(0.0, 1.0)], [(0.0, 1.5)]) == 0.5
assert "scipy.sparse.csgraph" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(glogtda.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- export ---------------------------------------------------------------------


def test_barcode_csv():
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    bc = compute_persistence(build_complex(f))
    csv = bc.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "degree,birth,death"
    assert "0,0.0,inf" in lines
    assert "1,0.0,1.0" in lines
