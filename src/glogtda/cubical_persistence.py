"""Lower-star cubical complexes and one-parameter persistent homology over F2.

Grids are modeled with the V-construction: voxels are vertices and the cells
of the full complex are the elementary cubes of the grid, indexed by a
"doubled" grid of shape (2 d_1 - 1, ..., 2 d_n - 1). A position with k odd
coordinates is a k-cell; its codimension-1 faces sit one step away along each
odd axis. Every cell carries the maximum of its vertices' scalar values
(lower-star rule), which makes grades face-monotone by construction.

compute_persistence pairs cells with the standard column reduction over the
two-element field, run top-down with the clearing optimization; degree 0 is
handled by the equivalent union-find pairing (same barcode, near-linear).
Columns are Python integers used as bit sets, so column additions are single
XORs. betti_oracle is a deliberately independent check: plain Gaussian
elimination ranks of the boundary operators of a sublevel subcomplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, ShapeError

INF = math.inf


class Bar(NamedTuple):
    birth: float
    death: float
    degree: int


@dataclass(frozen=True)
class Barcode:
    """Multiset of persistence intervals, canonically sorted."""

    bars: tuple[Bar, ...]

    def at_degree(self, degree: int) -> list[Bar]:
        return [b for b in self.bars if b.degree == degree]

    def alive_count(self, t: float, degree: int) -> int:
        """Number of degree-k bars with birth <= t < death."""
        return sum(1 for b in self.bars if b.degree == degree and b.birth <= t < b.death)

    def to_csv(self) -> str:
        lines = ["degree,birth,death"]
        for b in self.bars:
            death = "inf" if b.death == INF else repr(b.death)
            lines.append(f"{b.degree},{repr(b.birth)},{death}")
        return "\n".join(lines) + "\n"


class _Structure:
    """Grade-independent combinatorics of the full complex for fixed dims."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        self.doubled = tuple(2 * d - 1 for d in dims)
        n = len(dims)
        n_cells = int(np.prod(self.doubled))
        self.n_cells = n_cells

        coords = np.indices(self.doubled).reshape(n, n_cells)
        parity = coords % 2
        self.cell_dims = parity.sum(axis=0).astype(np.int8)

        strides = np.cumprod((1,) + self.doubled[::-1][:-1])[::-1].astype(np.int64)
        faces = np.full((n_cells, 2 * n), -1, dtype=np.int64)
        flat = np.arange(n_cells, dtype=np.int64)
        for ax in range(n):
            odd = parity[ax].astype(bool)
            faces[odd, 2 * ax] = flat[odd] - strides[ax]
            faces[odd, 2 * ax + 1] = flat[odd] + strides[ax]
        self.faces = faces
        # native rows for the hot reduction loop
        self.face_rows: list[tuple[int, ...]] = [
            tuple(int(f) for f in row if f >= 0) for row in faces
        ]

    def counts_by_dim(self) -> dict[int, int]:
        dims, counts = np.unique(self.cell_dims, return_counts=True)
        return {int(d): int(c) for d, c in zip(dims, counts)}


_structure_cache: dict[tuple[int, ...], _Structure] = {}


def _structure_for(dims: tuple[int, ...]) -> _Structure:
    st = _structure_cache.get(dims)
    if st is None:
        st = _structure_cache[dims] = _Structure(dims)
    return st


@dataclass(frozen=True)
class CubicalComplex:
    """Full cubical complex of a grid with lower-star grades per cell."""

    structure: _Structure
    grades: np.ndarray  # flat, one grade per doubled-grid cell

    @property
    def dims(self) -> tuple[int, ...]:
        return self.structure.dims

    @property
    def n(self) -> int:
        return len(self.structure.dims)

    @property
    def n_cells(self) -> int:
        return self.structure.n_cells


def _interleave_max(a: np.ndarray, axis: int) -> np.ndarray:
    d = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = 2 * d - 1
    out = np.empty(shape, dtype=a.dtype)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(0, 2 * d - 1, 2)
    out[tuple(sl)] = a
    lo = [slice(None)] * a.ndim
    hi = [slice(None)] * a.ndim
    lo[axis] = slice(0, d - 1)
    hi[axis] = slice(1, d)
    sl[axis] = slice(1, 2 * d - 1, 2)
    out[tuple(sl)] = np.maximum(a[tuple(lo)], a[tuple(hi)])
    return out


def build_complex(field: np.ndarray) -> CubicalComplex:
    """Lower-star complex of a scalar field (every dim must be >= 2)."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim < 1 or any(d < 2 for d in arr.shape):
        raise ShapeError(f"field dims must all be >= 2, got shape {arr.shape}")
    grades = arr
    for ax in range(arr.ndim):
        grades = _interleave_max(grades, ax)
    return CubicalComplex(_structure_for(arr.shape), grades.ravel())


def _check_monotone(c: CubicalComplex) -> None:
    faces = c.structure.faces
    valid = faces >= 0
    face_grades = c.grades[np.where(valid, faces, 0)]
    if not np.all(np.where(valid, face_grades <= c.grades[:, None], True)):
        raise PreconditionError("cell grades are not monotone under the face relation")


def compute_persistence(c: CubicalComplex) -> Barcode:
    """Barcode of the sublevel filtration, degrees 0..n-1, over F2.

    Finite bars come from reduced-column pivots (union-find pairing in degree
    0), infinite bars from unpaired positive cells. Zero-length pairs are
    discarded. Ties are broken by (grade, dimension, anchor position), so the
    output is deterministic.
    """
    _check_monotone(c)
    st = c.structure
    n = len(st.dims)
    grades = c.grades
    cell_dims = st.cell_dims

    order = np.lexsort((cell_dims, grades))  # grade, then dim, then anchor (stable)
    pos = np.empty(st.n_cells, dtype=np.int64)
    pos[order] = np.arange(st.n_cells)
    order_list = order.tolist()
    pos_list = pos.tolist()
    grade_list = grades.tolist()
    dims_sorted = cell_dims[order]

    bars: list[Bar] = []

    # --- degree 0: union-find over vertices and edges, elder rule -----------
    parent = list(range(st.n_cells))  # only vertex entries are used

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    face_rows = st.face_rows
    cycle_edges: list[int] = []  # sorted positions of edges that close cycles
    for i in np.nonzero(dims_sorted == 1)[0].tolist():
        cell = order_list[i]
        u, v = face_rows[cell]
        ru, rv = find(u), find(v)
        if ru == rv:
            cycle_edges.append(i)
            continue
        # smaller sorted position = older component; its root survives
        if pos_list[ru] > pos_list[rv]:
            ru, rv = rv, ru
        g_birth = grade_list[rv]
        g_death = grade_list[cell]
        if g_death > g_birth:
            bars.append(Bar(g_birth, g_death, 0))
        parent[rv] = ru

    for i in np.nonzero(dims_sorted == 0)[0].tolist():
        v = order_list[i]
        if find(v) == v:
            bars.append(Bar(grade_list[v], INF, 0))

    # --- degrees >= 1: twist reduction with clearing, top dimension first ---
    cleared = bytearray(st.n_cells)  # indexed by sorted position
    for k in range(n, 1, -1):
        pivot_cols: dict[int, int] = {}
        for i in np.nonzero(dims_sorted == k)[0].tolist():
            if cleared[i]:
                continue
            cell = order_list[i]
            col = 0
            for f in face_rows[cell]:
                col ^= 1 << pos_list[f]
            p = -1
            while col:
                p = col.bit_length() - 1
                other = pivot_cols.get(p)
                if other is None:
                    break
                col ^= other
            if col:
                pivot_cols[p] = col
                cleared[p] = 1
                creator = order_list[p]
                g_birth = grade_list[creator]
                g_death = grade_list[cell]
                if g_death > g_birth:
                    bars.append(Bar(g_birth, g_death, k - 1))
            elif k < n:
                bars.append(Bar(grade_list[cell], INF, k))

    for i in cycle_edges:
        if not cleared[i]:
            bars.append(Bar(grade_list[order_list[i]], INF, 1))

    bars = [b for b in bars if b.degree < n]
    bars.sort(key=lambda b: (b.degree, b.birth, b.death))
    return Barcode(tuple(bars))


def betti_oracle(c: CubicalComplex, t: float) -> list[int]:
    """Betti numbers beta_0..beta_{n-1} of the sublevel subcomplex at t.

    Computed from scratch as boundary-operator ranks via Gaussian elimination
    over F2 (bit-set columns keyed by raw cell ids, no filtration ordering
    involved). Cubic in the cell count; intended for small complexes only.
    """
    st = c.structure
    n = len(st.dims)
    keep = c.grades <= t
    counts = [0] * (n + 1)
    ranks = [0] * (n + 2)
    cells_by_dim: dict[int, np.ndarray] = {}
    for k in range(n + 1):
        sel = np.nonzero(keep & (st.cell_dims == k))[0]
        counts[k] = int(sel.size)
        cells_by_dim[k] = sel
    for k in range(1, n + 1):
        pivots: dict[int, int] = {}
        rank = 0
        for cell in cells_by_dim[k].tolist():
            col = 0
            for f in st.face_rows[cell]:
                col ^= 1 << f
            while col:
                p = col.bit_length() - 1
                other = pivots.get(p)
                if other is None:
                    pivots[p] = col
                    rank += 1
                    break
                col ^= other
        ranks[k] = rank
    return [counts[k] - ranks[k] - ranks[k + 1] for k in range(n)]


def component_count(c: CubicalComplex, t: float) -> int:
    """Connected components of the vertex-edge subgraph at threshold t."""
    st = c.structure
    keep = c.grades <= t
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in np.nonzero(keep & (st.cell_dims == 0))[0].tolist():
        parent[v] = v
    for e in np.nonzero(keep & (st.cell_dims == 1))[0].tolist():
        u, v = st.face_rows[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    return sum(1 for v in parent if parent[v] == v)


# --- bottleneck distance ----------------------------------------------------


def _split_bars(bars) -> tuple[list[tuple[float, float]], list[float]]:
    finite, infinite = [], []
    for b in bars:
        birth, death = float(b[0]), float(b[1])
        if math.isinf(death):
            infinite.append(birth)
        else:
            finite.append((birth, death))
    return finite, infinite


def _matching_feasible(adj: np.ndarray, drop_a: np.ndarray, drop_b: np.ndarray) -> bool:
    """Perfect matching test on the diagonal-augmented bar graph.

    Left vertices are the first barcode's bars plus one diagonal copy per bar
    of the second; right vertices symmetrically. A bar may pair with a bar of
    the other side (adj), or with its own diagonal copy when droppable;
    diagonal copies pair freely with each other.
    """
    n_a, n_b = adj.shape
    size = n_a + n_b
    match_left = [-1] * size  # left index -> right index
    match_right = [-1] * size

    def neighbors(u):
        if u < n_a:
            for j in np.nonzero(adj[u])[0].tolist():
                yield j
            if drop_a[u]:
                yield n_b + u  # own diagonal copy
        else:
            j = u - n_a
            if drop_b[j]:
                yield j
            yield from range(n_b, size)  # any diagonal copy of A

    def augment(root) -> bool:
        # depth-first search for an augmenting path on an explicit stack, so
        # long paths cannot hit the recursion limit; path[i] is the right
        # vertex through which stack[i + 1] was reached
        seen = [False] * size
        stack = [(root, neighbors(root))]
        path = []
        while stack:
            candidates = stack[-1][1]
            v = next((v for v in candidates if not seen[v]), None)
            if v is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen[v] = True
            if match_right[v] == -1:
                for (w, _), x in zip(stack, path + [v]):
                    match_left[w] = x
                    match_right[x] = w
                return True
            path.append(v)
            stack.append((match_right[v], neighbors(match_right[v])))
        return False

    return all(augment(u) for u in range(size))


def bottleneck(bars_a: Sequence, bars_b: Sequence) -> float:
    """Bottleneck distance between two fixed-degree barcodes.

    Bars are (birth, death[, ...]) tuples; death may be +inf. Infinite bars
    must pair with infinite bars (cost |birth difference|), so the distance is
    +inf when their counts differ. The finite part is the min over partial
    matchings of the max of matched sup-norm distances and unmatched
    half-persistences, found by binary search over the candidate distances.
    """
    fa, ia = _split_bars(bars_a)
    fb, ib = _split_bars(bars_b)
    if len(ia) != len(ib):
        return INF
    cost_inf = 0.0
    if ia:
        cost_inf = max(abs(x - y) for x, y in zip(sorted(ia), sorted(ib)))
    if not fa and not fb:
        return cost_inf

    A = np.asarray(fa, dtype=np.float64).reshape(-1, 2)
    B = np.asarray(fb, dtype=np.float64).reshape(-1, 2)
    half_a = (A[:, 1] - A[:, 0]) / 2.0
    half_b = (B[:, 1] - B[:, 0]) / 2.0
    if len(fa) == 0:
        return max(cost_inf, float(half_b.max(initial=0.0)))
    if len(fb) == 0:
        return max(cost_inf, float(half_a.max(initial=0.0)))

    D = np.maximum(
        np.abs(A[:, 0, None] - B[None, :, 0]), np.abs(A[:, 1, None] - B[None, :, 1])
    )

    def feasible(r: float) -> bool:
        return _matching_feasible(D <= r, half_a <= r, half_b <= r)

    # every bar needs some option within r
    lb_a = np.minimum(half_a, D.min(axis=1))
    lb_b = np.minimum(half_b, D.min(axis=0))
    lower = max(lb_a.max(initial=0.0), lb_b.max(initial=0.0))
    candidates = np.unique(np.concatenate([D.ravel(), half_a, half_b]))
    candidates = candidates[candidates >= lower]
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return max(cost_inf, float(candidates[lo]))
