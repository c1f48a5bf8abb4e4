"""Lower-star cubical complexes and one-parameter persistent homology over F2.

Grids are modeled with the V-construction: voxels are vertices and the cells
of the full complex are the elementary cubes of the grid, indexed by a
"doubled" grid of shape (2 d_1 - 1, ..., 2 d_n - 1). A position with k odd
coordinates is a k-cell; its codimension-1 faces sit one step away along each
odd axis. Every cell carries the maximum of its vertices' scalar values
(lower-star rule), which makes grades face-monotone by construction.

compute_persistence pairs cells over the two-element field without a
boundary-matrix reduction in degrees 0 and n-1: numpy finds the apparent
pairs (Bauer, "Ripser", 2021), union-find pairs degree 0 and, by duality,
degree n-1 on the dual graph of top cells plus an exterior node (Garin et
al., "Duality in persistent homology of images", 2020). Only the degrees in
between (H1 of a 3D grid) reduce columns, and only those of the few cells
left unpaired. betti_oracle is a deliberately independent check: plain
Gaussian elimination ranks of the boundary operators of a sublevel
subcomplex.
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
        # codimension-1 faces and cofaces, one step along each odd (even) axis;
        # -1 where there is none
        faces = np.full((n_cells, 2 * n), -1, dtype=np.int64)
        cofaces = np.full((n_cells, 2 * n), -1, dtype=np.int64)
        flat = np.arange(n_cells, dtype=np.int64)
        for ax in range(n):
            odd = parity[ax].astype(bool)
            faces[odd, 2 * ax] = flat[odd] - strides[ax]
            faces[odd, 2 * ax + 1] = flat[odd] + strides[ax]
            below = ~odd & (coords[ax] > 0)
            above = ~odd & (coords[ax] < self.doubled[ax] - 1)
            cofaces[below, 2 * ax] = flat[below] - strides[ax]
            cofaces[above, 2 * ax + 1] = flat[above] + strides[ax]
        self.faces = faces
        self.cofaces = cofaces

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


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _two(rows: np.ndarray, fill: int) -> np.ndarray:
    """First two entries, ascending, of each row with absent (-1) ones as fill."""
    return np.sort(np.where(rows >= 0, rows, fill), axis=1)[:, :2]


def compute_persistence(c: CubicalComplex) -> Barcode:
    """Barcode of the sublevel filtration, degrees 0..n-1, over F2.

    Cells are totally ordered by (grade, dimension, anchor position), so the
    output is deterministic. Apparent pairs (a cell's youngest face whose
    oldest coface is that cell) are persistence pairs and are found in bulk.
    Degree 0 pairs by union-find over the edges (elder rule), degree n-1 by
    union-find over the dual graph of top cells plus an exterior node, walked
    in reverse; the degrees between reduce sparse columns of the negative
    cells left unpaired, with apparent partners standing in as pivots. The
    full complex is contractible, so the only infinite bar is the oldest
    vertex's. Zero-length pairs are discarded.
    """
    _check_monotone(c)
    st = c.structure
    n = len(st.dims)
    n_cells = st.n_cells
    ext = n_cells  # exterior node of the dual graph, older than every cell
    grades = c.grades
    cell_dims = st.cell_dims

    order = np.lexsort((cell_dims, grades))  # grade, then dim, then anchor (stable)
    pos = np.empty(n_cells + 1, dtype=np.int64)
    pos[order] = np.arange(n_cells)
    pos[ext] = ext
    dims_sorted = cell_dims[order]
    fpos = np.where(st.faces >= 0, pos[st.faces], -1)

    # --- apparent pairs ------------------------------------------------------
    rows = np.arange(n_cells)
    youngest_face = st.faces[rows, fpos.argmax(axis=1)]  # -1 for vertices
    oldest_coface = st.cofaces[rows, pos[st.cofaces].argmin(axis=1)]  # -1 for top cells
    up = np.flatnonzero((youngest_face >= 0) & (oldest_coface[youngest_face] == rows))
    lo = youngest_face[up]
    paired = np.zeros(n_cells, dtype=bool)
    paired[lo] = paired[up] = True
    lo_dims = cell_dims[lo]
    keep = grades[up] > grades[lo]
    bars = list(map(Bar._make, zip(
        grades[lo[keep]].tolist(), grades[up[keep]].tolist(), lo_dims[keep].tolist()
    )))

    # an apparent vertex dies into the other end of its edge, an apparent top
    # cell into the other coface (or the exterior) of its youngest face
    parent = np.arange(n_cells + 1)
    v, e = lo[lo_dims == 0], up[lo_dims == 0]
    ends = _two(st.faces[e], ext)
    parent[v] = np.where(ends[:, 0] == v, ends[:, 1], ends[:, 0])
    if n >= 2:
        s, t = lo[lo_dims == n - 1], up[lo_dims == n - 1]
        sides = _two(st.cofaces[s], ext)
        parent[t] = np.where(sides[:, 0] == t, sides[:, 1], sides[:, 0])
    parent = parent.tolist()
    pos_list = pos.tolist()
    grade_list = grades.tolist()

    # --- degree 0: union-find over the unpaired edges, elder rule ------------
    free = order[(dims_sorted == 1) & ~paired[order]]
    for edge, (u, w) in zip(free.tolist(), _two(st.faces[free], ext).tolist()):
        ru, rw = _find(parent, u), _find(parent, w)
        if ru == rw:
            continue
        if pos_list[ru] > pos_list[rw]:  # the younger root dies
            ru, rw = rw, ru
        parent[rw] = ru
        if grade_list[edge] > grade_list[rw]:
            bars.append(Bar(grade_list[rw], grade_list[edge], 0))
    bars.append(Bar(grade_list[order[0]], INF, 0))  # the oldest cell is a vertex

    # --- degree n-1: dual union-find, (n-1)-cells in reverse order -----------
    if n >= 2:
        free = order[(dims_sorted == n - 1) & ~paired[order]][::-1]
        for cell, (a, b) in zip(free.tolist(), _two(st.cofaces[free], ext).tolist()):
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            if pos_list[ra] > pos_list[rb]:  # the younger root dies
                ra, rb = rb, ra
            parent[ra] = rb
            paired[cell] = True
            if grade_list[ra] > grade_list[cell]:
                bars.append(Bar(grade_list[cell], grade_list[ra], n - 1))

    # --- degrees n-2..1: sparse reduction of the unpaired (negative) cells ---
    order_list = order.tolist()
    for k in range(n - 1, 1, -1):
        at_k = lo_dims == k - 1
        apparent = dict(zip(pos[lo[at_k]].tolist(), up[at_k].tolist()))
        pivots: dict[int, set[int]] = {}
        cols = order[(dims_sorted == k) & ~paired[order]]
        for cell, row in zip(cols.tolist(), fpos[cols].tolist()):
            col = {p for p in row if p >= 0}
            while True:
                p = max(col)
                other = pivots.get(p)
                if other is None:
                    partner = apparent.get(p)
                    if partner is None:
                        break
                    other = pivots[p] = {q for q in fpos[partner].tolist() if q >= 0}
                col ^= other
            pivots[p] = col
            creator = order_list[p]
            paired[creator] = True
            if grade_list[cell] > grade_list[creator]:
                bars.append(Bar(grade_list[creator], grade_list[cell], k - 1))

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
        for row in st.faces[cells_by_dim[k]].tolist():
            col = 0
            for f in row:
                if f >= 0:
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
    for row in st.faces[keep & (st.cell_dims == 1)].tolist():
        u, v = (f for f in row if f >= 0)
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


def _covers(adj: np.ndarray, required: np.ndarray) -> bool:
    """Whether one matching of the bipartite graph adj (rows to columns)
    covers every required row.

    Kuhn's search: a matched row stays matched, so this holds exactly when an
    augmenting path exists from each required row in turn.
    """
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    match_col = [-1] * adj.shape[1]

    def augment(root) -> bool:
        # depth-first search for an augmenting path on an explicit stack, so
        # long paths cannot hit the recursion limit; path[i] is the column
        # through which stack[i + 1] was reached
        seen = [False] * adj.shape[1]
        stack = [(root, iter(nbrs[root]))]
        path = []
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), None)
            if v is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen[v] = True
            if match_col[v] == -1:
                for (w, _), x in zip(stack, path + [v]):
                    match_col[x] = w
                return True
            path.append(v)
            stack.append((match_col[v], iter(nbrs[match_col[v]])))
        return False

    return all(augment(u) for u in np.flatnonzero(required).tolist())


def _matching_feasible(adj: np.ndarray, drop_a: np.ndarray, drop_b: np.ndarray) -> bool:
    """Perfect matching test on the diagonal-augmented bar graph.

    Left vertices are the first barcode's bars plus one diagonal copy per bar
    of the second; right vertices symmetrically. A bar may pair with a bar of
    the other side (adj), or with its own diagonal copy when droppable;
    diagonal copies pair freely with each other. So a perfect matching exists
    exactly when some matching of adj covers every bar that cannot be
    dropped, and by Mendelsohn-Dulmage exactly when one matching covers those
    of the first barcode and another those of the second.
    """
    return _covers(adj, ~drop_a) and _covers(adj.T, ~drop_b)


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
