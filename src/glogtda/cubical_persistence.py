"""Lower-star cubical complexes and one-parameter persistent homology over F2.

Grids are modeled with the V-construction: voxels are vertices and the cells
of the full complex are the elementary cubes of the grid, indexed by a
"doubled" grid of shape (2 d_1 - 1, ..., 2 d_n - 1). A position with k odd
coordinates is a k-cell; its codimension-1 faces sit one step away along each
odd axis. A complex keeps only its voxel values: every cell's grade is the
maximum of its vertices' values (lower-star rule), so grades are face-monotone
by construction and there is no grade precondition to check.

compute_persistence ranks the voxel values, lifts the ranks to the cells by
the same rule and orders the cells by one integer key each (rank, dimension,
anchor). It pairs cells over the two-element field without a boundary-matrix
reduction in degrees 0 and n-1: numpy finds the apparent pairs (Bauer,
"Ripser", 2021) from neighbouring keys, and one elder-rule union-find pairs
degree 0 and, by duality, degree n-1 on the dual graph of top cells plus an
exterior node (Garin et al., "Duality in persistent homology of images",
2020), which in 2D skips the edges degree 0 merged. Only the degrees in
between (H1 of a 3D grid) reduce columns, and only those of the few cells
left unpaired, which are the only ones sorted. The pairs of all passes
become bars in one step. betti_oracle is a deliberately independent check:
plain Gaussian elimination ranks of the boundary operators of a sublevel
subcomplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeError

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

        parity = np.indices(self.doubled).reshape(n, n_cells) % 2
        self.cell_dims = parity.sum(axis=0).astype(np.int8)

        strides = np.cumprod((1,) + self.doubled[::-1][:-1])[::-1].astype(np.int64)
        # codimension-1 faces, one step along each odd axis; -1 where there is none
        faces = np.full((n_cells, 2 * n), -1, dtype=np.int64)
        flat = np.arange(n_cells, dtype=np.int64)
        for ax in range(n):
            odd = parity[ax].astype(bool)
            faces[odd, 2 * ax] = flat[odd] - strides[ax]
            faces[odd, 2 * ax + 1] = flat[odd] + strides[ax]
        self.faces = faces

        # for compute_persistence: compact ids (index among the cells of one
        # dimension), per edge its two vertices, per (n-1)-cell the top cells
        # on either side (or the exterior, numbered after them), key parts
        self.cells_of_dim = [np.flatnonzero(self.cell_dims == k) for k in range(n + 1)]
        self.index_in_dim = index = np.empty(n_cells, dtype=np.int64)
        for cells in self.cells_of_dim:
            index[cells] = np.arange(cells.size)
        self.edge_ends = index[np.sort(faces[self.cells_of_dim[1]], axis=1)[:, -2:]]
        tops = self.cells_of_dim[n]
        self.wall_sides = np.full((self.cells_of_dim[n - 1].size, 2), tops.size)
        for j in range(2):
            self.wall_sides[index[faces[tops, j::2]], j] = index[tops][:, None]
        self.dim_anchor = self.cell_dims.astype(np.int64) * n_cells + flat

    def counts_by_dim(self) -> dict[int, int]:
        dims, counts = np.unique(self.cell_dims, return_counts=True)
        return {int(d): int(c) for d, c in zip(dims, counts)}


_structure_cache: dict[tuple[int, ...], _Structure] = {}


def _structure_for(dims: tuple[int, ...]) -> _Structure:
    st = _structure_cache.get(dims)
    if st is None:
        st = _structure_cache[dims] = _Structure(dims)
    return st


def _lower_star(a: np.ndarray) -> np.ndarray:
    """Doubled grid of a vertex array: each cell gets the max over its vertices."""
    n = a.ndim
    out = np.empty(tuple(2 * d - 1 for d in a.shape), dtype=a.dtype)
    out[(slice(None, None, 2),) * n] = a
    # a cell odd along ax and even after it takes the max of its two
    # neighbours along ax, which the earlier axes already filled
    for ax in range(n):
        pre, post = (slice(None),) * ax, (slice(None, None, 2),) * (n - ax - 1)
        np.maximum(out[pre + (slice(0, -1, 2),) + post], out[pre + (slice(2, None, 2),) + post],
                   out=out[pre + (slice(1, None, 2),) + post])
    return out


@dataclass(frozen=True)
class CubicalComplex:
    """Full cubical complex of a grid, graded lower-star by its voxel values."""

    structure: _Structure
    field: np.ndarray  # read-only voxel values, shape structure.dims

    @property
    def grades(self) -> np.ndarray:
        """Flat grade of every doubled-grid cell, computed on each access."""
        return _lower_star(self.field).ravel()

    @property
    def dims(self) -> tuple[int, ...]:
        return self.structure.dims

    @property
    def n(self) -> int:
        return len(self.structure.dims)

    @property
    def n_cells(self) -> int:
        return self.structure.n_cells


def build_complex(field: np.ndarray) -> CubicalComplex:
    """Lower-star complex of a finite scalar field (every dim must be >= 2)."""
    # adding 0.0 copies and turns -0.0 into 0.0, so zero grades print one way
    arr = np.asarray(field, dtype=np.float64) + 0.0
    if arr.ndim < 1 or any(d < 2 for d in arr.shape):
        raise ShapeError(f"field dims must all be >= 2, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("field values must be finite")
    arr.setflags(write=False)
    return CubicalComplex(_structure_for(arr.shape), arr)


_NO_COFACE = 2**63 - 1  # key of the exterior and of a missing coface


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _elder_rule(node_keys: np.ndarray, links: np.ndarray, link_keys: np.ndarray,
                link_ends: np.ndarray, apparent: np.ndarray, apparent_ends: np.ndarray,
                paired: np.ndarray) -> tuple[list[int], list[int]]:
    """Elder rule: nodes join across the unpaired links in link_keys order,
    and at each merge the root with the larger node key dies. Apparent nodes
    start linked to the other end of their partner link, an older node.
    Returns the dying node ids and the merging link cells, marked paired."""
    parent = np.arange(node_keys.size)
    parent[apparent] = apparent_ends.sum(axis=1) - apparent
    parent = parent.tolist()
    keys = node_keys.tolist()
    free = np.flatnonzero(~paired[links])
    free = free[np.argsort(link_keys[free])]
    dying, merging = [], []
    for cell, (a, b) in zip(links[free].tolist(), link_ends[free].tolist()):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        if keys[ra] < keys[rb]:
            ra, rb = rb, ra
        parent[ra] = rb
        dying.append(ra)
        merging.append(cell)
    paired[merging] = True
    return dying, merging


def compute_persistence(c: CubicalComplex) -> Barcode:
    """Barcode of the sublevel filtration, degrees 0..n-1, over F2.

    Reads the voxel values only: a cell's grade is the max over its vertices,
    so there is no grade precondition. Cells are totally ordered by (grade,
    dimension, anchor position), one integer key each, so the output is
    deterministic. Each pass yields (creator, destroyer) cell pairs: apparent
    pairs (a cell's youngest face whose oldest coface is that cell) in bulk;
    degree 0 and degree n-1, on the dual graph of top cells plus an exterior
    node with negated keys, from one elder-rule union-find (in 2D the dual
    pass skips the edges degree 0 merged, which by duality join nothing
    there); the degrees between from sparse columns of the negative cells,
    with apparent partners standing in as pivots. The full complex is
    contractible, so the only infinite bar is the oldest vertex's. One step
    turns the pairs into bars and discards the zero-length ones.
    """
    st = c.structure
    n = len(st.dims)
    n_cells = st.n_cells
    index = st.index_in_dim

    # rank the voxel values and lift the ranks to the cells by the lower-star
    # rule; the sentinel cell n_cells ranks above every value
    values, vertex_rank = np.unique(c.field, return_inverse=True)
    rank = np.append(_lower_star(vertex_rank.reshape(st.dims)).ravel(), values.size)
    # unique keys in (grade, dimension, anchor) order; key[-1] is a missing face
    key = np.append(rank[:n_cells] * ((n + 1) * n_cells) + st.dim_anchor, -1)

    # --- apparent pairs ------------------------------------------------------
    # along each axis of the doubled grid, a cell at an odd position has its
    # faces at the even positions either side, one at an even position its
    # cofaces at the odd ones
    grid = key[:n_cells].reshape(st.doubled)
    youngest = np.full(st.doubled, -1, dtype=np.int64)
    oldest = np.full(st.doubled, _NO_COFACE, dtype=np.int64)
    for ax in range(n):
        odd, lower, upper = ((slice(None),) * ax + (slice(i, j, 2),)
                             for i, j in ((1, None), (0, -1), (2, None)))
        np.maximum(youngest[odd], np.maximum(grid[lower], grid[upper]), out=youngest[odd])
        np.minimum(oldest[lower], grid[odd], out=oldest[lower])
        np.minimum(oldest[upper], grid[odd], out=oldest[upper])
    # a vertex's -1 wraps to the last cell, another vertex, whose oldest
    # coface is an edge
    youngest = youngest.ravel() % n_cells
    up = np.flatnonzero(oldest.ravel()[youngest] == key[:n_cells])
    lo = youngest[up]
    paired = np.zeros(n_cells, dtype=bool)
    paired[lo] = paired[up] = True
    lo_dims = st.cell_dims[lo]
    pairs = [(lo, up)]

    # --- degree 0: vertices joined across edges ------------------------------
    # an apparent vertex dies into the other end of its edge; the oldest
    # vertex pairs with the sentinel cell n_cells, of grade +inf
    vertices, edges = st.cells_of_dim[0], st.cells_of_dim[1]
    at_0 = lo_dims == 0
    dying, merging = _elder_rule(key[vertices], edges, key[edges], st.edge_ends,
                                 index[lo[at_0]], st.edge_ends[index[up[at_0]]], paired)
    pairs += [(vertices[dying], merging), ([vertices[vertex_rank.argmin()]], [n_cells])]

    # --- degree n-1: top cells and the exterior joined across (n-1)-cells ----
    # in reverse key order; an apparent top cell dies into the other side of
    # its youngest face, and the exterior is the oldest node
    if n >= 2:
        tops, walls = st.cells_of_dim[n], st.cells_of_dim[n - 1]
        at_top = lo_dims == n - 1
        dying, merging = _elder_rule(-np.append(key[tops], _NO_COFACE), walls, -key[walls],
                                     st.wall_sides, index[up[at_top]],
                                     st.wall_sides[index[lo[at_top]]], paired)
        pairs.append((merging, tops[dying]))

    # --- degrees n-2..1: sparse reduction of the unpaired (negative) cells ---
    # columns are sets of face keys; partner[f] is the row of partner_faces
    # holding the boundary of f's apparent partner
    for k in range(n - 1, 1, -1):
        at_k = np.flatnonzero(lo_dims == k - 1)
        partner = np.full(n_cells, -1)
        partner[lo[at_k]] = np.arange(at_k.size)
        partner_faces = key[st.faces[up[at_k]]]
        pivots: dict[int, set[int]] = {}
        cols = st.cells_of_dim[k]
        cols = cols[~paired[cols]]
        cols = cols[np.argsort(key[cols])]
        creators = []
        for row in key[st.faces[cols]].tolist():
            col = set(row)
            col.discard(-1)
            while True:
                p = max(col)
                other = pivots.get(p)
                if other is None:
                    q = partner[p % n_cells]
                    if q < 0:
                        break
                    other = pivots[p] = set(partner_faces[q].tolist())
                    other.discard(-1)
                col ^= other
            pivots[p] = col
            creators.append(p % n_cells)
        paired[creators] = True
        pairs.append((creators, cols))

    # --- pairs to bars ---------------------------------------------------------
    # ranks order like the values they stand for; the sentinel reads +inf
    creators, destroyers = (np.concatenate(cells).astype(np.int64) for cells in zip(*pairs))
    birth, death, degree = rank[creators], rank[destroyers], st.cell_dims[creators]
    keep = np.flatnonzero(death > birth)
    keep = keep[np.lexsort((death[keep], birth[keep], degree[keep]))]
    grade = np.append(values, INF)
    return Barcode(tuple(map(Bar._make, zip(
        grade[birth[keep]].tolist(), grade[death[keep]].tolist(), degree[keep].tolist()
    ))))


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


def _split_bars(bars) -> tuple[np.ndarray, np.ndarray]:
    """Finite (birth, death) rows and the births of the infinite bars."""
    if len(bars) == 0:
        return np.empty((0, 2)), np.empty(0)
    rows = np.asarray(bars, dtype=np.float64)[:, :2]
    infinite = np.isinf(rows[:, 1])
    return rows[~infinite], rows[infinite, 0]


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
    # imported here, not at module top: feature extraction never compares
    # barcodes and should not pay scipy's import time and memory
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    def covers(rows: np.ndarray) -> bool:
        # Hopcroft-Karp; a required row without a partner is left at -1. With
        # no required row there is nothing to match, and scipy costs per call
        if rows.shape[0] == 0:
            return True
        indptr = np.concatenate([[0], np.cumsum(rows.sum(axis=1))])
        graph = csr_array((np.ones(indptr[-1], dtype=np.int8), np.nonzero(rows)[1], indptr),
                          shape=rows.shape)
        return bool((maximum_bipartite_matching(graph, perm_type="column") >= 0).all())

    return covers(adj[~drop_a]) and covers(adj.T[~drop_b])


def bottleneck(bars_a: Sequence, bars_b: Sequence) -> float:
    """Bottleneck distance between two fixed-degree barcodes.

    Bars are (birth, death[, ...]) tuples; death may be +inf. Infinite bars
    must pair with infinite bars (cost |birth difference|), so the distance is
    +inf when their counts differ. The finite part is the min over partial
    matchings of the max of matched sup-norm distances and unmatched
    half-persistences, found by binary search over the candidate distances.
    """
    A, ia = _split_bars(bars_a)
    B, ib = _split_bars(bars_b)
    if ia.size != ib.size:
        return INF
    cost_inf = float(np.abs(np.sort(ia) - np.sort(ib)).max(initial=0.0))
    half_a = (A[:, 1] - A[:, 0]) / 2.0
    half_b = (B[:, 1] - B[:, 0]) / 2.0
    if len(A) == 0:
        return max(cost_inf, float(half_b.max(initial=0.0)))
    if len(B) == 0:
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
