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
anchor). Its passes pair cells over the two-element field in degree order,
each skipping the cells an earlier one paired (clearing): numpy finds the
apparent pairs (Bauer, "Ripser", 2021) from neighbouring keys, an elder-rule
union-find pairs degree 0, the degrees between (H1 of a 3D grid) reduce the
coboundaries of the few cells left unpaired (de Silva et al., "Dualities in
persistent (co)homology", 2011) in binary-heap working columns whose repeated
keys cancel in pairs, as Ripser's do, and the union-find pairs degree n-1 on the
dual graph of top cells plus an exterior node (Garin et al., "Duality in
persistent homology of images", 2020). All pairs become one (m, 3) table of
(birth, death, degree) rows. The pairing depends on the vertex ranks alone and
rides along on the Barcode, so a call handed a previous barcode whose ranks
equal its own (an extreme line of a fibered barcode) reuses that pairing.
betti_oracle is a deliberately independent check: plain Gaussian
elimination ranks of the boundary operators of a sublevel subcomplex.
label_betti and label_ranks check at any size by labelling voxel sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeError

INF = math.inf


class Bar(NamedTuple):
    birth: float
    death: float
    degree: int


@dataclass(frozen=True, eq=False)
class Barcode:
    """Multiset of persistence intervals, canonically sorted: a read-only
    (m, 3) float64 table of rows (birth, death, degree), or of Bar tuples.
    pairing, when compute_persistence made it, holds the read-only (vertex
    ranks, birth, death, degree) rank arrays behind the table; equality and
    repr ignore it."""

    table: np.ndarray
    pairing: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        table = np.array(self.table, dtype=np.float64, order="C").reshape(-1, 3)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        for ranks in self.pairing or ():
            ranks.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, Barcode) and np.array_equal(self.table, other.table)

    @property
    def bars(self) -> tuple[Bar, ...]:
        """The rows as Bar tuples, for callers that still iterate bars."""
        return tuple(Bar(b, d, int(k)) for b, d, k in self.table.tolist())

    def at_degree(self, degree: int) -> np.ndarray:
        return self.table[self.table[:, 2] == degree]

    def alive_count(self, t: float, degree: int) -> int:
        """Number of degree-k bars with birth <= t < death."""
        birth, death, deg = self.table.T
        return int(np.count_nonzero((deg == degree) & (birth <= t) & (t < death)))


class _Structure:
    """Grade-independent combinatorics of the full complex for fixed dims."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        self.doubled = tuple(2 * d - 1 for d in dims)
        n = len(dims)
        self.n_cells = n_cells = math.prod(self.doubled)
        # keys pack (rank, dim, cell) into int64 bit fields; every key stays below 2**62
        cell_bits = (n_cells - 1).bit_length()
        self.cell_mask, self.rank_shift = (1 << cell_bits) - 1, cell_bits + n.bit_length()
        if self.rank_shift + (math.prod(dims) - 1).bit_length() > 62:
            raise ShapeError(f"grid {dims} is too large for 64-bit cell keys")

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
        self.dim_anchor = (self.cell_dims.astype(np.int64) << cell_bits) | flat
        # per k-cell with 0 < k < n-1 its cofaces, the cells it is a face of:
        # two at most along each of its n-k even axes, -1 where there is none
        self.cofaces = {}
        for k in range(1, n - 1):
            ups, cof = self.cells_of_dim[k + 1], np.full((self.cells_of_dim[k].size, 2 * n), -1)
            for j in range(2 * n):
                has = faces[ups, j] >= 0
                cof[index[faces[ups[has], j]], j] = ups[has]
            self.cofaces[k] = np.sort(cof, axis=1)[:, -2 * (n - k):]


@functools.cache
def _structure_for(dims: tuple[int, ...]) -> _Structure:
    return _Structure(dims)


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


def _elder_rule(node_keys: np.ndarray, links: np.ndarray, key: np.ndarray, sign: int,
                link_ends: np.ndarray, apparent: np.ndarray, apparent_ends: np.ndarray,
                paired: np.ndarray) -> tuple[list[int], list[int]]:
    """Elder rule: nodes join across the unpaired links in order of sign * key,
    and at each merge the root with the larger node key dies. Apparent nodes
    start linked to the other end of their partner link, an older node.
    Returns the dying node ids and the merging link cells, marked paired."""
    parent = np.arange(node_keys.size)
    parent[apparent] = apparent_ends[:, 0] + apparent_ends[:, 1] - apparent
    parent = parent.tolist()
    keys = node_keys.tolist()
    free = (~paired[links]).nonzero()[0]
    free = free[(sign * key[links[free]]).argsort()]
    dying, merging = [], []
    for cell, (a, b) in zip(links[free].tolist(), link_ends[free].tolist()):
        # find both roots, halving the paths on the way
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if keys[a] < keys[b]:
            a, b = b, a
        parent[a] = b
        dying.append(a)
        merging.append(cell)
    paired[merging] = True
    return dying, merging


def compute_persistence(c: CubicalComplex, previous: Barcode | None = None) -> Barcode:
    """Barcode of the sublevel filtration, degrees 0..n-1, over F2.

    Reads the voxel values only: a cell's grade is the max over its vertices,
    so there is no grade precondition. Cells are totally ordered by (grade,
    dimension, anchor position), one integer key each, so the output is
    deterministic. Passes run in degree order, each yielding (creator,
    destroyer) cell pairs and skipping the cells an earlier one paired:
    apparent pairs (a cell's youngest face whose oldest coface is that cell)
    in bulk; degree 0 by elder-rule union-find; each degree k from 1 to n-2
    from the coboundaries of the unpaired k-cells, reduced in decreasing key
    order with the minimum coface as pivot, apparent partners standing in;
    degree n-1 by the same union-find on the dual graph of top cells plus an
    exterior node with negated keys. The full complex is contractible, so
    the only infinite bar is the oldest vertex's. One step turns the pairs
    into bars and drops the zero-length ones. The pairing depends on the
    ranks alone, so when previous's vertex ranks equal these exactly, shape
    included, its pairing is reused and the passes do not run.
    """
    values, vertex_rank = np.unique(c.field, return_inverse=True)
    vertex_rank = vertex_rank.reshape(c.dims)
    pairing = None if previous is None else previous.pairing
    if pairing is None or not np.array_equal(pairing[0], vertex_rank):
        pairing = (vertex_rank, *_pair_ranks(c.structure, vertex_rank, values.size))
    grade = np.concatenate((values, (INF,)))  # ranks order like their values; the sentinel is +inf
    return Barcode(np.concatenate((grade.take(pairing[1:3]), pairing[3][None])).T, pairing)


def _pair_ranks(st: _Structure, vertex_rank: np.ndarray, n_values: int) -> tuple:
    """The passes: sorted (birth rank, death rank, degree) arrays; rank n_values is +inf."""
    n, n_cells, mask, index = len(st.dims), st.n_cells, st.cell_mask, st.index_in_dim

    # lift the ranks to the cells by the lower-star rule; the sentinel cell
    # n_cells ranks above every value
    rank = np.concatenate((_lower_star(vertex_rank).ravel(), (n_values,)))
    # unique keys, bit fields (rank, dimension, cell); key[-1] is a missing coface
    key = np.concatenate(((rank[:n_cells] << st.rank_shift) | st.dim_anchor, (_NO_COFACE,)))

    # --- apparent pairs ------------------------------------------------------
    # along each axis of the doubled grid, a cell at an odd position has its
    # faces at the even positions either side, one at an even position its
    # cofaces at the odd ones
    grid = key[:n_cells].reshape(st.doubled)
    youngest = np.zeros(st.doubled, dtype=np.int64)
    oldest = np.full(st.doubled, _NO_COFACE, dtype=np.int64)
    for ax in range(n):
        odd, lower, upper = ((slice(None),) * ax + (slice(i, j, 2),)
                             for i, j in ((1, None), (0, -1), (2, None)))
        np.maximum(youngest[odd], np.maximum(grid[lower], grid[upper]), out=youngest[odd])
        np.minimum(oldest[lower], grid[odd], out=oldest[lower])
        np.minimum(oldest[upper], grid[odd], out=oldest[upper])
    # a vertex keeps 0, which names vertex 0, whose oldest coface is an edge
    youngest = youngest.ravel() & mask
    up = (oldest.ravel()[youngest] == key[:n_cells]).nonzero()[0]
    lo = youngest[up]
    paired = np.zeros(n_cells, dtype=bool)
    paired[lo] = paired[up] = True
    lo_dims = st.cell_dims[lo]
    live = rank[lo] < rank[up]  # most apparent pairs are zero-length
    pairs = [(lo[live], up[live])]

    # --- degree 0: vertices joined across edges ------------------------------
    # an apparent vertex dies into the other end of its edge; the oldest
    # vertex pairs with the sentinel cell n_cells, of grade +inf
    vertices, edges = st.cells_of_dim[0], st.cells_of_dim[1]
    at_0 = lo_dims == 0
    dying, merging = _elder_rule(key[vertices], edges, key, 1, st.edge_ends,
                                 index[lo[at_0]], st.edge_ends[index[up[at_0]]], paired)
    pairs += [(vertices[dying], merging), ([vertices[vertex_rank.argmin()]], [n_cells])]

    # --- degrees 1..n-2: coboundary reduction of the unpaired cells ---------
    # columns are heaps of coface keys (key[-1] tops the rest, never a pivot) taken
    # in decreasing key order; copies cancel in pairs (F2) and the pivot is the least
    # key left. pivots[p], a reduced column or apparent p's partner's coboundary (cofaces
    # row partner[p]), omits p. Columns skip cells earlier passes paired; pivots get paired
    for k in range(1, n - 1):
        cofaces = st.cofaces[k]
        at_k = (lo_dims == k).nonzero()[0]
        partner = np.full(n_cells, -1)
        partner[up[at_k]] = index[lo[at_k]]
        pivots: dict[int, list[int]] = {}
        cols = st.cells_of_dim[k]
        cols = cols[~paired[cols]]
        cols = cols[key[cols].argsort()[::-1]]
        destroyers = []
        for col in np.sort(key[cofaces[index[cols]]]).tolist():  # a sorted list is a heap
            while True:
                p = heappop(col)
                while col[0] == p:  # keys above p remain: one cell is never a coboundary
                    heappop(col)
                    p = heappop(col)
                other = pivots.get(p)
                if other is None:
                    q = partner.item(p & mask)  # an int indexes rows faster
                    if q < 0:
                        break
                    other = pivots[p] = key[cofaces[q]].tolist()
                    other.remove(p)
                for x in other:
                    heappush(col, x)
            pivots[p] = col
            destroyers.append(p & mask)
        paired[destroyers] = True
        pairs.append((cols, destroyers))

    # --- degree n-1: top cells and the exterior joined across (n-1)-cells ----
    # in reverse key order; an apparent top cell dies into the other side of
    # its youngest face, and the exterior is the oldest node. The (n-1)-cells
    # an earlier pass destroyed close dual cycles and are skipped
    if n >= 2:
        tops, walls = st.cells_of_dim[n], st.cells_of_dim[n - 1]
        at_top = lo_dims == n - 1
        dying, merging = _elder_rule(-np.concatenate((key[tops], (_NO_COFACE,))), walls, key, -1,
                                     st.wall_sides, index[up[at_top]],
                                     st.wall_sides[index[lo[at_top]]], paired)
        pairs.append((merging, tops[dying]))

    # --- pairs to bars ---------------------------------------------------------
    creators, destroyers = (np.concatenate(cells).astype(np.int64) for cells in zip(*pairs))
    birth, death, degree = rank[creators], rank[destroyers], st.cell_dims[creators]
    keep = (death > birth).nonzero()[0]
    keep = keep[np.lexsort((death[keep], birth[keep], degree[keep]))]
    return birth[keep], death[keep], degree[keep]


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


def label_ranks(c: CubicalComplex, s: float, t: float) -> tuple[int, int]:
    """Persistent ranks beta_0(s, t) and beta_{n-1}(s, t), s <= t, by labelling.

    beta_0(s, t) counts the face-connected components of field <= t that hold
    a voxel <= s. By duality (Garin et al., 2020) the (n-1)-classes at s are
    the bounded components of field > s, padded with one outside layer and
    labelled with full connectivity; beta_{n-1}(s, t) counts those whose
    largest value is above t. Milliseconds at 28^3, so it gates any line.
    """
    # imported here, not at module top: extraction never runs an oracle
    from scipy import ndimage

    labels = ndimage.label(c.field <= t)[0]
    alive = np.unique(labels[c.field <= s]).size
    values = np.pad(c.field, 1, constant_values=INF)
    labels = ndimage.label(values > s, np.ones((3,) * values.ndim))[0]
    # the +inf layer is the outside component, which is never a class
    return alive, np.unique(labels[values > t]).size - 1


def label_betti(c: CubicalComplex, t: float) -> list[int]:
    """Betti numbers beta_0..beta_{n-1} of the sublevel set at t, 2D or 3D.

    beta_0 and beta_{n-1} by label_ranks at (t, t); in 3D beta_1 is beta_0 +
    beta_2 - chi(t), the Euler characteristic of the cells of grade <= t.
    """
    n = c.field.ndim
    if n not in (2, 3):
        raise ShapeError(f"label_betti needs a 2D or 3D field, got {n}D")
    b0, top = label_ranks(c, t, t)
    if n == 2:
        return [b0, top]
    counts = np.bincount(c.structure.cell_dims[c.grades <= t], minlength=4)
    return [b0, b0 + top - int(counts[0] - counts[1] + counts[2] - counts[3]), top]


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
        return bool((maximum_bipartite_matching(csr_array(rows), perm_type="column") >= 0).all())

    return covers(adj[~drop_a]) and covers(adj.T[~drop_b])


def bottleneck(bars_a: Sequence, bars_b: Sequence) -> float:
    """Bottleneck distance between two fixed-degree barcodes.

    Bars are (birth, death[, ...]) rows of a table or tuples; death may be
    +inf. Infinite bars must pair with infinite bars (cost |birth
    difference|), so the distance is +inf when their counts differ. The
    finite part is the min over partial matchings of the max of matched
    sup-norm distances and unmatched half-persistences, found by a binary
    search over the candidate distances that tries the lower bound first.
    """
    A, ia = _split_bars(bars_a)
    B, ib = _split_bars(bars_b)
    if ia.size != ib.size:
        return INF
    cost_inf = float(np.abs(np.sort(ia) - np.sort(ib)).max(initial=0.0))
    half_a = (A[:, 1] - A[:, 0]) / 2.0
    half_b = (B[:, 1] - B[:, 0]) / 2.0
    D = np.maximum(
        np.abs(A[:, 0, None] - B[None, :, 0]), np.abs(A[:, 1, None] - B[None, :, 1])
    )

    def feasible(r: float) -> bool:
        return _matching_feasible(D <= r, half_a <= r, half_b <= r)

    # every bar needs some option within r
    lb_a = np.minimum(half_a, D.min(axis=1, initial=INF))
    lb_b = np.minimum(half_b, D.min(axis=0, initial=INF))
    lower = max(lb_a.max(initial=0.0), lb_b.max(initial=0.0))
    candidates = np.unique(np.concatenate([D.ravel(), half_a, half_b, [lower]]))
    candidates = candidates[candidates >= lower]
    # the lower bound is candidates[0] and usually the answer: try it first
    lo, hi, mid = 0, len(candidates) - 1, 0
    while lo < hi:
        if feasible(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return max(cost_inf, float(candidates[lo]))
