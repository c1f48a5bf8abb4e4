"""The bit-set persistence engine, kept as the reference for the duality one.

compute_persistence pairs degree 0 by union-find over all edges and every
higher degree by the standard column reduction over F2, run top-down with
clearing; columns are Python integers used as bit sets. _matching_feasible is
the perfect-matching test on the diagonal-augmented bar graph that
bottleneck used before it searched the bar-to-bar graph alone.
"""

from __future__ import annotations

import numpy as np

from glogtda.cubical_persistence import (
    INF,
    Bar,
    Barcode,
    CubicalComplex,
    _check_monotone,
)


def _face_rows(st) -> list[tuple[int, ...]]:
    # native rows of the face table, one tuple per cell
    return [tuple(int(f) for f in row if f >= 0) for row in st.faces]


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

    face_rows = _face_rows(st)
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
