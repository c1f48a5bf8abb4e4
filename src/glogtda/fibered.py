"""Fibered barcodes: one-parameter barcodes along an evenly spaced family of
slope-1 lines covering the grade bounding box.

Each line {(t, t + b)} turns the bi-graded field into a scalar field via
max(g1, g2 - b); its sublevel barcode is the restriction of the two-parameter
module to that line. line_barcodes computes the lines in order and hands each
line's barcode to the next line's compute_persistence: on the extreme lines,
where the slice is g1 or g2 - b, the vertex ranks repeat and the pairing is
reused. clip_bars, the one place bars are clamped, takes each Barcode.table
as is and clips every row to the parameter interval [t_enter, t_exit] where
the line crosses the box; infinite deaths become t_exit + delta (delta is the
line spacing), so vectorization sees finite mass, and a clipped death lies
past t_exit exactly when it was infinite. A line's clipped bars are one
read-only (m, 3) float64 array of (birth, death, degree) rows of every degree,
in Barcode.table's layout; compute_fibered_barcode returns a tuple of one per
grid line, in offset order, and vectorize.build_features picks what to draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bifiltration import BiGradedField, Box, slice_scalar_field
from .cubical_persistence import Barcode, build_complex, compute_persistence
from .errors import ParameterError

_DEGENERATE_WIDEN = 1e-6


def widen_box(box: Box) -> Box:
    """Expand degenerate axes symmetrically so the box has positive area."""
    min1, min2, max1, max2 = box
    if max1 <= min1:
        min1 -= _DEGENERATE_WIDEN / 2
        max1 += _DEGENERATE_WIDEN / 2
    if max2 <= min2:
        min2 -= _DEGENERATE_WIDEN / 2
        max2 += _DEGENERATE_WIDEN / 2
    return (min1, min2, max1, max2)


@dataclass(frozen=True)
class LineGrid:
    """Evenly spaced line offsets covering a grade box."""

    offsets: np.ndarray
    delta: float
    box: Box

    def __post_init__(self):
        offs = np.array(self.offsets, dtype=np.float64, order="C")  # a private copy
        offs.setflags(write=False)
        object.__setattr__(self, "offsets", offs)

    def __len__(self) -> int:
        return len(self.offsets)

    def crossing_interval(self, offset: float) -> tuple[float, float]:
        """Parameter interval where the line {(t, t+offset)} crosses the box."""
        min1, min2, max1, max2 = self.box
        return max(min1, min2 - offset), min(max1, max2 - offset)


def make_line_grid(box: Box, num_lines: int) -> LineGrid:
    """Uniform offsets across [min2 - max1, max2 - min1] for the given box."""
    if num_lines < 1:
        raise ParameterError(f"num_lines must be >= 1, got {num_lines}")
    box = widen_box(box)
    min1, min2, max1, max2 = box
    lo, hi = min2 - max1, max2 - min1
    span = hi - lo
    if num_lines == 1:
        return LineGrid(np.array([(lo + hi) / 2.0]), span, box)
    offsets = np.linspace(lo, hi, num_lines)
    return LineGrid(offsets, span / (num_lines - 1), box)


def clip_bars(bars: np.ndarray, t_enter: float, t_exit: float, delta: float) -> np.ndarray:
    """Clip every (birth, death, degree) row to [t_enter, t_exit].

    Births start at t_enter, finite deaths end by t_exit and infinite deaths
    become exactly t_exit + delta; bars that become empty are dropped, so an
    essential class born at or past t_exit + delta leaves no row, and a
    death past t_exit marks a bar that was infinite. Returns a read-only
    (m, 3) float64 array of (birth, death, degree) rows in (degree, birth,
    death) order. The same map is applied wherever barcodes from different
    one-parameter computations must stay comparable.
    """
    out = np.array(bars, dtype=np.float64).reshape(-1, 3)  # a copy, clipped in place
    birth, death, infinite = out[:, 0], out[:, 1], np.isinf(out[:, 1])
    np.maximum(birth, t_enter, out=birth)
    np.minimum(death, t_exit, out=death)
    death[infinite] = t_exit + delta
    out = out[death > birth]
    out = out[np.lexsort((out[:, 1], out[:, 0], out[:, 2]))]
    out.setflags(write=False)
    return out


def line_barcodes(f: BiGradedField, offsets: Iterable[float]) -> Iterator[Barcode]:
    """Unclipped barcode of the field's slice along each line {(t, t + b)}, in
    offset order. Each line gets its own complex and compute_persistence call,
    which is handed the previous line's barcode to reuse a repeated pairing."""
    barcode = None
    for offset in offsets:
        barcode = compute_persistence(build_complex(slice_scalar_field(f, offset)), barcode)
        yield barcode


def compute_fibered_barcode(f: BiGradedField, grid: LineGrid) -> tuple[np.ndarray, ...]:
    """Slice the field along every grid line; one clip_bars table of every
    degree per line, in the grid's offset order.

    Bars are clipped to the grid's box, which need not cover the field's
    grades: a dataset-global grid is applied to unseen samples as is.
    """
    offsets = grid.offsets.tolist()
    return tuple(clip_bars(barcode.table, *grid.crossing_interval(offset), grid.delta)
                 for offset, barcode in zip(offsets, line_barcodes(f, offsets)))
