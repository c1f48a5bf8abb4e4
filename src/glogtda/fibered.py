"""Fibered barcodes: one-parameter barcodes along an evenly spaced family of
slope-1 lines covering the grade bounding box.

Each line {(t, t + b)} turns the bi-graded field into a scalar field via
max(g1, g2 - b); its sublevel barcode is the restriction of the two-parameter
module to that line. clip_bars, the one place bars are clamped, clips them to
the parameter interval [t_enter, t_exit] where the line crosses the box;
infinite deaths become t_exit + delta (delta is the line spacing) and keep a
was_infinite flag so vectorization sees finite mass without losing the
information. Each line's clipped bars are one read-only (m, 4) float64 array
of rows (birth, death, degree, was_infinite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bifiltration import BiGradedField, Box, slice_scalar_field
from .cubical_persistence import Bar, build_complex, compute_persistence
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
        offs = np.ascontiguousarray(self.offsets, dtype=np.float64)
        offs.setflags(write=False)
        object.__setattr__(self, "offsets", offs)

    def __len__(self) -> int:
        return len(self.offsets)

    def crossing_interval(self, offset: float) -> tuple[float, float]:
        """Parameter interval where the line {(t, t+offset)} crosses the box."""
        min1, min2, max1, max2 = self.box
        return max(min1, min2 - offset), min(max1, max2 - offset)

    def covers(self, box: Box, tol: float = 1e-9) -> bool:
        min1, min2, max1, max2 = self.box
        return (
            min1 <= box[0] + tol
            and min2 <= box[1] + tol
            and max1 >= box[2] - tol
            and max2 >= box[3] - tol
        )


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


@dataclass(frozen=True)
class FiberedBarcode:
    """One clip_bars array per grid line, assembled in offset order."""

    grid: LineGrid
    barcodes: tuple[np.ndarray, ...]
    degrees_present: tuple[int, ...]

    def bars_at(self, line_index: int, degree: int) -> np.ndarray:
        table = self.barcodes[line_index]
        return table[table[:, 2] == degree]

    def to_csv(self) -> str:
        lines = ["offset,degree,birth,death,was_infinite"]
        for offset, table in zip(self.grid.offsets.tolist(), self.barcodes):
            for birth, death, degree, was_inf in table.tolist():
                lines.append(
                    f"{offset!r},{int(degree)},{birth!r},{death!r},{int(was_inf)}"
                )
        return "\n".join(lines) + "\n"


def clip_bars(
    bars: Iterable[Bar],
    t_enter: float,
    t_exit: float,
    delta: float,
    degrees: Sequence[int],
) -> np.ndarray:
    """Clip the bars of the given degrees to [t_enter, t_exit].

    Births start at t_enter, finite deaths end by t_exit and infinite deaths
    become exactly t_exit + delta; bars that become empty are dropped, so an
    essential class born at or past t_exit + delta leaves no row. Returns a
    read-only (m, 4) float64 array of rows (birth, death, degree,
    was_infinite) in (degree, birth, death) order. The same map is applied
    wherever barcodes from different one-parameter computations must stay
    comparable.
    """
    table = np.array(bars, dtype=np.float64).reshape(-1, 3)
    birth, death, degree = table[np.isin(table[:, 2], degrees)].T
    was_inf = np.isinf(death)
    birth = np.maximum(birth, t_enter)
    death = np.where(was_inf, t_exit + delta, np.minimum(death, t_exit))
    out = np.column_stack((birth, death, degree, was_inf))[death > birth]
    out = out[np.lexsort((out[:, 1], out[:, 0], out[:, 2]))]
    out.setflags(write=False)
    return out


def compute_fibered_barcode(
    f: BiGradedField,
    grid: LineGrid,
    degrees: Sequence[int] | None = None,
    allow_clip: bool = False,
) -> FiberedBarcode:
    """Slice the field along every grid line and collect clipped barcodes.

    The grid must cover the field's grade box; pass allow_clip=True to accept
    out-of-box grades instead (their bars are clipped to the grid box, the
    behaviour wanted when a dataset-global grid is applied to unseen samples).
    """
    n = len(f.dims)
    if degrees is None:
        degrees = tuple(range(n))
    if not allow_clip and not grid.covers(f.box):
        raise ParameterError(
            f"line grid box {grid.box} does not cover field box {f.box}"
        )
    barcodes = []
    for offset in grid.offsets.tolist():
        barcode = compute_persistence(build_complex(slice_scalar_field(f, offset)))
        t_enter, t_exit = grid.crossing_interval(offset)
        barcodes.append(clip_bars(barcode.bars, t_enter, t_exit, grid.delta, degrees))
    return FiberedBarcode(grid, tuple(barcodes), tuple(sorted(degrees)))
