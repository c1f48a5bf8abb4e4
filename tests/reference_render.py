"""The per-segment loop renderer, kept as the reference for the per-line one.

render_segments draws each segment in its own Python iteration inside an
axis-aligned window of eight bandwidths around it; render_mpi reads the
clipped rows one bar at a time, clamps each again to where its line crosses
the config's box (births from t_enter, deaths by t_exit + delta) and renders
every line in one call. clip_bars already applies that clamp, so agreement
with the per-line renderer, which has none, shows the second clamp is a no-op.
"""

from __future__ import annotations

import numpy as np

from glogtda.fibered import LineGrid
from glogtda.vectorize import MpiConfig


_CUTOFF_BANDWIDTHS = 8.0  # kernel mass beyond this is ~exp(-32), below rounding


def render_segments(
    segments: np.ndarray, weights: np.ndarray, cfg: MpiConfig
) -> np.ndarray:
    """Accumulate weighted Gaussian masses of normalized segments onto pixels.

    segments is (m, 4) rows (x0, y0, x1, y1) in unit-square coordinates;
    weights already include every per-bar factor. A segment adds nothing to
    pixels farther than eight bandwidths from it.
    """
    r1, r2 = cfg.resolution
    xs = (np.arange(r1) + 0.5) / r1
    ys = (np.arange(r2) + 0.5) / r2
    img = np.zeros(cfg.resolution, dtype=np.float64)
    inv_two_bw2 = 1.0 / (2.0 * cfg.bandwidth**2)
    margin = _CUTOFF_BANDWIDTHS * cfg.bandwidth
    for (x0, y0, x1, y1), w in zip(np.atleast_2d(segments), np.ravel(weights)):
        i0 = np.searchsorted(xs, min(x0, x1) - margin)
        i1 = np.searchsorted(xs, max(x0, x1) + margin)
        j0 = np.searchsorted(ys, min(y0, y1) - margin)
        j1 = np.searchsorted(ys, max(y0, y1) + margin)
        if i0 == i1 or j0 == j1:
            continue
        px = xs[i0:i1, None]
        py = ys[None, j0:j1]
        dx, dy = x1 - x0, y1 - y0
        seg_len2 = dx * dx + dy * dy
        if seg_len2 == 0.0:
            d2 = (px - x0) ** 2 + (py - y0) ** 2
        else:
            t = ((px - x0) * dx + (py - y0) * dy) / seg_len2
            t = np.clip(t, 0.0, 1.0)
            d2 = (px - (x0 + t * dx)) ** 2 + (py - (y0 + t * dy)) ** 2
        img[i0:i1, j0:j1] += w * np.exp(-d2 * inv_two_bw2, out=np.zeros_like(d2), where=d2 <= margin**2)
    return img


def render_mpi(lines, degree: int, cfg: MpiConfig, grid: LineGrid) -> np.ndarray:
    """Persistence image of one homology degree of a fibered barcode, given as
    one (birth, death, degree) table per grid line."""
    min1, min2, max1, max2 = cfg.box
    span1, span2 = max1 - min1, max2 - min2
    diag = float(np.hypot(span1, span2))
    density = grid.delta / diag
    segments, weights = [], []
    for offset, bars in zip(grid.offsets.tolist(), lines):
        # clamp to where this line crosses the global box (no-op when the
        # barcode was computed against the same box)
        t_enter = max(min1, min2 - offset)
        t_exit = min(max1, max2 - offset)
        for b_birth, b_death, b_degree in bars.tolist():
            if b_degree != degree:
                continue
            birth = max(b_birth, t_enter)
            death = min(b_death, t_exit + grid.delta)
            if death <= birth:
                continue
            segments.append(
                (
                    (birth - min1) / span1,
                    (birth + offset - min2) / span2,
                    (death - min1) / span1,
                    (death + offset - min2) / span2,
                )
            )
            weights.append((death - birth) ** cfg.weight_power * density)
    if not segments:
        return np.zeros(cfg.resolution, dtype=np.float64)
    return render_segments(np.array(segments), np.array(weights), cfg)
