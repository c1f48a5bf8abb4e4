"""Numerical certification of the pipeline's stability properties.

Two suites:

* run_stability_suite draws random volume pairs and certifies, per trial,
  (a) the bi-graded fields move at most max(L1, L2) times as far as the
  volumes in sup norm, where L1/L2 are the exact discrete operator constants
  of the two kernels, and (b) along every grid line and degree the bottleneck
  distance of the sliced barcodes is bounded by the field distance. Both are
  theorems for the discrete operators, so any violation is a bug.

* run_decomposition_suite builds pairs of fields with disjoint, separated
  supports, where the two-parameter module restricted to any line decomposes
  as the direct sum of the two single-parameter modules; it asserts exact
  multiset equality of the degree >= 1 bars against the merged singles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .bifiltration import BiGradedField, compute_glog, slice_scalar_field, sup_distance, union_box
from .cubical_persistence import bottleneck, build_complex, compute_persistence
from .errors import ParameterError
from .fibered import clip_bars, compute_fibered_barcode, make_line_grid
from .kernels import (
    KernelSpec,
    continuum_lipschitz_bound,
    gaussian_kernel,
    lipschitz_constant,
    log_kernel,
)
from .volume_io import Volume

TOLERANCE = 1e-9


@dataclass
class StabilityTrial:
    index: int
    noise_eps: float
    sigma_gauss: float
    phi_distance: float
    field_distance: float
    bound: float
    field_ok: bool
    max_bottleneck: dict[int, float]
    lines_ok: bool

    @property
    def ok(self) -> bool:
        return self.field_ok and self.lines_ok


@dataclass
class StabilityReport:
    dims: tuple[int, ...]
    sigma_gauss: float
    sigma_log: float
    noise_eps: float
    seed: int
    lipschitz_gauss: float
    lipschitz_log: float
    continuum_bound: float
    gauss_shift_ratio: float
    trials: list[StabilityTrial] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t.ok for t in self.trials) and self.gauss_shift_ratio >= 0.999

    @property
    def worst_ratio(self) -> float:
        return max((t.field_distance / t.bound for t in self.trials if t.bound > 0), default=0.0)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["passed"] = self.passed
        payload["worst_ratio"] = self.worst_ratio
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self) -> str:
        header = (
            f"stability suite: dims={self.dims} sigma_gauss={self.sigma_gauss} "
            f"sigma_log={self.sigma_log} eps={self.noise_eps} seed={self.seed}\n"
            f"discrete constants: L1={self.lipschitz_gauss:.6f} "
            f"L2={self.lipschitz_log:.6f}  (continuum reference "
            f"C={self.continuum_bound:.4f})\n"
            f"constant-shift tightness ratio: {self.gauss_shift_ratio:.6f}\n"
        )
        lines = [header, "trial  |phi1-phi2|   field dist   bound        lines  ok"]
        for t in self.trials:
            lines.append(
                f"{t.index:5d}  {t.phi_distance:.8f}  {t.field_distance:.8f}  "
                f"{t.bound:.8f}  {'ok' if t.lines_ok else 'FAIL':5s}  "
                f"{'ok' if t.ok else 'FAIL'}"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_stability_suite(
    n_trials: int = 50,
    dims: tuple[int, ...] = (8, 8),
    sigma_gauss: float = 1.0,
    sigma_log: float = 1.0,
    noise_eps: float = 0.1,
    seed: int = 0,
    num_lines: int = 50,
    bound_scale: float = 1.0,
) -> StabilityReport:
    """Random-pair certification of the field and per-line stability bounds.

    bound_scale deliberately rescales the certified bound; anything other
    than 1.0 is for negative-control runs of the harness itself.
    """
    if noise_eps < 0:
        raise ParameterError(f"noise_eps must be >= 0, got {noise_eps}")
    rng = np.random.default_rng(seed)
    n = len(dims)
    if sigma_gauss > 0:
        lip_gauss = lipschitz_constant(gaussian_kernel(KernelSpec(sigma_gauss, n)))
    else:
        lip_gauss = 1.0  # identity path
    lip_log = lipschitz_constant(log_kernel(KernelSpec(sigma_log, n)))

    # tightness witness: a constant shift passes through the mass-1 branch
    # unchanged, so the observed/bound ratio on that branch is 1 up to rounding
    shift = max(noise_eps, 1e-3)
    base = rng.random(dims) * (1.0 - shift)
    f_lo = compute_glog(Volume(base), sigma_gauss, sigma_log)
    f_hi = compute_glog(Volume(base + shift), sigma_gauss, sigma_log)
    gauss_shift_ratio = float(np.abs(f_hi.g1 - f_lo.g1).max() / (lip_gauss * shift))

    report = StabilityReport(
        dims=tuple(dims),
        sigma_gauss=sigma_gauss,
        sigma_log=sigma_log,
        noise_eps=noise_eps,
        seed=seed,
        lipschitz_gauss=lip_gauss,
        lipschitz_log=lip_log,
        continuum_bound=continuum_lipschitz_bound(max(sigma_gauss, sigma_log), n),
        gauss_shift_ratio=gauss_shift_ratio,
    )

    for trial in range(n_trials):
        phi1 = rng.random(dims)
        phi2 = np.clip(phi1 + rng.uniform(-noise_eps, noise_eps, dims), 0.0, 1.0)
        f1 = compute_glog(Volume(phi1), sigma_gauss, sigma_log)
        f2 = compute_glog(Volume(phi2), sigma_gauss, sigma_log)
        phi_dist = float(np.abs(phi1 - phi2).max())
        field_dist = sup_distance(f1, f2)
        bound = max(lip_gauss, lip_log) * phi_dist * bound_scale
        field_ok = field_dist <= bound + TOLERANCE

        grid = make_line_grid(union_box(f1.box, f2.box), num_lines)
        max_bn = {k: 0.0 for k in range(n)}
        lines_ok = True
        for offset in grid.offsets.tolist():
            bc1 = compute_persistence(build_complex(slice_scalar_field(f1, offset)))
            bc2 = compute_persistence(build_complex(slice_scalar_field(f2, offset)))
            for degree in range(n):
                d = bottleneck(bc1.at_degree(degree), bc2.at_degree(degree))
                max_bn[degree] = max(max_bn[degree], d)
                if d > field_dist * bound_scale + TOLERANCE:
                    lines_ok = False
        report.trials.append(
            StabilityTrial(
                index=trial,
                noise_eps=noise_eps,
                sigma_gauss=sigma_gauss,
                phi_distance=phi_dist,
                field_distance=field_dist,
                bound=bound,
                field_ok=field_ok,
                max_bottleneck=max_bn,
                lines_ok=lines_ok,
            )
        )
    return report


# --- essential single-parameter decomposition --------------------------------


@dataclass
class GeometryResult:
    index: int
    applicable: bool
    equal: bool | None
    lines_checked: int
    bars_checked: int


@dataclass
class DecompositionReport:
    seed: int
    dims: tuple[int, ...]
    num_lines: int
    geometries: list[GeometryResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        applicable = [g for g in self.geometries if g.applicable]
        return bool(applicable) and all(g.equal for g in applicable)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["passed"] = self.passed
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self) -> str:
        lines = [
            f"decomposition suite: dims={self.dims} lines={self.num_lines} seed={self.seed}",
            "geometry  applicable  equal  lines  bars",
        ]
        for g in self.geometries:
            eq = "-" if g.equal is None else ("yes" if g.equal else "NO")
            lines.append(
                f"{g.index:8d}  {'yes' if g.applicable else 'no':10s}  {eq:5s}  "
                f"{g.lines_checked:5d}  {g.bars_checked:4d}"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _random_patch(rng, dims, margin=1, lo=2, hi=4):
    size = (int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
    r0 = int(rng.integers(margin, dims[0] - margin - size[0] + 1))
    c0 = int(rng.integers(margin, dims[1] - margin - size[1] + 1))
    return (slice(r0, r0 + size[0]), slice(c0, c0 + size[1]))


def disjoint_support_pair(rng, dims=(12, 12), min_separation=2):
    """Two positive patches whose Chebyshev distance is >= min_separation.

    Separation >= 2 guarantees no elementary cube touches both supports, so
    every cube lies in at least one of the two sublevel families; that is the
    condition under which the per-line modules decompose.
    """
    for _ in range(200):
        g1 = np.zeros(dims)
        g2 = np.zeros(dims)
        pa = _random_patch(rng, dims)
        pb = _random_patch(rng, dims)
        g1[pa] = g2[pb] = 1.0  # the supports; values are drawn once they are separated
        if _supports_separated(g1, g2, min_separation):
            g1[pa] = rng.uniform(0.2, 1.0, g1[pa].shape)
            g2[pb] = rng.uniform(0.2, 1.0, g2[pb].shape)
            return g1, g2
    raise ParameterError("could not sample separated patches; grid too small")


def _supports_separated(g1: np.ndarray, g2: np.ndarray, min_separation=2) -> bool:
    a = np.argwhere(g1 > 0)
    b = np.argwhere(g2 > 0)
    if len(a) == 0 or len(b) == 0:
        return True
    dist = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return int(dist.min()) >= min_separation


def check_decomposition(
    g1: np.ndarray, g2: np.ndarray, num_lines: int
) -> tuple[bool | None, int]:
    """Compare per-line degree>=1 bars of the pair against merged singles.

    Returns (equal-or-None, bars compared); None when the supports are not
    separated, in which case no claim is made.
    """
    if not _supports_separated(g1, g2):
        return None, 0
    pair = BiGradedField(g1=g1, g2=g2)
    grid = make_line_grid(pair.box, num_lines)
    degrees = tuple(range(1, g1.ndim))
    fb = compute_fibered_barcode(pair, grid, degrees=tuple(range(g1.ndim)))
    bc1 = compute_persistence(build_complex(g1))
    bc2 = compute_persistence(build_complex(g2))
    checked = 0
    min1, min2 = float(g1.min()), float(g2.min())
    for li, offset in enumerate(grid.offsets.tolist()):
        t_enter, t_exit = grid.crossing_interval(offset)
        # the slice grades never drop below the field's true entry parameter,
        # which can exceed the grid's entry when a degenerate axis was widened
        t_enter = max(t_enter, min1, min2 - offset)
        shifted = [(b.birth - offset, b.death - offset, b.degree) for b in bc2.bars]
        merged = clip_bars(list(bc1.bars) + shifted, t_enter, t_exit, grid.delta, degrees)
        actual = fb.barcodes[li][fb.barcodes[li][:, 2] >= 1]
        checked += len(actual)
        if not np.array_equal(merged, actual):
            return False, checked
    return True, checked


def run_decomposition_suite(
    seed: int = 0,
    n_geometries: int = 20,
    dims: tuple[int, int] = (12, 12),
    num_lines: int = 30,
) -> DecompositionReport:
    """Randomized direct-sum certification, plus two fixed edge cases:
    geometry 0 has an empty second support, the last geometry deliberately
    overlaps (negative control, reported not-applicable)."""
    rng = np.random.default_rng(seed)
    report = DecompositionReport(seed=seed, dims=tuple(dims), num_lines=num_lines)
    for idx in range(n_geometries):
        if idx == 0:
            g1, _ = disjoint_support_pair(rng, dims)
            g2 = np.zeros(dims)
        else:
            g1, g2 = disjoint_support_pair(rng, dims)
        equal, bars = check_decomposition(g1, g2, num_lines)
        report.geometries.append(
            GeometryResult(idx, applicable=equal is not None, equal=equal,
                           lines_checked=num_lines, bars_checked=bars)
        )
    # negative control: overlapping supports are out of scope, not asserted
    overlap = np.zeros(dims)
    overlap[4:8, 4:8] = 0.5
    equal, bars = check_decomposition(overlap, overlap.copy(), num_lines)
    report.geometries.append(
        GeometryResult(n_geometries, applicable=equal is not None, equal=equal,
                       lines_checked=num_lines, bars_checked=bars)
    )
    return report
