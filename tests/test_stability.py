import json

import numpy as np
import pytest

from glogtda import cubical_persistence, stability_harness
from glogtda.errors import ParameterError, ShapeError
from glogtda.stability_harness import (
    check_decomposition,
    disjoint_support_pair,
    run_decomposition_suite,
    run_stability_suite,
)


def test_suite_passes_on_random_pairs():
    rep = run_stability_suite(
        n_trials=3, dims=(6, 6), sigma_gauss=0.5, noise_eps=0.1, seed=0, num_lines=8
    )
    assert rep.passed
    assert len(rep.trials) == 3
    assert all(t.field_ok and t.lines_ok for t in rep.trials)
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert rep.gauss_shift_ratio >= 0.999


def test_suite_identity_pair_all_zero():
    rep = run_stability_suite(
        n_trials=2, dims=(5, 5), sigma_gauss=1.0, noise_eps=0.0, seed=1, num_lines=5
    )
    assert rep.passed
    for t in rep.trials:
        assert t.phi_distance == 0.0
        assert t.field_distance == 0.0
        assert all(v == 0.0 for v in t.max_bottleneck.values())


def test_suite_reports_are_pure_functions_of_inputs():
    kw = dict(n_trials=2, dims=(5, 5), sigma_gauss=1.0, noise_eps=0.05, seed=7, num_lines=6)
    a = run_stability_suite(**kw).to_json()
    b = run_stability_suite(**kw).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["passed"] is True


def test_suite_reuses_the_pairing_of_repeated_lines(monkeypatch):
    pairings = []
    pair_ranks = cubical_persistence._pair_ranks
    monkeypatch.setattr(cubical_persistence, "_pair_ranks",
                        lambda *args: pairings.append(1) or pair_ranks(*args))
    trials, lines = 2, 50
    rep = run_stability_suite(n_trials=trials, dims=(8, 8), seed=0, num_lines=lines)
    assert rep.passed
    # the extreme lines of each field repeat their ranks, which only
    # consecutive calls on the same field can reuse
    assert len(pairings) < 2 * lines * trials


def test_suite_negative_control_bound_scale():
    rep = run_stability_suite(
        n_trials=3, dims=(6, 6), sigma_gauss=0.5, noise_eps=0.1, seed=0,
        num_lines=6, bound_scale=0.01,
    )
    assert not rep.passed


def test_suite_rejects_negative_eps():
    with pytest.raises(ParameterError):
        run_stability_suite(n_trials=1, noise_eps=-0.1)


def test_suite_rejects_no_trials_and_short_extents(monkeypatch):
    def no_fields(*args, **kwargs):
        raise AssertionError("a field was computed before the arguments were checked")

    monkeypatch.setattr(stability_harness, "compute_glog", no_fields)
    for n_trials in (0, -1):
        with pytest.raises(ParameterError):
            run_stability_suite(n_trials=n_trials)
    for dims in ((-3, 3), (1, 8), (8, 8, 0)):
        with pytest.raises(ShapeError):
            run_stability_suite(n_trials=1, dims=dims)


def test_decomposition_suite_rejects_no_geometries():
    for n_geometries in (0, -2):
        with pytest.raises(ParameterError):
            run_decomposition_suite(n_geometries=n_geometries)


def test_suite_sigma_zero_identity_branch():
    rep = run_stability_suite(
        n_trials=2, dims=(5, 5), sigma_gauss=0.0, noise_eps=0.1, seed=3, num_lines=5
    )
    assert rep.passed
    assert rep.lipschitz_gauss == 1.0


def test_suite_table_renders():
    rep = run_stability_suite(n_trials=1, dims=(5, 5), noise_eps=0.05, seed=2, num_lines=4)
    text = rep.table()
    assert "PASS" in text and "tightness" in text


# --- decomposition -------------------------------------------------------------


def test_disjoint_support_pair_separation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g1, g2 = disjoint_support_pair(rng, (12, 12))
        a = np.argwhere(g1 > 0)
        b = np.argwhere(g2 > 0)
        dist = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2).min()
        assert dist >= 2


def test_check_decomposition_equal_on_separated_pair():
    rng = np.random.default_rng(1)
    g1, g2 = disjoint_support_pair(rng, (12, 12))
    equal, bars = check_decomposition(g1, g2, num_lines=12)
    assert equal is True
    assert bars > 0


def test_check_decomposition_empty_region():
    rng = np.random.default_rng(2)
    g1, _ = disjoint_support_pair(rng, (12, 12))
    equal, _ = check_decomposition(g1, np.zeros((12, 12)), num_lines=10)
    assert equal is True


def test_check_decomposition_overlap_not_applicable():
    g = np.zeros((12, 12))
    g[4:8, 4:8] = 0.7
    equal, bars = check_decomposition(g, g.copy(), num_lines=8)
    assert equal is None and bars == 0


def test_two_separated_rings_decompose():
    yy, xx = np.mgrid[:12, :12]

    def ring(cy, cx, r_out, r_in):
        dist = np.hypot(yy - cy, xx - cx)
        return (dist <= r_out) & (dist >= r_in)

    g1 = np.zeros((12, 12))
    g2 = np.zeros((12, 12))
    g1[ring(3, 3, 2.5, 1.2)] = 0.8
    g2[ring(9, 9, 2.5, 1.2)] = 0.6
    equal, bars = check_decomposition(g1, g2, num_lines=15)
    assert equal is True  # also certifies the supports were separated
    assert bars > 0


def test_decomposition_suite():
    rep = run_decomposition_suite(seed=0, n_geometries=5, num_lines=10)
    assert rep.passed
    applicable = [g for g in rep.geometries if g.applicable]
    assert len(applicable) == 5  # the overlap control is not applicable
    assert any(not g.applicable for g in rep.geometries)
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert "PASS" in rep.table()
