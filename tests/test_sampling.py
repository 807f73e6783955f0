"""Tests for the floating-point PTrop sampling oracle."""

import math

import numpy as np
import pytest

from troplim import sampling as sm
from troplim import tropical as tp
from troplim.errors import DimensionMismatch, NoBranchFound

TOL = 1e-2


def test_nodal_cubic_two_clusters_near_exact_points():
    f = tp.trop_poly({(1, 1): 0, (3, 0): 0, (0, 3): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=1), 2)
    assert len(clusters) == 2
    exact = tp.ptrop_normal_fan(f)
    for c in clusters:
        assert sm.distance_to_ptrop(exact, c.direction) < TOL
    # the double branch collects twice the samples of the simple one
    sizes = sorted(c.size for c in clusters)
    assert sizes == [200, 400]


def test_line_single_cluster_at_diagonal():
    f = tp.trop_poly({(1, 0): 0, (0, 1): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=2), 2)
    assert len(clusters) == 1
    assert sm.angular_distance(clusters[0].direction, (1, 1)) < TOL


def test_no_branch_when_origin_missed():
    with pytest.raises(NoBranchFound):
        sm.ptrop_sample_oracle(
            {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, 2)


def test_surface_samples_land_on_exact_cone():
    f = tp.trop_poly({(1, 1, 0): 0, (0, 0, 2): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=3), 3)
    exact = tp.ptrop_normal_fan(f)
    assert clusters
    for c in clusters:
        assert sm.distance_to_ptrop(exact, c.direction) < TOL


def test_sampler_rejects_unsupported_rank():
    with pytest.raises(DimensionMismatch):
        sm.ptrop_sample_oracle({(1, 0, 0, 0): 1.0}, 4)


def test_sampler_deterministic_per_seed():
    f = tp.trop_poly({(1, 1): 0, (2, 0): 0, (0, 2): 0})
    coeffs = sm.lift_coefficients(f, seed=5)
    a = sm.ptrop_sample_oracle(coeffs, 2)
    b = sm.ptrop_sample_oracle(coeffs, 2)
    assert a == b


def test_distance_to_cone_interior_and_outside():
    assert sm.distance_to_cone([(1, 0), (0, 1)], (1.0, 1.0)) < 1e-6
    assert sm.distance_to_cone([(1, 0)], (0.0, 1.0)) > 1.5


def _full_depth_slopes(coeffs, fixed_at, config, solve):
    """The slope loop solving at every radius, as the oracle first did."""
    radii = [config.initial_radius * config.decay ** k
             for k in range(config.depth)]
    logs_prev = None
    slopes = []
    for k, r in enumerate(radii):
        mags = np.sort(np.abs(solve(coeffs, fixed_at(r))))
        logs = np.log(np.maximum(mags, 1e-280))
        if k == len(radii) - 1 and logs_prev is not None \
                and len(logs) == len(logs_prev):
            quot = (logs - logs_prev) / math.log(config.decay)
            slopes = [float(s) for s in quot
                      if config.min_slope < s < config.max_slope]
        logs_prev = logs
    return slopes


@pytest.mark.parametrize("terms, n, seed", [
    ({(1, 1): 0, (3, 0): 0, (0, 3): 0}, 2, 1),
    ({(2, 1): 0, (0, 2): 0, (5, 0): 0, (1, 3): 0}, 2, 4),
    ({(1, 1, 0): 0, (0, 0, 2): 0}, 3, 3),
    ({(2, 0, 0): 0, (0, 1, 1): 0, (0, 0, 3): 0, (1, 1, 1): 0}, 3, 6),
])
def test_branch_slopes_solve_only_the_last_two_radii(monkeypatch, terms, n,
                                                     seed):
    solve, slopes_of = sm._last_var_roots, sm._branch_slopes
    solves = []
    paths = []

    def counted(coeffs, fixed):
        solves.append(fixed)
        return solve(coeffs, fixed)

    def checked(coeffs, fixed_at, config):
        before = len(solves)
        slopes = slopes_of(coeffs, fixed_at, config)
        assert len(solves) - before == 2
        assert slopes == _full_depth_slopes(coeffs, fixed_at, config, solve)
        paths.append(slopes)
        return slopes

    monkeypatch.setattr(sm, "_last_var_roots", counted)
    monkeypatch.setattr(sm, "_branch_slopes", checked)
    coeffs = sm.lift_coefficients(tp.trop_poly(terms), seed=seed)
    sm.ptrop_sample_oracle(coeffs, n)
    assert len(paths) == sm.SampleConfig().paths
    assert len(solves) == 2 * len(paths)
    assert any(paths)
