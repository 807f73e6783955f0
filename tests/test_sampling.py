"""Tests for the floating-point PTrop sampling oracle."""

import math
import subprocess
import sys
from pathlib import Path

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
    u = np.asarray(clusters[0].direction) / np.linalg.norm(
        clusters[0].direction)
    assert np.arccos(np.clip(u @ (1, 1) / math.sqrt(2), -1, 1)) < TOL


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


def _full_depth_slopes(coeffs, fixed_at, solve):
    """The slope loop solving at every radius, as the oracle first did."""
    radii = [sm.INITIAL_RADIUS * sm.DECAY ** k for k in range(sm.DEPTH)]
    logs_prev = None
    slopes = []
    for k, r in enumerate(radii):
        mags = np.sort(np.abs(solve(coeffs, fixed_at(r))))
        logs = np.log(np.maximum(mags, 1e-280))
        if k == len(radii) - 1 and logs_prev is not None \
                and len(logs) == len(logs_prev):
            quot = (logs - logs_prev) / math.log(sm.DECAY)
            slopes = [float(s) for s in quot
                      if sm.MIN_SLOPE < s < sm.MAX_SLOPE]
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

    def checked(coeffs, fixed_at):
        before = len(solves)
        slopes = slopes_of(coeffs, fixed_at)
        assert len(solves) - before == 2
        assert slopes == _full_depth_slopes(coeffs, fixed_at, solve)
        paths.append(slopes)
        return slopes

    monkeypatch.setattr(sm, "_last_var_roots", counted)
    monkeypatch.setattr(sm, "_branch_slopes", checked)
    coeffs = sm.lift_coefficients(tp.trop_poly(terms), seed=seed)
    sm.ptrop_sample_oracle(coeffs, n)
    assert len(paths) == sm.PATHS
    assert len(solves) == 2 * len(paths)
    assert any(paths)


def _union_find_clusters(directions, angle):
    """Single linkage by union-find over every pair, as the oracle first did."""
    m = len(directions)
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    close = np.arccos(gram) < angle
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if close[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        total = unit[members].sum(axis=0)
        norm = total / total.sum()
        clusters.append(sm.Cluster(tuple(float(c) for c in norm),
                                   len(members)))
    return sorted(clusters, key=lambda c: c.direction)


def _arc(m, step):
    """m positive directions, consecutive ones about 0.9 step apart."""
    t = 0.2 + step * np.arange(m)
    return np.stack([np.cos(t), np.sin(t), np.full(m, 0.5)], axis=1)


ANGLE = sm.CLUSTER_ANGLE


@pytest.mark.parametrize("name, directions, sizes", [
    # only transitivity links the two ends of the chain
    ("chain", _arc(40, ANGLE), [40]),
    ("singletons", _arc(12, 10 * ANGLE), [1] * 12),
    ("all close", np.tile([[0.2, 0.3, 0.5]], (25, 1)), [25]),
    ("two chains", np.concatenate([_arc(9, ANGLE), _arc(7, ANGLE)[::-1]
                                   + [0, 0, 1]]), [7, 9]),
])
def test_cluster_shapes_match_union_find(name, directions, sizes):
    clusters = sm._cluster(directions, ANGLE)
    assert clusters == _union_find_clusters(directions, ANGLE)
    assert sorted(c.size for c in clusters) == sizes


def test_cluster_components_match_union_find_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(300):
        centers = rng.random((rng.integers(1, 6), 3)) + 0.05
        picks = centers[rng.integers(0, len(centers), rng.integers(1, 80))]
        noise = rng.normal(scale=rng.choice([1e-4, 1e-3, 3e-3]),
                           size=picks.shape)
        directions = np.abs(picks + noise) + 1e-3
        assert sm._cluster(directions, ANGLE) == \
            _union_find_clusters(directions, ANGLE)


def test_importing_the_cli_leaves_scipy_unloaded():
    src = Path(sm.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import troplim.cli; "
            "print(troplim.cli.__file__); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout.split()
    assert Path(out[0]).resolve().is_relative_to(src)
    assert out[1] == "False"
