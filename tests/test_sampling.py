"""Tests for the floating-point PTrop sampling oracle."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplim import sampling as sm
from troplim import tropical as tp
from troplim.errors import DimensionMismatch, NoBranchFound

from test_cli import EXEMPLARS, NODAL, QUADRANT, put

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


def _np_roots(coeffs, fixed):
    """One polynomial solved on its own by np.roots."""
    return np.roots(sm._last_var_poly(coeffs, fixed))


@pytest.mark.parametrize("terms, n, seed", [
    ({(1, 1): 0, (3, 0): 0, (0, 3): 0}, 2, 1),
    ({(2, 1): 0, (0, 2): 0, (5, 0): 0, (1, 3): 0}, 2, 4),
    ({(1, 1, 0): 0, (0, 0, 2): 0}, 3, 3),
    ({(2, 0, 0): 0, (0, 1, 1): 0, (0, 0, 3): 0, (1, 1, 1): 0}, 3, 6),
])
def test_branch_slopes_solve_only_the_last_two_radii(monkeypatch, terms, n,
                                                     seed):
    solve, draw, slopes_of = sm._batched_roots, sm._draw_path, sm._slopes
    batches = []
    fixed = []
    paths = []

    def counted(polys):
        batches.append(len(polys))
        return solve(polys)

    def drawn(rng, n):
        weights, fixed_at = draw(rng, n)
        fixed.append(fixed_at)
        return weights, fixed_at

    def read(before, after):
        slopes = slopes_of(before, after)
        paths.append(slopes)
        return slopes

    monkeypatch.setattr(sm, "_batched_roots", counted)
    monkeypatch.setattr(sm, "_draw_path", drawn)
    monkeypatch.setattr(sm, "_slopes", read)
    coeffs = sm.lift_coefficients(tp.trop_poly(terms), seed=seed)
    sm.ptrop_sample_oracle(coeffs, n)
    # one batch, holding two polynomials per path
    assert batches == [2 * sm.PATHS]
    assert len(fixed) == len(paths) == sm.PATHS
    for fixed_at, slopes in zip(fixed, paths):
        assert slopes == _full_depth_slopes(coeffs, fixed_at, _np_roots)
    assert any(paths)


def _same_roots(ours, theirs):
    return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and ours.tobytes() == theirs.tobytes())


# np.roots strips leading zeros, appends one zero root per trailing zero,
# and finds no root of a polynomial that is zero or constant once trimmed
EDGE_POLYS = [
    [1, 2, 0], [0, 0, 1, -3, 2], [0, 2j, 0, 0], [0, 0], [0j], [5], [0, 3, 0],
    [1j, 0, 0, 0], [2, -1, 1 + 1j], [0, 1, 1, 0, 0, 0], [-0.0, 1, 0],
]

coefficient = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(coefficient, min_size=1, max_size=8), max_size=10))
def test_batched_roots_match_np_roots_bit_for_bit(polys):
    polys = [np.array(p, dtype=complex) for p in EDGE_POLYS + polys]
    for ours, p in zip(sm._batched_roots(polys), polys):
        assert _same_roots(ours, np.roots(p))


def _reference_oracle(coeffs, n, seed=0):
    """The oracle path by path, two np.roots calls each, as it first ran."""
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(sm.PATHS):
        if n == 2:
            theta = 2 * math.pi * rng.random()
            phase = complex(math.cos(theta), math.sin(theta))
            weights = (1.0,)

            def fixed_at(r, phase=phase):
                return (r * phase,)
        else:
            thetas = 2 * math.pi * rng.random(2)
            w = 0.25 + 1.75 * rng.random(2)
            phases = [complex(math.cos(t), math.sin(t)) for t in thetas]
            weights = (float(w[0]), float(w[1]))

            def fixed_at(r, phases=phases, w=w):
                return (r ** w[0] * phases[0], r ** w[1] * phases[1])

        logs = []
        for k in (sm.DEPTH - 2, sm.DEPTH - 1):
            r = sm.INITIAL_RADIUS * sm.DECAY ** k
            mags = np.sort(np.abs(_np_roots(coeffs, fixed_at(r))))
            logs.append(np.log(np.maximum(mags, 1e-280)))
        if len(logs[0]) != len(logs[1]):
            continue
        for s in (logs[1] - logs[0]) / math.log(sm.DECAY):
            if sm.MIN_SLOPE < s < sm.MAX_SLOPE:
                vec = weights + (float(s),)
                total = sum(vec)
                directions.append(tuple(c / total for c in vec))
    if not directions:
        raise NoBranchFound("no branch")
    return tuple(sm._cluster(np.asarray(directions), sm.CLUSTER_ANGLE))


def _germs(n):
    exps = st.tuples(*([st.integers(0, 3)] * n)).filter(lambda e: sum(e))
    return st.dictionaries(exps, st.just(0), min_size=1, max_size=5
                           ).map(tp.trop_poly)


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matches_the_per_path_reference(n):
    @settings(max_examples=12, deadline=None)
    @given(_germs(n), st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def check(f, lift_seed, seed):
        coeffs = sm.lift_coefficients(f, seed=lift_seed)
        try:
            expected = _reference_oracle(coeffs, n, seed)
        except NoBranchFound:
            with pytest.raises(NoBranchFound):
                sm.ptrop_sample_oracle(coeffs, n, seed)
            return
        assert sm.ptrop_sample_oracle(coeffs, n, seed) == expected

    check()


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


SRC = Path(sm.__file__).resolve().parents[1]


def _fresh(code, *args):
    """Lines printed by ``code`` run in a fresh interpreter that imports
    troplim from this checkout."""
    code = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    return subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout.splitlines()


def test_importing_the_cli_leaves_scipy_unloaded():
    """Neither ``import troplim`` nor ``import troplim.cli`` loads numpy or
    scipy, but both load ``troplim.sampling``, where the benchmark tracer
    looks it up."""
    for module in ("troplim", "troplim.cli"):
        out = _fresh(f"import {module}, troplim; print(troplim.__file__); "
                     "print(*(m in sys.modules for m in "
                     "('numpy', 'scipy', 'troplim.sampling')))")
        assert Path(out[0]).resolve().is_relative_to(SRC)
        assert out[1] == "False False True", module


def test_only_a_ptrop_job_loads_numpy(tmp_path):
    """In one interpreter, a job of every other subcommand leaves numpy and
    scipy unloaded; a ptrop job whose germ reaches the oracle loads both."""
    jobs = [[command, put(tmp_path, f"{command}.json", obj)]
            + ([put(tmp_path, "b.json", QUADRANT)] if command == "refine"
               else [])
            for command, obj in sorted(EXEMPLARS.items())
            if command != "ptrop"]
    jobs.append(["ptrop", put(tmp_path, "nodal.json", NODAL)])
    code = textwrap.dedent("""\
        import contextlib, io, json
        from troplim import cli
        for argv in json.loads(sys.argv[2]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(argv[0], code, 'numpy' in sys.modules,
                  'scipy' in sys.modules)
        """)
    out = _fresh(code, json.dumps(jobs))
    assert out == [f"{argv[0]} 0 False False" for argv in jobs[:-1]] + \
        ["ptrop 0 True True"]
