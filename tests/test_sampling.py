"""Tests for the floating-point PTrop sampling oracle."""

import json
import math
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from troplim import sampling as sm
from troplim import tropical as tp
from troplim.errors import DimensionMismatch, NoBranchFound, ResourceCap
from troplim.lattice import cone_from_generators

from test_acceptance import WORKED_EXAMPLES
from test_cli import EXEMPLARS, NODAL, QUADRANT, put

TOL = 1e-2


def test_nodal_cubic_two_clusters_near_exact_points():
    f = tp.trop_poly({(1, 1): 0, (3, 0): 0, (0, 3): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=1))
    assert len(clusters) == 2
    exact = tp.ptrop_normal_fan(f)
    assert max(sm.distance_to_ptrop(exact, [c.direction for c in clusters])
               ) < TOL
    # the double branch collects twice the samples of the simple one
    sizes = sorted(c.size for c in clusters)
    assert sizes == [200, 400]


def test_line_single_cluster_at_diagonal():
    f = tp.trop_poly({(1, 0): 0, (0, 1): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=2))
    assert len(clusters) == 1
    u = np.asarray(clusters[0].direction) / np.linalg.norm(
        clusters[0].direction)
    assert np.arccos(np.clip(u @ (1, 1) / math.sqrt(2), -1, 1)) < TOL


def test_no_branch_when_origin_missed():
    with pytest.raises(NoBranchFound):
        sm.ptrop_sample_oracle(
            {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})


def test_surface_samples_land_on_exact_cone():
    f = tp.trop_poly({(1, 1, 0): 0, (0, 0, 2): 0})
    clusters = sm.ptrop_sample_oracle(sm.lift_coefficients(f, seed=3))
    exact = tp.ptrop_normal_fan(f)
    assert clusters
    assert max(sm.distance_to_ptrop(exact, [c.direction for c in clusters])
               ) < TOL


def test_sampler_rejects_unsupported_rank():
    with pytest.raises(DimensionMismatch):
        sm.ptrop_sample_oracle({(1, 0, 0, 0): 1.0})


def test_sampler_refuses_no_coefficients():
    """No input file reaches this refusal: `ptrop` reads its file with
    `io.parse_polynomial`, which refuses an empty term list first (exit 3,
    the `trop` row of
    `test_cli.py::test_malformed_inputs_exit_with_a_documented_code`).  The
    guard stays for direct callers, since without it no variable count
    could be read off the exponents."""
    with pytest.raises(ValueError, match="need at least one coefficient"):
        sm.ptrop_sample_oracle({})


@pytest.mark.parametrize("coeffs, message", [
    ({(1, 0): 1.0, (0, 1, 1): 1.0},
     r"exponent \(0, 1, 1\) has length 3, not 2"),
    ({(1, 0, 0): 1.0, (0, 1): 1.0}, r"exponent \(0, 1\) has length 2, not 3"),
], ids=["longer", "shorter"])
def test_sampler_refuses_exponents_of_unequal_length(monkeypatch, coeffs,
                                                     message):
    """No input file reaches this refusal: `lift_coefficients` keys the
    exponents of one polynomial, which share its variable count.  Read off
    the first exponent alone, the count gave one cluster at (1/2, 1/2) for
    the first input and 72 three-coordinate clusters for the second.  The
    exponents are checked before the degree is read."""
    def unreachable(*args):
        raise AssertionError("the degree was read")

    monkeypatch.setattr(sm, "_require_degree", unreachable)
    with pytest.raises(DimensionMismatch, match=message):
        sm.ptrop_sample_oracle(coeffs)


def test_sampler_refuses_a_degree_above_the_cap_unbuilt(monkeypatch):
    """At a cap of 3, x + y^3 and x^5 + y, of degree 1 in y, the variable
    solved for, are sampled, and x + y^4 is refused with no polynomial
    array built."""
    monkeypatch.setattr(sm, "DEGREE_CAP", 3)
    assert sm.ptrop_sample_oracle({(1, 0): 1.0, (0, 3): 1.0})
    assert sm.ptrop_sample_oracle({(5, 0): 1.0, (0, 1): 1.0})

    def unreachable(*args):
        raise AssertionError("a polynomial array was built")

    monkeypatch.setattr(sm, "_last_var_polys", unreachable)
    with pytest.raises(ResourceCap, match="degree 4 in the last variable "
                       "exceeds the sampling oracle's cap of 3"):
        sm.ptrop_sample_oracle({(1, 0): 1.0, (0, 4): 1.0})


def test_sampler_deterministic_per_seed():
    f = tp.trop_poly({(1, 1): 0, (2, 0): 0, (0, 2): 0})
    coeffs = sm.lift_coefficients(f, seed=5)
    a = sm.ptrop_sample_oracle(coeffs)
    b = sm.ptrop_sample_oracle(coeffs)
    assert a == b


def distance_to_cone(rays, u):
    """Angular distance from a direction to a cone given by its rays."""
    a = np.asarray(u, dtype=float)
    return sm._angle_to(np.asarray(rays, dtype=float).T, a / np.linalg.norm(a))


def test_distance_to_cone_interior_and_outside():
    assert distance_to_cone([(1, 0), (0, 1)], (1.0, 1.0)) < 1e-6
    assert distance_to_cone([(1, 0)], (0.0, 1.0)) > 1.5


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


def _last_var_poly(coeffs, fixed):
    """The polynomial in the last variable, each power taken per term."""
    top = max(e[-1] for e in coeffs)
    poly = [0j] * (top + 1)
    for e, c in coeffs.items():
        scale = c
        for val, k in zip(fixed, e):
            scale *= val ** k
        poly[top - e[-1]] += scale
    return poly


def _np_roots(coeffs, fixed):
    """One polynomial solved on its own by np.roots."""
    return np.roots(_last_var_poly(coeffs, fixed))


def _draw_path(rng, n):
    """One path's weights and its substitution r -> the first n - 1
    coordinates at radius r, drawn one path at a time as the oracle first
    did."""
    if n == 2:
        theta = 2 * math.pi * rng.random()
        phase = complex(math.cos(theta), math.sin(theta))
        return (1.0,), lambda r: (r * phase,)
    thetas = 2 * math.pi * rng.random(2)
    w = 0.25 + 1.75 * rng.random(2)
    phases = [complex(math.cos(t), math.sin(t)) for t in thetas]
    return ((float(w[0]), float(w[1])),
            lambda r: (r ** w[0] * phases[0], r ** w[1] * phases[1]))


def _per_path(paths, slopes, count):
    """The stage's path indices and slopes as one list per path, after
    checking that the paths come out in increasing order."""
    assert paths.dtype.kind == "i" and (np.diff(paths) >= 0).all()
    out = [[] for _ in range(count)]
    for i, s in zip(paths.tolist(), slopes.tolist()):
        out[i].append(s)
    return out


def _stage(rows):
    """``_root_slopes`` of polynomials left-padded with zeros to a common
    width, rows 2i and 2i + 1 being path i's, as one list per path."""
    width = max(map(len, rows), default=1)
    padded = np.zeros((len(rows), width), dtype=complex)
    for row, p in zip(padded, rows):
        row[width - len(p):] = p
    return _per_path(*sm._root_slopes(padded), len(rows) // 2)


def _bits(per_path):
    return [[s.hex() for s in slopes] for slopes in per_path]


@pytest.mark.parametrize("terms, n, seed", [
    ({(1, 1): 0, (3, 0): 0, (0, 3): 0}, 2, 1),
    ({(2, 1): 0, (0, 2): 0, (5, 0): 0, (1, 3): 0}, 2, 4),
    ({(1, 1, 0): 0, (0, 0, 2): 0}, 3, 3),
    ({(2, 0, 0): 0, (0, 1, 1): 0, (0, 0, 3): 0, (1, 1, 1): 0}, 3, 6),
])
def test_branch_slopes_solve_only_the_last_two_radii(monkeypatch, terms, n,
                                                     seed):
    eigvals, stage = np.linalg.eigvals, sm._root_slopes
    batches = []
    found = []

    def counted(companions):
        batches.append(companions.shape)
        return eigvals(companions)

    def read(polys):
        found.append(stage(polys))
        return found[-1]

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(sm, "_root_slopes", read)
    coeffs = sm.lift_coefficients(tp.trop_poly(terms), seed=seed)
    sm.ptrop_sample_oracle(coeffs)
    # one eigenvalue call per trimmed length, holding two polynomials per
    # path in all, and one slope stage
    assert len({shape[1:] for shape in batches}) == len(batches)
    assert sum(shape[0] for shape in batches) == 2 * sm.PATHS
    [result] = found
    paths = _per_path(*result, sm.PATHS)
    rng = np.random.default_rng(0)
    for slopes in paths:
        _, fixed_at = _draw_path(rng, n)
        assert slopes == _full_depth_slopes(coeffs, fixed_at, _np_roots)
    assert any(paths)


def _slopes(before, after):
    """One path's slopes from its roots at the last two radii, as the oracle
    read them path by path."""
    if len(before) != len(after):
        return []
    logs = [np.log(np.maximum(np.sort(np.abs(roots)), 1e-280))
            for roots in (before, after)]
    quot = (logs[1] - logs[0]) / math.log(sm.DECAY)
    return [float(s) for s in quot if sm.MIN_SLOPE < s < sm.MAX_SLOPE]


root = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-9, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False))


@st.composite
def root_pairs(draw):
    """Roots of one path at the last two radii: equal or unequal counts,
    exact zero roots, single roots, and the real zero roots of a monomial;
    the second set is often the first one shrunk, so that many slopes fall
    inside the kept range."""
    def roots(size):
        if draw(st.booleans()) and draw(st.booleans()):
            return np.zeros(size)
        return np.array(draw(st.lists(root, min_size=size, max_size=size)),
                        dtype=complex)
    size = draw(st.integers(0, 4))
    before = roots(size)
    if draw(st.booleans()):
        after = roots(draw(st.integers(0, 4)))
    else:
        shrink = draw(st.floats(0.05, 1.0))
        after = before * shrink ** draw(st.floats(0.1, 6))
    return before, after


@settings(max_examples=100, deadline=None)
@given(st.lists(root_pairs(), max_size=12))
# a double root, whose slope is ill-conditioned: a real row solved as real
# reads 1.0 where the complex solve reads 0x1.fffffec026a0dp-1
@example([(np.array([1 + 0j, 1 + 0j]), np.array([0.5 + 0j, 0.5 + 0j]))])
def test_path_slopes_match_the_slopes_of_each_path(pairs):
    """Each path's two rows are the polynomials with the drawn roots, and
    its slopes are those of np.roots of each row, path by path.  np.poly
    gives a real row for real or conjugate roots, so each row is solved as
    complex, as the oracle's rows always are."""
    rows = [np.atleast_1d(np.poly(roots)) for pair in pairs for roots in pair]
    assert _bits(_stage(rows)) == _bits(
        [_slopes(np.roots(b.astype(complex)), np.roots(a.astype(complex)))
         for b, a in zip(rows[::2], rows[1::2])])


# coordinates with a zero part of either sign, substituted next to the
# radius-0 rows of a drawn path
SIGNED_ZEROS = [complex(a, b) for a in (0.0, -0.0, 0.5, -2.0)
                for b in (0.0, -0.0, 0.25, -1.5)]


@pytest.mark.parametrize("n", [2, 3])
def test_power_tables_keep_every_coefficient_bit_for_bit(n):
    @settings(max_examples=40, deadline=None)
    @given(_germs(n), st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def check(f, lift_seed, seed):
        coeffs = sm.lift_coefficients(f, seed=lift_seed)
        rng = np.random.default_rng(seed)
        _, fixed_at = _draw_path(rng, n)
        fixed = [fixed_at(r) for r in (sm.INITIAL_RADIUS, 1.0, 0.0)]
        fixed += [(z,) * (n - 1) for z in SIGNED_ZEROS]
        if n == 3:
            fixed += [(z, fixed[0][1]) for z in SIGNED_ZEROS]
        ours = sm._last_var_polys(coeffs, np.array(fixed, dtype=complex))
        assert ours.shape == (len(fixed), max(e[-1] for e in coeffs) + 1)
        for row, vals in zip(ours, fixed):
            theirs = _last_var_poly(coeffs, vals)
            assert row.tobytes() == np.array(theirs, dtype=complex).tobytes()

    check()


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
    """Each row is paired with the monomial of its root count, whose roots
    are exact zeros, and read with the slope window opened: every root
    gives one slope, the log quotient of its magnitude, so the rows' sorted
    root magnitudes are those of np.roots, which strips leading zeros."""
    polys = [np.array(p, dtype=complex) for p in EDGE_POLYS + polys]
    rows = []
    for p in polys:
        rows += [[1] + [0] * len(np.roots(p)), p]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sm, "MIN_SLOPE", -math.inf)
        mp.setattr(sm, "MAX_SLOPE", math.inf)
        ours = _stage(rows)
        theirs = [_slopes(np.roots(m), np.roots(p))
                  for m, p in zip(rows[::2], rows[1::2])]
    assert _bits(ours) == _bits(theirs)
    assert [len(s) for s in ours] == [len(np.roots(p)) for p in polys]


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
                sm.ptrop_sample_oracle(coeffs, seed)
            return
        assert sm.ptrop_sample_oracle(coeffs, seed) == expected

    check()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("f", [f for f in WORKED_EXAMPLES if f.n in (2, 3)])
def test_oracle_matches_the_reference_on_the_worked_germs(f, seed):
    """The oracle as the CLI runs it, lifted and sampled at one seed."""
    coeffs = sm.lift_coefficients(f, seed=seed)
    try:
        expected = _reference_oracle(coeffs, f.n, seed)
    except NoBranchFound:
        with pytest.raises(NoBranchFound):
            sm.ptrop_sample_oracle(coeffs, seed)
        return
    assert sm.ptrop_sample_oracle(coeffs, seed) == expected


def _per_cone_distance(ptset, u):
    """The distance as a loop of ``distance_to_cone`` calls, one per cone."""
    best = math.pi / 2
    for cone in ptset.cones:
        best = min(best, distance_to_cone(cone.rays, u))
    return best


@pytest.mark.parametrize("n", [2, 3, 4])
def test_distance_to_ptrop_matches_the_per_cone_loop(n):
    """Exactly equal, one distance per direction, in order."""
    direction = st.tuples(*[st.floats(1e-3, 10)] * n)

    @settings(max_examples=25, deadline=None)
    @given(_germs(n), st.lists(direction, max_size=4))
    def check(f, directions):
        ptset = tp.ptrop_normal_fan(f)
        assert sm.distance_to_ptrop(ptset, directions) == \
            [_per_cone_distance(ptset, u) for u in directions]

    check()


@st.composite
def ptrop_sets_and_directions(draw):
    """The PTrop set of a random germ in 2 or 3 variables, empty sets
    included, and directions of each kind: inside a cone, on a face two
    cones share, on a ray, nearly orthogonal to every cone, and random."""
    n = draw(st.sampled_from([2, 3]))
    ptset = tp.ptrop_normal_fan(draw(_germs(n)))

    def inside(rays):
        """A positive combination of the rays."""
        rays = np.asarray(rays, dtype=float)
        return np.asarray(draw(st.lists(st.floats(1e-3, 10), min_size=len(
            rays), max_size=len(rays)))) @ rays

    directions = [draw(st.tuples(*[st.floats(-10, 10)] * n))]
    if ptset.cones:
        directions.append(inside(draw(st.sampled_from(ptset.cones)).rays))
        ray = draw(st.sampled_from(ptset.cones)).rays
        directions.append(inside([draw(st.sampled_from(ray))]))
        shared = [sorted(set(a.rays) & set(b.rays))
                  for a, b in combinations(ptset.cones, 2)]
        if any(shared):
            directions.append(inside(draw(st.sampled_from(
                [face for face in shared if face]))))
        # minus the sum of every unit ray is obtuse to every cone, and a
        # small positive shift brings it just inside pi/2 of some of them
        total = sum((r / np.linalg.norm(r, axis=1, keepdims=True)).sum(axis=0)
                    for r in (np.asarray(c.rays, dtype=float)
                              for c in ptset.cones))
        shift = draw(st.tuples(*[st.floats(0, 1e-3)] * n))
        directions.append(-total / np.linalg.norm(total) + shift)
    assume(all(np.linalg.norm(u) > 1e-9 for u in directions))
    return ptset, directions


@settings(max_examples=150, deadline=None)
@given(ptrop_sets_and_directions())
def test_pruned_distance_is_the_minimum_over_every_cone(case):
    """Exactly equal to the minimum of ``_angle_to`` over every cone."""
    ptset, directions = case
    assert sm.distance_to_ptrop(ptset, directions) == \
        [_per_cone_distance(ptset, u) for u in directions]


def test_distance_to_an_empty_ptrop_set_is_a_right_angle():
    empty = tp.PTropSet(())
    assert sm.distance_to_ptrop(empty, [(1.0, 2.0), (-1.0, 0.5)]) == \
        [math.pi / 2] * 2
    assert sm.distance_to_ptrop(empty, []) == []


def test_a_direction_inside_one_of_disjoint_cones_solves_that_cone_only(
        monkeypatch):
    """The caps of the other cones lie far from the direction, so their
    lower bounds pass the angle 0 of the first cone solved."""
    ptset = tp.PTropSet(tuple(cone_from_generators(rays) for rays in (
        [(6, 1, 1), (6, 2, 1), (6, 1, 2)], [(1, 6, 1), (2, 6, 1)],
        [(1, 1, 6)])))
    solved = []
    angle_to = sm._angle_to
    monkeypatch.setattr(sm, "_angle_to", lambda mat, a: solved.append(
        mat.T.tolist()) or angle_to(mat, a))
    [distance] = sm.distance_to_ptrop(ptset, [(18.0, 4.0, 4.0)])
    assert distance < 1e-6
    assert solved == [[[6, 1, 1], [6, 1, 2], [6, 2, 1]]]


def _clipped_angle_to(mat, a):
    """``_angle_to`` with its cosine clipped into [-1, 1] by np.clip."""
    from scipy.optimize import nnls
    coeffs, _ = nnls(mat, a)
    proj = mat @ coeffs
    norm = np.linalg.norm(proj)
    if norm < 1e-12:
        return math.pi / 2
    return float(np.arccos(np.clip(a @ proj / norm, -1.0, 1.0)))


@st.composite
def cones_and_directions(draw):
    """Rays of a random cone in rank 2 or 3 and a direction that is random,
    a positive combination of the rays (inside the cone), or one ray
    scaled (parallel to it)."""
    n = draw(st.sampled_from([2, 3]))
    ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    rays = draw(st.lists(ray, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["random", "inside", "parallel"]))
    if kind == "random":
        u = np.array(draw(st.tuples(*[st.floats(-10, 10)] * n)))
    elif kind == "inside":
        weights = draw(st.lists(st.floats(1e-3, 10), min_size=len(rays),
                                max_size=len(rays)))
        u = np.asarray(weights) @ np.asarray(rays, dtype=float)
    else:
        u = draw(st.floats(1e-3, 10)) * np.asarray(draw(st.sampled_from(rays)),
                                                   dtype=float)
    norm = np.linalg.norm(u)
    assume(norm > 1e-9)
    return np.asarray(rays, dtype=float).T, u / norm


@settings(max_examples=200, deadline=None)
@given(cones_and_directions())
def test_angle_to_matches_the_clipped_cosine(case):
    mat, a = case
    assert sm._angle_to(mat, a).hex() == _clipped_angle_to(mat, a).hex()


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

    for i, j in np.argwhere(np.triu(close, 1)).tolist():
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


def _grid(side, step):
    """side ** 2 positive directions (1, a, b) on a square grid of the
    given spacing in a and b."""
    a, b = np.meshgrid(np.arange(side), np.arange(side))
    return np.column_stack([np.ones(side ** 2), 0.5 + step * a.ravel(),
                            0.5 + step * b.ravel()])


ANGLE = sm.CLUSTER_ANGLE
# 800 plane directions (1, s), s drawn around 1.5 with spread 1e-4
DENSE = np.column_stack([np.ones(800), 1.5 + np.random.default_rng(7).normal(
    scale=1e-4, size=800)])


@pytest.mark.parametrize("name, directions, sizes", [
    # only transitivity links the two ends of the chain
    ("chain", _arc(40, ANGLE), [40]),
    ("singletons", _arc(12, 10 * ANGLE), [1] * 12),
    ("all close", np.tile([[0.2, 0.3, 0.5]], (25, 1)), [25]),
    ("two chains", np.concatenate([_arc(9, ANGLE), _arc(7, ANGLE)[::-1]
                                   + [0, 0, 1]]), [7, 9]),
    # oracle-sized sets: a germ's paths times its branches
    ("dense plane", DENSE, [800]),
    ("long chain", _arc(320, ANGLE), [320]),
    ("singleton grid", _grid(15, 20 * ANGLE), [1] * 225),
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


@pytest.mark.parametrize("columns", [2, 3])
def test_gram_of_unit_directions_is_symmetric_bit_for_bit(columns):
    """``_cluster`` reads its graph off the whole Gram with no mirror, which
    holds because numpy forms unit @ unit.T as one symmetric product."""
    rng = np.random.default_rng(columns)
    for m in (1, 2, 3, 7, 8, 64, 65, 127, 300, 513, 800):
        directions = rng.random((m, columns)) + 1e-3
        unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        gram = unit @ unit.T
        assert gram.tobytes() == gram.T.tobytes()


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


def test_a_degree_beyond_the_cap_is_refused_before_numpy_loads(tmp_path):
    """ptrop on x + y^150 exits 4 with the cap's message, and the lift of
    its coefficients, which comes first, refuses it before numpy loads."""
    path = put(tmp_path, "x.json", {"vars": 2, "terms": [
        {"exp": [1, 0], "val": "0"}, {"exp": [0, 150], "val": "0"}]})
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from troplim import cli; code = cli.main(['ptrop', sys.argv[2]]); "
            "print(code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), path],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout == "4 False\n"
    assert out.stderr == ("resource cap: degree 150 in the last variable "
                          "exceeds the sampling oracle's cap of 64\n")
