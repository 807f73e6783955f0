"""End-to-end acceptance suite: one test per acceptance criterion.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per criterion.  Every test also prints a one-line summary with the
measured size and runtime of its check (visible with ``pytest -s`` or on
failure).  Corpora are frozen: fixed seeds, fixed generators, and the
expected values were derived independently before being asserted here.

Stated budgets and tolerances:

1.  PTrop route equivalence on 57 germs (n in {2,3,4}, degree <= 4,
    including the worked small examples): the normal fan, the recession
    cones of the hypersurface cells and those of the reference cells
    (search over achiever sets) agree exactly, under 10 s.
2.  Numeric sampling oracle vs exact PTrop on 24 germs (n in {2,3}),
    every cluster within 1e-2 of the exact set; for n = 2 the cluster
    count equals the exact point count; under 60 s.
3.  100 random degree-d plane germs for each d in 1..7 all satisfy the
    point-count bound g = (1,1,2,2,3,3,3); the one-node cubic attains
    g(3) = 2; under 10 s.
4.  Degree-2 base change of the 3-cycle degeneration is the 6-cycle
    (6 vertices, 6 edges) and base changes compose: (2 then 3) == 6.
5.  N-fold scale subdivision multiplies top-cell counts by exactly N^m
    in dimensions m in {1,2,3} for N in {2,3,4,5}, under 5 s.
6.  Along the degree-2^i tower (i <= 10) over the 3-cycle: the angles
    0, 1/6, 5/12, 7/48 are open from levels 0, 1, 2, 4 exactly, and two
    irrational angles are closed with carrier-edge widths exactly
    1/(3*2^i) at every level.
7.  Twenty rational directions in ranks 2 and 3 are recovered exactly
    by chain resolution along toward-direction towers; fiber models for
    (1, sqrt2) and (1, 1) have dimensions 0 and 1, ten further derived
    symbolic vectors have the predicted rank, and every basis change is
    a determinant +-1 matrix.
8.  The three map-fiber datasets reproduce: square-over-segment interior
    fiber (3, 2); triangle-over-segment fibers (2, 1) and (1,); solid
    tetrahedron over a segment gives fiber (3, 3, 1) with Euler
    characteristic 1, flagged as a mismatch against the reference
    boundary complex of Euler characteristic 2.
9.  The one-node curve gives a loop in analytic mode, a point in
    algebraic mode, and the collapse map between them is surjective.
10. Five randomized invariant suites at >= 200 cases each (subdivision
    composition, Euler invariance, rational-point nesting, common
    refinement laws, subdivision partial order), under 60 s total.
"""

import random
import time
from fractions import Fraction as F
from itertools import product

from troplim.complexes import (
    count_cells,
    cycle_complex,
    euler_characteristic,
    from_incidence,
    induced_map,
    map_fiber,
    rational_points,
    scale_subdivide,
)
from troplim.fans import common_refinement, fan_from_cones
from troplim.galaxy import (
    Circle,
    ClosedPoint,
    EllipticTower,
    OpenPoint,
    classify_point,
    galaxy_point,
)
from troplim._linalg import primitivize
from troplim.lattice import cone_from_generators
from troplim.sampling import (
    distance_to_ptrop,
    lift_coefficients,
    ptrop_sample_oracle,
)
from troplim.towers import (
    ResolvedRay,
    Symbol,
    TowardDirection,
    chain_toward,
    extend_tower,
    fan_tower,
    fiber_model,
    resolve_direction,
    symbolic_vector,
)
from troplim.tropical import (
    count_ptrop_points,
    ptrop_normal_fan,
    ptrop_recession,
    trop_poly,
)

from builders import (
    collapse_to_algebraic,
    component_ratio,
    fan_from_rays_2d,
    is_subdivision,
    nodal_cubic_incidence,
    point_complex,
    rational_vector,
    segment_complex,
    square_complex,
    stellar_subdivision,
    tetrahedron_boundary,
    tetrahedron_solid,
    triangle_complex,
)
from skeleton_references import push_point, vertex_location
from test_tropical import reference_recession

SQRT2 = Symbol("sqrt2", F(1414213, 10 ** 6), F(1414214, 10 ** 6))
SQRT3 = Symbol("sqrt3", F(1732050, 10 ** 6), F(1732051, 10 ** 6))
SQRT5 = Symbol("sqrt5", F(2236067, 10 ** 6), F(2236068, 10 ** 6))
SQRT7 = Symbol("sqrt7", F(2645751, 10 ** 6), F(2645752, 10 ** 6))
SQRT11 = Symbol("sqrt11", F(3316624, 10 ** 6), F(3316625, 10 ** 6))
SQRT2_MINUS_1 = Symbol("sqrt2-1", F(414213, 10 ** 6), F(414214, 10 ** 6))
GOLDEN_MINUS_1 = Symbol("golden-1", F(618033, 10 ** 6), F(618035, 10 ** 6))

WORKED_EXAMPLES = [
    trop_poly({(1, 1): 0, (3, 0): 0, (0, 3): 0}),
    trop_poly({(1, 0): 0, (0, 1): 0}),
    trop_poly({(1, 1, 0): 0, (0, 0, 2): 0}),
    trop_poly({(2, 0): 0, (1, 1): 0, (0, 2): 0}),
    trop_poly({(1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0}),
    trop_poly({(1, 0, 0, 0): 0, (0, 1, 0, 0): 0, (0, 0, 1, 1): 0}),
    trop_poly([((1, 0), F(1, 2)), ((0, 2), 0), ((2, 1), -1)]),
]


def random_germ(rng, n, max_deg=4):
    """2-8 random monomials of total degree in 1..max_deg, valuations -3..3."""
    pool = [e for e in product(range(max_deg + 1), repeat=n)
            if 0 < sum(e) <= max_deg]
    exps = rng.sample(pool, rng.randint(2, 8))
    return trop_poly({e: F(rng.randint(-3, 3)) for e in exps})


def random_degree_d_germ(rng, d):
    """A plane germ of total degree exactly d with at least two terms."""
    pool = [(i, j) for i in range(d + 1) for j in range(d + 1)
            if 0 < i + j <= d]
    while True:
        exps = [e for e in pool if rng.random() < 0.3]
        if len(exps) >= 2 and max(i + j for i, j in exps) == d:
            return trop_poly({e: F(rng.randint(-3, 3)) for e in exps})


def random_complete_fan_2d(rng):
    """The four axis rays plus up to four random directions."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(rng.randint(0, 4)):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v != (0, 0):
            rays.append(v)
    return fan_from_rays_2d(rays)


def det_sign(perm_matrix):
    """Determinant of a 0/1 permutation matrix via inversion parity."""
    pos = [row.index(1) for row in perm_matrix]
    inversions = sum(1 for i in range(len(pos)) for j in range(i + 1, len(pos))
                     if pos[i] > pos[j])
    return -1 if inversions % 2 else 1


def test_criterion_01_ptrop_route_equivalence():
    start = time.monotonic()
    rng = random.Random(0)
    germs = list(WORKED_EXAMPLES)
    for n, count in ((2, 20), (3, 18), (4, 12)):
        germs.extend(random_germ(rng, n) for _ in range(count))
    assert len(germs) >= 50
    for f in germs:
        exact = ptrop_normal_fan(f)
        assert exact == ptrop_recession(f)
        assert exact == reference_recession(f)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"criterion 1: PASS - {len(germs)} germs, three routes agree, "
          f"{elapsed:.2f}s")


def test_criterion_02_sampling_oracle_matches_exact_ptrop():
    start = time.monotonic()
    germs = []
    for a, b in product((2, 3, 4), repeat=2):
        germs.append(trop_poly({(1, 1): 0, (a, 0): 0, (0, b): 0}))
    for a, b in product((1, 2, 3), repeat=2):
        germs.append(trop_poly({(a, 0): 0, (0, b): 0}))
    for d in (1, 2, 3):
        germs.append(trop_poly({(1, 1, 0): 0, (0, 0, d): 0}))
        germs.append(trop_poly({(1, 0, 0): 0, (0, 1, d): 0}))
    assert len(germs) == 24
    worst = 0.0
    for idx, f in enumerate(germs):
        exact = ptrop_normal_fan(f)
        clusters = ptrop_sample_oracle(lift_coefficients(f, seed=idx))
        for dist in distance_to_ptrop(exact, [c.direction for c in clusters]):
            worst = max(worst, dist)
            assert dist < 1e-2
        if f.n == 2:
            assert len(clusters) == len(exact.points)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 2: PASS - 24 germs, worst cluster distance "
          f"{worst:.2e} < 1e-2, n=2 counts exact, {elapsed:.2f}s")


def test_criterion_03_point_count_bound_on_random_germs():
    start = time.monotonic()
    bound = (1, 1, 2, 2, 3, 3, 3)
    rng = random.Random(0)
    for d in range(1, 8):
        for _ in range(100):
            count = count_ptrop_points(random_degree_d_germ(rng, d))
            assert count <= bound[d - 1]
    cubic = trop_poly({(1, 1): 0, (3, 0): 0, (0, 3): 0})
    assert count_ptrop_points(cubic) == 2 == bound[2]
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"criterion 3: PASS - 700 random germs within the bound, "
          f"degree-3 example attains 2, {elapsed:.2f}s")


def test_criterion_04_base_change_of_cycle_degenerations():
    i3 = Circle(3)
    doubled = i3.level(2)
    assert count_cells(doubled) == i3.counts(2) == {0: 6, 1: 6}
    assert doubled == cycle_complex(6)
    # level 2 then level 3 is level 6, as cycle sizes and as complexes
    i6 = Circle(len(doubled.by_dim(1)))
    assert i6.counts(3) == i3.counts(6) == {0: 18, 1: 18}
    assert i6.level(3) == i3.level(6)
    print("criterion 4: PASS - I_3 doubles to I_6 (6 vertices, 6 edges); "
          "degree-2 then degree-3 equals degree-6")


def test_criterion_05_top_cell_ratio_is_n_to_the_m():
    start = time.monotonic()
    cases = [(segment_complex(), 1), (cycle_complex(2), 1),
             (triangle_complex(), 2), (square_complex(), 2),
             (tetrahedron_solid(), 3)]
    for x, m in cases:
        for n in (2, 3, 4, 5):
            assert component_ratio(scale_subdivide(x, n).complex, x) == n ** m
    elapsed = time.monotonic() - start
    assert elapsed < 5
    print(f"criterion 5: PASS - ratios equal N^m for m in 1..3, N in 2..5, "
          f"{elapsed:.2f}s")


def test_criterion_06_open_closed_points_along_the_doubling_tower():
    tower = EllipticTower(3, [2 ** i for i in range(11)])
    first_open = {F(0): (0, "v0"), F(1, 6): (1, "v1"),
                  F(5, 12): (2, "v5"), F(7, 48): (4, "v7")}
    for theta, (level, vertex) in first_open.items():
        res = classify_point(tower, galaxy_point(theta))
        assert isinstance(res, OpenPoint)
        assert (res.level, res.vertex) == (level, vertex)
        assert res.label == theta
    for sym in (SQRT2_MINUS_1, GOLDEN_MINUS_1):
        res = classify_point(tower, galaxy_point(sym))
        assert isinstance(res, ClosedPoint)
        assert len(res.carriers) == 11
        for i, edge in enumerate(res.carriers):
            assert edge.width == F(1, 3 * 2 ** i)
    print("criterion 6: PASS - rational angles open at levels 0/1/2/4, "
          "irrational angles closed with widths 1/(3*2^i)")


def test_criterion_07_direction_chains_and_fiber_models():
    start = time.monotonic()
    quadrants = fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (0, -1)])
    octants = fan_from_cones(
        [cone_from_generators([(sx, 0, 0), (0, sy, 0), (0, 0, sz)], n=3)
         for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
    directions = [
        (1, 1), (2, 1), (1, 2), (3, 1), (1, 3),
        (3, 2), (2, 3), (5, 2), (2, 5), (5, 3),
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 3, 1),
        (1, 2, 3), (3, 1, 2), (5, 2, 1), (1, 4, 2), (2, 4, 2),
    ]
    assert len(directions) == 20
    for d in directions:
        base, steps = (quadrants, 8) if len(d) == 2 else (octants, 3)
        tower = extend_tower(fan_tower(base),
                             TowardDirection(rational_vector(d)), steps)
        res = resolve_direction(chain_toward(tower, rational_vector(d)))
        assert isinstance(res, ResolvedRay)
        assert res.ray == primitivize(d)

    # (n, symbols, entries, expected rank); dim is n - rank throughout.
    fiber_cases = [
        (2, (SQRT2,), [1, [0, 1]], 2),
        (2, (), [1, 1], 1),
        (2, (SQRT2,), [[0, 1], [0, 1]], 1),
        (2, (SQRT2,), [[0, 1], [1, 1]], 2),
        (3, (SQRT2,), [1, [0, 1], [1, 1]], 2),
        (3, (), [1, 2, 3], 1),
        (3, (SQRT2, SQRT3), [1, [0, 1, 0], [0, 0, 1]], 3),
        (3, (SQRT5,), [[0, 1], [0, 2], 1], 2),
        (4, (SQRT2, SQRT3), [1, [0, 1, 0], [0, 0, 1], [0, 1, 1]], 3),
        (4, (SQRT7,), [1, 2, [0, 1], [0, 3]], 2),
        (4, (SQRT11,), [F(3, 2), [0, 1], 0, 0], 2),
        (2, (), [F(2, 3), F(1, 3)], 1),
    ]
    for n, symbols, entries, rank in fiber_cases:
        model = fiber_model(symbolic_vector(entries, symbols))
        assert model.rank == rank
        assert model.dim == n - rank
        assert det_sign(model.basis_change) in (1, -1)
    irrational = fiber_model(symbolic_vector([1, [0, 1]], (SQRT2,)))
    rational = fiber_model(rational_vector((1, 1)))
    assert (irrational.dim, rational.dim) == (0, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"criterion 7: PASS - 20 directions resolved exactly, "
          f"{len(fiber_cases)} fiber models with unimodular basis changes, "
          f"{elapsed:.2f}s")


def test_criterion_08_map_fiber_datasets_reproduce():
    square_over_segment = induced_map(
        square_complex(), segment_complex(),
        {"a": "z0", "b": "z1", "c": "z0", "d": "z1"})
    mid = map_fiber(square_over_segment, "e", (F(1, 2), F(1, 2)))
    assert mid.f_vector == (3, 2) and mid.euler == 1
    assert map_fiber(square_over_segment, "z0", (1,)).f_vector == (2, 1)

    triangle_over_segment = induced_map(
        triangle_complex(), segment_complex(),
        {"a": "z0", "b": "z0", "c": "z1"})
    assert map_fiber(triangle_over_segment, "z0", (1,)).f_vector == (2, 1)
    assert map_fiber(triangle_over_segment, "z1", (1,)).f_vector == (1,)

    quartic_over_segment = induced_map(
        tetrahedron_solid(), segment_complex(),
        {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"})
    fib = map_fiber(quartic_over_segment, "e", (F(1, 2), F(1, 2)))
    assert fib.f_vector == (3, 3, 1) and fib.euler == 1
    reference_euler = euler_characteristic(tetrahedron_boundary())
    assert fib.euler == 1
    assert reference_euler == 2
    assert fib.euler != reference_euler
    print("criterion 8: PASS - all three fiber datasets reproduce; the "
          "Euler characteristic mismatch (1 vs 2) is flagged")


def test_criterion_09_one_node_curve_duals_and_collapse():
    loop = from_incidence(nodal_cubic_incidence("analytic"))
    assert count_cells(loop) == {0: 1, 1: 1}
    assert euler_characteristic(loop) == 0

    point = from_incidence(nodal_cubic_incidence("algebraic"))
    assert count_cells(point) == {0: 1}
    assert euler_characteristic(point) == 1

    collapsed, mapping = collapse_to_algebraic(loop)
    assert count_cells(collapsed) == count_cells(point)
    hit = {mapping.cell_image(c.name)[0] for c in loop.cells}
    assert hit == {c.name for c in collapsed.cells}
    print("criterion 9: PASS - analytic dual is a loop, algebraic dual a "
          "point, collapse surjective")


def test_criterion_10_randomized_invariant_suites():
    start = time.monotonic()
    bases = [segment_complex(), cycle_complex(1), cycle_complex(2),
             cycle_complex(3), cycle_complex(4), triangle_complex(),
             square_complex()]
    pool = bases + [tetrahedron_boundary(), tetrahedron_solid(),
                    point_complex()]

    rng = random.Random(0)
    pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
    for _ in range(200):
        base, (a, b) = rng.choice(bases), rng.choice(pairs)
        s_b = scale_subdivide(base, b)
        s_ab = scale_subdivide(s_b.complex, a)
        direct = scale_subdivide(base, a * b)
        assert count_cells(s_ab.complex) == count_cells(direct.complex)
        composed = {push_point(s_b, *vertex_location(s_ab, v.name))
                    for v in s_ab.complex.by_dim(0)}
        assert composed == {vertex_location(direct, v.name)
                            for v in direct.complex.by_dim(0)}

    rng = random.Random(1)
    for _ in range(220):
        x, n = rng.choice(pool), rng.randint(2, 4)
        assert euler_characteristic(
            scale_subdivide(x, n).complex) == euler_characteristic(x)

    rng = random.Random(2)
    for _ in range(200):
        x, level, k = rng.choice(pool), rng.randint(1, 4), rng.randint(2, 4)
        assert set(rational_points(x, level)) <= set(
            rational_points(x, level * k))

    rng = random.Random(3)
    for _ in range(200):
        a, b = random_complete_fan_2d(rng), random_complete_fan_2d(rng)
        ab, over_a, over_b = common_refinement(a, b)
        assert ab == common_refinement(b, a)[0]
        assert common_refinement(a, a)[0] == a
        assert common_refinement(a, ab)[0] == ab
        assert over_a == is_subdivision(ab, a) is not None
        assert over_b == is_subdivision(ab, b) is not None

    rng = random.Random(4)
    for _ in range(200):
        f = random_complete_fan_2d(rng)
        u, v = rng.choice(f.maximal).rays
        s1 = stellar_subdivision(f, tuple(x + y for x, y in zip(u, v)))
        s2 = stellar_subdivision(
            s1, tuple(x + y for x, y in zip(*rng.choice(s1.maximal).rays)))
        assert is_subdivision(f, f) is not None
        assert is_subdivision(s1, f) is not None
        assert is_subdivision(s2, s1) is not None
        assert is_subdivision(s2, f) is not None
        assert is_subdivision(f, s1) is None

    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 10: PASS - 5 suites x >= 200 randomized cases, "
          f"{elapsed:.2f}s")
