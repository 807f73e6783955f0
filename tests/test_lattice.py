"""Tests for the exact rational cone core.

Expected values below were computed independently (by hand for the small
cones, and against a brute-force Caratheodory membership oracle implemented
in this file for the randomized properties) and then frozen.  The membership
oracle decides v in cone(gens) by enumerating linearly independent generator
subsets and solving the resulting square systems exactly, which is slow but
shares no code with the double-description implementation under test.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from troplim import lattice as lat
from troplim import tropical as tp
from troplim.fans import facet_cones
from troplim._linalg import dot, identity_rows, mat_rank, solve_affine
from troplim.errors import NotStronglyConvex, RankCap, ZeroVector


def member_oracle(v, generators, n):
    """Decide membership in a finitely generated cone by Caratheodory search."""
    if all(x == 0 for x in v):
        return True
    gens = [g for g in generators if any(x != 0 for x in g)]
    for size in range(1, min(n, len(gens)) + 1):
        for subset in combinations(gens, size):
            if mat_rank(subset) != size:
                continue
            cols = [[Fraction(g[i]) for g in subset] for i in range(n)]
            sol = solve_affine(cols, [Fraction(x) for x in v])
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def cone_member_oracle(v, cone):
    """Membership oracle for a Cone value, folding lineality into generators."""
    gens = list(cone.rays)
    for line in cone.lines:
        gens.append(line)
        gens.append(tuple(-x for x in line))
    return member_oracle(v, gens, cone.n)


# -- primitive vectors ------------------------------------------------------


def test_primitive_examples():
    assert lat.primitive((2, 4)).direction == (1, 2)
    assert lat.primitive((1, 0, 0)).direction == (1, 0, 0)
    assert lat.primitive((-6, 9, -3)).direction == (-2, 3, -1)


def test_primitive_zero_rejected():
    with pytest.raises(ZeroVector):
        lat.primitive((0, 0, 0))


def test_primitive_fractional_input():
    assert lat.primitive((Fraction(1, 2), Fraction(3, 4))).direction == (2, 3)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4), st.integers(1, 9))
def test_primitive_idempotent_and_scale_invariant(vec, scale):
    if all(x == 0 for x in vec):
        with pytest.raises(ZeroVector):
            lat.primitive(tuple(vec))
        return
    p = lat.primitive(tuple(vec))
    assert lat.primitive(p.direction) == p
    assert lat.primitive(tuple(scale * x for x in vec)) == p


# -- cone construction ------------------------------------------------------


def test_quadrant_cone():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert set(c.facets) == {(0, 1), (1, 0)}
    assert c.equations == ()
    assert c.dim == 2
    assert c.is_pointed and c.is_simplicial and c.is_unimodular


def test_index_two_cone():
    c = lat.cone_from_generators([(1, 0), (1, 2)])
    assert c.is_simplicial
    assert not c.is_unimodular


def test_opposite_rays_rejected():
    with pytest.raises(NotStronglyConvex):
        lat.cone_from_generators([(1, 0), (-1, 0)])


def test_zero_generator_rejected():
    with pytest.raises(ZeroVector):
        lat.cone_from_generators([(0, 0), (1, 0)])


def test_rank_cap():
    with pytest.raises(RankCap):
        lat.cone_from_generators([(1, 0, 0, 0, 0)])


def test_redundant_generators_dropped():
    c = lat.cone_from_generators([(1, 0), (1, 1), (0, 1), (2, 3)])
    assert c.rays == ((0, 1), (1, 0))


def test_cone_equality_is_geometric():
    a = lat.cone_from_generators([(2, 0), (0, 3)])
    b = lat.cone_from_generators([(1, 0), (1, 1), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)


# -- containment ------------------------------------------------------------


def test_containment_trichotomy():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    assert lat.cone_contains(c, (1, 1)).kind == lat.INTERIOR
    loc = lat.cone_contains(c, (1, 0))
    assert loc.kind == lat.BOUNDARY
    assert loc.face.rays == ((1, 0),)
    assert lat.cone_contains(c, (-1, 1)).kind == lat.OUTSIDE


def test_containment_minimal_face_is_origin_at_apex():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    loc = lat.cone_contains(c, (0, 0))
    assert loc.kind == lat.BOUNDARY
    assert loc.face.dim == 0


# -- intersection -----------------------------------------------------------


def test_intersection_idempotent_example():
    c = lat.cone_from_generators([(1, 0), (1, 2)])
    assert lat.cone_intersect(c, c) == c


def test_intersection_opposite_quadrants_is_origin():
    a = lat.cone_from_generators([(1, 0), (0, 1)])
    b = lat.cone_from_generators([(-1, 0), (0, -1)])
    z = lat.cone_intersect(a, b)
    assert z.dim == 0
    assert z.rays == ()


def test_intersection_quadrant_with_upper_cone():
    # (0,1) = (1,1) + (-1,1) lies in both cones, so the intersection is the
    # full 2-dimensional cone between (0,1) and (1,1), not a single ray.
    a = lat.cone_from_generators([(1, 0), (0, 1)])
    b = lat.cone_from_generators([(1, 1), (-1, 1)])
    assert lat.cone_intersect(a, b).rays == ((0, 1), (1, 1))


def test_intersection_single_ray():
    a = lat.cone_from_generators([(1, 1), (2, 1)])
    b = lat.cone_from_generators([(1, 1), (1, 2)])
    c = lat.cone_intersect(a, b)
    assert c.rays == ((1, 1),)
    assert c.dim == 1


# -- faces ------------------------------------------------------------------


def test_quadrant_has_four_faces():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    faces = lat.cone_faces(c)
    assert len(faces) == 4
    assert sorted(f.dim for f in faces) == [0, 1, 1, 2]


def test_ray_has_two_faces():
    c = lat.cone_from_generators([(1, 2)])
    faces = lat.cone_faces(c)
    assert len(faces) == 2
    assert sorted(f.dim for f in faces) == [0, 1]


def test_octant_has_eight_faces():
    c = lat.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    faces = lat.cone_faces(c)
    assert len(faces) == 8
    assert sorted(f.dim for f in faces) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_cone_is_face_examples():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    assert lat.cone_is_face(lat.cone_from_generators([(1, 0)]), c)
    assert not lat.cone_is_face(lat.cone_from_generators([(1, 1)]), c)
    assert lat.cone_is_face(lat.zero_cone(2), c)
    assert lat.cone_is_face(c, c)


# -- lineality (internal constructor) ---------------------------------------


def test_half_plane_cone():
    c = lat.make_cone([(0, 1)], lines=[(1, 0)])
    assert c.lines == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.dim == 2
    assert not c.is_pointed
    assert lat.cone_contains(c, (-5, 1)).kind == lat.INTERIOR
    assert lat.cone_contains(c, (3, 0)).kind == lat.BOUNDARY
    assert lat.cone_contains(c, (0, -1)).kind == lat.OUTSIDE


def test_full_space_cone():
    c = lat.make_cone([], n=2, lines=[(1, 0), (0, 1)])
    assert c.dim == 2
    assert c.facets == ()
    assert lat.cone_contains(c, (-7, 13)).kind == lat.INTERIOR


# -- randomized properties --------------------------------------------------

small_vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda v: v != (0, 0)
)
small_vec3 = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
).filter(lambda v: v != (0, 0, 0))

gen_sets2 = st.lists(small_vec, min_size=1, max_size=5)
gen_sets3 = st.lists(small_vec3, min_size=1, max_size=4)


def _cones(gen_lists):
    return gen_lists.map(lambda gens: lat.make_cone(gens))


@settings(max_examples=120, deadline=None)
@given(_cones(gen_sets2))
def test_roundtrip_h_to_v_rank2(cone):
    lines, rays = lat.halfspaces_to_generators(
        cone.equations, cone.facets, cone.n
    )
    rebuilt = lat.make_cone(list(rays), n=cone.n, lines=list(lines))
    assert rebuilt == cone


@settings(max_examples=80, deadline=None)
@given(_cones(gen_sets3))
def test_roundtrip_h_to_v_rank3(cone):
    lines, rays = lat.halfspaces_to_generators(
        cone.equations, cone.facets, cone.n
    )
    rebuilt = lat.make_cone(list(rays), n=cone.n, lines=list(lines))
    assert rebuilt == cone


@settings(max_examples=100, deadline=None)
@given(gen_sets2)
def test_generators_satisfy_own_halfspaces(gens):
    cone = lat.make_cone(gens)
    for g in gens:
        for facet in cone.facets:
            assert dot(facet, g) >= 0
        for eq in cone.equations:
            assert dot(eq, g) == 0


@settings(max_examples=100, deadline=None)
@given(gen_sets2)
def test_pointedness_matches_public_constructor(gens):
    cone = lat.make_cone(gens)
    if cone.lines:
        with pytest.raises(NotStronglyConvex):
            lat.cone_from_generators(gens)
    else:
        assert lat.cone_from_generators(gens) == cone
        # dual of a pointed cone is full-dimensional
        assert mat_rank(cone.facets + cone.equations) == cone.n


@settings(max_examples=80, deadline=None)
@given(_cones(gen_sets2), _cones(gen_sets2))
def test_intersect_commutative(a, b):
    assert lat.cone_intersect(a, b) == lat.cone_intersect(b, a)


@settings(max_examples=40, deadline=None)
@given(_cones(gen_sets2), _cones(gen_sets2), _cones(gen_sets2))
def test_intersect_associative(a, b, c):
    left = lat.cone_intersect(lat.cone_intersect(a, b), c)
    right = lat.cone_intersect(a, lat.cone_intersect(b, c))
    assert left == right


@settings(max_examples=80, deadline=None)
@given(_cones(gen_sets2))
def test_intersect_idempotent(cone):
    assert lat.cone_intersect(cone, cone) == cone


@settings(max_examples=80, deadline=None)
@given(_cones(gen_sets2), small_vec)
def test_containment_agrees_with_oracle(cone, v):
    loc = lat.cone_contains(cone, v)
    member = cone_member_oracle(v, cone)
    if loc.kind == lat.OUTSIDE:
        assert not member
    else:
        assert member


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets2), _cones(gen_sets2), small_vec)
def test_intersection_membership_agrees_with_oracle(a, b, v):
    both = cone_member_oracle(v, a) and cone_member_oracle(v, b)
    meet = lat.cone_intersect(a, b)
    assert cone_member_oracle(v, meet) == both
    assert (lat.cone_contains(meet, v).kind != lat.OUTSIDE) == both


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets2))
def test_faces_are_faces(cone):
    faces = lat.cone_faces(cone)
    assert cone in faces
    for f in faces:
        assert lat.cone_is_face(f, cone)
    dims = [f.dim for f in faces]
    # the minimal face (the lineality space) appears exactly once
    assert dims.count(min(dims)) == 1


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3))
def test_relint_point_is_interior(cone):
    p = cone.relint_point()
    assert lat.cone_contains(cone, p).kind == lat.INTERIOR


# -- derived cones against the three-conversion constructor ------------------


def assert_rebuilds(cone):
    """The cone equals make_cone of its own V-data, H-data included."""
    rebuilt = lat.make_cone(list(cone.rays), n=cone.n, lines=list(cone.lines))
    assert rebuilt == cone
    # facets and equations are compare=False, so check them explicitly
    assert rebuilt.facets == cone.facets
    assert rebuilt.equations == cone.equations


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_positive_orthant_is_built_once_per_rank(n):
    orthant = lat.positive_orthant(n)
    assert lat.positive_orthant(n) is orthant
    expected = lat.make_cone(identity_rows(n), n=n)
    assert orthant == expected
    assert orthant.facets == expected.facets
    assert orthant.equations == expected.equations


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3), small_vec3)
def test_derived_cones_match_make_cone(cone, v):
    faces = lat.cone_faces(cone)
    for face in faces:
        assert_rebuilds(face)
        loc = lat.cone_contains(cone, face.relint_point())
        if face == cone:
            assert loc.kind == lat.INTERIOR and loc.face is None
        else:
            assert loc.kind == lat.BOUNDARY and loc.face == face
            assert_rebuilds(loc.face)
    for facet in facet_cones(cone):
        assert facet in faces and facet.dim == cone.dim - 1
        assert_rebuilds(facet)
    loc = lat.cone_contains(cone, v)
    if loc.face is not None:
        assert_rebuilds(loc.face)


exponent3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(exponent3, min_size=2, max_size=6, unique=True))
def test_normal_cones_match_make_cone(exponents):
    p = tp.newton_polytope(tp.trop_poly([(e, 0) for e in exponents]))
    for face in tp.polytope_faces(p):
        assert_rebuilds(tp.normal_cone(p, face))


# -- the memoized conversion ------------------------------------------------


def _all_int(data):
    return all(type(a) is int for rows in data for row in rows for a in row)


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3), gen_sets3)
def test_cached_conversion_matches_the_uncached_body(cone, rows):
    fresh = lat._halfspaces_to_generators.__wrapped__
    for args in ((cone.equations, cone.facets), (cone.lines, cone.rays),
                 ((), tuple(rows)), (tuple(rows[:1]), tuple(rows[1:]))):
        expected = fresh(*args, 3)
        assert lat.halfspaces_to_generators(*args, 3) == expected
        assert lat.halfspaces_to_generators(list(map(list, args[0])),
                                            list(args[1]), 3) == expected


def test_fraction_and_int_rows_give_identical_int_results():
    eqs, ineqs = [(1, 1, -1)], [(2, -1, 0), (0, 3, 1), (-1, 0, 2)]
    frac_eqs = [tuple(Fraction(a) for a in r) for r in eqs]
    frac_ineqs = [tuple(Fraction(a) for a in r) for r in ineqs]
    fresh = lat._halfspaces_to_generators.__wrapped__
    expected = fresh(tuple(eqs), tuple(ineqs), 3)
    assert fresh(tuple(frac_eqs), tuple(frac_ineqs), 3) == expected
    for first, second in (((frac_eqs, frac_ineqs), (eqs, ineqs)),
                          ((eqs, ineqs), (frac_eqs, frac_ineqs))):
        lat._halfspaces_to_generators.cache_clear()
        a = lat.halfspaces_to_generators(*first, 3)
        b = lat.halfspaces_to_generators(*second, 3)
        assert a == b == expected and repr(a) == repr(b) == repr(expected)
        assert _all_int(a)
    halves = lat.halfspaces_to_generators(
        [], [(Fraction(1, 2), Fraction(-1, 3), 0),
             (0, Fraction(2, 3), Fraction(1, 4))], 3)
    assert _all_int(halves)


def test_repeated_conversion_is_a_cache_hit():
    lat._halfspaces_to_generators.cache_clear()
    args = ([], [(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
    first = lat.halfspaces_to_generators(*args)
    before = lat.halfspaces_to_generators.cache_info()
    assert lat.halfspaces_to_generators(*args) is first
    after = lat.halfspaces_to_generators.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_conversion_cache_is_bounded():
    assert lat.halfspaces_to_generators.cache_info().maxsize == 1024


# -- the integer engine against frozen results ---------------------------------

F = Fraction

# inputs with Fraction, zero and repeated rows, and the conversion result
# each gave under the former Fraction elimination, frozen
FROZEN_CONVERSIONS = [
    (((), ((F(1, 2), 0, 0), (0, F(3), 0), (F(2, 3), F(2, 3), F(-2, 3)),
           (0, 0, F(5, 7))), 3),
     ((), ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)))),
    (((), ((F(2, 3), F(-4, 3)),), 2),
     (((2, 1),), ((0, -1),))),
    ((((F(1, 2), F(1, 2), F(-1, 2)),), ((1, 0, 0), (F(3), 0, 0), (0, 1, 0)),
      3),
     ((), ((0, 1, 1), (1, 0, 1)))),
    ((((0, 0, 0),), ((0, 0, 0), (1, 1, 0), (F(-1, 4), F(1, 4), 0)), 3),
     (((0, 0, 1),), ((-1, 1, 0), (1, 1, 0)))),
    ((((1, 0, F(1, 3), 0), (0, F(2), 0, -2)), (), 4),
     (((1, 0, -3, 0), (0, 1, 0, 1)), ())),
    (((), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (F(1, 2), F(-1, 3), F(1, 5), 0), (F(-1, 2), 1, 1, F(1, 6))), 4),
     ((), ((0, 0, 0, 1), (0, 0, 1, 0), (0, 3, 5, 0), (1, 0, 0, 3),
           (2, 0, 1, 0), (2, 1, 0, 0), (2, 3, 0, 0)))),
    (((), ((1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)), 4),
     (((0, 0, 0, 1),), ((1, -1, -1, 0), (1, -1, 1, 0), (1, 1, -1, 0),
                        (1, 1, 1, 0)))),
    (((), ((1, F(1, 2), 0), (F(-2), -1, 0), (0, 0, F(9, 2))), 3),
     (((1, -2, 0),), ((0, 0, 1),))),
    (((), ((1, 0), (-1, F(-1, 2)), (F(-1, 3), 1)), 2), ((), ())),
    ((((1, 0), (F(1, 2), F(1, 2))), ((1, 1),), 2), ((), ())),
]


@pytest.mark.parametrize("args, expected", FROZEN_CONVERSIONS)
def test_conversion_matches_frozen_results(args, expected):
    result = lat._halfspaces_to_generators.__wrapped__(*args)
    assert result == expected
    assert repr(result) == repr(expected)


def _scaled(row, s):
    return tuple(s * a for a in row)


positive_scale = st.fractions(F(1, 6), 6, max_denominator=6)
nonzero_scale = st.one_of(positive_scale, positive_scale.map(lambda s: -s))


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3), st.data())
def test_fraction_scaled_rows_convert_alike(cone, data):
    """Positive multiples of inequalities and nonzero multiples of equations
    give the same result, in the same int data."""
    fresh = lat._halfspaces_to_generators.__wrapped__
    for eqs, ineqs in ((cone.equations, cone.facets),
                       (cone.lines, cone.rays)):
        expected = fresh(eqs, ineqs, 3)
        scaled_eqs = tuple(_scaled(r, data.draw(nonzero_scale)) for r in eqs)
        scaled_ineqs = tuple(_scaled(r, data.draw(positive_scale))
                             for r in ineqs)
        result = fresh(scaled_eqs, scaled_ineqs, 3)
        assert result == expected and repr(result) == repr(expected)
