"""Tests for the exact rational cone core.

Expected values below were computed independently (by hand for the small
cones, and against a brute-force Caratheodory membership oracle implemented
in this file for the randomized properties) and then frozen.  The membership
oracle decides v in cone(gens) by enumerating linearly independent generator
subsets and solving the resulting square systems exactly, which is slow but
shares no code with the double-description implementation under test.
The conversion itself is also checked against the brute-force enumeration
of row subsets it replaced, kept here as ``reference_conversion``.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from builders import (
    cone_from_halfspaces,
    cone_is_face,
    face_lattice,
    facet_cones,
    make_cone,
    newton_polytope,
    normal_cone,
    segment_complex,
    unpruned_conversion,
)
from test_linalg import (
    matrices,
    reference_primitivize,
    reference_rref,
    reference_solve_affine,
)
from test_tropical import hypersurface_polys, normal_fan_polys, polytope_faces
from troplim import _linalg as la
from troplim import complexes, fans, galaxy
from troplim import lattice as lat
from troplim import tropical as tp
from troplim._polyhedra import homogenization_info
from troplim._linalg import dot, identity_rows, mat_rank
from troplim.errors import (
    DimensionMismatch,
    NotStronglyConvex,
    RankCap,
    ValidationError,
    ZeroVector,
)


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
            sol = reference_solve_affine(cols, [Fraction(x) for x in v])
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


@pytest.mark.parametrize("generators, n, error, message", [
    ([], None, ValueError, "ambient rank required"),
    ([], -1, ValueError, "must be nonnegative"),
    ([(1, 0)], -1, ValueError, "must be nonnegative"),
    ([(1, 0), (1, 0, 0)], None, DimensionMismatch, "has length 3, expected 2"),
    ([(1, 0)], 3, DimensionMismatch, "has length 2, expected 3"),
], ids=["empty-no-rank", "empty-negative-rank", "negative-rank",
        "ragged", "short"])
def test_cone_from_generators_refuses_bad_shapes(generators, n, error,
                                                 message):
    """No input file reaches the first three: every reader passes the
    rank, which it parses as nonnegative.  A short base ray of a
    toric-fiber file reaches the length check (see test_cli.py)."""
    with pytest.raises(error, match=message):
        lat.cone_from_generators(generators, n)


# ``cone_from_generators`` keeps no self-check that the generators lie in
# the cone: the cone's equations and facets are the lines and rays of the
# dual cone {y : y.g >= 0 for every generator g}, so only a faulty
# conversion could put a generator outside, and the conversion is checked
# against brute force and ``unpruned_conversion`` below.


def _toric_fiber_of(matrix):
    quadrant = fans.fan_from_cones([lat.cone_from_generators([(1, 0), (0, 1)])])
    return complexes.toric_fiber_complex(matrix, quadrant, quadrant,
                                         lat.cone_from_generators([], n=2))


@pytest.mark.parametrize("call, error", [
    (lambda: lat.cone_from_generators([(Fraction(1, 2), 1), (1, 0)]),
     ValueError),
    (lambda: lat.cone_from_generators([(Fraction(1, 2), 0)]), ValueError),
    (lambda: tp.trop_poly({(0.5, 1): 0, (1, 0): 0}), ValueError),
    (lambda: complexes.induced_map(
        segment_complex(), segment_complex(), {"z0": "z0", "z1": "z1"},
        {"e": ("e", (0, 1.5))}), ValidationError),
    (lambda: _toric_fiber_of([(1, 0), (0, Fraction(3, 2))]),
     DimensionMismatch),
    (lambda: galaxy.EllipticTower(2, [1, 2.5]), ValidationError),
], ids=["cone-generator", "cone-half-generator", "exponent", "cell-image",
        "lattice-map", "tower-degree"])
def test_a_non_integer_is_refused_not_truncated(call, error):
    """Each library entry point that reads integers refuses a value that
    ``int`` would truncate, with the error it raises for other malformed
    values of that argument.  The input readers parse integers first, so
    no input file reaches these."""
    with pytest.raises(error, match="is not an integer"):
        call()


def test_cone_holds_and_cone_intersect_refuse_other_ranks():
    """No input file reaches these: a toric-fiber file's matrix shape is
    checked before any image is tested, and a fan's cones share its rank."""
    quadrant = lat.cone_from_generators([(1, 0), (0, 1)])
    octant = lat.cone_from_generators(identity_rows(3))
    with pytest.raises(DimensionMismatch, match="wrong length"):
        lat.cone_holds(quadrant, [(1, 0, 0)])
    with pytest.raises(DimensionMismatch, match="wrong length"):
        lat.cone_holds(quadrant, [(1, 0)], [(0, 1, 0)])
    with pytest.raises(DimensionMismatch, match="ranks differ: 2 vs 3"):
        lat.cone_intersect(quadrant, octant)


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
    assert lat.locate(c, (1, 1)) == c
    face = lat.locate(c, (1, 0))
    assert face is not None and face != c
    assert face.rays == ((1, 0),)
    assert lat.locate(c, (-1, 1)) is None


def test_containment_minimal_face_is_origin_at_apex():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    face = lat.locate(c, (0, 0))
    assert face is not None and face != c
    assert face.dim == 0


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


def is_face(face, cone):
    """The library's face test: ``face`` is the minimal face of ``cone``
    holding its own ray sum."""
    return lat.locate(cone, face.relint_point()) == face


def test_cone_is_face_examples():
    c = lat.cone_from_generators([(1, 0), (0, 1)])
    for face, expected in ((lat.cone_from_generators([(1, 0)]), True),
                           (lat.cone_from_generators([(1, 1)]), False),
                           (make_cone([], n=2), True), (c, True)):
        assert cone_is_face(face, c) == is_face(face, c) == expected


# -- lineality (internal constructor) ---------------------------------------


def test_half_plane_cone():
    c = make_cone([(0, 1)], lines=[(1, 0)])
    assert c.lines == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.dim == 2
    assert not c.is_pointed
    assert lat.locate(c, (-5, 1)) == c
    assert lat.locate(c, (3, 0)) not in (None, c)
    assert lat.locate(c, (0, -1)) is None


def test_full_space_cone():
    c = make_cone([], n=2, lines=[(1, 0), (0, 1)])
    assert c.dim == 2
    assert c.facets == ()
    assert lat.locate(c, (-7, 13)) == c


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
    return gen_lists.map(lambda gens: make_cone(gens))


@settings(max_examples=120, deadline=None)
@given(_cones(gen_sets2))
def test_roundtrip_h_to_v_rank2(cone):
    lines, rays, _ = lat.halfspaces_to_generators(
        cone.equations, cone.facets, cone.n
    )
    rebuilt = make_cone(list(rays), n=cone.n, lines=list(lines))
    assert rebuilt == cone


@settings(max_examples=80, deadline=None)
@given(_cones(gen_sets3))
def test_roundtrip_h_to_v_rank3(cone):
    lines, rays, _ = lat.halfspaces_to_generators(
        cone.equations, cone.facets, cone.n
    )
    rebuilt = make_cone(list(rays), n=cone.n, lines=list(lines))
    assert rebuilt == cone


@settings(max_examples=100, deadline=None)
@given(gen_sets2)
def test_generators_satisfy_own_halfspaces(gens):
    cone = make_cone(gens)
    for g in gens:
        for facet in cone.facets:
            assert dot(facet, g) >= 0
        for eq in cone.equations:
            assert dot(eq, g) == 0


@settings(max_examples=100, deadline=None)
@given(gen_sets2)
def test_pointedness_matches_public_constructor(gens):
    cone = make_cone(gens)
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
    face = lat.locate(cone, v)
    member = cone_member_oracle(v, cone)
    if face is None:
        assert not member
    else:
        assert member


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets2), _cones(gen_sets2), small_vec)
def test_intersection_membership_agrees_with_oracle(a, b, v):
    both = cone_member_oracle(v, a) and cone_member_oracle(v, b)
    meet = lat.cone_intersect(a, b)
    assert cone_member_oracle(v, meet) == both
    assert (lat.locate(meet, v) is not None) == both


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets2))
def test_faces_are_faces(cone):
    faces = lat.cone_faces(cone)
    assert cone in faces
    for f in faces:
        assert is_face(f, cone)
    dims = [f.dim for f in faces]
    # the minimal face (the lineality space) appears exactly once
    assert dims.count(min(dims)) == 1


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3))
def test_relint_point_is_interior(cone):
    p = cone.relint_point()
    assert lat.locate(cone, p) == cone


# -- faces against the halfspace references ----------------------------------


def reference_face(cone, active):
    """The face on which the active rows vanish, by halfspaces: the rows
    join the equations, and the result is converted and wrapped."""
    if not active:
        return cone
    return cone_from_halfspaces(cone.equations + tuple(active),
                                cone.facets, cone.n)


def reference_cone_faces(cone):
    """All faces by brute force: one reference face per subset of facets."""
    found = {}
    for k in range(len(cone.facets) + 1):
        for subset in combinations(cone.facets, k):
            face = reference_face(cone, subset)
            found[(face.rays, face.lines)] = face
    return tuple(sorted(found.values(),
                        key=lambda c: (c.dim, c.rays, c.lines)))


def assert_same_cones(got, expected):
    """Equal by value, by the H-data (compare=False) and by repr."""
    assert got == expected
    for a, b in zip(got, expected):
        assert (a.facets, a.equations) == (b.facets, b.equations)
    assert repr(got) == repr(expected)


@st.composite
def cones_with_lines(draw):
    """Cones at ranks 1-4: spanned by generators and lines, {0} and the
    whole space."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    kind = draw(st.sampled_from(("lines", "zero", "space")))
    if kind == "zero":
        return make_cone([], n=n)
    if kind == "space":
        return make_cone([], n=n, lines=identity_rows(n))
    return make_cone(draw(st.lists(vec, max_size=6)), n=n,
                         lines=draw(st.lists(vec, min_size=1, max_size=n)))


rank4_cones = _cones(st.lists(st.tuples(*[st.integers(-2, 2)] * 4),
                              min_size=1, max_size=6))
# cones over 3-polytopes: pointed, with many facets
pointed4_cones = _cones(st.lists(
    st.tuples(*[st.integers(-2, 2)] * 3, st.integers(1, 2)),
    min_size=1, max_size=7))
face_test_cones = st.one_of(_cones(gen_sets2), _cones(gen_sets3),
                            rank4_cones, pointed4_cones, cones_with_lines())


@settings(max_examples=100, deadline=None)
@given(face_test_cones, st.data(),
       st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
def test_locate_is_unchanged_by_a_positive_scale(cone, data, q):
    """locate reads a rational point's signs only, and a positive scaling
    keeps every sign, so q v has the minimal face of v."""
    v = data.draw(st.tuples(*[st.integers(-3, 3)] * cone.n))
    assert lat.locate(cone, tuple(q * a for a in v)) == lat.locate(cone, v)


@settings(max_examples=200, deadline=None)
@given(face_test_cones, face_test_cones)
def test_faces_match_the_halfspace_references(cone, other):
    expected = reference_cone_faces(cone)
    assert_same_cones(lat.cone_faces(cone), expected)
    full = (1 << len(cone.rays)) - 1
    for k in range(len(cone.facets) + 1):
        for subset in combinations(range(len(cone.facets)), k):
            mask = full
            for i in subset:
                mask &= cone._dual[2][i]
            assert_same_cones(
                (lat._face(cone, mask),),
                (reference_face(cone, [cone.facets[i] for i in subset]),))
    for face in expected:
        assert is_face(face, cone)
    if other.n == cone.n:
        assert is_face(other, cone) == (other in expected)


def facet_member(cone, v):
    """Closed containment test via the facet description: the point test
    that cone containment made once per generator before the direct
    check."""
    vec = tuple(a if isinstance(a, (int, Fraction)) else Fraction(a)
                for a in v)
    if any(dot(e, vec) != 0 for e in cone.equations):
        return False
    return all(dot(f, vec) >= 0 for f in cone.facets)


def reference_subset(inner, outer):
    gens = list(inner.rays) + list(inner.lines) + [
        tuple(-a for a in l) for l in inner.lines]
    return all(facet_member(outer, g) for g in gens)


@st.composite
def cone_pairs(draw):
    """Two cones of one rank 1-4, with or without lines and of any
    dimension; half the time the inner one is spanned by nonnegative
    combinations of the outer one's generators, plus at most one stray
    vector, so that both answers come up."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    outer = make_cone(draw(st.lists(vec, max_size=5)), n=n,
                          lines=draw(st.lists(vec, max_size=2)))
    gens = list(outer.rays) + list(outer.lines) + [
        tuple(-a for a in l) for l in outer.lines]
    if gens and draw(st.booleans()):
        def combination():
            weights = draw(st.lists(st.integers(0, 2), min_size=len(gens),
                                    max_size=len(gens)))
            return tuple(sum(w * g[i] for w, g in zip(weights, gens))
                         for i in range(n))
        rays = [combination() for _ in range(draw(st.integers(0, 3)))]
        lines = [l for l in outer.lines if draw(st.booleans())]
        rays += draw(st.lists(vec, max_size=1))
    else:
        rays = draw(st.lists(vec, max_size=5))
        lines = draw(st.lists(vec, max_size=2))
    return make_cone(rays, n=n, lines=lines), outer


@settings(max_examples=300, deadline=None)
@given(cone_pairs())
def test_cone_holds_matches_the_pointwise_reference(pair):
    inner, outer = pair
    assert lat.cone_holds(outer, inner.rays, inner.lines) == \
        reference_subset(inner, outer)
    assert lat.cone_holds(outer, outer.rays, outer.lines)


@st.composite
def face_candidates(draw):
    """Two cones of one rank 2-4, with or without lines, and a candidate
    face of the first: a face of either cone, their meet, or the other
    cone."""
    n = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)

    def cone():
        return make_cone(draw(st.lists(vec, max_size=5)), n=n,
                         lines=draw(st.lists(vec, max_size=1)))
    c, other = cone(), cone()
    meet = lat.cone_intersect(c, other)
    pool = [*lat.cone_faces(c), *lat.cone_faces(other), meet, other]
    return draw(st.sampled_from(pool)), c


@settings(max_examples=300, deadline=None)
@given(face_candidates())
def test_locate_finds_exactly_the_faces_of_a_cone(case):
    """A cone f is a face of c exactly when ``locate`` finds it as the
    minimal face of c holding its ray sum."""
    f, c = case
    assert is_face(f, c) == cone_is_face(f, c)


def cuboctahedron_cone():
    """The cone over a cuboctahedron: 12 rays in rank 4, 14 facets, and 52
    faces with the apex and the cone itself."""
    return lat.cone_from_generators(
        [v + (1,) for a in (1, -1) for b in (1, -1)
         for v in ((a, b, 0), (a, 0, b), (0, a, b))])


def test_cone_faces_converts_once_per_face():
    cone = cuboctahedron_cone()
    lat._halfspaces_to_generators.cache_clear()
    before = lat._halfspaces_to_generators.cache_info()
    faces = lat.cone_faces(cone)
    after = lat._halfspaces_to_generators.cache_info()
    calls = after.hits + after.misses - before.hits - before.misses
    assert len(faces) == 52 and calls <= len(faces)
    assert [f.dim for f in faces].count(3) == 14
    assert_same_cones(faces, reference_cone_faces(cone))


@st.composite
def vertices_and_rows(draw):
    """A random cone's extreme rays and facet rows, or a random polytope's
    vertices and facet rows, read off the lifted hull of 1-7 integer points
    in ranks 1-3 as ``polytope_faces`` reads them, with each row's seed
    from the masks of the cone's conversion; a row that vanishes nowhere
    goes first, so a face's indices count every row."""
    if draw(st.booleans()):
        cone = draw(face_test_cones)
        n, vertices, rows = cone.n, cone.rays, [(f, 0) for f in cone.facets]
    else:
        n = draw(st.integers(1, 3))
        points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                               min_size=1, max_size=7))
        cone = make_cone([p + (1,) for p in points], n=n + 1)
        vertices = [r[:-1] for r in cone.rays]
        rows = [(a[:-1], a[-1]) for a in cone.facets]
    return vertices, [((0,) * n, 1)] + rows, [0, *cone._dual[2]]


@settings(max_examples=150, deadline=None)
@given(vertices_and_rows())
def test_face_lattice_gives_each_face_its_tight_rows(case):
    """The walk over the conversion's masks is the reference walk over the
    rows evaluated on the vertices, and each face has its tight rows."""
    vertices, rows, seeds = case
    faces = lat.face_lattice(len(vertices), seeds)
    assert faces == face_lattice(vertices, rows)
    assert (1 << len(vertices)) - 1 in faces
    for fs, tight in faces.items():
        members = [v for i, v in enumerate(vertices) if fs >> i & 1]
        assert tight == tuple(k for k, (coeffs, const) in enumerate(rows)
                              if all(dot(coeffs, v) + const == 0
                                     for v in members))


# -- derived cones against the three-conversion constructor ------------------


def assert_rebuilds(cone):
    """The cone equals make_cone of its own V-data, H-data included."""
    rebuilt = make_cone(list(cone.rays), n=cone.n, lines=list(cone.lines))
    assert rebuilt == cone
    # facets and equations are compare=False, so check them explicitly
    assert rebuilt.facets == cone.facets
    assert rebuilt.equations == cone.equations


@settings(max_examples=60, deadline=None)
@given(_cones(gen_sets3), small_vec3)
def test_derived_cones_match_make_cone(cone, v):
    faces = lat.cone_faces(cone)
    for face in faces:
        assert_rebuilds(face)
        found = lat.locate(cone, face.relint_point())
        assert found == face
        if face != cone:
            assert_rebuilds(found)
    for facet in facet_cones(cone):
        assert facet in faces and facet.dim == cone.dim - 1
        assert_rebuilds(facet)
    found = lat.locate(cone, v)
    if found is not None and found != cone:
        assert_rebuilds(found)


exponent3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(exponent3, min_size=2, max_size=6, unique=True))
def test_normal_cones_match_make_cone(exponents):
    p = newton_polytope(tp.trop_poly([(e, 0) for e in exponents]))
    for face in polytope_faces(p):
        assert_rebuilds(normal_cone(p, face))


# -- the H-side, derived from the V-side on first read -----------------------


def test_a_cone_holds_only_its_v_description():
    assert [f.name for f in dataclasses.fields(lat.Cone)] == \
        ["n", "rays", "lines"]


def assert_dual_of_its_rays(cone):
    """The cone's H-data is the conversion of its dual: the equations are
    the dual's lines and the facets its extreme rays, each with the mask of
    the rays it vanishes on."""
    fresh = lat._halfspaces_to_generators.__wrapped__
    assert (cone.equations, cone.facets, cone._dual[2]) == \
        fresh(cone.lines, cone.rays, cone.n)


@st.composite
def derived_cones(draw):
    """A cone and its derived cones: faces found by ``locate``, every face,
    every facet and a meet with another cone of the same rank; or the cones
    of a PTrop set and the recession cones of a hypersurface's cells."""
    if draw(st.booleans()):
        cone, other = draw(face_test_cones), draw(cones_with_lines())
        points = [draw(st.tuples(*[st.integers(-2, 2)] * cone.n))]
        points += [f.relint_point() for f in facet_cones(cone)]
        cones = [cone, *lat.cone_faces(cone), *facet_cones(cone)]
        cones += [f for f in (lat.locate(cone, p) for p in points)
                  if f is not None]
        if other.n == cone.n:
            cones.append(lat.cone_intersect(cone, other))
        return cones
    n = draw(st.integers(1, 3))
    f = draw(normal_fan_polys(n) if draw(st.booleans())
             else hypersurface_polys(n))
    if f.has_constant_term():
        return [c.recession for c in tp.trop_hypersurface(f).cells]
    return list(tp.ptrop_normal_fan(f).cones)


@settings(max_examples=120, deadline=None)
@given(derived_cones())
def test_derived_h_sides_are_the_duals_of_the_rays(cones):
    for cone in cones:
        assert_dual_of_its_rays(cone)


def conversions() -> int:
    info = lat._halfspaces_to_generators.cache_info()
    return info.hits + info.misses


def test_derived_cones_convert_only_when_their_h_side_is_read():
    """Faces, meets and recession cones convert on the first read of their
    H-side; the joins of a split are handed theirs and never convert."""
    cone = cuboctahedron_cone()
    other = lat.cone_from_generators(
        [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1)])
    start = conversions()
    faces = [lat._face(cone, cone._dual[2][0] & cone._dual[2][1]),
             lat.locate(cone, cone.rays[0]), *facet_cones(cone)]
    joins = fans._split(fans.Fan(4, (cone,)),
                        {0: la.primitivize(cone.relint_point())})[0].maximal
    assert len(joins) == len(cone.facets)
    for join in joins:
        assert_dual_of_its_rays(join)
    assert conversions() == start  # the outer facets were filled on build
    meet = lat.cone_intersect(cone, other)
    assert conversions() == start + 1  # the meet's rays, and no more
    lines, rays, _ = lat.halfspaces_to_generators(
        [], [(1, 0, 1), (0, 1, 1), (0, 0, 1)], 3)
    info = homogenization_info(lines, rays)
    assert conversions() == start + 2
    for derived in (*faces, meet, info.recession):
        before = conversions()
        assert derived.facets is derived.facets
        assert derived.equations is derived.equations
        assert conversions() == before + 1
        assert_dual_of_its_rays(derived)


def test_cone_from_generators_converts_once_even_after_its_facets_are_read():
    """The rays are read off the masks of the one conversion to facets,
    which the cone keeps as its H-side; a set spanning a line is refused
    after that conversion too."""
    start = conversions()
    cone = lat.cone_from_generators(
        [(1, 0, 2), (0, 1, 2), (-1, -1, 2), (1, 1, 2), (2, 0, 4)])
    cone.facets, cone.equations
    assert conversions() == start + 1
    assert_dual_of_its_rays(cone)
    with pytest.raises(NotStronglyConvex):
        lat.cone_from_generators([(1, 0, 2), (-1, 0, -2), (0, 1, 0)])
    assert conversions() == start + 2


@st.composite
def generator_sets(draw):
    """Generators in ranks 1-4 with repeated, parallel, redundant and
    non-extreme members; a negated generator makes the set span a line."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                         max_size=5))
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        kind = draw(st.sampled_from(("copy", "multiple", "sum", "negated")))
        new = {"copy": g, "multiple": tuple(3 * a for a in g),
               "sum": tuple(a + b for a, b in zip(g, h)),
               "negated": tuple(-a for a in g)}[kind]
        if any(new):
            gens.append(new)
    return n, draw(st.permutations(gens))


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_cone_from_generators_matches_two_conversions(args):
    """The one conversion gives what converting the generators to facets
    and the facets back gives (``make_cone``): the same rays and lines,
    the same H-side with its masks, and on a set spanning a line the same
    refusal, naming the canonical line."""
    n, gens = args
    reference = make_cone(gens, n=n)
    if reference.lines:
        with pytest.raises(NotStronglyConvex) as info:
            lat.cone_from_generators(gens, n)
        assert type(info.value) is NotStronglyConvex
        assert str(info.value) == (f"generators {gens} span the line "
                                   f"through {reference.lines[0]}")
        return
    cone = lat.cone_from_generators(gens, n)
    assert (cone.rays, cone.lines, cone._dual) == \
        (reference.rays, reference.lines, reference._dual)


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
        assert _all_int(a[:2])
    halves = lat.halfspaces_to_generators(
        [], [(Fraction(1, 2), Fraction(-1, 3), 0),
             (0, Fraction(2, 3), Fraction(1, 4))], 3)
    assert _all_int(halves[:2])


def test_repeated_conversion_is_a_cache_hit():
    lat._halfspaces_to_generators.cache_clear()
    args = ([], [(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3)
    first = lat.halfspaces_to_generators(*args)
    before = lat._halfspaces_to_generators.cache_info()
    assert lat.halfspaces_to_generators(*args) is first
    after = lat._halfspaces_to_generators.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_conversion_cache_is_bounded():
    assert lat._halfspaces_to_generators.cache_info().maxsize == 1024


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
    assert result[:2] == expected
    assert repr(result[:2]) == repr(expected)
    assert result[2] == tight_masks(args[1], result[1])


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


# -- the engine against the brute-force reference ------------------------------


def kernel_basis(rows, ncols):
    """Primitive integer basis of the right kernel {x : A x = 0}."""
    red, pivots = la.rref(rows)
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = scale
        for row, pc in zip(red, pivots):
            x[pc] = -row[fc] * (scale // row[pc])
        basis.append(la.primitivize(x))
    return basis


def signed_minor_kernel(rows):
    """Kernel direction of an integer (k-1) x k matrix via signed maximal
    minors, or None when the rows have rank below k-1."""
    k = len(rows[0]) if rows else 0
    if len(rows) != k - 1:
        raise ValueError("signed_minor_kernel expects k-1 rows of length k")
    minors = [(-1) ** drop * la._det_int([[row[j] for j in range(k)
                                           if j != drop] for row in rows])
              for drop in range(k)]
    if all(m == 0 for m in minors):
        return None
    return la.primitivize(minors)


def reference_conversion(equations, inequalities, n):
    """The conversion by brute force: every extreme ray modulo lineality is
    the kernel of q-1 rows, q the dimension of the pointed part, so try all
    C(rows, q-1) subsets in coordinates of the subspace and lift back."""
    eq_rows = [r for r in map(la.primitivize, equations)
               if not la.is_zero_vec(r)]
    subspace = kernel_basis(eq_rows, n) if eq_rows else la.identity_rows(n)
    m = len(subspace)
    if m == 0:
        return (), ()
    restricted_set = set()
    for a in map(la.primitivize, inequalities):
        row = tuple(la.dot(a, k) for k in subspace)
        if not la.is_zero_vec(row):
            restricted_set.add(la.primitivize(row))
    restricted = sorted(restricted_set)
    if not restricted:
        return tuple(la.rref(subspace)[0]), ()
    lin_sub = kernel_basis(restricted, m)
    # complement of the lineality inside the subspace coordinates
    _, lin_pivots = la.rref(lin_sub)
    comp_idx = [j for j in range(m) if j not in lin_pivots]
    q = len(comp_idx)
    candidates = set()
    if q > 0:
        reduced = sorted(
            {la.primitivize(r)
             for r in (tuple(row[j] for j in comp_idx) for row in restricted)
             if not la.is_zero_vec(r)})
        seen_subsets = set()
        for subset in combinations(reduced, q - 1):
            v = signed_minor_kernel(subset) if q > 1 else (1,)
            if v is None:
                continue
            for cand in (v, tuple(-a for a in v)):
                if cand in seen_subsets:
                    continue
                seen_subsets.add(cand)
                if all(la.dot(row, cand) >= 0 for row in reduced):
                    candidates.add(cand)
                    break
    lines_amb = [tuple(sum(u[j] * subspace[j][i] for j in range(m))
                       for i in range(n)) for u in lin_sub]
    lines = la.rref(lines_amb)[0]
    rays = []
    for cand in candidates:
        amb = tuple(sum(cand[k] * subspace[comp_idx[k]][i] for k in range(q))
                    for i in range(n))
        amb = la.canonical_mod(amb, lines)
        if not la.is_zero_vec(amb):
            rays.append(amb)
    return tuple(lines), tuple(sorted(set(rays)))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_reference_kernels_match_the_fraction_reference(data):
    ncols, rows = data
    basis = kernel_basis(rows, ncols)
    red, pivots = reference_rref(rows)
    expected = []
    for fc in (j for j in range(ncols) if j not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            x[pc] = -row[fc]
        expected.append(reference_primitivize(x))
    assert basis == expected
    assert all(type(a) is int for v in basis for a in v)
    # k-1 integer rows of length k: the minors give the one kernel direction
    square = [la.primitivize(r) for r in rows][:ncols - 1]
    if ncols > 1 and len(square) == ncols - 1:
        v = signed_minor_kernel(square)
        if la.mat_rank(square) < ncols - 1:
            assert v is None
        else:
            w, = kernel_basis(square, ncols)
            assert v in (w, tuple(-a for a in w))
    assert kernel_basis([(0, 0, 0)], 3) == la.identity_rows(3)


@st.composite
def conversion_inputs(draw):
    """(equations, inequalities, n) at ranks 1-6, with up to 2 equations,
    zero, duplicate and Fraction-scaled rows, every row repeated wholesale
    (as ``cone_intersect(c, c)`` hands over ``c.facets + c.facets``), and
    lineality from equations, dependent rows and trailing coordinates that
    no row reads."""
    n = draw(st.integers(1, 6))
    unread = draw(st.integers(0, n - 1)) if draw(st.booleans()) else 0
    row = st.lists(st.integers(-3, 3), min_size=n - unread,
                   max_size=n - unread).map(lambda r: tuple(r) + (0,) * unread)
    # the reference tries C(rows, q-1) subsets: few rows at high rank
    rows = draw(st.lists(row, min_size=n - unread,
                         max_size=(14, 14, 14, 14, 12, 10)[n - 1]))
    if draw(st.booleans()):
        # orient every row nonnegative on one point, so that the cone is
        # more than the lineality and has many rays
        w = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows = [r if dot(r, w) >= 0 else tuple(-a for a in r) for r in rows]
    kinds = st.sampled_from(("zero", "dup", "scaled", "copy"))
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "zero" or not rows:
            rows.append((0,) * n)
        elif kind == "dup":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "copy":
            rows += rows
        else:
            s = draw(st.fractions(Fraction(1, 6), 6, max_denominator=6))
            rows.append(tuple(s * a for a in draw(st.sampled_from(rows))))
    rows = draw(st.permutations(rows))
    k = draw(st.integers(0, min(2, len(rows))))
    return tuple(rows[:k]), tuple(rows[k:]), n


@settings(max_examples=300, deadline=None)
@given(conversion_inputs())
def test_engine_matches_the_brute_force_reference(args):
    result = lat._halfspaces_to_generators.__wrapped__(*args)
    expected = reference_conversion(*args)
    assert result[:2] == expected
    assert repr(result[:2]) == repr(expected)


def tight_masks(inequalities, rays):
    """Each ray's mask by evaluation: bit j when row j vanishes on it."""
    return tuple(sum(1 << j for j, a in enumerate(inequalities)
                     if dot(a, r) == 0) for r in rays)


@settings(max_examples=400, deadline=None)
@given(conversion_inputs())
def test_masks_are_the_tight_rows_and_the_pair_bound_drops_no_ray(args):
    """Each ray's mask holds exactly the inequalities, in the order given,
    that vanish on it, repeated, zero, Fraction and non-primitive rows
    included; and the engine, which skips pairs with too few common tight
    rows, gives what it gives with every pair tested."""
    result = lat._halfspaces_to_generators.__wrapped__(*args)
    assert result[2] == tight_masks(args[1], result[1])
    assert result == unpruned_conversion(*args)
    assert repr(result) == repr(unpruned_conversion(*args))


def lifted_hull_rows():
    """(e, v, 1) for 30 distinct exponents e of degree <= 4 in 4 variables
    and integer valuations v: the cone over a lifted Newton polytope, rank 6.
    """
    rng = random.Random(0)
    exponents = set()
    while len(exponents) < 30:
        e = tuple(rng.randint(0, 4) for _ in range(4))
        if sum(e) <= 4:
            exponents.add(e)
    return tuple(e + (rng.randint(-5, 5), 1) for e in sorted(exponents))


def test_lifted_hull_rays_carry_extremality_certificates():
    """Too large for the reference (about 15 s): every ray satisfies
    every row, and the rows tight on it have rank n - len(lines) - 1, so it
    spans a one-dimensional face modulo the lineality."""
    rows = lifted_hull_rows()
    lines, rays, masks = lat._halfspaces_to_generators.__wrapped__(
        (), rows, 6)
    # the count the brute-force reference gives on these rows
    assert len(rays) == 69
    assert (lines, rays, masks) == unpruned_conversion((), rows, 6)
    assert masks == tight_masks(rows, rays)
    for line in lines:
        assert all(dot(a, line) == 0 for a in rows)
    for r in rays:
        assert all(dot(a, r) >= 0 for a in rows)
        tight = [a for a in rows if dot(a, r) == 0]
        assert mat_rank(tight) == 6 - len(lines) - 1
