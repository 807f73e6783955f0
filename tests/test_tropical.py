"""Tests for tropical polynomials, hypersurfaces, and PTrop routes."""

from collections import deque
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (
    affine_dim,
    cone_is_face,
    face_lattice,
    make_cone,
    newton_polytope,
    normal_cone,
    normal_fan,
)
from troplim import lattice
from troplim import tropical as tp
from troplim._linalg import identity_rows
from troplim._polyhedra import homogenization_info
from troplim.errors import (
    BoundViolation,
    DimensionMismatch,
    OriginNotOnGerm,
    RankCap,
)
from troplim.lattice import (
    cone_intersect,
    halfspaces_to_generators,
    locate,
)


def nodal_cubic():
    return tp.trop_poly({(1, 1): 0, (3, 0): 0, (0, 3): 0})


def line_poly():
    return tp.trop_poly({(1, 0): 0, (0, 1): 0})


def trop_eval(f, x):
    """Min-plus value at x together with the set of achieving exponents."""
    if len(x) != f.n:
        raise DimensionMismatch(
            f"point has length {len(x)}, polynomial has {f.n} variables")
    xs = [F(c) for c in x]
    best = None
    achievers = []
    for e, v in f.terms:
        val = v + sum(c * xc for c, xc in zip(e, xs))
        if best is None or val < best:
            best, achievers = val, [e]
        elif val == best:
            achievers.append(e)
    return best, tuple(achievers)


def polyhedron_info(equations, inequalities, n):
    """Dimension, a relative-interior point and the recession cone of
    {x : eq rows vanish, ineq rows nonnegative}, each row (coefficients,
    constant), through one conversion of its homogenization; None if it is
    empty."""
    eqs = [coeffs + (const,) for coeffs, const in equations]
    ineqs = [coeffs + (const,) for coeffs, const in inequalities]
    ineqs.append(tuple([F(0)] * n) + (F(1),))
    lines, rays, _ = halfspaces_to_generators(eqs, ineqs, n + 1)
    return homogenization_info(lines, rays)


def cell_rows(f, achievers):
    """H-description rows, each (coefficients, constant), of the locus
    where the achiever exponents attain the minimum: the first achiever
    ties with every other one and lies at or below every other term."""
    on = set(achievers)
    e0, v0 = next(t for t in f.terms if t[0] in on)
    eqs, ineqs = [], []
    for e, v in f.terms:
        if e != e0:
            diff = tuple(a - b for a, b in zip(e, e0))
            (eqs if e in on else ineqs).append((diff, v - v0))
    return tuple(eqs), tuple(ineqs)


def reference_hypersurface(f):
    """Cells by search over achiever sets: from each pair of terms, convert
    the locus where those terms achieve the minimum, saturate the seed with
    the achievers at its relative-interior point, and grow by one term."""
    m = len(f.terms)
    if m == 1:
        return tp.TropicalHypersurface(())
    exp_index = {e: i for i, (e, _) in enumerate(f.terms)}
    cells = {}
    dead = set()
    queue = deque(frozenset(p) for p in combinations(range(m), 2))
    while queue:
        seed = queue.popleft()
        if seed in cells or seed in dead:
            continue
        eqs, ineqs = cell_rows(f, [f.terms[i][0] for i in seed])
        info = polyhedron_info(eqs, ineqs, f.n)
        if info is None:
            dead.add(seed)
            continue
        _, achieved = trop_eval(f, info.relint_point)
        sat = frozenset(exp_index[e] for e in achieved)
        if seed != sat:
            dead.add(seed)
            if sat in cells:
                continue
            eqs, ineqs = cell_rows(f, [f.terms[i][0] for i in sat])
            info = polyhedron_info(eqs, ineqs, f.n)
        elif sat in cells:
            continue
        cells[sat] = tp.TropCell(
            achievers=tuple(sorted(f.terms[i][0] for i in sat)),
            dim=info.dim,
            relint_point=info.relint_point,
            recession=info.recession,
        )
        for t in range(m):
            if t not in sat:
                queue.append(sat | {t})
    ordered = sorted(cells.values(), key=lambda c: (c.dim, c.achievers))
    return tp.TropicalHypersurface(tuple(ordered))


def polytope_faces(p):
    """All nonempty faces as vertex tuples (the polytope itself included)."""
    lifted = make_cone([v + (1,) for v in p.vertices], n=p.n + 1)
    faces = face_lattice(p.vertices, [(a[:-1], a[-1]) for a in lifted.facets])
    return tuple(sorted(tuple(sorted(v for i, v in enumerate(p.vertices)
                                     if fs >> i & 1)) for fs in faces))


def reference_positive_part(cone):
    """The meet with the closed orthant by one conversion, kept when it
    meets the open orthant."""
    orthant = make_cone(identity_rows(cone.n), n=cone.n)
    c = cone_intersect(cone, orthant)
    if c.dim == 0:
        return None
    if any(t == 0 for t in c.relint_point()):
        return None
    return c


def reference_ptrop_set(cones):
    """The positive parts of the cones that meet the open orthant, each
    once, sorted by dimension and rays."""
    kept = {reference_positive_part(c) for c in cones} - {None}
    return tp.PTropSet(tuple(sorted(kept, key=lambda c: (c.dim, c.rays))))


def reference_normal_fan(f):
    """The normal-fan route with one H-to-V conversion per face: the Newton
    polytope's faces from its own hull, and each positive-dimensional
    face's normal cone converted from its defining rows and met with the
    orthant."""
    tp._require_germ(f)
    p = newton_polytope(f)
    return reference_ptrop_set([normal_cone(p, face)
                                for face in polytope_faces(p)
                                if affine_dim(face) >= 1])


def reference_recession(f):
    """The recession route over the reference cells, each recession cone
    met with the orthant by its own conversion."""
    tp._require_germ(f)
    return reference_ptrop_set(
        [cell.recession for cell in reference_hypersurface(f).cells])


def assert_routes_agree(f):
    """Normal fan, the recession route and the reference cells give one
    PTrop set."""
    exact = tp.ptrop_normal_fan(f)
    assert exact == tp.ptrop_recession(f)
    assert exact == reference_recession(f)


# -- construction and evaluation --------------------------------------------


def test_trop_poly_sorts_and_coerces():
    f = tp.trop_poly([((3, 0), 1), ((0, 3), "1/2")])
    assert f.terms == (((0, 3), F(1, 2)), ((3, 0), F(1)))
    assert f.degree == 3


def test_trop_poly_rejects_bad_input():
    with pytest.raises(RankCap):
        tp.trop_poly({(1, 0, 0, 0, 0): 0})
    with pytest.raises(DimensionMismatch):
        tp.trop_poly([((1, 0), 0), ((1,), 0)])
    with pytest.raises(ValueError):
        tp.trop_poly({(-1, 2): 0})
    with pytest.raises(ValueError):
        tp.trop_poly([])


def test_trop_poly_duplicate_exponent_keeps_dominant_valuation():
    f = tp.trop_poly([((1, 0), 5), ((1, 0), 2)])
    assert f.terms == (((1, 0), F(2)),)


def test_trop_eval_unique_achiever():
    value, achievers = trop_eval(line_poly(), (1, 2))
    assert value == 1
    assert achievers == ((1, 0),)


def test_trop_eval_tie():
    value, achievers = trop_eval(line_poly(), (1, 1))
    assert value == 1
    assert achievers == ((0, 1), (1, 0))


def test_trop_eval_nodal_cubic():
    value, achievers = trop_eval(nodal_cubic(), (2, 1))
    assert value == 3
    assert achievers == ((0, 3), (1, 1))


def test_trop_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trop_eval(line_poly(), (1, 2, 3))


# -- Newton polytopes --------------------------------------------------------


def test_newton_polytope_nodal_cubic():
    p = newton_polytope(nodal_cubic())
    assert p.vertices == ((0, 3), (1, 1), (3, 0))
    assert p.dim == 2


def test_newton_polytope_drops_interior_points():
    f = tp.trop_poly({(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): 0})
    p = newton_polytope(f)
    assert p.vertices == ((0, 0), (0, 2), (2, 0))


def test_polytope_faces_triangle():
    p = newton_polytope(nodal_cubic())
    faces = polytope_faces(p)
    assert len(faces) == 7  # 3 vertices, 3 edges, the triangle
    dims = sorted(affine_dim(fc) for fc in faces)
    assert dims == [0, 0, 0, 1, 1, 1, 2]


def test_polytope_faces_segment():
    p = newton_polytope(line_poly())
    assert polytope_faces(p) == (
        ((0, 1),), ((0, 1), (1, 0)), ((1, 0),))


def test_normal_fan_splits_at_diagonal():
    fan = normal_fan(newton_polytope(line_poly()))
    assert fan.complete
    assert {(c.rays, c.lines) for c in fan.maximal} == {
        (((0, 1),), ((1, 1),)),
        (((0, -1),), ((1, 1),)),
    }


def test_normal_fan_single_monomial_is_everything():
    fan = normal_fan(newton_polytope(tp.trop_poly({(2, 1): 0})))
    assert fan.complete
    assert len(fan.maximal) == 1
    assert fan.maximal[0].dim == 2


def test_normal_fan_nodal_cubic_complete():
    fan = normal_fan(newton_polytope(nodal_cubic()))
    assert fan.complete
    assert len(fan.maximal) == 3


# -- hypersurfaces -----------------------------------------------------------


def test_hypersurface_of_line_is_diagonal():
    f = line_poly()
    h = tp.trop_hypersurface(f)
    assert len(h.cells) == 1
    cell = h.cells[0]
    assert cell.dim == 1
    assert cell.achievers == ((0, 1), (1, 0))
    assert cell_rows(f, cell.achievers)[0] == (((1, -1), F(0)),)
    assert cell.recession.lines == ((1, 1),)
    assert cell.recession.rays == ()


def test_hypersurface_single_monomial_empty():
    assert not tp.trop_hypersurface(tp.trop_poly({(2, 1): 0})).cells


def test_hypersurface_nodal_cubic_cells():
    h = tp.trop_hypersurface(nodal_cubic())
    assert [c.dim for c in h.cells] == [0, 1, 1, 1]
    vertex = h.cells[0]
    assert vertex.relint_point == (0, 0)
    assert vertex.achievers == ((0, 3), (1, 1), (3, 0))
    rec_rays = {c.recession.rays for c in h.cells[1:]}
    assert rec_rays == {((2, 1),), ((-1, -1),), ((1, 2),)}
    # the two legs in the positive quadrant
    legs = sorted(c.relint_point for c in h.cells[1:]
                  if all(x > 0 for x in c.relint_point))
    assert legs == [(1, 2), (2, 1)]


def test_hypersurface_valuations_shift_cells():
    # min(x, y + 1) breaks along y = x - 1
    f = tp.trop_poly([((1, 0), 0), ((0, 1), 1)])
    h = tp.trop_hypersurface(f)
    assert len(h.cells) == 1
    assert cell_rows(f, h.cells[0].achievers)[0] == (((1, -1), F(-1)),)
    value, achievers = trop_eval(f, (2, 1))
    assert value == 2 and len(achievers) == 2


# -- PTrop routes ------------------------------------------------------------


def test_ptrop_nodal_cubic_points():
    s = tp.ptrop_normal_fan(nodal_cubic())
    assert s.points == ((1, 2), (2, 1))
    assert s.is_finite


def test_ptrop_line_single_point():
    assert tp.ptrop_normal_fan(line_poly()).points == ((1, 1),)


def test_ptrop_cone_family():
    for d in (1, 2, 3):
        f = tp.trop_poly({(1, 1, 0): 0, (0, 0, d): 0})
        s = tp.ptrop_normal_fan(f)
        assert [(c.dim, c.rays) for c in s.cones] == [
            (2, ((0, d, 1), (d, 0, 1)))]


def test_ptrop_constant_term_rejected():
    with pytest.raises(OriginNotOnGerm):
        tp.ptrop_normal_fan(tp.trop_poly({(0, 0): 0, (1, 0): 0}))


def test_ptrop_single_monomial_empty():
    f = tp.trop_poly({(2, 1): 0})
    assert tp.ptrop_normal_fan(f).cones == ()
    assert tp.ptrop_recession(f).cones == ()


def test_ptrop_routes_agree_on_examples():
    examples = [
        nodal_cubic(),
        line_poly(),
        tp.trop_poly({(1, 1, 0): 0, (0, 0, 2): 0}),
        tp.trop_poly({(2, 0): 0, (1, 1): 0, (0, 2): 0}),
        tp.trop_poly({(1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0}),
        tp.trop_poly({(1, 0, 0, 0): 0, (0, 1, 0, 0): 0, (0, 0, 1, 1): 0}),
        tp.trop_poly([((1, 0), F(1, 2)), ((0, 2), 0), ((2, 1), -1)]),
    ]
    for f in examples:
        assert_routes_agree(f)


def test_ptrop_filter_drops_boundary_only_cones():
    # y(1 + x): the edge normal lies in {w1 = 0}, never in the open quadrant
    f = tp.trop_poly({(0, 1): 0, (1, 1): 0})
    assert tp.ptrop_normal_fan(f).cones == ()
    assert tp.ptrop_recession(f).cones == ()


# -- point counts and the degree bound ---------------------------------------


def test_count_nodal_cubic():
    assert tp.count_ptrop_points(nodal_cubic()) == 2


def test_count_line():
    assert tp.count_ptrop_points(line_poly()) == 1


def test_count_requires_two_variables():
    with pytest.raises(DimensionMismatch):
        tp.count_ptrop_points(tp.trop_poly({(1, 0, 0): 0, (0, 1, 0): 0}))


def test_degree_four_staircase_violates_bound():
    # y^4 + x y^2 + x^2 y + x^4: three points against a claimed bound of 2
    f = tp.trop_poly({(0, 4): 0, (1, 2): 0, (2, 1): 0, (4, 0): 0})
    assert tp.ptrop_normal_fan(f).points == ((1, 1), (1, 2), (2, 1))
    with pytest.raises(BoundViolation) as caught:
        tp.count_ptrop_points(f)
    assert (caught.value.count, caught.value.bound) == (3, 2)


def test_degree_seven_staircase_violates_bound():
    # y^7 + x y^4 + x^2 y^2 + x^3 y + x^5: four points against a bound of 3
    f = tp.trop_poly({(0, 7): 0, (1, 4): 0, (2, 2): 0, (3, 1): 0, (5, 0): 0})
    assert len(tp.ptrop_normal_fan(f).points) == 4
    with pytest.raises(BoundViolation) as caught:
        tp.count_ptrop_points(f)
    assert (caught.value.count, caught.value.bound) == (4, 3)


def test_count_beyond_degree_seven_unchecked():
    # doubled degree-4 staircase: same three points, but degree 8 is past the
    # claimed range, so no bound applies
    f = tp.trop_poly({(0, 8): 0, (2, 4): 0, (4, 2): 0, (8, 0): 0})
    assert tp.count_ptrop_points(f) == 3


# -- property tests ----------------------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def polys(n, max_deg=3, max_terms=5):
    exps = st.tuples(*([st.integers(0, max_deg)] * n)).filter(
        lambda e: 0 < sum(e) <= max_deg)
    return st.dictionaries(exps, rationals, min_size=1, max_size=max_terms
                           ).map(tp.trop_poly)


@given(polys(2), st.tuples(rationals, rationals),
       st.tuples(rationals, rationals),
       st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_trop_eval_concave(f, x, y, lam):
    mid = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
    vx, _ = trop_eval(f, x)
    vy, _ = trop_eval(f, y)
    vm, _ = trop_eval(f, mid)
    assert vm >= lam * vx + (1 - lam) * vy


@given(polys(2), st.tuples(rationals, rationals))
def test_trop_eval_matches_direct_minimum(f, x):
    value, achievers = trop_eval(f, x)
    per_term = {e: v + sum(c * xc for c, xc in zip(e, x))
                for e, v in f.terms}
    assert value == min(per_term.values())
    assert achievers == tuple(sorted(
        e for e, val in per_term.items() if val == value))


def _on_some_cell(f, h, x):
    for cell in h.cells:
        equations, inequalities = cell_rows(f, cell.achievers)
        if all(sum(c * xc for c, xc in zip(row, x)) + b == 0
               for row, b in equations) and \
           all(sum(c * xc for c, xc in zip(row, x)) + b >= 0
               for row, b in inequalities):
            return True
    return False


def _tie_point(a, b, t):
    """A point where terms a and b take the same value, its free
    coordinate t."""
    (ea, va), (eb, vb) = a, b
    d = [p - q for p, q in zip(ea, eb)]
    i = 1 if d[1] else 0
    x = [t, t]
    x[i] = (vb - va - d[1 - i] * t) / d[i]
    return tuple(x)


@settings(max_examples=40, deadline=None)
@given(polys(2, max_deg=3, max_terms=4), st.tuples(rationals, rationals),
       st.data())
def test_cells_cover_exactly_the_tie_locus(f, x, data):
    """Both directions: a random point (almost never on the locus), each
    cell's relative interior point (always on it) and a point where two
    chosen terms tie (on it when they are least)."""
    h = tp.trop_hypersurface(f)
    points = [x] + [cell.relint_point for cell in h.cells]
    if len(f.terms) >= 2:
        a, b = data.draw(st.permutations(f.terms))[:2]
        points.append(_tie_point(a, b, data.draw(rationals)))
    for p in points:
        _, achievers = trop_eval(f, p)
        assert (len(achievers) >= 2) == _on_some_cell(f, h, p)


@settings(max_examples=25, deadline=None)
@given(polys(2, max_deg=3, max_terms=4))
def test_cell_recession_directions_stay_in_cell(f):
    h = tp.trop_hypersurface(f)
    for cell in h.cells:
        for ray in cell.recession.rays:
            probe = tuple(p + 7 * r for p, r in zip(cell.relint_point, ray))
            _, achievers = trop_eval(f, probe)
            assert set(cell.achievers) <= set(achievers)


@settings(max_examples=25, deadline=None)
@given(polys(2, max_deg=4, max_terms=5).filter(
    lambda f: not f.has_constant_term()))
def test_routes_agree_rank_two(f):
    assert_routes_agree(f)


@settings(max_examples=12, deadline=None)
@given(polys(3, max_deg=3, max_terms=5).filter(
    lambda f: not f.has_constant_term()))
def test_routes_agree_rank_three(f):
    assert_routes_agree(f)


def homogeneous_polys(n, deg):
    exps = st.tuples(*([st.integers(0, deg)] * n)).filter(
        lambda e: sum(e) == deg)
    return st.dictionaries(exps, rationals, min_size=2, max_size=5
                           ).map(tp.trop_poly)


def lower_face_polys(n, max_deg=2):
    """Terms at 2a, 2b and their midpoint a + b, lifted by 2u, 2w and u + w,
    plus up to two more: the midpoint lies on a lower face whenever the
    lifted segment does, and is never a vertex."""
    exps = st.tuples(*([st.integers(0, max_deg)] * n))

    def build(args):
        a, u, b, w, extra = args
        terms = [(tuple(2 * c for c in a), 2 * u), (tuple(2 * c for c in b),
                 2 * w), (tuple(x + y for x, y in zip(a, b)), u + w)]
        return tp.trop_poly(terms + list(extra.items()))

    return st.tuples(exps, rationals, exps, rationals,
                     st.dictionaries(exps, rationals, max_size=2)
                     ).filter(lambda t: t[0] != t[2]).map(build)


def hypersurface_polys(n):
    """Random germs (single terms and fractional valuations included),
    homogeneous germs and germs with non-vertex terms on lower faces."""
    return st.one_of(polys(n, max_deg=3, max_terms=6),
                     homogeneous_polys(n, 3), lower_face_polys(n))


def normal_fan_polys(n):
    """Random germs (single terms included), and germs whose Newton
    polytopes are lower-dimensional, so that their normal cones have lines:
    homogeneous ones, and ones with the last exponent zero."""
    flat = [homogeneous_polys(n, 3)]
    if n > 1:
        flat.append(polys(n - 1, max_terms=6).map(lambda f: tp.trop_poly(
            [(e + (0,), v) for e, v in f.terms])))
    return st.one_of(polys(n, max_deg=3, max_terms=6), *flat)


@pytest.mark.parametrize("n, examples", [(1, 30), (2, 100), (3, 80),
                                         (4, 50)])
def test_normal_fan_route_matches_reference(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(normal_fan_polys(n))
    def check(f):
        assert tp.ptrop_normal_fan(f) == reference_normal_fan(f)

    check()


@st.composite
def face_lattice_cases(draw):
    """Generators and rows of a random cone, or points and affine rows of a
    random polytope, in rank 1-4, from one conversion of the cone over
    them (points lifted by 1) with its masks, and a bit position m up to
    the generator count."""
    n = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                           min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        vertices = [p for p in points if any(p)]
        _, normals, seeds = halfspaces_to_generators([], vertices, n)
        rows = [(r, 0) for r in normals]
    else:
        vertices = points
        _, normals, seeds = halfspaces_to_generators(
            [], [p + (1,) for p in points], n + 1)
        rows = [(r[:-1], r[-1]) for r in normals]
    return vertices, rows, seeds, draw(st.integers(0, len(vertices)))


def filtered_face_lattice(vertices, rows, keep):
    return {fs: tight for fs, tight in face_lattice(vertices, rows).items()
            if keep(fs)}


@settings(max_examples=200, deadline=None)
@given(face_lattice_cases())
def test_pruned_face_lattice_is_the_filtered_lattice(case):
    """Each predicate that tropical prunes the face walk on gives, over the
    conversion's masks, the whole reference lattice filtered by it, on
    cones and polytopes."""
    vertices, rows, seeds, m = case
    for keep in (tp._holds_two(m), tp._lower(m)):
        assert lattice.face_lattice(len(vertices), seeds, keep) == \
            filtered_face_lattice(vertices, rows, keep)


@pytest.mark.parametrize("n, examples", [(1, 30), (2, 80), (3, 50),
                                         (4, 25)])
def test_pruned_face_walks_of_germs_are_the_filtered_lattices(n, examples):
    """Every face walk of the hypersurface and of both PTrop routes, over
    the masks of the conversion before it, gives the whole reference
    lattice of the converted generators and rays filtered by the walk's
    own predicate."""
    converted = []

    def convert(equations, inequalities, n):
        result = halfspaces_to_generators(equations, inequalities, n)
        converted.append((inequalities, result[1]))
        return result

    def checked(count, seeds, keep):
        gens, normals = converted.pop()
        pruned = lattice.face_lattice(count, seeds, keep)
        assert count == len(gens)
        assert pruned == filtered_face_lattice(
            gens, [(r, 0) for r in normals], keep)
        return pruned

    @settings(max_examples=examples, deadline=None)
    @given(st.one_of(hypersurface_polys(n), normal_fan_polys(n)))
    def check(f):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tp, "halfspaces_to_generators", convert)
            mp.setattr(tp, "face_lattice", checked)
            tp.trop_hypersurface(f)
            if not f.has_constant_term():
                tp.ptrop_normal_fan(f)
                tp.ptrop_recession(f)

    check()


def repeated_direction_polys(n):
    """Terms at e, 2e and 3e, plus up to two more: exponents that share a
    direction from the origin."""
    exps = st.tuples(*([st.integers(0, 2)] * n)).filter(any)
    return st.tuples(exps, st.lists(rationals, min_size=3, max_size=3),
                     st.dictionaries(exps, rationals, max_size=2)).map(
        lambda t: tp.trop_poly([(tuple(k * c for c in t[0]), v)
                                for k, v in zip((1, 2, 3), t[1])]
                               + list(t[2].items())))


def single_term_polys(n):
    exps = st.tuples(*([st.integers(0, 3)] * n)).filter(any)
    return st.tuples(exps, rationals).map(lambda t: tp.trop_poly([t]))


def dominated_polys(n):
    """A term at m and terms at m + d for d >= 0: m lies below every other
    exponent, so the Newton polyhedron is m + R>=0^n and PTrop is empty."""
    exps = st.tuples(*([st.integers(0, 2)] * n))
    return st.tuples(exps.filter(any), rationals,
                     st.dictionaries(exps.filter(any), rationals,
                                     min_size=1, max_size=4)).map(
        lambda t: tp.trop_poly([(t[0], t[1])] + [
            (tuple(a + b for a, b in zip(t[0], d)), v)
            for d, v in t[2].items()]))


@pytest.mark.parametrize("n, examples", [(2, 100), (3, 60), (4, 30)])
def test_recession_route_matches_reference(n, examples):
    """The one-conversion recession route against the reference cells,
    each recession cone met with the orthant by its own conversion."""
    @settings(max_examples=examples, deadline=None)
    @given(st.one_of(normal_fan_polys(n), repeated_direction_polys(n),
                     single_term_polys(n), dominated_polys(n)))
    def check(f):
        assert tp.ptrop_recession(f) == reference_recession(f)

    check()


@pytest.mark.parametrize("n, examples", [(2, 100), (3, 60), (4, 40)])
def test_hypersurface_matches_reference(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(hypersurface_polys(n))
    def check(f):
        assert tp.trop_hypersurface(f) == reference_hypersurface(f)

    check()


@st.composite
def shuffled_germs(draw, n):
    """One germ's terms, some exponents repeated at other valuations, given
    to ``trop_poly`` as a list and as a dict, each in a shuffled order."""
    exps = st.tuples(*([st.integers(0, 3)] * n)).filter(
        lambda e: 0 < sum(e) <= 3)
    terms = draw(st.lists(st.tuples(exps, rationals), min_size=1,
                          max_size=6))
    terms += [(e, v + draw(rationals)) for e, v in terms[:2]]
    return (tp.trop_poly(draw(st.permutations(terms))),
            tp.trop_poly(dict(draw(st.permutations(terms)))))


@pytest.mark.parametrize("n, examples", [(2, 60), (3, 25)])
def test_hypersurface_achievers_come_in_term_order(n, examples):
    """``trop_poly`` sorts the terms by exponent, one per exponent, and each
    cell's achievers are those terms in the same order, so they are their
    own sorted tuple."""
    @settings(max_examples=examples, deadline=None)
    @given(shuffled_germs(n))
    def check(germs):
        for f in germs:
            assert list(f.exponents) == sorted(set(f.exponents))
            for cell in tp.trop_hypersurface(f).cells:
                assert cell.achievers == tuple(
                    e for e in f.exponents if e in cell.achievers)
                assert cell.achievers == tuple(sorted(cell.achievers))

    check()


def test_hypersurface_matches_reference_twenty_terms():
    f = tp.trop_poly([
        ((0, 1, 1, 1), F(9, 2)), ((0, 4, 0, 0), -1), ((0, 0, 3, 1), F(-10, 3)),
        ((1, 0, 2, 0), 2), ((0, 1, 2, 0), 0), ((0, 0, 0, 4), -2),
        ((0, 2, 0, 2), -5), ((2, 1, 1, 0), -6), ((0, 0, 1, 0), -10),
        ((0, 0, 1, 2), F(-4, 3)), ((0, 0, 2, 0), 6), ((0, 1, 1, 2), -1),
        ((0, 3, 0, 0), -4), ((1, 0, 0, 3), 7), ((0, 2, 1, 1), -6),
        ((2, 1, 0, 1), 10), ((0, 0, 4, 0), F(-5, 3)), ((3, 0, 1, 0), -5),
        ((2, 0, 1, 0), -4), ((1, 0, 1, 2), F(7, 2))])
    h = tp.trop_hypersurface(f)
    assert h == reference_hypersurface(f)
    assert len(h.cells) > 20


@settings(max_examples=25, deadline=None)
@given(homogeneous_polys(3, 3))
def test_homogeneous_elements_form_fan_through_barycenter(f):
    s = tp.ptrop_normal_fan(f)
    ones = (1, 1, 1)
    for c in s.cones:
        assert locate(c, ones) is not None
    for a in s.cones:
        for b in s.cones:
            meet = cone_intersect(a, b)
            assert cone_is_face(meet, a) and cone_is_face(meet, b)
