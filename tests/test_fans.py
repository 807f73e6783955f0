"""Tests for fan validation, refinement, and stellar subdivision.

Small expected values (cone counts, ray sets, witness existence) were worked
out by hand on quadrant-sized examples and frozen.  Randomized suites build
complete rank-2 fans from random ray sets through the angular-sort helper and
check the refinement algebra and the subdivision partial order against them.
The facet-sign shortcuts of validation, refinement, subdivision and splitting
are checked against test-local copies of the converting code they replace.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from builders import (
    certified_refinement,
    cone_is_face,
    facing,
    fan_from_rays_2d,
    is_subdivision,
    make_cone,
    separated,
    stellar_subdivision,
)
from troplim import fans, lattice, towers as tw
from troplim.errors import ValidationError
from troplim.lattice import (
    cone_faces, cone_from_generators as cg, cone_holds, cone_intersect,
    locate, primitive,
)


def quadrant_fan():
    """The complete fan of the four coordinate quadrants."""
    return fans.fan_from_cones([
        cg([(1, 0), (0, 1)]), cg([(0, 1), (-1, 0)]),
        cg([(-1, 0), (0, -1)]), cg([(0, -1), (1, 0)]),
    ])


def halfplane_fan(normal):
    """The complete fan of the two closed half-planes with the given normal."""
    line = (-normal[1], normal[0])
    return fans.fan_from_cones([
        make_cone([normal], lines=[line]),
        make_cone([tuple(-x for x in normal)], lines=[line]),
    ])


# -- validation -------------------------------------------------------------


def test_quadrant_fan_valid_complete():
    f = quadrant_fan()
    assert f.complete
    assert len(f.maximal) == 4
    assert f.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_fan_from_cones_pairs_facets_once_on_first_read(monkeypatch):
    pair, calls = fans._is_complete, []

    def counted(maximal, n):
        calls.append(n)
        return pair(maximal, n)

    monkeypatch.setattr(fans, "_is_complete", counted)
    f = quadrant_fan()
    assert calls == []
    assert f.complete and f.complete
    assert calls == [2]
    # the report of fan-validate still says whether the fan is complete
    assert fans.validate_fan(f.maximal).complete
    assert calls == [2, 2]


def test_single_cone_fan_valid_incomplete():
    f = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    assert not f.complete


def test_overlapping_cones_rejected():
    report = fans.validate_fan([cg([(1, 0), (0, 1)]), cg([(1, 1), (0, 1)])])
    assert not report.valid
    assert report.violations
    with pytest.raises(ValidationError):
        fans.fan_from_cones([cg([(1, 0), (0, 1)]), cg([(1, 1), (0, 1)])])


def test_bad_overlap_without_containment_rejected():
    report = fans.validate_fan([cg([(1, 0), (0, 1)]), cg([(1, 2), (-1, 1)])])
    assert not report.valid


def test_missing_quadrant_incomplete():
    f = fans.fan_from_cones([
        cg([(1, 0), (0, 1)]), cg([(0, 1), (-1, 0)]), cg([(-1, 0), (0, -1)]),
    ])
    assert not f.complete


def test_halfplane_fan_valid_complete():
    assert halfplane_fan((0, 1)).complete


def test_full_space_fan_complete():
    f = fans.fan_from_cones([make_cone([], n=2, lines=[(1, 0), (0, 1)])])
    assert f.complete


def test_octant_fan_complete():
    octants = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                octants.append(cg([(sx, 0, 0), (0, sy, 0), (0, 0, sz)]))
    f = fans.fan_from_cones(octants)
    assert f.complete
    assert len(f.maximal) == 8


# -- subdivision witnesses --------------------------------------------------


def test_quadrants_subdivide_halfplanes():
    fine, coarse = quadrant_fan(), halfplane_fan((0, 1))
    w = is_subdivision(fine, coarse)
    assert w is not None
    for i, tau in enumerate(fine.maximal):
        sigma = coarse.maximal[w.carrier[i]]
        for r in tau.rays:
            assert locate(sigma, r) is not None


def test_subdivision_reflexive():
    f = quadrant_fan()
    assert is_subdivision(f, f) is not None


def test_transverse_halfplanes_not_subdivision():
    assert is_subdivision(halfplane_fan((0, 1)),
                          halfplane_fan((1, -1))) is None


def test_partial_cover_not_subdivision():
    part = fans.fan_from_cones([cg([(1, 0), (1, 1)])])
    whole = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    assert is_subdivision(part, whole) is None


# -- common refinement ------------------------------------------------------


def test_refinement_of_quadrants_and_diagonal():
    cr, over_q, over_h = fans.common_refinement(quadrant_fan(),
                                                halfplane_fan((1, -1)))
    assert len(cr.maximal) == 6
    assert cr.complete
    assert over_q == is_subdivision(cr, quadrant_fan()) is not None
    assert over_h == is_subdivision(cr, halfplane_fan((1, -1))) is not None


def test_refinement_idempotent():
    f = quadrant_fan()
    w = fans.SubdivisionWitness((0, 1, 2, 3))
    assert fans.common_refinement(f, f) == (f, w, w)


def test_refinement_of_a_partial_fan_has_one_witness():
    """The first quadrant alone covers one cone of the quadrant fan: the
    refinement is that cone, which subdivides it but not the whole fan."""
    part = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    assert fans.common_refinement(quadrant_fan(), part) == \
        (part, None, fans.SubdivisionWitness((0,)))


def test_refinement_absorption():
    a, b = quadrant_fan(), halfplane_fan((1, -1))
    ab = fans.common_refinement(a, b)[0]
    assert fans.common_refinement(a, ab)[0] == ab


# -- stellar subdivision ----------------------------------------------------


def test_stellar_at_interior_ray():
    st_fan = stellar_subdivision(quadrant_fan(), (1, 1))
    assert len(st_fan.maximal) == 5
    assert st_fan.rays == ((-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
    assert fans.validate_fan(st_fan.maximal).valid
    assert st_fan.complete
    assert is_subdivision(st_fan, quadrant_fan()) is not None


def test_stellar_at_existing_ray_is_identity():
    f = quadrant_fan()
    assert stellar_subdivision(f, (1, 0)) == f


def test_stellar_outside_support_rejected():
    f = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    with pytest.raises(ValidationError):
        stellar_subdivision(f, (-1, -1))


def test_stellar_on_octant_facet_ray():
    f = fans.fan_from_cones([cg([(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    st_fan = stellar_subdivision(f, (1, 1, 0))
    assert len(st_fan.maximal) == 2
    assert fans.validate_fan(st_fan.maximal).valid


def test_stellar_at_a_ray_in_the_lines_keeps_the_support():
    """A ray in the lineality space of the cones holding it lies in every
    facet of each, so they stay whole instead of dropping out: the closed
    half-planes with normal (0, 1) at (1, 0), and in rank 3 the same
    half-spaces times the line through e_3, and the quadrant wedges, at a
    ray of their lines."""
    plane = halfplane_fan((0, 1))
    for fan, ray in ((plane, (1, 0)), (plane, (-1, 0)),
                     (lifted(plane), (1, 0, 0)), (lifted(plane), (2, 0, -1)),
                     (lifted(quadrant_fan()), (0, 0, 1))):
        st_fan = stellar_subdivision(fan, ray)
        assert st_fan == fan
        assert st_fan.complete
        assert is_subdivision(st_fan, fan) is not None


def test_fan_from_rays_2d():
    assert fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (0, -1)]) == \
        quadrant_fan()
    with pytest.raises(ValidationError):
        fan_from_rays_2d([(1, 0), (0, 1), (-1, -1)][:2])
    with pytest.raises(ValidationError):
        fan_from_rays_2d([(1, 0), (0, 1), (-1, 1)])


# -- randomized properties --------------------------------------------------

ray_dirs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: v != (0, 0))


@st.composite
def complete_fans_2d(draw, extra=st.lists(ray_dirs, max_size=4)):
    base = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return fan_from_rays_2d(base + draw(extra))


@settings(max_examples=60, deadline=None)
@given(complete_fans_2d())
def test_complete_rank2_cone_count_equals_ray_count(fan):
    assert fan.complete
    assert len(fan.maximal) == len(fan.rays)


@settings(max_examples=40, deadline=None)
@given(complete_fans_2d(), ray_dirs)
def test_stellar_properties(fan, r):
    st_fan = stellar_subdivision(fan, r)
    assert fans.validate_fan(st_fan.maximal).valid
    assert st_fan.complete
    assert is_subdivision(st_fan, fan) is not None
    assert set(fan.rays) <= set(st_fan.rays)


@settings(max_examples=30, deadline=None)
@given(complete_fans_2d(), complete_fans_2d())
def test_refinement_commutative_and_subdivides(a, b):
    ab, over_a, over_b = fans.common_refinement(a, b)
    assert ab == fans.common_refinement(b, a)[0]
    assert ab.complete
    assert over_a == is_subdivision(ab, a) is not None
    assert over_b == is_subdivision(ab, b) is not None


@settings(max_examples=20, deadline=None)
@given(complete_fans_2d(), complete_fans_2d(), complete_fans_2d())
def test_subdivision_partial_order_transitive(a, b, c):
    """Refinement chains compose: a∧b∧c subdivides a∧b subdivides a."""
    ab = fans.common_refinement(a, b)[0]
    abc = fans.common_refinement(ab, c)[0]
    assert is_subdivision(ab, a) is not None
    assert is_subdivision(abc, ab) is not None
    assert is_subdivision(abc, a) is not None


@settings(max_examples=30, deadline=None)
@given(complete_fans_2d())
def test_subdivision_antisymmetric(fan):
    st_fan = stellar_subdivision(fan, (1, 1))
    if st_fan != fan:
        assert is_subdivision(fan, st_fan) is None


# -- by-value carriers against the full scan --------------------------------


def reference_is_subdivision(fine, coarse):
    """The carrier tuple of ``is_subdivision`` before carriers were looked
    up by value: every fine cone scanned against every coarse cone and
    every carrier's group paired; None when there is no witness."""
    if not (fine.is_pure and coarse.is_pure and fine.dim == coarse.dim):
        return None
    carrier = []
    for tau in fine.maximal:
        found = None
        for j, sigma in enumerate(coarse.maximal):
            if cone_holds(sigma, tau.rays, tau.lines):
                found = j
                break
        if found is None:
            return None
        carrier.append(found)
    groups = {}
    for i, j in enumerate(carrier):
        groups.setdefault(j, []).append(fine.maximal[i])
    if len(groups) != len(coarse.maximal):
        return None
    for j, taus in groups.items():
        sigma_facets = fans.facet_cones(coarse.maximal[j])
        for count, f in fans._pair_facets(taus):
            if count == 2:
                continue
            if count > 2:
                return None
            if not any(cone_holds(sf, f.rays, f.lines)
                       for sf in sigma_facets):
                return None
    return tuple(carrier)


def assert_same_witness(fine, coarse):
    w = is_subdivision(fine, coarse)
    assert (None if w is None else w.carrier) == \
        reference_is_subdivision(fine, coarse)
    return w


def partial(fan, drop):
    """The fan without its maximal cone of index ``drop``."""
    keep = [c for j, c in enumerate(fan.maximal) if j != drop % len(fan.maximal)]
    return fans.fan_from_cones(keep, fan.n)


def non_pure(fan, drop):
    """The fan with one maximal cone swapped for the ray of its ray sum."""
    sigma = fan.maximal[drop % len(fan.maximal)]
    keep = [c for c in fan.maximal if c != sigma]
    return fans.fan_from_cones(keep + [cg([sigma.relint_point()])], fan.n)


@settings(max_examples=30, deadline=None)
@given(complete_fans_2d(), complete_fans_2d(), ray_dirs, st.integers(0, 7))
def test_subdivision_witness_matches_full_scan_rank2(a, b, r, drop):
    s = stellar_subdivision(a, r)
    ab = fans.common_refinement(a, b)[0]
    for fine, coarse in ((s, a), (a, s), (ab, a), (ab, b), (a, ab), (a, a),
                         (partial(s, drop), a), (s, partial(a, drop)),
                         (non_pure(s, drop), a), (s, non_pure(a, drop)),
                         (non_pure(a, drop), non_pure(a, drop))):
        assert_same_witness(fine, coarse)
    assert assert_same_witness(s, a) is not None
    assert assert_same_witness(partial(s, drop), a) is None


unimodular3 = st.lists(
    st.tuples(st.permutations(range(3)).map(lambda p: p[:2]),
              st.sampled_from((-1, 1))),
    min_size=1, max_size=3)


def shear_columns(n, shears):
    """The columns of a product of elementary shears e_i += k e_j."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), k in shears:
        for row in m:
            row[i] += k * row[j]
    return [tuple(m[r][c] for r in range(n)) for c in range(n)]


def orthant_image(n, shears):
    """The orthant fan under a product of elementary shears."""
    cols = shear_columns(n, shears)
    cones = []
    for signs in itertools.product((1, -1), repeat=n):
        cones.append(cg([tuple(s * a for a in col)
                         for s, col in zip(signs, cols)]))
    return fans.fan_from_cones(cones, n)


@settings(max_examples=12, deadline=None)
@given(unimodular3, unimodular3, st.tuples(*[st.integers(-2, 2)] * 3)
       .filter(any), st.integers(0, 7))
def test_subdivision_witness_matches_full_scan_rank3(m1, m2, r, drop):
    a, b = orthant_image(3, m1), orthant_image(3, m2)
    s = stellar_subdivision(a, r)
    ab = fans.common_refinement(a, b)[0]
    for fine, coarse in ((s, a), (a, s), (ab, a), (ab, b), (a, a),
                         (partial(s, drop), a), (s, partial(a, drop)),
                         (non_pure(s, drop), a)):
        assert_same_witness(fine, coarse)
    assert assert_same_witness(ab, b) is not None


# -- facet-sign shortcuts against the converting code ------------------------


def reference_violations(cones, n):
    """``_violations`` before the facet-sign certificate: every pair that
    is not equal is intersected, one conversion each."""
    if not cones:
        return ["fan has no cones"]
    violations = [f"cone {i} lives in rank {c.n}, expected {n}"
                  for i, c in enumerate(cones) if c.n != n]
    if violations:
        return violations
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i], cones[j]
            if a == b:
                violations.append(f"cones {i} and {j} are equal")
                continue
            m = cone_intersect(a, b)
            if m == a or m == b:
                violations.append(f"cone {i if m == a else j} is contained "
                                  f"in cone {j if m == a else i}")
                continue
            if not (cone_is_face(m, a) and cone_is_face(m, b)):
                violations.append(
                    f"cones {i} and {j} intersect in {m.rays} + lines "
                    f"{m.lines}, not a common face")
    return violations


def reference_split(fan, rays):
    """``_split`` before facets were kept by their normal's sign: each facet
    cone is asked whether it holds the ray.  A cone with no facet missing
    the ray holds it in its lineality space and stays whole."""
    out = []
    for j, sigma in enumerate(fan.maximal):
        ray = rays.get(j)
        joins = [] if ray is None else [
            make_cone(list(f.rays) + [ray], n=fan.n, lines=list(f.lines))
            for f in fans.facet_cones(sigma) if not cone_holds(f, [ray])]
        out += joins or [sigma]
    return fans._trusted_fan(out, fan.n)


def reference_common_refinement(a, b):
    """``common_refinement`` before facet signs skipped pairs: every pair
    of maximal cones is intersected."""
    pieces = {m for sa in a.maximal for sb in b.maximal
              for m in [cone_intersect(sa, sb)] if m.dim == a.dim}
    return fans._trusted_fan(pieces, a.n)


def assert_same_certificate(cones):
    """The sign table's certificate against the evaluated one on every
    pair: the same facing normals, each by its zero mask, and the same
    separated pairs, when every cone has one rank (validation stops at
    the ranks otherwise); and the violations against the pairwise check."""
    n = cones[0].n
    assert fans._violations(cones, n) == reference_violations(cones, n)
    if any(c.n != n for c in cones):
        return
    table = fans._sign_table(cones)
    for (a, ta), (b, tb) in itertools.permutations(zip(cones, table), 2):
        assert len(fans._facing(ta, tb)) == len(facing(a, b))
        assert fans._separated(ta, tb) == separated(a, b)


def shears(n):
    return st.lists(st.tuples(st.permutations(range(n)).map(lambda p: p[:2]),
                              st.sampled_from((-1, 1))), max_size=3)


def simplex_image(n, shears):
    """The complete fan of the n + 1 cones each spanned by all but one of
    e_1, ..., e_n, -(e_1 + ... + e_n), under a product of shears."""
    cols = shear_columns(n, shears)
    gens = cols + [tuple(-sum(c) for c in zip(*cols))]
    return fans.fan_from_cones(
        [cg(gens[:k] + gens[k + 1:]) for k in range(n + 1)], n)


def with_lines(fan, n, cols):
    """A fan times the span of the last n - fan.n unit vectors of rank n,
    under the linear map with the given columns."""
    def image(v):
        v = v + (0,) * (n - len(v))
        return tuple(sum(a * c[k] for a, c in zip(v, cols)) for k in range(n))
    span = [image((0,) * k + (1,)) for k in range(fan.n, n)]
    return fans.fan_from_cones(
        [make_cone([image(r) for r in c.rays], n=n,
                   lines=[image(l) for l in c.lines] + span)
         for c in fan.maximal], n)


def lifted(fan):
    """A rank-2 fan times the line through e_3."""
    return fans.fan_from_cones(
        [make_cone([r + (0,) for r in c.rays], n=3,
                   lines=[l + (0,) for l in c.lines] + [(0, 0, 1)])
         for c in fan.maximal], 3)


def t_junction(cols):
    """Two rank-3 cones meeting in an edge of one and half an edge of the
    other, under the linear map with the given columns."""
    def image(v):
        return tuple(sum(a * c[k] for a, c in zip(v, cols)) for k in range(3))
    return [cg([image(v) for v in ((0, 0, 1), (2, 0, 1), (0, 2, 1))]),
            cg([image(v) for v in ((0, 0, 1), (1, 0, 1), (1, -2, 1))])]


@st.composite
def tower_levels(draw):
    """A level of a barycentric, toward or common-refine-with tower over a
    sheared orthant fan (ranks 2 and 3) or simplex fan (rank 4)."""
    n = draw(st.sampled_from((2, 3, 4)))
    image = orthant_image if n < 4 else simplex_image
    base = image(n, draw(shears(n)))
    kind = draw(st.sampled_from(("barycentric", "toward", "refine")))
    if kind == "barycentric":
        strategy = tw.StellarAtBarycenters()
        steps = draw(st.integers(1, 2)) if n == 2 else 1
    elif kind == "toward":
        target = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
        strategy = tw.TowardDirection(tw.symbolic_vector(list(target)))
        steps = draw(st.integers(1, 3))
    else:
        strategy, steps = tw.CommonRefineWith(image(n, draw(shears(n)))), 1
    return tw.extend_tower(tw.fan_tower(base), strategy, steps).fans[-1]


@settings(max_examples=25, deadline=None)
@given(tower_levels(), tower_levels(), st.randoms(use_true_random=False))
def test_tower_levels_validate_as_the_pairwise_check_does(fan, other, rnd):
    cones = list(fan.maximal)
    rnd.shuffle(cones)
    assert fans._violations(cones, fan.n) == \
        reference_violations(cones, fan.n) == []
    assert_same_certificate(cones)
    if other.n == fan.n:
        assert fans.common_refinement(fan, other) == \
            certified_refinement(fan, other)


def perfect_cones(height):
    """The maximal cones of the perfect-cone decomposition of binary
    quadratic forms (q11, q12, q22) whose Farey triangle {u, v, u + v}
    has entries of absolute value at most ``height``: each is spanned by
    the squares (a², ab, b²) of its three vectors."""
    def sign_free(v):
        return v if v > (0, 0) else (-v[0], -v[1])

    seen, todo = set(), [frozenset({(1, 0), (0, 1), (1, 1)})]
    while todo:
        tri = todo.pop()
        if tri in seen or max(abs(x) for v in tri for x in v) > height:
            continue
        seen.add(tri)
        for u, v in itertools.combinations(sorted(tri), 2):
            for w in ((u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])):
                todo.append(frozenset({u, v, sign_free(w)}))
    return [cg([(a * a, a * b, b * b) for a, b in tri]) for tri in seen]


@pytest.mark.parametrize("height", (3, 6))
def test_perfect_cone_fans_validate_as_the_pairwise_check_does(height):
    cones = sorted(perfect_cones(height), key=fans._cone_key)
    assert len(cones) == {3: 14, 6: 46}[height]
    assert fans._violations(cones, 3) == reference_violations(cones, 3) == []
    table = fans._sign_table(cones)
    assert all(fans._separated(a, b)
               for a, b in itertools.combinations(table, 2))
    assert_same_certificate(cones)
    perfect = fans.fan_from_cones(cones, 3)
    for other in (orthant_image(3, []), simplex_image(3, [((0, 1), 1)])):
        assert fans.common_refinement(perfect, other) == \
            certified_refinement(perfect, other)


@st.composite
def cone_lists(draw):
    """Cones that break the fan axioms in every way validation names:
    equal cones, a cone inside another (a face of it or not), overlaps
    without containment, a rank-3 T-junction, cones with lines and a cone
    of another rank, mixed with maximal cones of valid fans."""
    n = draw(st.sampled_from((2, 3)))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    cones = []
    if draw(st.booleans()):
        fan = draw(st.sampled_from((
            orthant_image(n, draw(shears(n))),
            halfplane_fan((1, 2)) if n == 2 else lifted(quadrant_fan()))))
        cones += draw(st.lists(st.sampled_from(fan.maximal), max_size=4,
                               unique=True))
    kinds = st.sampled_from(("random", "lines", "face", "copy", "t-junction",
                             "rank"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind in ("face", "copy") and cones:
            c = draw(st.sampled_from(cones))
            cones.append(c if kind == "copy"
                         else draw(st.sampled_from(cone_faces(c))))
        elif kind == "t-junction" and n == 3:
            cones += t_junction(shear_columns(3, draw(shears(3))))
        elif kind == "rank":
            m = draw(st.sampled_from((n - 1, n + 1)))
            cones.append(make_cone([(1,) * m], n=m))
        else:
            lines = draw(st.lists(vec, max_size=1)) if kind == "lines" else []
            cones.append(make_cone(draw(st.lists(vec, min_size=1,
                                                 max_size=3)),
                                   n=n, lines=lines))
    return draw(st.permutations(cones))


@settings(max_examples=80, deadline=None)
@given(cone_lists())
def test_violations_match_the_pairwise_check(cones):
    assert_same_certificate(cones)


def test_the_certificate_leaves_containment_and_t_junctions_to_the_check():
    quadrant, edge = cg([(1, 0), (0, 1)]), cg([(1, 0)])
    a, b = t_junction(shear_columns(3, []))
    for cones in ([quadrant, edge], [edge, quadrant], [a, b], [b, a]):
        n = cones[0].n
        assert fans._violations(cones, n) == reference_violations(cones, n)
        assert fans._violations(cones, n)
    assert not fans._separated(*fans._sign_table([a, b]))
    assert not fans._separated(*fans._sign_table([quadrant, edge]))
    assert fans._separated(*fans._sign_table([quadrant,
                                              cg([(0, 1), (-1, 0)])]))


def assert_same_split(fan, rays, got=None):
    """``_split``'s fan and witness, or the step result ``got`` made with
    these rays, against the converting code: every cone with the facets and
    equations ``make_cone`` gives it, and the witness ``is_subdivision``
    finds."""
    got, w = fans._split(fan, rays) if got is None else got
    ref = reference_split(fan, rays)
    assert got == ref
    assert [(c.facets, c.equations) for c in got.maximal] == \
        [(c.facets, c.equations) for c in ref.maximal]
    assert w == assert_same_witness(got, fan)
    return got


def assert_same_refinement(a, b):
    """The refinement against the converting code, and the witnesses it
    hands over against the carrier search's."""
    got, over_a, over_b = fans.common_refinement(a, b)
    assert (got, over_a, over_b) == certified_refinement(a, b)
    assert got == reference_common_refinement(a, b)
    assert over_a == assert_same_witness(got, a)
    assert over_b == assert_same_witness(got, b)
    assert_same_witness(a, got)


def assert_facet_signs_agree(fan, other, ray):
    """Split the fan at the ray where it holds it and at its cones' ray
    sums, refine the results with each other and with ``other``, and the
    fan less one cone with ``other``, and compare each step and its
    witnesses with the converting code."""
    stellar = assert_same_split(fan, {
        j: primitive(ray).direction for j, sigma in enumerate(fan.maximal)
        if cone_holds(sigma, [ray])})
    barycentric = assert_same_split(fan, {
        j: primitive(sigma.relint_point()).direction
        for j, sigma in enumerate(fan.maximal)
        if sigma.dim >= 2 and sigma.rays})
    part = partial(fan, 0)
    for a, b in ((fan, other), (other, fan), (stellar, barycentric),
                 (part, other), (other, part)):
        assert_same_refinement(a, b)


@settings(max_examples=25, deadline=None)
@given(complete_fans_2d(), complete_fans_2d(), ray_dirs)
def test_facet_signs_match_the_converting_code_rank2(a, b, r):
    assert_facet_signs_agree(a, b, r)
    # a ray off the halfplanes' line, so that it splits a halfplane
    normal = (1, 2) if r[0] + 2 * r[1] else (2, -1)
    assert_facet_signs_agree(halfplane_fan(normal), a, r)


@settings(max_examples=10, deadline=None)
@given(unimodular3, unimodular3, st.tuples(*[st.integers(-2, 2)] * 2)
       .filter(any), st.integers(-2, 2), complete_fans_2d())
def test_facet_signs_match_the_converting_code_rank3(m1, m2, r, z, plane):
    a, b = orthant_image(3, m1), orthant_image(3, m2)
    assert_facet_signs_agree(a, b, r + (z,))
    prism = lifted(plane)
    assert_facet_signs_agree(prism, a, r + (z,))
    cones = list(prism.maximal)
    assert fans._violations(cones, 3) == reference_violations(cones, 3) == []


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_steps_match_the_converting_code(data):
    """Stellar, barycentric and toward steps on pointed complete fans of
    ranks 2-4 (sheared orthant and simplex fans, and common refinements of
    two, whose cones need not be simplicial), and stellar and barycentric
    steps on such fans of lower rank times a sheared lineality space: each
    join and its facets and equations are those of ``make_cone``, and each
    witness is the one ``is_subdivision`` finds."""
    n = data.draw(st.sampled_from((2, 3, 4)))
    # the rank of the pointed part: n for about half the examples
    k = data.draw(st.integers(1, n - 1)) if data.draw(st.booleans()) else n
    image = data.draw(st.sampled_from((orthant_image, simplex_image)))
    fan = image(k, data.draw(shears(k)) if k > 1 else [])
    if 1 < k < 4 and data.draw(st.booleans()):
        fan = fans.common_refinement(fan, image(k, data.draw(shears(k))))[0]
    if k < n:
        fan = with_lines(fan, n, shear_columns(n, data.draw(shears(n))))
    vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    r = primitive(data.draw(vec)).direction
    assert_same_split(fan, {j: r for j, sigma in enumerate(fan.maximal)
                            if cone_holds(sigma, [r])})
    assert_same_split(fan, {j: primitive(sigma.relint_point()).direction
                            for j, sigma in enumerate(fan.maximal)},
                      tw.StellarAtBarycenters().step(fan))
    if k < n:
        return
    x = data.draw(vec)
    carrier, holding = fan.locate(x)
    got = tw.TowardDirection(tw.symbolic_vector(list(x))).step(
        fan, carrier, holding)
    if carrier.dim <= 1:
        assert got == (fan, is_subdivision(fan, fan))
        return
    new_ray, = set(got[0].rays) - set(fan.rays)
    assert_same_split(fan, dict.fromkeys(holding, new_ray), got)


def test_facet_signs_leave_few_conversions_on_the_octant(monkeypatch):
    """Two barycentric steps over the octant fan build each join, its
    facets and its witness with no conversion, so the second step reads
    the first step's facets unconverted; validating the 72 cones of the
    second converts one meet for each of the 336 of 2,556 pairs that the
    certificate leaves undecided."""
    octant = orthant_image(3, [])
    calls = []
    convert = lattice._halfspaces_to_generators

    def counted(*args):
        calls.append(args)
        return convert(*args)

    monkeypatch.setattr(lattice, "_halfspaces_to_generators", counted)
    first, _ = tw.StellarAtBarycenters().step(octant)
    second, w = tw.StellarAtBarycenters().step(first)
    assert (len(second.maximal), len(calls)) == (72, 0)
    assert is_subdivision(second, first) == w
    for sigma in second.maximal:
        sigma.facets
    calls.clear()
    report = fans.validate_fan(second.maximal)
    assert report.valid and report.complete
    assert len(calls) == 336


@st.composite
def split_cases(draw):
    """A cone of rank 1-4, spanned by generators and lines (so it may have
    lines, equations, or both), with a primitive ray in it: a nonnegative
    combination of its rays plus one of its lines, through its relative
    interior when every ray takes part and on some of its facets when
    not."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    sigma = make_cone(draw(st.lists(vec, min_size=1, max_size=n + 2)), n=n,
                      lines=draw(st.lists(vec, max_size=max(n - 2, 0))))
    assume(sigma.rays)
    relint = draw(st.booleans())
    weights = st.integers(1, 3) if relint else st.integers(0, 1)
    # one ray at least takes part, so the ray is off the lines
    ray = list(sigma.rays[0])
    for r in sigma.rays:
        w = draw(weights)
        ray = [x + w * a for x, a in zip(ray, r)]
    for l in sigma.lines:
        w = draw(st.integers(-2, 2))
        ray = [x + w * a for x, a in zip(ray, l)]
    return sigma, ray


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_split_joins_carry_the_converted_h_side(case):
    """Each join that ``_split`` builds is handed the equations, facets and
    facet masks that converting its rays and lines gives."""
    sigma, ray = case
    fan = fans.Fan(sigma.n, (sigma,))
    got, _ = fans._split(fan, {0: primitive(ray).direction})
    for join in got.maximal:
        assert join._dual == lattice.halfspaces_to_generators(
            join.lines, join.rays, join.n)
