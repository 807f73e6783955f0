"""Tests for fan validation, refinement, and stellar subdivision.

Small expected values (cone counts, ray sets, witness existence) were worked
out by hand on quadrant-sized examples and frozen.  Randomized suites build
complete rank-2 fans from random ray sets through the angular-sort helper and
check the refinement algebra and the subdivision partial order against them.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from troplim import fans
from troplim.errors import ValidationError
from troplim.lattice import (
    cone_from_generators as cg, cone_subset, locate, make_cone,
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
    w = fans.is_subdivision(quadrant_fan(), halfplane_fan((0, 1)))
    assert w is not None
    for i, tau in enumerate(w.fine.maximal):
        sigma = w.coarse.maximal[w.carrier[i]]
        for r in tau.rays:
            assert locate(sigma, r) is not None


def test_subdivision_reflexive():
    f = quadrant_fan()
    assert fans.is_subdivision(f, f) is not None


def test_transverse_halfplanes_not_subdivision():
    assert fans.is_subdivision(halfplane_fan((0, 1)),
                               halfplane_fan((1, -1))) is None


def test_partial_cover_not_subdivision():
    part = fans.fan_from_cones([cg([(1, 0), (1, 1)])])
    whole = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    assert fans.is_subdivision(part, whole) is None


# -- common refinement ------------------------------------------------------


def test_refinement_of_quadrants_and_diagonal():
    cr = fans.common_refinement(quadrant_fan(), halfplane_fan((1, -1)))
    assert len(cr.maximal) == 6
    assert cr.complete
    assert fans.is_subdivision(cr, quadrant_fan()) is not None
    assert fans.is_subdivision(cr, halfplane_fan((1, -1))) is not None


def test_refinement_idempotent():
    f = quadrant_fan()
    assert fans.common_refinement(f, f) == f


def test_refinement_absorption():
    a, b = quadrant_fan(), halfplane_fan((1, -1))
    ab = fans.common_refinement(a, b)
    assert fans.common_refinement(a, ab) == ab


# -- stellar subdivision ----------------------------------------------------


def test_stellar_at_interior_ray():
    st_fan = fans.stellar_subdivision(quadrant_fan(), (1, 1))
    assert len(st_fan.maximal) == 5
    assert st_fan.rays == ((-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
    assert fans.validate_fan(st_fan.maximal).valid
    assert st_fan.complete
    assert fans.is_subdivision(st_fan, quadrant_fan()) is not None


def test_stellar_at_existing_ray_is_identity():
    f = quadrant_fan()
    assert fans.stellar_subdivision(f, (1, 0)) == f


def test_stellar_outside_support_rejected():
    f = fans.fan_from_cones([cg([(1, 0), (0, 1)])])
    with pytest.raises(ValidationError):
        fans.stellar_subdivision(f, (-1, -1))


def test_stellar_on_octant_facet_ray():
    f = fans.fan_from_cones([cg([(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    st_fan = fans.stellar_subdivision(f, (1, 1, 0))
    assert len(st_fan.maximal) == 2
    assert fans.validate_fan(st_fan.maximal).valid


def test_fan_from_rays_2d():
    assert fans.fan_from_rays_2d([(1, 0), (0, 1), (-1, 0), (0, -1)]) == \
        quadrant_fan()
    with pytest.raises(ValidationError):
        fans.fan_from_rays_2d([(1, 0), (0, 1), (-1, -1)][:2])
    with pytest.raises(ValidationError):
        fans.fan_from_rays_2d([(1, 0), (0, 1), (-1, 1)])


# -- randomized properties --------------------------------------------------

ray_dirs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: v != (0, 0))


@st.composite
def complete_fans_2d(draw, extra=st.lists(ray_dirs, max_size=4)):
    base = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return fans.fan_from_rays_2d(base + draw(extra))


@settings(max_examples=60, deadline=None)
@given(complete_fans_2d())
def test_complete_rank2_cone_count_equals_ray_count(fan):
    assert fan.complete
    assert len(fan.maximal) == len(fan.rays)


@settings(max_examples=40, deadline=None)
@given(complete_fans_2d(), ray_dirs)
def test_stellar_properties(fan, r):
    st_fan = fans.stellar_subdivision(fan, r)
    assert fans.validate_fan(st_fan.maximal).valid
    assert st_fan.complete
    assert fans.is_subdivision(st_fan, fan) is not None
    assert set(fan.rays) <= set(st_fan.rays)


@settings(max_examples=30, deadline=None)
@given(complete_fans_2d(), complete_fans_2d())
def test_refinement_commutative_and_subdivides(a, b):
    ab = fans.common_refinement(a, b)
    assert ab == fans.common_refinement(b, a)
    assert ab.complete
    assert fans.is_subdivision(ab, a) is not None
    assert fans.is_subdivision(ab, b) is not None


@settings(max_examples=20, deadline=None)
@given(complete_fans_2d(), complete_fans_2d(), complete_fans_2d())
def test_subdivision_partial_order_transitive(a, b, c):
    """Refinement chains compose: a∧b∧c subdivides a∧b subdivides a."""
    ab = fans.common_refinement(a, b)
    abc = fans.common_refinement(ab, c)
    assert fans.is_subdivision(ab, a) is not None
    assert fans.is_subdivision(abc, ab) is not None
    assert fans.is_subdivision(abc, a) is not None


@settings(max_examples=30, deadline=None)
@given(complete_fans_2d())
def test_subdivision_antisymmetric(fan):
    st_fan = fans.stellar_subdivision(fan, (1, 1))
    if st_fan != fan:
        assert fans.is_subdivision(fan, st_fan) is None


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
            if cone_subset(tau, sigma):
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
            if not any(cone_subset(f, sf) for sf in sigma_facets):
                return None
    return tuple(carrier)


def assert_same_witness(fine, coarse):
    w = fans.is_subdivision(fine, coarse)
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
    s = fans.stellar_subdivision(a, r)
    ab = fans.common_refinement(a, b)
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


def octant_image(shears):
    """The octant fan under a product of elementary shears e_i += k e_j."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for (i, j), k in shears:
        for row in m:
            row[i] += k * row[j]
    cols = [tuple(m[r][c] for r in range(3)) for c in range(3)]
    cones = []
    for signs in itertools.product((1, -1), repeat=3):
        cones.append(cg([tuple(s * a for a in col)
                         for s, col in zip(signs, cols)]))
    return fans.fan_from_cones(cones, 3)


@settings(max_examples=12, deadline=None)
@given(unimodular3, unimodular3, st.tuples(*[st.integers(-2, 2)] * 3)
       .filter(any), st.integers(0, 7))
def test_subdivision_witness_matches_full_scan_rank3(m1, m2, r, drop):
    a, b = octant_image(m1), octant_image(m2)
    s = fans.stellar_subdivision(a, r)
    ab = fans.common_refinement(a, b)
    for fine, coarse in ((s, a), (a, s), (ab, a), (ab, b), (a, a),
                         (partial(s, drop), a), (s, partial(a, drop)),
                         (non_pure(s, drop), a)):
        assert_same_witness(fine, coarse)
    assert assert_same_witness(ab, b) is not None
