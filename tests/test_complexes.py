"""Tests for generalized complexes, subdivision, maps, and fibers."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeleton_references import alcoves, push_point, vertex_location
from troplim.complexes import (
    DeltaComplex,
    _drop_walls,
    _lowest_images,
    _sequence_index,
    _sub_name,
    canonical_point,
    cell_vertices,
    collapse_to_algebraic,
    component_ratio,
    count_cells,
    cycle_complex,
    euler_characteristic,
    from_incidence,
    identity_map,
    induced_map,
    make_complex,
    make_incidence,
    map_fiber,
    nodal_cubic_incidence,
    point_complex,
    polygon_incidence,
    rational_points,
    scale_subdivide,
    segment_complex,
    square_complex,
    tetrahedron_boundary,
    tetrahedron_solid,
    toric_fiber_complex,
    triangle_complex,
)
from troplim.errors import (
    DimensionMismatch,
    IncoherentIncidence,
    MissingProvenance,
    NoAffineStructure,
    NotCompatible,
    NotSimplicial,
    PointOutsideTarget,
    ValidationError,
)
from troplim.fans import fan_from_cones
from troplim.lattice import cone_faces, make_cone


# -- construction and validation --


def test_builders_counts_and_euler():
    expected = [
        (point_complex(), {0: 1}, 1),
        (segment_complex(), {0: 2, 1: 1}, 1),
        (triangle_complex(), {0: 3, 1: 3, 2: 1}, 1),
        (square_complex(), {0: 4, 1: 5, 2: 2}, 1),
        (tetrahedron_boundary(), {0: 4, 1: 6, 2: 4}, 2),
        (tetrahedron_solid(), {0: 4, 1: 6, 2: 4, 3: 1}, 1),
        (cycle_complex(1), {0: 1, 1: 1}, 0),
        (cycle_complex(5), {0: 5, 1: 5}, 0),
    ]
    for x, counts, chi in expected:
        assert count_cells(x) == counts
        assert euler_characteristic(x) == chi


def test_cell_vertices_ordered():
    t = triangle_complex()
    assert cell_vertices(t, "T") == ("a", "b", "c")
    assert cell_vertices(t, "ac") == ("a", "c")
    assert cell_vertices(cycle_complex(1), "e0") == ("v0", "v0")
    assert cell_vertices(cycle_complex(3), "e2") == ("v2", "v0")


def test_make_complex_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_complex([])
    with pytest.raises(ValidationError):
        make_complex([("a", []), ("a", [])])
    with pytest.raises(ValidationError):
        make_complex([("e", ["a", "b"])])
    with pytest.raises(ValidationError):
        make_complex([("a", []), ("b", []), ("e", ["b", "a"]),
                      ("T", ["e", "a", "e"])])


def test_make_complex_names_only_the_repeated_cells():
    cells = [(f"v{i}", []) for i in range(3000)] + [("v7", [])]
    with pytest.raises(ValidationError) as err:
        make_complex(cells)
    assert str(err.value) == "duplicate cell names ['v7']"
    # a subdivision vertex named like an input vertex (the open _sub_name
    # collision): the message names the one clash
    x = make_complex([("z0", []), ("e|1", []), ("e", ["e|1", "z0"])])
    with pytest.raises(ValidationError) as err:
        scale_subdivide(x, 2)
    assert str(err.value) == "duplicate cell names ['e|1']"


def test_make_complex_rejects_broken_simplicial_identity():
    # two triangles worth of edges wired so d_0 d_1 != d_0 d_0
    with pytest.raises(ValidationError):
        make_complex([
            ("a", []), ("b", []), ("c", []),
            ("bc", ["c", "b"]), ("ac", ["c", "a"]), ("ab", ["b", "a"]),
            ("T", ["bc", "ab", "ac"]),
        ])


def test_cycle_needs_an_edge():
    with pytest.raises(ValueError):
        cycle_complex(0)


# -- stratification incidence --


def test_incidence_validation():
    with pytest.raises(ValidationError):
        make_incidence("formal", [("C", 0, 1)], [])
    with pytest.raises(ValidationError):
        make_incidence("analytic", [("C", 0, 2)], [])
    with pytest.raises(ValidationError):
        make_incidence("analytic", [("C", 0, 1), ("D", 0, 1)],
                       [("C", "D")])


def test_make_incidence_names_only_the_repeated_strata():
    strata = [(f"p{i}", 1, 2) for i in range(3000)] + [("C", 0, 1)] * 2 + \
        [("p7", 1, 2)]
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", strata, [])
    assert str(err.value) == "duplicate stratum names ['C', 'p7']"


def test_nodal_cubic_dual_complexes():
    loop = from_incidence(nodal_cubic_incidence("analytic"))
    assert count_cells(loop) == {0: 1, 1: 1}
    assert euler_characteristic(loop) == 0
    assert loop.provenance == "analytic"
    pt = from_incidence(nodal_cubic_incidence("algebraic"))
    assert count_cells(pt) == {0: 1}
    assert pt.provenance == "algebraic"


def test_polygon_duals_are_cycles():
    for m in (1, 2, 3, 6):
        x = from_incidence(polygon_incidence(m))
        assert count_cells(x) == {0: m, 1: m}
        assert euler_characteristic(x) == 0


def test_incidence_rejects_deep_or_wide_strata():
    deep = make_incidence("analytic",
                          [("C", 0, 1), ("p", 2, 3)], [("p", "C")])
    with pytest.raises(IncoherentIncidence):
        from_incidence(deep)
    wide = make_incidence(
        "analytic",
        [("A", 0, 1), ("B", 0, 1), ("D", 0, 1), ("p", 1, 2)],
        [("p", "A"), ("p", "B"), ("p", "D")])
    with pytest.raises(IncoherentIncidence):
        from_incidence(wide)


def test_collapse_loop_to_point():
    loop = from_incidence(nodal_cubic_incidence("analytic"))
    collapsed, mapping = collapse_to_algebraic(loop)
    assert count_cells(collapsed) == {0: 1}
    assert mapping.cell_image("p") == ("C", (0, 0))
    # every target cell is hit: the collapse is surjective
    hit = {name for _, (name, _) in mapping.cell_images}
    assert hit == {c.name for c in collapsed.cells}
    # idempotent: collapsing an algebraic complex is the identity
    again, ident = collapse_to_algebraic(collapsed)
    assert again == collapsed
    assert ident.cell_images == identity_map(collapsed).cell_images


def test_collapse_requires_provenance():
    with pytest.raises(MissingProvenance):
        collapse_to_algebraic(segment_complex())


# -- points --


def test_canonical_point_drops_zero_coordinates():
    t = triangle_complex()
    assert canonical_point(t, "T", (F(1, 2), F(1, 4), F(1, 4))) == \
        ("T", (F(1, 2), F(1, 4), F(1, 4)))
    assert canonical_point(t, "T", (0, F(1, 2), F(1, 2))) == \
        ("bc", (F(1, 2), F(1, 2)))
    assert canonical_point(t, "T", (0, 1, 0)) == ("b", (F(1),))
    assert canonical_point(t, "ab", (1, 0)) == ("a", (F(1),))


def test_canonical_point_rejects_bad_coordinates():
    t = triangle_complex()
    with pytest.raises(DimensionMismatch):
        canonical_point(t, "T", (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        canonical_point(t, "T", (F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        canonical_point(t, "ab", (F(3, 2), F(-1, 2)))


def test_rational_point_counts():
    assert len(rational_points(segment_complex(), 2)) == 3
    assert len(rational_points(cycle_complex(1), 2)) == 2
    assert len(rational_points(cycle_complex(1), 3)) == 3
    assert len(rational_points(cycle_complex(3), 2)) == 6
    assert len(rational_points(triangle_complex(), 2)) == 6
    assert len(rational_points(triangle_complex(), 3)) == 10


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=20)
def test_rational_points_nest(level, factor):
    x = triangle_complex()
    assert rational_points(x, level) <= rational_points(x, level * factor)


# -- scale subdivision --


def test_subdivide_segment():
    s = scale_subdivide(segment_complex(), 3)
    assert count_cells(s.complex) == {0: 4, 1: 3}
    locs = {vertex_location(s, v.name) for v in s.complex.by_dim(0)}
    assert locs == {
        ("z0", (F(1),)), ("z1", (F(1),)),
        ("e", (F(1, 3), F(2, 3))), ("e", (F(2, 3), F(1, 3))),
    }


def test_subdivide_loop():
    s = scale_subdivide(cycle_complex(1), 2)
    assert count_cells(s.complex) == {0: 2, 1: 2}
    assert euler_characteristic(s.complex) == 0


def test_subdivide_triangle():
    s = scale_subdivide(triangle_complex(), 3)
    assert count_cells(s.complex) == {0: 10, 1: 18, 2: 9}
    assert euler_characteristic(s.complex) == 1


def test_subdivide_three_cycle():
    s = scale_subdivide(from_incidence(polygon_incidence(3)), 2)
    assert count_cells(s.complex) == {0: 6, 1: 6}
    assert s.complex.provenance == "analytic"


def test_component_ratio_is_level_to_the_dim():
    cases = [
        (segment_complex(), 1), (cycle_complex(2), 1),
        (triangle_complex(), 2), (square_complex(), 2),
        (tetrahedron_solid(), 3),
    ]
    for x, m in cases:
        for level in (2, 3):
            s = scale_subdivide(x, level)
            assert component_ratio(s.complex, x) == F(level) ** m
    # dimension zero: nothing to refine
    s = scale_subdivide(point_complex(), 4)
    assert component_ratio(s.complex, point_complex()) == 1


def test_component_ratio_two_top_cells():
    s = scale_subdivide(square_complex(), 4)
    assert len(s.complex.by_dim(2)) == 32
    assert component_ratio(s.complex, square_complex()) == 16


def test_subdivision_preserves_euler_characteristic():
    for x in (segment_complex(), cycle_complex(3), triangle_complex(),
              square_complex(), tetrahedron_boundary()):
        for level in (2, 3):
            s = scale_subdivide(x, level)
            assert euler_characteristic(s.complex) == euler_characteristic(x)


def test_subdivision_vertices_are_rational_points():
    for x in (segment_complex(), cycle_complex(1), triangle_complex()):
        for level in (1, 2, 3):
            s = scale_subdivide(x, level)
            locs = {vertex_location(s, v.name) for v in s.complex.by_dim(0)}
            assert locs == rational_points(x, level)


def test_subdivision_composes():
    for base in (segment_complex(), cycle_complex(1), triangle_complex()):
        s3 = scale_subdivide(base, 3)
        s2of3 = scale_subdivide(s3.complex, 2)
        s6 = scale_subdivide(base, 6)
        assert count_cells(s2of3.complex) == count_cells(s6.complex)
        composed = set()
        for v in s2of3.complex.by_dim(0):
            c1, t1 = vertex_location(s2of3, v.name)
            composed.add(push_point(s3, c1, t1))
        direct = {vertex_location(s6, v.name) for v in s6.complex.by_dim(0)}
        assert composed == direct


def test_push_point_interior():
    s = scale_subdivide(segment_complex(), 3)
    edge = sorted(c.name for c in s.complex.by_dim(1))[0]
    assert push_point(s, edge, (F(1, 2), F(1, 2))) == ("e", (F(5, 6), F(1, 6)))


def test_subdivide_requires_affine_structure():
    bare = DeltaComplex(point_complex().cells, affine=False)
    with pytest.raises(NoAffineStructure):
        scale_subdivide(bare, 2)
    with pytest.raises(ValueError):
        scale_subdivide(segment_complex(), 0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=15)
def test_subdivided_cycle_is_a_cycle(m, level):
    s = scale_subdivide(cycle_complex(m), level)
    assert count_cells(s.complex) == {0: m * level, 1: m * level}


# -- induced maps --


def atiyah_projection():
    return induced_map(square_complex(), segment_complex(),
                       {"a": "z0", "b": "z1", "c": "z0", "d": "z1"})


def test_identity_map_fixes_cells():
    t = triangle_complex()
    m = identity_map(t)
    assert m.cell_image("T") == ("T", (0, 1, 2))
    assert m.cell_image("ab") == ("ab", (0, 1))


def test_induced_map_square_onto_segment():
    proj = atiyah_projection()
    assert proj.cell_image("abd") == ("e", (0, 1, 1))
    assert proj.cell_image("acd") == ("e", (0, 0, 1))
    assert proj.cell_image("bd") == ("z1", (0, 0))
    assert proj.cell_image("ad") == ("e", (0, 1))


def test_induced_map_rejects_non_simplicial_assignment():
    two = make_complex([("p", []), ("q", [])])
    with pytest.raises(NotSimplicial):
        induced_map(segment_complex(), two, {"z0": "p", "z1": "q"})
    with pytest.raises(NotSimplicial):
        induced_map(segment_complex(), segment_complex(), {"z0": "z0"})
    with pytest.raises(NotSimplicial):
        induced_map(segment_complex(), segment_complex(),
                    {"z0": "z0", "z1": "e"})


def test_induced_map_ambiguity_needs_explicit_images():
    doubled = make_complex([("a", []), ("b", []),
                            ("e", ["b", "a"]), ("f", ["b", "a"])])
    with pytest.raises(ValidationError):
        induced_map(doubled, doubled, {"a": "a", "b": "b"})
    m = induced_map(doubled, doubled, {"a": "a", "b": "b"},
                    {"a": ("a", (0,)), "b": ("b", (0,)),
                     "e": ("f", (0, 1)), "f": ("e", (0, 1))})
    assert m.cell_image("e") == ("f", (0, 1))


def _monotone_surjections(m, k):
    """All weakly monotone surjections {0..m} -> {0..k}."""
    for cuts in itertools.combinations(range(1, m + 1), k):
        yield tuple(sum(1 for c in cuts if c <= j) for j in range(m + 1))


def _scan_images(target, u):
    """Reference matcher: every target cell of each dimension, every surjection."""
    verts = {c.name: cell_vertices(target, c.name) for c in target.cells}
    matches = []
    for k in range(len(u)):
        for tcell in target.by_dim(k):
            for phi in _monotone_surjections(len(u) - 1, k):
                if tuple(verts[tcell.name][p] for p in phi) == u:
                    matches.append((tcell.name, phi))
        if matches:
            break
    return matches


def _doubled_edge():
    return make_complex([("a", []), ("b", []),
                         ("e", ["b", "a"]), ("f", ["b", "a"])])


def _parallel_triangles():
    return make_complex([("a", []), ("b", []), ("c", []),
                         ("ab", ["b", "a"]), ("bc", ["c", "b"]),
                         ("ac", ["c", "a"]), ("ac2", ["c", "a"]),
                         ("T", ["bc", "ac", "ab"]), ("U", ["bc", "ac2", "ab"]),
                         ("V", ["bc", "ac", "ab"])])


@pytest.mark.parametrize("target, outcomes", [
    (cycle_complex(1), {1}),
    (cycle_complex(2), {0, 1}),
    (cycle_complex(3), {0, 1}),
    (segment_complex(), {0, 1}),
    (triangle_complex(), {0, 1}),
    (square_complex(), {0, 1}),
    (tetrahedron_boundary(), {0, 1}),
    (_doubled_edge(), {0, 1, 2}),
    (_parallel_triangles(), {0, 1, 2}),
], ids=["I1", "I2", "I3", "segment", "triangle", "square", "tetra",
        "doubled", "parallel"])
def test_indexed_images_match_the_scan(target, outcomes):
    index = _sequence_index(target)
    names = [v.name for v in target.by_dim(0)]
    seen = set()
    for length in range(1, 5):
        for u in itertools.product(names, repeat=length):
            expected = _scan_images(target, u)
            assert _lowest_images(index, u) == expected, u
            seen.add(min(len(expected), 2))
    # no match, one match and (for parallel cells) an ambiguous match
    assert seen == outcomes


def test_induced_map_messages_follow_the_scan_order():
    loop = cycle_complex(1)
    assert induced_map(loop, loop, {"v0": "v0"}).cell_image("e0") == \
        ("v0", (0, 0))
    wrapped = induced_map(cycle_complex(3), loop,
                          {"v0": "v0", "v1": "v0", "v2": "v0"})
    assert wrapped.cell_image("e1") == ("v0", (0, 0))
    par = _parallel_triangles()
    with pytest.raises(ValidationError) as err:
        induced_map(par, par, {"a": "a", "b": "b", "c": "c"})
    assert str(err.value) == (
        f"image of 'ac' is ambiguous ({_scan_images(par, ('a', 'c'))}); "
        f"pass cell_images")
    with pytest.raises(ValidationError) as err:
        induced_map(par, par, {"a": "a", "b": "b", "c": "c"},
                    {"ac": ("ac", (0, 1)), "ac2": ("ac2", (0, 1))})
    assert str(err.value) == (
        f"image of 'T' is ambiguous "
        f"({_scan_images(par, ('a', 'b', 'c'))}); pass cell_images")
    two = make_complex([("p", []), ("q", [])])
    with pytest.raises(NotSimplicial) as err:
        induced_map(segment_complex(), two, {"z0": "p", "z1": "q"})
    assert str(err.value) == (
        "vertices of 'e' map to ('p', 'q'), which matches no target cell")


def test_explicit_images_checked_against_vertices():
    doubled = make_complex([("a", []), ("b", []),
                            ("e", ["b", "a"]), ("f", ["b", "a"])])
    with pytest.raises(NotSimplicial):
        induced_map(doubled, doubled, {"a": "a", "b": "b"},
                    {"a": ("b", (0,)), "b": ("b", (0,)),
                     "e": ("e", (0, 1)), "f": ("f", (0, 1))})


# -- indexed lookups --


def test_unknown_names_raise_the_documented_errors():
    with pytest.raises(KeyError) as exc:
        triangle_complex().cell("zz")
    assert exc.value.args == ("no cell named 'zz'",)
    with pytest.raises(KeyError) as exc:
        nodal_cubic_incidence().stratum("q")
    assert exc.value.args == ("no stratum named 'q'",)
    with pytest.raises(KeyError):
        scale_subdivide(segment_complex(), 2).carrier("zz")
    m = identity_map(triangle_complex())
    with pytest.raises(KeyError):
        m.cell_image("zz")
    with pytest.raises(KeyError):
        m.vertex_image("ab")


def test_built_indexes_stay_out_of_eq_hash_and_repr():
    x = square_complex()
    sub = scale_subdivide(x, 2)
    m = identity_map(x)
    inc = nodal_cubic_incidence()
    x.cell("abd")
    sub.carrier(sub.complex.cells[-1].name)
    m.cell_image("abd")
    m.vertex_image("a")
    inc.stratum("C")
    for used in (x, sub, m, inc):
        fresh = dataclasses.replace(used)
        assert len(vars(fresh)) < len(vars(used))  # index built on one side
        assert fresh == used
        assert hash(fresh) == hash(used)
        assert repr(fresh) == repr(used)


@pytest.mark.parametrize("build", [
    segment_complex, triangle_complex, square_complex, tetrahedron_solid,
    lambda: cycle_complex(1), lambda: cycle_complex(3),
], ids=["segment", "triangle", "square", "tetrahedron", "loop", "3-cycle"])
def test_subdivision_faces_match_a_direct_push(build):
    x = build()
    for level in (1, 2, 3):
        sub = scale_subdivide(x, level)
        for cell in sub.complex.cells:
            carrier, verts = sub.carrier(cell.name)
            assert cell.name == _sub_name(carrier, verts)
            if cell.dim == 0:
                assert cell.faces == ()
                continue
            assert cell.faces == tuple(
                _sub_name(*_drop_walls(x, carrier, verts[:i] + verts[i + 1:]))
                for i in range(cell.dim + 1))


# -- the wall loops that _drop_walls replaced, kept as references --


def reference_push_face(x, name, verts, level):
    """Canonical carrier of a lattice simplex given in order-simplex
    coordinates of ``level * O_m``: drop the walls it lies in."""
    cell = x.cell(name)
    while cell.dim > 0:
        m = cell.dim
        wall = None
        for j in range(m + 1):
            if j == 0 and all(v[0] == level for v in verts):
                wall = 0
            elif j == m and all(v[m - 1] == 0 for v in verts):
                wall = m
            elif 0 < j < m and all(v[j - 1] == v[j] for v in verts):
                wall = j
            if wall is not None:
                break
        if wall is None:
            break
        name = cell.faces[wall]
        cell = x.cell(name)
        if wall == 0:
            verts = tuple(v[1:] for v in verts)
        elif wall == m:
            verts = tuple(v[:-1] for v in verts)
        else:
            verts = tuple(v[:wall] + v[wall + 1:] for v in verts)
    return name, verts


def reference_bary(y, level):
    """Order-simplex lattice point to barycentric coordinates."""
    ext = (level,) + tuple(y) + (0,)
    return tuple(F(ext[i] - ext[i + 1], level) for i in range(len(y) + 1))


def reference_push_fiber_face(x, name, verts):
    """Canonical (cell, sorted vertex coordinates) key of a fiber face."""
    cell = x.cell(name)
    vs = tuple(sorted(verts))
    while cell.dim > 0:
        zero_walls = [j for j in range(cell.dim + 1)
                      if all(v[j] == 0 for v in vs)]
        if not zero_walls:
            break
        j = zero_walls[0]
        name = cell.faces[j]
        cell = x.cell(name)
        vs = tuple(sorted(v[:j] + v[j + 1:] for v in vs))
    return name, vs


def reference_canonical_point(x, name, t):
    """Drop the first zero coordinate of one point until none is left."""
    cell = x.cell(name)
    while cell.dim > 0:
        zeros = [j for j, c in enumerate(t) if c == 0]
        if not zeros:
            break
        j = zeros[0]
        name = cell.faces[j]
        cell = x.cell(name)
        t = t[:j] + t[j + 1:]
    return name, t


def _sub_name_in_order_coordinates(carrier, verts):
    """Cell name from order coordinates, the reference for `_sub_name`."""
    if not verts[0] and len(verts) == 1:
        return carrier
    return carrier + "|" + "_".join(
        ".".join(str(c) for c in v) for v in verts)


def reference_scale_subdivide(x, level):
    """Cells (name, faces) and carriers of the N-fold subdivision, every
    face pushed in order coordinates."""
    found = {}
    for cell in x.cells:
        for alcove in alcoves(cell.dim, level):
            for k in range(1, len(alcove) + 1):
                for sub in itertools.combinations(alcove, k):
                    found[reference_push_face(x, cell.name, sub, level)] = \
                        k - 1
    names = {key: _sub_name_in_order_coordinates(*key) for key in found}
    cells = []
    for (carrier, verts), d in found.items():
        faces = tuple(names[reference_push_face(
            x, carrier, verts[:i] + verts[i + 1:], level)]
            for i in range(d + 1)) if d else ()
        cells.append((names[carrier, verts], faces))
    return sorted(cells), sorted((name, key) for key, name in names.items())


def _scaled(y, level):
    return tuple(int(c * level) for c in reference_bary(y, level))


WALL_SHAPES = {
    "segment": segment_complex, "triangle": triangle_complex,
    "square": square_complex, "solid-tetrahedron": tetrahedron_solid,
    "boundary-tetrahedron": tetrahedron_boundary,
    "loop": lambda: cycle_complex(1), "3-cycle": lambda: cycle_complex(3),
}


def ordered_complex(rng, nverts, tops):
    """The ordered simplicial complex spanned by the top simplices, on
    shuffled three-letter vertex labels; face i of a simplex omits its i-th
    vertex in index order, as in the benchmark corpus."""
    labels = rng.sample(["".join(t) for t in itertools.product("abcdefgh",
                                                               repeat=3)],
                        nverts)
    simplices = {s for top in tops for k in range(1, len(top) + 1)
                 for s in itertools.combinations(sorted(top), k)}
    name = {s: ".".join(labels[i] for i in s) for s in simplices}
    return make_complex([(name[s], [name[s[:i] + s[i + 1:]]
                                    for i in range(len(s))] if len(s) > 1
                          else []) for s in simplices])


def assert_matches_the_reference(x, level):
    """Cells, faces and carriers of the subdivision are the ones the walk
    over every alcove face builds."""
    sub = scale_subdivide(x, level)
    cells, carriers = reference_scale_subdivide(x, level)
    assert sorted((c.name, c.faces) for c in sub.complex.cells) == cells
    assert list(sub.carriers) == [
        (name, (carrier, tuple(_scaled(y, level) for y in verts)))
        for name, (carrier, verts) in carriers]


@pytest.mark.parametrize("shape", sorted(WALL_SHAPES))
def test_scale_subdivide_matches_the_order_coordinate_walk(shape):
    """At levels 1-6, ``_drop_walls`` on each alcove face in scaled
    barycentric coordinates lands where the order-coordinate walk does,
    and the whole subdivision (cells, faces, carriers) is unchanged."""
    x = WALL_SHAPES[shape]()
    for level in range(1, 7):
        for cell in x.cells:
            for alcove in alcoves(cell.dim, level):
                for k in range(1, len(alcove) + 1):
                    for sub in itertools.combinations(alcove, k):
                        name, verts = reference_push_face(x, cell.name, sub,
                                                          level)
                        assert _drop_walls(
                            x, cell.name, [_scaled(y, level) for y in sub]
                        ) == (name, tuple(_scaled(y, level) for y in verts))
        assert_matches_the_reference(x, level)


# shape -> (builder from a seeded rng, highest level): the benchmark
# corpus's shapes, random pure 2-complexes with six triangles on seven
# vertices, and the level-3 subdivision of the solid tetrahedron that the
# corpus subdivides again
CORPUS_SHAPES = {
    "triangle": (lambda rng: ordered_complex(rng, 3, [(0, 1, 2)]), 6),
    "square": (lambda rng: ordered_complex(rng, 4, [(0, 1, 3), (0, 2, 3)]),
               6),
    "tetrahedron": (lambda rng: ordered_complex(rng, 4, [(0, 1, 2, 3)]), 6),
    **{f"random2-{seed}": (lambda rng: ordered_complex(rng, 7, rng.sample(
        list(itertools.combinations(range(7), 3)), 6)), 6)
       for seed in range(4)},
    "resub": (lambda rng: scale_subdivide(
        ordered_complex(rng, 4, [(0, 1, 2, 3)]), 3).complex, 3),
}


@pytest.mark.parametrize("shape", list(CORPUS_SHAPES))
def test_scale_subdivide_matches_the_walk_on_corpus_shapes(shape):
    build, top = CORPUS_SHAPES[shape]
    x = build(random.Random(shape))
    for level in range(1, top + 1):
        assert_matches_the_reference(x, level)


@st.composite
def barycentric_points(draw, count):
    """A cell of one of the wall shapes and ``count`` distinct points in
    its barycentric coordinates, some coordinates zero on all of them."""
    x = WALL_SHAPES[draw(st.sampled_from(sorted(WALL_SHAPES)))]()
    cell = draw(st.sampled_from(x.cells))
    zero = draw(st.sets(st.integers(0, cell.dim), max_size=cell.dim))
    coordinate = st.integers(0, 3)
    points = draw(st.lists(
        st.tuples(*[st.just(0) if j in zero else coordinate
                    for j in range(cell.dim + 1)]).filter(any),
        min_size=1, max_size=count))
    return x, cell.name, list(dict.fromkeys(
        tuple(F(c, sum(p)) for c in p) for p in points))


@settings(max_examples=150, deadline=None)
@given(barycentric_points(1))
def test_canonical_point_matches_the_one_point_walk(data):
    x, name, (t,) = data
    assert canonical_point(x, name, t) == \
        reference_canonical_point(x, name, t)


@settings(max_examples=150, deadline=None)
@given(barycentric_points(5))
def test_fiber_face_keys_match_the_sorted_walk(data):
    """map_fiber keys a glued face by its carrier and its sorted vertices,
    sorted once after the walls are dropped."""
    x, name, points = data
    carrier, verts = _drop_walls(x, name, frozenset(points))
    assert (carrier, tuple(sorted(verts))) == \
        reference_push_fiber_face(x, name, points)


# -- fibers of simplicial maps --


def test_square_fiber_over_midpoint_is_a_segment():
    fib = map_fiber(atiyah_projection(), "e", (F(1, 2), F(1, 2)))
    assert fib.f_vector == (3, 2)
    assert fib.euler == 1


def test_square_fiber_over_endpoint():
    fib = map_fiber(atiyah_projection(), "z0", (1,))
    assert fib.f_vector == (2, 1)
    assert fib.euler == 1


def test_triangle_fibers_degenerate_on_one_side():
    easy = induced_map(triangle_complex(), segment_complex(),
                       {"a": "z0", "b": "z0", "c": "z1"})
    assert map_fiber(easy, "z0", (1,)).f_vector == (2, 1)
    assert map_fiber(easy, "z1", (1,)).f_vector == (1,)
    assert map_fiber(easy, "e", (F(1, 3), F(2, 3))).euler == 1


def test_solid_tetrahedron_fiber_is_a_triangle():
    mapping = induced_map(tetrahedron_solid(), segment_complex(),
                          {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"})
    fib = map_fiber(mapping, "e", (F(1, 2), F(1, 2)))
    assert fib.f_vector == (3, 3, 1)
    assert fib.euler == 1
    reference_euler = euler_characteristic(tetrahedron_boundary())
    assert fib.euler == 1
    assert reference_euler == 2
    assert fib.euler != reference_euler


def test_collapse_fiber_recovers_the_loop():
    loop = from_incidence(nodal_cubic_incidence("analytic"))
    _, mapping = collapse_to_algebraic(loop)
    fib = map_fiber(mapping, "C", (1,))
    assert fib.f_vector == (1, 1)
    assert fib.euler == 0


def test_fiber_point_must_lie_in_target():
    proj = atiyah_projection()
    with pytest.raises(PointOutsideTarget):
        map_fiber(proj, "missing", (1,))
    with pytest.raises(PointOutsideTarget):
        map_fiber(proj, "e", (F(3, 2), F(-1, 2)))
    with pytest.raises(PointOutsideTarget):
        map_fiber(proj, "e", (F(1, 2), F(1, 4)))


@given(st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=7)
def test_segment_identity_fibers_are_points(idx):
    ident = identity_map(segment_complex())
    p = F(idx, 6)
    if p == 0:
        fib = map_fiber(ident, "z0", (1,))
    elif p == 1:
        fib = map_fiber(ident, "z1", (1,))
    else:
        fib = map_fiber(ident, "e", (1 - p, p))
    assert fib.f_vector == (1,)


# -- fibers of maps of fans --


def _atiyah_fans():
    src = fan_from_cones([make_cone([(1, 0), (1, 1)], n=2),
                          make_cone([(1, 1), (1, 2)], n=2)])
    tgt = fan_from_cones([make_cone([(1,)], n=1)])
    return src, tgt


def test_toric_fiber_over_the_base_ray():
    src, tgt = _atiyah_fans()
    fib = toric_fiber_complex([[1, 0]], src, tgt, tgt.maximal[0])
    assert fib.counts == {0: 3, 1: 2}
    assert fib.euler == 1


def test_toric_identity_fibers_are_points():
    src, _ = _atiyah_fans()
    over_max = toric_fiber_complex([[1, 0], [0, 1]], src, src, src.maximal[0])
    assert over_max.counts == {0: 1}
    shared = [f for f in cone_faces(src.maximal[0])
              if f.dim == 1 and f.rays == ((1, 1),)][0]
    over_ray = toric_fiber_complex([[1, 0], [0, 1]], src, src, shared)
    assert over_ray.counts == {0: 1}


def test_toric_fiber_requires_compatibility():
    src, tgt = _atiyah_fans()
    big = fan_from_cones([make_cone([(1, 0), (1, 2)], n=2)])
    with pytest.raises(NotCompatible):
        toric_fiber_complex([[1, 0], [0, 1]], big, src, src.maximal[0])
    with pytest.raises(ValidationError):
        toric_fiber_complex([[1, 0]], src, tgt, make_cone([(-1,)], n=1))
    with pytest.raises(DimensionMismatch):
        toric_fiber_complex([[1, 0, 0]], src, tgt, tgt.maximal[0])
