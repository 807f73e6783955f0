"""Tests for generalized complexes, subdivision, maps, and fibers."""

import dataclasses
import graphlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from builders import (
    MissingProvenance,
    affine_dim,
    collapse_to_algebraic,
    component_ratio,
    cycle_reference,
    face_lattice,
    identity_map,
    json_reference,
    nodal_cubic_incidence,
    point_complex,
    polygon_incidence,
    segment_complex,
    serialize_complex,
    square_complex,
    tetrahedron_boundary,
    tetrahedron_solid,
    torus,
    triangle_complex,
)
from skeleton_references import (
    alcoves,
    push_point,
    rational_point_set,
    vertex_location,
)
from troplim import complexes
from troplim import io as troplim_io
from troplim import lattice
from troplim.complexes import (
    Cell,
    DeltaComplex,
    _assemble,
    _drop_walls,
    _lowest_images,
    _sequence_index,
    _sub_name,
    canonical_point,
    cell_vertices,
    count_cells,
    cycle_complex,
    euler_characteristic,
    from_incidence,
    induced_map,
    make_complex,
    make_incidence,
    map_fiber,
    rational_points,
    scale_subdivide,
    subdivision_counts,
    toric_fiber_complex,
)
from troplim.errors import (
    CellCap,
    DimensionMismatch,
    IncoherentIncidence,
    NoAffineStructure,
    NotCompatible,
    NotSimplicial,
    PointOutsideTarget,
    ValidationError,
)
from troplim.fans import fan_from_cones
from troplim.galaxy import Circle
from troplim.lattice import (
    cone_faces,
    cone_from_generators,
    halfspaces_to_generators,
)


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


@pytest.mark.parametrize("bad", [None, 1, True])
def test_make_complex_refuses_a_name_that_is_not_a_string(bad):
    with pytest.raises(ValidationError) as err:
        make_complex([("a", []), (bad, [])])
    assert str(err.value) == f"cells[1].name: expected str, got {bad!r}"
    with pytest.raises(ValidationError) as err:
        make_complex([("a", []), ("b", []), ("e", ["b", bad])])
    assert str(err.value) == f"cells[2].faces[1]: expected str, got {bad!r}"


@pytest.mark.parametrize("bad", [("a",), ("a", [], []), 5])
def test_make_complex_refuses_a_cell_that_is_not_a_pair(bad):
    with pytest.raises(ValidationError) as err:
        make_complex([("b", []), bad])
    assert str(err.value) == f"cells[1]: expected 2 entries, got {bad!r}"


@pytest.mark.parametrize("bad", [5, None, "aa"])
def test_make_complex_refuses_a_face_list_that_is_not_a_list(bad):
    with pytest.raises(ValidationError) as err:
        make_complex([("a", []), ("e", bad)])
    assert str(err.value) == \
        f"cells[1].faces: expected a list or tuple, got {bad!r}"


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


@pytest.mark.parametrize("m", [1, 2, 3, 9, 10, 11, 99, 100, 101, 999, 1000,
                               1001, 1536])
def test_cycle_complex_matches_the_reference(m):
    """Names written once per index and ordered by their text give the
    cells, order and faces of names formatted per cell and sorted by
    make_complex, across every change in digit count."""
    x, reference = cycle_complex(m), cycle_reference(m)
    assert [(c.name, c.dim, c.faces) for c in x.cells] == \
        [(c.name, c.dim, c.faces) for c in reference.cells]
    assert x == reference
    assert troplim_io.canonical_json(x) == \
        json_reference(serialize_complex(reference))


def test_cells_are_values():
    """A cell is immutable, and the same cells make equal complexes with
    equal hashes through make_complex and through _assemble."""
    x = tetrahedron_solid()
    cell = x.cells[-1]
    with pytest.raises(AttributeError):
        cell.name = "other"
    with pytest.raises(AttributeError):
        cell.faces = ()
    assert cell == Cell(cell.name, cell.dim, cell.faces)
    rebuilt = make_complex([(c.name, c.faces) for c in reversed(x.cells)])
    assembled = _assemble(list(reversed(x.cells)))
    assert rebuilt == assembled == x
    assert hash(rebuilt) == hash(assembled) == hash(x)


# -- stratification incidence --


def test_incidence_validation():
    with pytest.raises(ValidationError):
        make_incidence("formal", [("C", 0, 1)], [])
    with pytest.raises(ValidationError):
        make_incidence("analytic", [("C", 0, 2)], [])
    with pytest.raises(ValidationError):
        make_incidence("analytic", [("C", 0, 1), ("D", 0, 1)],
                       [("C", "D")])


@pytest.mark.parametrize("bad", [None, ["C", 0], 1.5, True])
def test_make_incidence_refuses_a_name_that_is_not_a_string(bad):
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("C", 0, 1), (bad, 0, 1)], [])
    assert str(err.value) == f"strata[1].name: expected str, got {bad!r}"
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("C", 0, 1), ("p", 1, 2)], [("p", bad)])
    assert str(err.value) == f"closures[0][1]: expected str, got {bad!r}"


@pytest.mark.parametrize("bad", [None, ["C", 0], 1.5, "1", True])
def test_make_incidence_refuses_a_count_that_is_not_an_int(bad):
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("C", bad, 1)], [])
    assert str(err.value) == f"strata[0].codim: expected int, got {bad!r}"
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("p", 1, bad)], [])
    assert str(err.value) == f"strata[0].branches: expected int, got {bad!r}"


@pytest.mark.parametrize("bad", [("C",), ("C", 0), ("C", 0, 1, 2), 5])
def test_make_incidence_refuses_a_tuple_of_the_wrong_length(bad):
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("C", 0, 1), bad], [])
    assert str(err.value) == f"strata[1]: expected 3 entries, got {bad!r}"
    if bad == ("C", 0):
        return  # a pair is a closure
    with pytest.raises(ValidationError) as err:
        make_incidence("analytic", [("C", 0, 1)], [bad])
    assert str(err.value) == f"closures[0]: expected 2 entries, got {bad!r}"


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


def test_from_incidence_refuses_a_node_linked_to_a_non_component():
    """No file reaches this refusal: a node has codimension 1 and
    ``make_incidence`` makes every closure pair strictly lower the
    codimension, so a node's upper strata are components (``troplim
    dualcx`` refuses such a pair first, exit 2).  An incidence built
    directly reaches it."""
    inc = complexes.StrataIncidence(
        "analytic", (complexes.Stratum("C", 0, 1), complexes.Stratum("p", 1, 2),
                     complexes.Stratum("q", 1, 2)),
        (("p", "C"), ("p", "q")))
    with pytest.raises(IncoherentIncidence,
                       match="node 'p' closure-linked to non-component 'q'"):
        from_incidence(inc)


@pytest.mark.parametrize("mode", ["analytic", "algebraic"])
def test_an_incidence_without_strata_has_no_dual_complex(mode):
    with pytest.raises(ValidationError, match="at least one cell"):
        from_incidence(make_incidence(mode, [], []))


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


@pytest.mark.parametrize("level", [0, -1])
def test_rational_points_refuse_a_non_positive_level(level):
    """No input reaches this refusal: the CLI refuses a level below 1
    before it reads the skeleton."""
    with pytest.raises(ValueError, match="level must be a positive integer"):
        rational_points(segment_complex(), level)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=20)
def test_rational_points_nest(level, factor):
    x = triangle_complex()
    assert set(rational_points(x, level)) <= set(
        rational_points(x, level * factor))


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
            assert locs == set(rational_points(x, level))


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


def test_explicit_image_on_a_parallel_face_is_refused():
    """The edge pq is sent to B, parallel to the face A of T that the
    image of S puts it on."""
    source = make_complex([("p", []), ("q", []), ("r", []),
                           ("pq", ["q", "p"]), ("qr", ["r", "q"]),
                           ("pr", ["r", "p"]), ("S", ["qr", "pr", "pq"])])
    target = make_complex([("x", []), ("y", []), ("z", []),
                           ("A", ["y", "x"]), ("B", ["y", "x"]),
                           ("yz", ["z", "y"]), ("xz", ["z", "x"]),
                           ("T", ["yz", "xz", "A"])])
    with pytest.raises(NotSimplicial) as err:
        induced_map(source, target, {"p": "x", "q": "y", "r": "z"},
                    {"pq": ("B", (0, 1)), "S": ("T", (0, 1, 2))})
    assert str(err.value) == \
        "face 2 of 'S' maps to ('B', (0, 1)), expected ('A', (0, 1))"


def test_explicit_image_must_be_monotone():
    with pytest.raises(ValidationError) as err:
        induced_map(segment_complex(), segment_complex(),
                    {"z0": "z0", "z1": "z1"}, {"e": ("e", (1, 0))})
    assert str(err.value) == \
        "cell_images['e'] is not a monotone surjection onto 'e'"


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


def test_built_indexes_stay_out_of_eq_hash_and_repr():
    x = square_complex()
    sub = scale_subdivide(x, 2)
    m = identity_map(x)
    inc = nodal_cubic_incidence()
    x.cell("abd")
    sub.carrier(sub.complex.cells[-1].name)
    m.cell_image("abd")
    inc.stratum("C")
    cone = lattice.cone_from_generators([(1, 0), (1, 2)], n=2)
    cone.facets
    for used in (x, sub, m, inc, cone):
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
    "torus": torus,
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
    assert [(name, sub.carrier(name)) for name, _ in cells] == [
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
def subdivision_inputs(draw):
    """A level from 1 to 6 and a wall shape or the ordered simplicial
    complex spanned by up to four random simplices of dimension at most 3."""
    level = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return WALL_SHAPES[draw(st.sampled_from(sorted(WALL_SHAPES)))](), level
    nverts = draw(st.integers(1, 6))
    tops = draw(st.lists(st.sets(st.integers(0, nverts - 1), min_size=1,
                                 max_size=4).map(sorted).map(tuple),
                         min_size=1, max_size=4))
    return ordered_complex(draw(st.randoms(use_true_random=False)), nverts,
                           tops), level


@settings(max_examples=40, deadline=None)
@given(subdivision_inputs())
def test_scale_subdivide_matches_the_walk_on_random_complexes(data):
    assert_matches_the_reference(*data)


@settings(max_examples=60, deadline=None)
@given(subdivision_inputs())
def test_subdivision_counts_match_the_built_subdivision(data):
    """The counts read off the Freudenthal patterns are the cells the
    templates build, and the vertices are the rational points."""
    x, level = data
    counts = subdivision_counts(x, level)
    assert counts == count_cells(scale_subdivide(x, level).complex)
    assert counts[0] == len(rational_points(x, level))


@settings(max_examples=60, deadline=None)
@given(subdivision_inputs())
def test_rational_points_come_in_report_order(data):
    """On complexes whose name order is not their (dim, name) order, the
    points come out sorted by cell name and coordinates, the order the
    report prints them in, and they are the subdivision's vertices."""
    x, level = data
    assume([c.name for c in x.cells] != sorted(c.name for c in x.cells))
    points = rational_points(x, level)
    assert points == tuple(sorted(rational_point_set(x, level)))
    sub = scale_subdivide(x, level)
    assert set(points) == {vertex_location(sub, v.name)
                           for v in sub.complex.by_dim(0)}


def test_subdivision_counts_refuse_what_scale_subdivide_refuses():
    with pytest.raises(ValueError):
        subdivision_counts(triangle_complex(), 0)
    flat = make_complex([("a", [])], affine=False)
    with pytest.raises(NoAffineStructure):
        subdivision_counts(flat, 2)


@pytest.mark.parametrize("refine", [scale_subdivide, subdivision_counts],
                         ids=["subdivide", "counts"])
def test_a_complex_with_no_charts_is_refused_first(refine):
    """With no integral-affine charts and level 0 both refusals apply, and
    the missing charts are named."""
    flat = make_complex([("a", [])], affine=False)
    with pytest.raises(NoAffineStructure):
        refine(flat, 0)


@pytest.mark.parametrize("build", [
    lambda: scale_subdivide(tetrahedron_solid(), 3).complex.cells,
    lambda: scale_subdivide(torus(), 4).complex.cells,
    lambda: rational_points(tetrahedron_solid(), 5),
    lambda: cycle_complex(7).cells,
], ids=["subdivide-tetrahedron", "subdivide-torus", "points", "cycle"])
def test_the_cell_cap_counts_what_is_built(monkeypatch, build):
    """Each builder's closed-form count is exactly what it builds: at the
    cap it builds, one below it refuses, naming the count and the cap."""
    size = len(build())
    monkeypatch.setattr(complexes, "CELL_CAP", size)
    assert len(build()) == size
    monkeypatch.setattr(complexes, "CELL_CAP", size - 1)
    with pytest.raises(CellCap, match=f"^{size} .* exceed the cell cap of "
                                      f"{size - 1}$"):
        build()


def test_a_fresh_subdivision_holds_no_carrier_index():
    """Carriers are read from the templates on the first lookup, not kept
    by ``scale_subdivide``."""
    sub = scale_subdivide(square_complex(), 3)
    assert "_carrier_index" not in vars(sub)
    assert sub.carrier("a") == ("a", ((3,),))
    assert "_carrier_index" in vars(sub)


def test_torus_subdivides_into_n_squared_squares():
    """Level N cuts the torus of two triangles into N^2 unit squares, each
    two triangles, on the N^2 points of (Z/N)^2."""
    for level in range(1, 7):
        assert count_cells(scale_subdivide(torus(), level).complex) == \
            {0: level ** 2, 1: 3 * level ** 2, 2: 2 * level ** 2}


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



# -- trusted assembly: generated complexes skip make_complex --


def reference_drop_walls(x, name, points):
    """The wall loop before the one-scan walk: every column is rescanned
    after each drop."""
    cell = x.cell(name)
    points = tuple(points)
    while cell.dim > 0:
        j = next((j for j, col in enumerate(zip(*points)) if not any(col)),
                 None)
        if j is None:
            break
        name = cell.faces[j]
        cell = x.cell(name)
        points = tuple(p[:j] + p[j + 1:] for p in points)
    return name, points


@st.composite
def walled_points(draw):
    """A cell of one of the wall shapes and 1-4 integer points in its
    barycentric coordinates, vanishing on any set of columns: adjacent
    ones, the last one, or all of them (the walk then stops at a vertex)."""
    x = WALL_SHAPES[draw(st.sampled_from(sorted(WALL_SHAPES)))]()
    cell = draw(st.sampled_from(x.cells))
    zero = draw(st.sets(st.integers(0, cell.dim)))
    points = draw(st.lists(
        st.tuples(*[st.just(0) if j in zero else st.integers(0, 3)
                    for j in range(cell.dim + 1)]),
        min_size=1, max_size=4))
    return x, cell.name, points


@settings(max_examples=200, deadline=None)
@given(walled_points())
@example((tetrahedron_solid(), "v0123", [(1, 0, 0, 0), (2, 0, 0, 0)]))
@example((tetrahedron_solid(), "v0123", [(0, 1, 0, 2), (0, 3, 0, 1)]))
@example((segment_complex(), "e", [(0, 0)]))
@example((cycle_complex(1), "e0", [(0, 2)]))
@example((cycle_complex(1), "e0", [(2, 0), (1, 0)]))
def test_drop_walls_matches_the_rescanning_loop(data):
    x, name, points = data
    assert _drop_walls(x, name, points) == \
        reference_drop_walls(x, name, points)


# shape -> (complex from a seeded rng, highest level): the wall shapes, the
# seeded random pure 2-complexes of the walk test, a subdivided subdivision
# (the corpus's resub-b shape) and analytic duals, whose provenance the
# subdivision keeps
ASSEMBLY_SHAPES = {
    **{name: (lambda rng, build=build: build(), 4)
       for name, build in WALL_SHAPES.items()},
    **{name: CORPUS_SHAPES[name] for name in CORPUS_SHAPES
       if name.startswith("random2-") or name == "resub"},
    "polygon-dual": (lambda rng: from_incidence(polygon_incidence(3)), 4),
    "nodal-dual": (lambda rng: from_incidence(nodal_cubic_incidence()), 4),
}


@pytest.mark.parametrize("shape", sorted(ASSEMBLY_SHAPES))
def test_subdivisions_pass_make_complex(shape):
    """make_complex on the (name, faces) pairs of a subdivision, which is
    assembled without it, gives back that complex, provenance included."""
    build, top = ASSEMBLY_SHAPES[shape]
    x = build(random.Random(shape))
    for level in range(1, min(top, 4) + 1):
        y = scale_subdivide(x, level).complex
        again = make_complex([(c.name, c.faces) for c in y.cells], y.affine,
                             y.provenance)
        assert again == y
        assert again.provenance == y.provenance == x.provenance


def test_cycles_match_the_validated_cells():
    for m in [*range(1, 41), 1536]:
        cells = [(f"v{i}", []) for i in range(m)]
        cells += [(f"e{i}", [f"v{(i + 1) % m}", f"v{i}"]) for i in range(m)]
        assert cycle_complex(m) == make_complex(cells)


def test_generated_complexes_skip_make_complex(monkeypatch):
    square = square_complex()

    def refuse(*args, **kwargs):
        raise AssertionError("make_complex called on a generated complex")

    monkeypatch.setattr(complexes, "make_complex", refuse)
    for level in (1, 2, 3):
        assert euler_characteristic(scale_subdivide(square, level).complex) \
            == 1
    assert count_cells(cycle_complex(7)) == {0: 7, 1: 7}
    assert count_cells(Circle(3).level(4)) == {0: 12, 1: 12}


def test_parsed_complexes_are_still_validated(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return make_complex(*args, **kwargs)

    monkeypatch.setattr(troplim_io, "make_complex", counted)
    sub = scale_subdivide(triangle_complex(), 2).complex
    data = serialize_complex(sub)
    assert troplim_io.parse_complex_data(data, "x") == sub
    # the same cells with two faces of a triangle swapped break an identity
    top = next(c for c in data["cells"] if len(c["faces"]) == 3)
    top["faces"][:2] = top["faces"][1::-1]
    with pytest.raises(ValidationError, match="simplicial identity"):
        troplim_io.parse_complex_data(data, "x")
    assert len(calls) == 2


@pytest.mark.xfail(strict=True, raises=ValidationError, reason=(
    "subdivision cell names can repeat an input name (ROADMAP item 4)"))
def test_subdivision_names_stay_apart_from_input_names():
    # the segment's midpoint is named e|1, which the input already names
    x = make_complex([("z0", []), ("e|1", []), ("e", ["e|1", "z0"])])
    assert count_cells(scale_subdivide(x, 2).complex) == {0: 3, 1: 2}


def test_subdivision_refuses_a_clash_on_an_interior_vertex():
    # the level-3 triangle's centre is T|2.1, which the input already names
    x = make_complex([(c.name, c.faces) for c in triangle_complex().cells]
                     + [("T|2.1", [])])
    with pytest.raises(ValidationError) as err:
        scale_subdivide(x, 3)
    assert str(err.value) == "duplicate cell names ['T|2.1']"


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


def test_the_fiber_over_a_point_off_the_image_is_empty():
    segment_in_triangle = induced_map(segment_complex(), triangle_complex(),
                                      {"z0": "a", "z1": "b"})
    fib = map_fiber(segment_in_triangle, "c", (1,))
    assert fib.is_empty
    assert fib.f_vector == ()
    assert fib.euler == 0


def test_fiber_point_must_lie_in_target():
    proj = atiyah_projection()
    with pytest.raises(PointOutsideTarget) as exc:
        map_fiber(proj, "missing", (1,))
    assert str(exc.value) == "no cell named 'missing'"
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


def reference_map_fiber(mapping, cell_name, coords):
    """The fiber as a general polytope: for each source cell and each
    occurrence of the point's cell in its image, the vertices of one
    conversion of the homogenized fiber and their face lattice.  A face
    glued into several source cells is one vertex set on its carrier.
    Returned in the form of ``FiberComplex.cells``: per affine dimension,
    ascending, the carriers of the faces by name, a carrier of two faces
    named twice."""
    tau, p = canonical_point(mapping.target, cell_name, coords)
    faces = {}
    for cell in mapping.source.cells:
        image, phi = mapping.cell_image(cell.name)
        k = mapping.target.cell(image).dim
        m = cell.dim
        for kept in reference_occurrences(mapping.target, image, tau):
            index_of = {r: i for i, r in enumerate(kept)}
            equations = [tuple(1 if phi[j] == r else 0 for j in range(m + 1))
                         + (-p[index_of[r]] if r in index_of else 0,)
                         for r in range(k + 1)]
            equations.append((1,) * (m + 1) + (-1,))
            rows = [(tuple(1 if i == j else 0 for i in range(m + 1)), 0)
                    for j in range(m + 1)]
            _, rays, _ = halfspaces_to_generators(
                equations, [r + (0,) for r, _ in rows]
                + [(0,) * (m + 1) + (1,)], m + 2)
            vertices = [tuple(F(c, r[-1]) for c in r[:-1])
                        for r in rays if r[-1] > 0]
            for fs in face_lattice(vertices, rows) if vertices else ():
                name, verts = _drop_walls(mapping.source, cell.name, [
                    v for i, v in enumerate(vertices) if fs >> i & 1])
                faces[name, tuple(sorted(verts))] = affine_dim(verts)
    levels = {}
    for (name, _), d in sorted(faces.items()):
        levels.setdefault(d, []).append(name)
    return tuple((d, tuple(names)) for d, names in sorted(levels.items()))


def random_pure_2_complex(seed):
    """Six triangles on seven vertices, as in the walk test's corpus."""
    rng = random.Random(seed)
    return ordered_complex(rng, 7, rng.sample(
        list(itertools.combinations(range(7), 3)), 6))


FIBER_TARGETS = {"segment": segment_complex, "triangle": triangle_complex,
                 "loop": lambda: cycle_complex(1)}


def vertex_order(x):
    """A linear order of the vertices that every cell's vertex order
    follows, or None when the edges close a cycle."""
    order = graphlib.TopologicalSorter()
    for edge in x.by_dim(1):
        first, second = cell_vertices(x, edge.name)
        order.add(second, first)
    try:
        return list(order.static_order())
    except graphlib.CycleError:
        return None


@st.composite
def fiber_cases(draw):
    """A vertex map from a wall shape or a random pure 2-complex onto a
    segment, triangle or loop, and a rational point of a target cell whose
    zero coordinates move it to a face.  Half the maps are monotone along
    a vertex order of the source, so that most of them are simplicial;
    1-dimensional sources may also wrap around the loop."""
    source = draw(st.one_of(
        st.sampled_from(sorted(WALL_SHAPES)).map(lambda n: WALL_SHAPES[n]()),
        st.integers(0, 9).map(random_pure_2_complex)))
    shape = draw(st.sampled_from(sorted(FIBER_TARGETS)))
    target = FIBER_TARGETS[shape]()
    names = [v.name for v in target.by_dim(0)]  # in the target's order
    order = vertex_order(source)
    if order is not None and draw(st.booleans()):
        picks = sorted(draw(st.lists(st.sampled_from(range(len(names))),
                                     min_size=len(order),
                                     max_size=len(order))))
        vertex_map = {v: names[i] for v, i in zip(order, picks)}
    else:
        vertex_map = {v.name: draw(st.sampled_from(names))
                      for v in source.by_dim(0)}
    images = None
    if shape == "loop" and source.dim == 1 and draw(st.booleans()):
        images = {c.name: ("e0", (0, 1)) for c in source.by_dim(1)}
    try:
        mapping = induced_map(source, target, vertex_map, images)
    except (NotSimplicial, ValidationError):
        assume(False)
    cell = draw(st.sampled_from(target.cells))
    weights = draw(st.lists(st.integers(0, 3), min_size=cell.dim + 1,
                            max_size=cell.dim + 1).filter(any))
    return mapping, cell.name, tuple(F(w, sum(weights)) for w in weights)


@settings(max_examples=300, deadline=None)
@given(fiber_cases())
@example((atiyah_projection(), "e", (F(0), F(1))))
def test_map_fiber_matches_the_polytope_route(case):
    """Each face of the polytope fiber is the closure of one source cell
    over the point's carrier, of that cell's dimension less the carrier's."""
    mapping, cell, coords = case
    assert map_fiber(mapping, cell, coords).cells == \
        reference_map_fiber(mapping, cell, coords)


@settings(max_examples=150, deadline=None)
@given(fiber_cases(), st.data())
def test_points_of_one_carrier_have_one_fiber(case, data):
    """A second point with the same zero coordinates, so the same carrier,
    has an equal fiber."""
    mapping, cell, coords = case
    weights = [data.draw(st.integers(1, 5)) if c else 0 for c in coords]
    other = tuple(F(w, sum(weights)) for w in weights)
    assert map_fiber(mapping, cell, other) == \
        map_fiber(mapping, cell, coords)


def test_map_fiber_runs_no_conversion(monkeypatch):
    triangle_map = induced_map(tetrahedron_solid(), triangle_complex(),
                               {"v0": "a", "v1": "b", "v2": "c", "v3": "c"})
    segment_map = induced_map(tetrahedron_solid(), segment_complex(),
                              {"v0": "z0", "v1": "z1", "v2": "z1", "v3": "z1"})

    def refuse(*args):
        raise AssertionError("map_fiber ran a conversion")

    monkeypatch.setattr(lattice, "_halfspaces_to_generators", refuse)
    assert map_fiber(atiyah_projection(), "e", (F(1, 2), F(1, 2))).f_vector \
        == (3, 2)
    assert map_fiber(segment_map, "e", (F(1, 2), F(1, 2))).f_vector == \
        (3, 3, 1)
    assert map_fiber(triangle_map, "T", (F(1, 3),) * 3).f_vector == (2, 1)
    assert map_fiber(triangle_map, "c", (1,)).f_vector == (2, 1)


# -- iterated faces against the loops each walk replaced --


def reference_reduce_image(x, cell_name, phi):
    """``_reduce_image`` as a missing-vertex loop: drop the lowest target
    index that phi misses, renumber phi past it, and repeat."""
    k = x.cell(cell_name).dim
    while True:
        missing = [r for r in range(k + 1) if r not in phi]
        if not missing:
            return cell_name, phi
        r = missing[0]
        cell_name = x.cell(cell_name).faces[r]
        k -= 1
        phi = tuple(v - 1 if v > r else v for v in phi)


def reference_cell_vertices(x, name):
    """``cell_vertices`` by the head/tail split: the last face's vertices,
    then the last vertex of the first face."""
    c = x.cell(name)
    if c.dim == 0:
        return (name,)
    head = reference_cell_vertices(x, c.faces[-1])
    tail = reference_cell_vertices(x, c.faces[0])
    return head + (tail[-1],)


def reference_occurrences(x, name, face_name):
    """Monotone embeddings of face_name as an iterated face of the cell,
    each face reached by a descending loop over the dropped indices."""
    cell = x.cell(name)
    fdim = x.cell(face_name).dim
    for kept in itertools.combinations(range(cell.dim + 1), fdim + 1):
        cur = name
        for j in sorted(set(range(cell.dim + 1)) - set(kept), reverse=True):
            cur = x.cell(cur).faces[j]
        if cur == face_name:
            yield kept


FACE_SHAPES = {**WALL_SHAPES,
               **{f"random-{seed}": lambda seed=seed: random_pure_2_complex(seed)
                  for seed in range(10)}}


@pytest.mark.parametrize("shape", sorted(FACE_SHAPES))
def test_reduce_image_matches_the_missing_vertex_loop(shape):
    """Every nondecreasing phi of length 1-4 into every cell, the ones that
    miss some of the cell's vertices included."""
    x = FACE_SHAPES[shape]()
    for cell in x.cells:
        for length in range(1, 5):
            for phi in itertools.combinations_with_replacement(
                    range(cell.dim + 1), length):
                assert complexes._reduce_image(x, cell.name, phi) == \
                    reference_reduce_image(x, cell.name, phi)


@pytest.mark.parametrize("shape", sorted(FACE_SHAPES))
def test_face_walks_match_the_recursive_and_descending_loops(shape):
    x = FACE_SHAPES[shape]()
    for cell in x.cells:
        assert cell_vertices(x, cell.name) == \
            reference_cell_vertices(x, cell.name)


# -- fibers of maps of fans --


def _atiyah_fans():
    src = fan_from_cones([cone_from_generators([(1, 0), (1, 1)], n=2),
                          cone_from_generators([(1, 1), (1, 2)], n=2)])
    tgt = fan_from_cones([cone_from_generators([(1,)], n=1)])
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
    big = fan_from_cones([cone_from_generators([(1, 0), (1, 2)], n=2)])
    with pytest.raises(NotCompatible):
        toric_fiber_complex([[1, 0], [0, 1]], big, src, src.maximal[0])
    with pytest.raises(ValidationError):
        toric_fiber_complex([[1, 0]], src, tgt,
                            cone_from_generators([(-1,)], n=1))
    with pytest.raises(DimensionMismatch):
        toric_fiber_complex([[1, 0, 0]], src, tgt, tgt.maximal[0])
