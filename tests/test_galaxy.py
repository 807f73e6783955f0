"""Tests for galaxy skeletons, towers, and galaxy classification."""

import dataclasses
import functools
import time
from fractions import Fraction as F
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (
    UnknownStratum,
    label,
    point_complex,
    segment_complex,
    square_complex,
    triangle_complex,
)
from skeleton_references import (
    circle_position,
    edge_interval,
    vertex_location,
)
from troplim import complexes, galaxy
from troplim.complexes import (
    CELL_CAP,
    count_cells,
    cycle_complex,
    make_complex,
    rational_points,
    scale_subdivide,
    subdivision_counts,
)
from troplim.errors import (
    CellCap,
    DepthCap,
    IncompleteTower,
    UndecidableSign,
    ValidationError,
)
from troplim.galaxy import (
    Circle,
    ClosedPoint,
    EllipticTower,
    OpenPoint,
    Skeleton,
    classify_point,
    decomposition,
    galaxy_point,
)
from troplim.towers import Symbol

SQRT2_MINUS_1 = Symbol("sqrt2-1", F(414213, 10 ** 6), F(414214, 10 ** 6))
GOLDEN_MINUS_1 = Symbol("golden-1", F(618033, 10 ** 6), F(618035, 10 ** 6))


@pytest.fixture(scope="module")
def tower():
    return EllipticTower(3, [2 ** i for i in range(5)])


# -- the circle, its levels and base change --


def labeled(circle, d=1):
    """Level d of a circle as the references read a labeled cycle: the
    built complex, its size and the labels read off its vertex names."""
    x = circle.level(d)
    m = len(x.by_dim(0))
    return SimpleNamespace(m=m, complex=x, label=functools.partial(label, m))


def test_degeneration_labels():
    p = Circle(4)
    assert p.m == 4
    assert count_cells(p.complex) == {0: 4, 1: 4}
    assert [labeled(p).label(f"v{j}") for j in range(4)] == \
        [0, F(1, 4), F(1, 2), F(3, 4)]
    with pytest.raises(ValidationError):
        Circle(0)
    # the hexagon of a degree-2 base change of I_3
    i6 = labeled(Circle(3), 2)
    assert i6.label("v2") == F(1, 3)
    assert edge_interval(i6, "e2") == (F(1, 3), F(1, 2))
    with pytest.raises(UnknownStratum):
        edge_interval(i6, "v0")


def test_degeneration_validates_itself():
    for m in (0, -3):
        with pytest.raises(ValidationError, match="needs m >= 1"):
            Circle(m)
    assert Circle(2).complex == cycle_complex(2)


def test_circle_levels_are_cycles_counted_in_closed_form():
    """Level d of the I_m circle is the (md)-cycle, and its counts, read
    off m·d, are those of that cycle and of the d-fold subdivision of the
    m-cycle."""
    for m in range(1, 8):
        circle = Circle(m)
        for d in range(1, 9):
            x = circle.level(d)
            assert x == cycle_complex(m * d)
            assert circle.counts(d) == count_cells(x) == \
                subdivision_counts(cycle_complex(m), d)


def test_circle_counts_past_the_cell_cap_build_nothing(monkeypatch):
    """At m = 10^9 only a count can finish: no cycle is built, and the
    level complex itself is refused by the cell cap."""
    def refuse(*args):
        raise AssertionError("the counts built a cycle")

    big = Circle(10 ** 9)
    with pytest.raises(CellCap):
        big.level(3)
    monkeypatch.setattr(galaxy, "cycle_complex", refuse)
    monkeypatch.setattr(complexes, "cycle_complex", refuse)
    assert big.counts(3) == {0: 3 * 10 ** 9, 1: 3 * 10 ** 9}
    assert sum(big.counts(3).values()) > CELL_CAP
    assert "complex" not in vars(big)


@pytest.mark.parametrize("x", [point_complex(), segment_complex(),
                               triangle_complex(), square_complex(),
                               cycle_complex(3)],
                         ids=["point", "segment", "triangle", "square",
                              "cycle"])
def test_a_complex_skeleton_levels_are_its_subdivisions(x):
    skeleton = Skeleton(x)
    assert skeleton.complex is x
    for d in range(1, 5):
        level = skeleton.level(d)
        assert level == scale_subdivide(x, d).complex
        assert skeleton.counts(d) == subdivision_counts(x, d) == \
            count_cells(level)


def test_base_change_three_to_six():
    i6 = labeled(Circle(3), 2)
    assert i6.m == 6
    assert count_cells(i6.complex) == Circle(3).counts(2) == {0: 6, 1: 6}
    assert [i6.label(f"v{j}") for j in range(6)] == \
        [F(j, 6) for j in range(6)]


def test_base_change_degree_one_is_identity():
    i3 = Circle(3)
    assert i3.level(1) == i3.complex
    assert i3.counts(1) == count_cells(i3.complex)
    # both reads refuse a level below 1 as a complex skeleton's do
    for read in (i3.level, i3.counts, Skeleton(i3.complex).level):
        with pytest.raises(ValueError, match="^subdivision level must be a "
                           "positive integer$"):
            read(0)


def test_base_change_of_a_self_loop():
    i5 = labeled(Circle(1), 5)
    assert i5.m == 5
    assert count_cells(i5.complex) == {0: 5, 1: 5}


def labeled_cycle(x, m, labels=None):
    """A cycle complex read as an I_m skeleton, with its vertex angles given
    (j/m for ``v{j}`` by default) rather than derived from m."""
    labels = labels or {f"v{j}": F(j, m) for j in range(m)}
    return SimpleNamespace(m=m, complex=x, label=labels.__getitem__)


def reference_base_change(p, d):
    """Degree-d base change through the d-fold subdivision of the cycle.

    Each subdivision vertex is pushed into the cycle and its angle computed
    in Fractions from the labels of ``p`` (anything with ``m``, ``complex``
    and ``label``).  The angles must lie on the (1/(md))-lattice, fill it,
    and each subdivided edge must join neighbours; then the result is the
    (md)-cycle, returned as its size and complex."""
    sub = scale_subdivide(p.complex, d)
    mm = p.m * d
    position = {}
    for v in sub.complex.by_dim(0):
        k = circle_position(p, *vertex_location(sub, v.name)) * mm
        if k.denominator != 1:
            raise ValidationError(
                f"subdivision vertex at angle {k / mm} is off the "
                f"(1/{mm})-lattice")
        position[v.name] = int(k)
    if sorted(position.values()) != list(range(mm)):
        raise ValidationError(
            f"subdivision vertices do not fill the (1/{mm})-lattice")
    cells = [(f"v{k}", []) for k in position.values()]
    for e in sub.complex.by_dim(1):
        start, end = position[e.faces[1]], position[e.faces[0]]
        if end != (start + 1) % mm:
            raise ValidationError("subdivided edge endpoints are not adjacent")
        cells.append((f"e{start}", [f"v{end}", f"v{start}"]))
    return mm, make_complex(cells)


@pytest.mark.parametrize("m", range(1, 9))
def test_base_change_matches_the_fraction_path(m):
    circle = Circle(m)
    for d in range(1, 13):
        got = labeled(circle, d)
        assert (got.m, got.complex) == reference_base_change(labeled(circle),
                                                             d)
        assert [got.label(f"v{k}") for k in range(m * d)] == \
            [F(k, m * d) for k in range(m * d)]


def test_base_change_refuses_a_skeleton_off_its_cycle():
    """Each check of the subdivision path fires on a skeleton whose labels,
    size or edge order disagree with its cycle; no Circle is such a
    skeleton, since its cycle and labels are derived from m."""
    # vertex v1 labeled 1/5: its subdivision vertices miss the 1/4-lattice
    skewed = labeled_cycle(cycle_complex(2), 2, {"v0": F(0), "v1": F(1, 5)})
    with pytest.raises(ValidationError, match="off the"):
        reference_base_change(skewed, 2)
    # a 2-cycle claiming m = 4 covers half of the 1/8-lattice
    with pytest.raises(ValidationError, match="do not fill"):
        reference_base_change(labeled_cycle(cycle_complex(2), 4), 2)
    # a 3-cycle walked v0 -> v2 -> v1: every angle is hit, out of order
    backwards = make_complex([("v0", []), ("v1", []), ("v2", []),
                              ("e0", ["v2", "v0"]), ("e1", ["v0", "v1"]),
                              ("e2", ["v1", "v2"])])
    with pytest.raises(ValidationError, match="not adjacent"):
        reference_base_change(labeled_cycle(backwards, 3), 2)


def test_base_change_is_closed_form():
    """A base change builds no complex: I_{3·2^40} is counted from its
    size."""
    start = time.perf_counter()
    # a small case first, so that counts that build the cycle fail here
    # instead of building 3·2^40 cells
    i3 = Circle(3)
    assert i3.counts(2) == {0: 6, 1: 6}
    assert "complex" not in vars(i3)
    assert i3.counts(2 ** 40) == Circle(3 * 2 ** 40).counts(1) == \
        {0: 3 * 2 ** 40, 1: 3 * 2 ** 40}
    assert "complex" not in vars(i3)
    assert time.perf_counter() - start < 0.1


def test_base_change_composes_on_the_nose():
    i3 = Circle(3)
    assert Circle(6).level(3) == i3.level(6) == cycle_complex(18)
    assert Circle(6).counts(3) == i3.counts(6)


def test_long_base_change_composes():
    # quadratic-time lookups made the left side alone take seconds
    assert Circle(3).level(1024) == Circle(3 * 32).level(32)


def test_unknown_vertex_label():
    with pytest.raises(UnknownStratum) as exc:
        label(6, "v6")
    assert exc.value.args[0] == "no vertex named 'v6'"


def test_label_reads_the_vertex_name():
    """One label of I_{3·2^40} is read off its name, with no table of
    3·2^40 names behind it."""
    start = time.perf_counter()
    assert label(3 * 2 ** 40, "v5") == F(5, 3 * 2 ** 40)
    assert time.perf_counter() - start < 0.1
    for name in ("v05", "v-1", "w1", "v", "v\u0663", "v3"):
        with pytest.raises(UnknownStratum):
            label(3, name)


@given(st.integers(min_value=1, max_value=120),
       st.one_of(st.text(max_size=5),
                 st.integers(-5, 130).map(lambda j: f"v{j}"),
                 st.from_regex(r"v0[0-9]{1,3}", fullmatch=True)))
@settings(deadline=None, max_examples=200)
def test_label_matches_the_table_of_names(m, name):
    table = {f"v{j}": F(j, m) for j in range(m)}
    if name in table:
        assert label(m, name) == table[name]
    else:
        with pytest.raises(UnknownStratum):
            label(m, name)


def test_cached_cycle_stays_out_of_eq_hash_and_repr():
    used = Circle(5)
    assert label(used.m, "v2") == F(2, 5)
    assert count_cells(used.complex) == {0: 5, 1: 5}
    fresh = dataclasses.replace(used)
    assert vars(used) != vars(fresh)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=15)
def test_base_change_component_count(m, a, b):
    x = Circle(m * a).level(b)
    assert x == Circle(m).level(a * b)
    assert len(x.by_dim(0)) == len(x.by_dim(1)) == m * a * b


def test_circle_position():
    i3 = labeled(Circle(3))
    assert circle_position(i3, "v1", (1,)) == F(1, 3)
    assert circle_position(i3, "e2", (F(1, 2), F(1, 2))) == F(5, 6)
    # the far end of the last edge wraps back to angle zero
    assert circle_position(i3, "e2", (0, 1)) == 0


# -- towers --


def test_elliptic_tower_validation():
    with pytest.raises(ValidationError, match="at least one level"):
        EllipticTower(3, [])
    with pytest.raises(ValidationError, match="must be positive"):
        EllipticTower(3, [1, 0])
    with pytest.raises(ValidationError, match="2 does not divide 3"):
        EllipticTower(3, [2, 3])
    with pytest.raises(DepthCap):
        EllipticTower(3, [1] * 65)
    with pytest.raises(ValidationError, match="needs m >= 1"):
        EllipticTower(0, [1])
    # the degrees are checked before m
    with pytest.raises(ValidationError, match="at least one level"):
        EllipticTower(0, [])
    with pytest.raises(DepthCap):
        EllipticTower(0, [1] * 65)


def test_tower_levels_are_subdivided_cycles(tower):
    assert len(tower.degrees) == 5
    assert tower.circle == Circle(3)
    assert tower.cycle_sizes == (3, 6, 12, 24, 48)
    assert [tower.circle.level(d) for d in tower.degrees] == \
        [cycle_complex(m) for m in (3, 6, 12, 24, 48)]


# -- galaxy points --


def test_galaxy_point_normalization():
    assert galaxy_point(F(7, 6)) == F(1, 6)
    assert galaxy_point("5/12") == F(5, 12)
    assert galaxy_point(2) == 0
    assert galaxy_point(F(-1, 4)) == F(3, 4)
    assert galaxy_point(SQRT2_MINUS_1) is SQRT2_MINUS_1


def test_galaxy_point_validation():
    with pytest.raises(ValidationError):
        galaxy_point(Symbol("sqrt2", F(1414213, 10 ** 6), F(1414214, 10 ** 6)))


# -- classification --


def test_rational_angles_open_at_the_divisibility_level(tower):
    expected = [(F(0), 0), (F(1, 6), 1), (F(5, 12), 2), (F(2, 3), 0)]
    for theta, level in expected:
        c = classify_point(tower, galaxy_point(theta))
        assert isinstance(c, OpenPoint)
        assert c.level == level
        assert c.label == theta
        assert labeled(tower.circle, tower.degrees[level]).label(c.vertex) \
            == theta


def test_rational_angle_beyond_the_tower(tower):
    with pytest.raises(IncompleteTower):
        classify_point(tower, galaxy_point(F(1, 5)))
    with pytest.raises(IncompleteTower):
        classify_point(tower, galaxy_point(F(7, 96)))


def test_irrational_angles_closed_with_shrinking_carriers(tower):
    for sym in (SQRT2_MINUS_1, GOLDEN_MINUS_1):
        c = classify_point(tower, galaxy_point(sym))
        assert isinstance(c, ClosedPoint)
        assert [ce.width for ce in c.carriers] == \
            [F(1, 3 * 2 ** i) for i in range(5)]
        for outer, inner in zip(c.carriers, c.carriers[1:]):
            assert outer.interval[0] <= inner.interval[0]
            assert inner.interval[1] <= outer.interval[1]


def test_known_carrier_edges(tower):
    c = classify_point(tower, galaxy_point(SQRT2_MINUS_1))
    assert c.carriers[0].cell == "e1"
    assert c.carriers[0].interval == (F(1, 3), F(2, 3))
    assert c.carriers[-1].interval == (F(19, 48), F(20, 48))


def test_coarse_enclosure_is_refused(tower):
    coarse = Symbol("coarse", F(33, 100), F(34, 100))
    with pytest.raises(UndecidableSign):
        classify_point(tower, galaxy_point(coarse))


@given(st.integers(min_value=0, max_value=47))
@settings(deadline=None, max_examples=30)
def test_open_level_is_minimal(tower, p):
    theta = F(p, 48)
    c = classify_point(tower, galaxy_point(theta))
    q = theta.denominator
    first = min(i for i in range(5) if (3 * 2 ** i) % q == 0)
    assert c.level == first


def _outcome(tower, point):
    """The classification, or the type and message of the refusal."""
    try:
        return classify_point(tower, point)
    except (IncompleteTower, UndecidableSign) as exc:
        return type(exc), str(exc)


@st.composite
def small_towers(draw):
    """A tower over I_m whose levels are cheap enough to build."""
    m = draw(st.integers(min_value=1, max_value=12))
    degrees = [draw(st.integers(min_value=1, max_value=3))]
    for factor in draw(st.lists(st.integers(min_value=1, max_value=3),
                                max_size=5)):
        if m * degrees[-1] * factor > 200:
            break
        degrees.append(degrees[-1] * factor)
    return EllipticTower(m, degrees)


@st.composite
def galaxy_points(draw):
    """Rational angles, or symbols with enclosures down to too coarse."""
    den = draw(st.integers(min_value=1, max_value=400))
    num = draw(st.integers(min_value=0, max_value=den - 1))
    if draw(st.booleans()):
        return galaxy_point(F(num, den))
    # a box holds an irrational only if it has an interior
    width = draw(st.integers(min_value=1, max_value=min(3, den - num)))
    return galaxy_point(Symbol("s", F(num, den), F(num + width, den)))


@given(small_towers(), st.lists(galaxy_points(), min_size=1, max_size=6))
@settings(deadline=None, max_examples=40)
def test_closed_form_matches_the_built_levels(tower, points):
    levels = [labeled(tower.circle, d) for d in tower.degrees]
    assert tower.cycle_sizes == tuple(lv.m for lv in levels)
    # vertex angles of the built levels; 1 is the angle 0 again
    angles = [{lv.label(f"v{j}") for j in range(lv.m)} | {F(1)}
              for lv in levels]
    for point in points:
        got = _outcome(tower, point)
        if not isinstance(point, Symbol):
            hits = [i for i, ang in enumerate(angles) if point in ang]
            if not hits:
                assert got[0] is IncompleteTower
                continue
            assert isinstance(got, OpenPoint) and got.level == hits[0]
            assert levels[got.level].label(got.vertex) == point
            continue
        sym = point
        if any(sym.lo <= a <= sym.hi for ang in angles for a in ang):
            assert got[0] is UndecidableSign
            continue
        assert isinstance(got, ClosedPoint) and \
            len(got.carriers) == len(levels)
        for lv, edge in zip(levels, got.carriers):
            assert edge_interval(lv, edge.cell) == edge.interval
            assert edge.interval[0] < sym.lo and sym.hi < edge.interval[1]


def _named_cells(outcome):
    """The (level, cell) pairs a classification names: an open point's
    vertex, or each carrier edge of a closed one."""
    if isinstance(outcome, OpenPoint):
        return [(outcome.level, outcome.vertex)]
    if isinstance(outcome, ClosedPoint):
        return [(e.level, e.cell) for e in outcome.carriers]
    return []


@given(small_towers(), st.integers(1, 400).flatmap(lambda den: st.builds(
    F, st.integers(-3 * den, 3 * den), st.just(den))), st.integers(-3, 3),
    galaxy_points())
@settings(deadline=None, max_examples=60)
def test_classify_point_reads_its_angle_mod_1(tower, theta, k, point):
    """An angle shifted by an integer classifies as its `galaxy_point`
    does, every vertex or edge named lies on its level's cycle, and a
    symbol boxed outside [0, 1] is refused."""
    shifted = _outcome(tower, theta + k)
    assert shifted == _outcome(tower, galaxy_point(theta))
    for outcome in (shifted, _outcome(tower, point)):
        for level, cell in _named_cells(outcome):
            assert 0 <= int(cell[1:]) < tower.cycle_sizes[level]
    if isinstance(point, Symbol) and k:
        with pytest.raises(ValidationError, match="must lie in"):
            classify_point(tower, Symbol(point.name, point.lo + k,
                                         point.hi + k))


def test_depth_cap_doubling_tower_in_closed_form():
    start = time.perf_counter()
    tower = EllipticTower(3, [2 ** i for i in range(64)])
    theta = F(5, 3 * 2 ** 62)
    c = classify_point(tower, galaxy_point(theta))
    assert isinstance(c, OpenPoint) and (c.level, c.vertex) == (62, "v5")
    lo = F(isqrt(2 * 10 ** 80) - 10 ** 40, 10 ** 40)
    sym = Symbol("sqrt2-1", lo, lo + F(1, 10 ** 40))
    c = classify_point(tower, galaxy_point(sym))
    assert isinstance(c, ClosedPoint)
    assert [ce.width for ce in c.carriers] == \
        [F(1, 3 * 2 ** i) for i in range(64)]
    for outer, inner in zip(c.carriers, c.carriers[1:]):
        assert outer.interval[0] <= inner.interval[0]
        assert inner.interval[1] <= outer.interval[1]
    assert "complex" not in vars(tower.circle)
    assert time.perf_counter() - start < 1


# -- decomposition --


def test_decomposition_counts():
    r = decomposition(Circle(3), 2)
    assert r.level == 2
    assert r.slot_count == 6
    assert r.non_klt_cells == 6
    assert decomposition(Skeleton(point_complex()), 7).slot_count == 1
    assert decomposition(Skeleton(point_complex()), 7).non_klt_cells == 0
    assert decomposition(Skeleton(triangle_complex()), 2).slot_count == 6


@given(st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=4)
def test_decomposition_slots_are_rational_points(level):
    x = triangle_complex()
    r = decomposition(Skeleton(x), level)
    assert r.slot_count == len(rational_points(x, level))


def test_decomposition_builds_no_subdivision(monkeypatch):
    """At level 10^9 only a count can finish: I_3 has 3·10^9 vertices and
    as many edges, and neither a subdivision nor a point is built."""
    def refuse(*args):
        raise AssertionError("decomposition built a subdivision")

    for module in (complexes, galaxy):
        monkeypatch.setattr(module, "scale_subdivide", refuse)
        monkeypatch.setattr(module, "cycle_complex", refuse)
    monkeypatch.setattr(complexes, "rational_points", refuse)
    r = decomposition(Circle(3), 10 ** 9)
    assert r.slot_count == r.non_klt_cells == 3 * 10 ** 9


def test_decomposition_builds_no_cycle():
    """A circle's cycle is counted, not built, so no cell cap limits
    its m; a small case first, so that a decomposition that builds its
    cycle fails here instead of building 2·10^9 cells."""
    small = Circle(3)
    decomposition(small, 2)
    assert "complex" not in vars(small)
    big = Circle(10 ** 9)
    r = decomposition(big, 5)
    assert r.slot_count == r.non_klt_cells == 5 * 10 ** 9
    assert "complex" not in vars(big)
