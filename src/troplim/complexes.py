"""Generalized simplicial complexes with integral-affine structure.

Cells are simplices with ordered vertex lists and named codimension-1 face
maps; self-identifications are allowed (an edge may start and end at the
same vertex), subject to the usual simplicial identities.  Each m-cell
carries the order-simplex chart

    O_m = {1 >= x_1 >= ... >= x_m >= 0},

whose face embeddings prepend 1, append 0, or duplicate a coordinate; all
transition maps lie in GL(Z) acting affinely, which is what makes exact
scale subdivision possible.

Provided here: dual complexes of curve-type stratifications (analytic mode
keeps branch data and can produce loops, algebraic mode cannot), exact
N-fold scale subdivision by lattice alcoves, rational point enumeration,
Euler characteristics, simplicial maps induced by vertex assignments, exact
fibers of such maps (over an interior point of a target cell, the source
cells whose image cell it is), and fiber complexes of compatible maps of
fans.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import add, attrgetter, itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import _linalg as la
from .errors import (
    CellCap,
    DimensionMismatch,
    IncoherentIncidence,
    NoAffineStructure,
    NotCompatible,
    NotSimplicial,
    PointOutsideTarget,
    ValidationError,
)
from .fans import Fan, _cone_key
from .lattice import (
    Cone,
    cone_faces,
    cone_holds,
)

QVec = tuple[Fraction, ...]

# the most cells (or rational points) one call builds; each builder counts
# in closed form first and refuses a larger result before building any
CELL_CAP = 10 ** 6


# -- complexes ---------------------------------------------------------------


class Cell(NamedTuple):
    """A simplex: dim+1 ordered codimension-1 faces, named."""

    name: str
    dim: int
    faces: tuple[str, ...]


@dataclass(frozen=True)
class DeltaComplex:
    """Cells in (dim, name) order, closed under faces, identities verified."""

    cells: tuple[Cell, ...]
    affine: bool = True
    provenance: Optional[str] = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.cells[-1].dim

    @cached_property
    def _by_name(self) -> dict[str, Cell]:
        # built on first lookup; cached_property keeps it out of eq/hash/repr
        return {c.name: c for c in self.cells}

    def cell(self, name: str) -> Cell:
        c = self._by_name.get(name)
        if c is None:
            raise KeyError(f"no cell named {name!r}")
        return c

    def by_dim(self, d: int) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.dim == d)


def _unpack(items: Sequence, size: int, where: str) -> list[tuple]:
    """Each item, a tuple or list of ``size`` entries, as a tuple; for any
    other item a ValidationError names ``where[i]``."""
    for i, item in enumerate(items):
        if not isinstance(item, (tuple, list)) or len(item) != size:
            raise ValidationError(
                f"{where}[{i}]: expected {size} entries, got {item!r}")
    return [tuple(item) for item in items]


def _refuse_types(fields) -> None:
    """Refuse the first (where, value, kind) not of its kind; no bool counts."""
    for where, v, kind in fields:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ValidationError(
                f"{where}: expected {kind.__name__}, got {v!r}")


def _refuse_repeats(names: Sequence[str], what: str = "cell") -> None:
    if len(set(names)) != len(names):
        repeats = sorted(n for n, k in Counter(names).items() if k > 1)
        raise ValidationError(f"duplicate {what} names {repeats}")


def _assemble(cells: Sequence[Cell], affine: bool = True,
              provenance: Optional[str] = None) -> DeltaComplex:
    """The complex of cells known to satisfy the simplicial identities;
    only that there are some, with unique names, is checked.  Every complex
    troplim builds comes through here, an input after ``make_complex``."""
    if not cells:
        raise ValidationError("a complex needs at least one cell")
    _refuse_repeats([c.name for c in cells])
    return DeltaComplex(
        tuple(sorted(cells, key=attrgetter("dim", "name"))),
        affine=affine, provenance=provenance)


def make_complex(cells: Sequence[tuple[str, Sequence[str]]],
                 affine: bool = True,
                 provenance: Optional[str] = None) -> DeltaComplex:
    """Build and validate a complex from (name, face names) pairs.

    Vertices are pairs with an empty face list; an m-cell must list m+1
    faces of dimension m-1, and iterated faces must satisfy the simplicial
    identity d_i d_j = d_{j-1} d_i for i < j.
    """
    built: dict[str, Cell] = {}
    pending = _unpack(cells, 2, "cells")
    for i, (_, fs) in enumerate(pending):
        if not isinstance(fs, (tuple, list)):
            raise ValidationError(
                f"cells[{i}].faces: expected a list or tuple, got {fs!r}")
    pending = [(n, tuple(fs)) for n, fs in pending]
    if not all(isinstance(v, str) for n, fs in pending for v in (n, *fs)):
        # field names are formatted only once some field fails
        _refuse_types([(f"cells[{i}].name", n, str)
                       for i, (n, _) in enumerate(pending)] +
                      [(f"cells[{i}].faces[{j}]", f, str)
                       for i, (_, fs) in enumerate(pending)
                       for j, f in enumerate(fs)])
    _refuse_repeats([n for n, _ in pending])
    for name, faces in sorted(pending, key=lambda p: len(p[1])):
        dim = len(faces) - 1 if faces else 0
        for f in faces:
            if f not in built:
                raise ValidationError(
                    f"cell {name!r} refers to unknown or deeper face {f!r}")
            if built[f].dim != dim - 1:
                raise ValidationError(
                    f"cell {name!r} of dimension {dim} has face {f!r} of "
                    f"dimension {built[f].dim}")
        built[name] = Cell(name, dim, faces)
    for c in built.values():
        if c.dim < 2:
            continue
        for i, j in itertools.combinations(range(c.dim + 1), 2):
            left = built[c.faces[j]].faces[i]
            right = built[c.faces[i]].faces[j - 1]
            if left != right:
                raise ValidationError(
                    f"simplicial identity fails on {c.name!r} at ({i},{j}): "
                    f"{left!r} != {right!r}")
    return _assemble(list(built.values()), affine, provenance)


def _face_without(x: DeltaComplex, name: str, drop: Sequence[int]) -> str:
    """The iterated face of a cell on the vertices left when those at the
    ascending indices ``drop`` go.  They are dropped highest first, so
    each drop leaves the indices below it in place; by the simplicial
    identities the order of the drops does not change the face."""
    for j in reversed(drop):
        name = x.cell(name).faces[j]
    return name


def cell_vertices(x: DeltaComplex, name: str) -> tuple[str, ...]:
    """Ordered vertex names of a cell (repeats allowed): vertex k is the
    face left when every other vertex goes."""
    d = x.cell(name).dim
    return tuple(_face_without(x, name, [j for j in range(d + 1) if j != k])
                 for k in range(d + 1))


def count_cells(x: DeltaComplex) -> dict[int, int]:
    """Number of cells in each dimension, ascending as the cells are."""
    return dict(Counter(c.dim for c in x.cells))


def _signed_sum(counts: dict[int, int]) -> int:
    """Euler characteristic of a {dim: count} map."""
    return sum((-1) ** d * k for d, k in counts.items())


def euler_characteristic(x: DeltaComplex) -> int:
    return _signed_sum(count_cells(x))


def _refuse_beyond_cap(count: int, what: str) -> None:
    if count > CELL_CAP:
        raise CellCap(f"{count} {what} exceed the cell cap of {CELL_CAP}")


# -- ready-made complexes ----------------------------------------------------


def cycle_complex(m: int) -> DeltaComplex:
    """Cycle with m vertices and m edges; m = 1 is a loop on one vertex."""
    if m < 1:
        raise ValidationError("a cycle needs at least one edge")
    _refuse_beyond_cap(2 * m, f"cells of the {m}-cycle")
    # each index written once; ordered by that text, the cells come out
    # in (dim, name) order already
    text = [str(i) for i in range(m)]
    order = sorted(range(m), key=text.__getitem__)
    vs = ["v" + t for t in text]
    succ = vs[1:] + vs[:1]
    cells = [Cell(vs[i], 0, ()) for i in order]
    cells += [Cell("e" + text[i], 1, (succ[i], vs[i])) for i in order]
    return _assemble(cells)


# -- stratification incidence ------------------------------------------------


INCIDENCE_MODES = ("analytic", "algebraic")


@dataclass(frozen=True)
class Stratum:
    name: str
    codim: int
    branches: int


@dataclass(frozen=True)
class StrataIncidence:
    """Closure incidence of a stratified space, with branch counts."""

    mode: str
    strata: tuple[Stratum, ...]
    closures: tuple[tuple[str, str], ...]

    @cached_property
    def _by_name(self) -> dict[str, Stratum]:
        return {s.name: s for s in self.strata}

    def stratum(self, name: str) -> Stratum:
        s = self._by_name.get(name)
        if s is None:
            raise KeyError(f"no stratum named {name!r}")
        return s


def make_incidence(mode: str, strata, closures) -> StrataIncidence:
    """Validate field types, mode, codimension order and branch arithmetic."""
    if mode not in INCIDENCE_MODES:
        raise ValidationError(f"unknown incidence mode {mode!r}")
    ss = tuple(Stratum(*s) for s in _unpack(strata, 3, "strata"))
    pairs = tuple(_unpack(closures, 2, "closures"))
    _refuse_types([(f"strata[{i}].{f}", getattr(s, f), kind)
                   for i, s in enumerate(ss) for f, kind in
                   (("name", str), ("codim", int), ("branches", int))] +
                  [(f"closures[{i}][{j}]", v, str)
                   for i, pair in enumerate(pairs)
                   for j, v in enumerate(pair)])
    _refuse_repeats([s.name for s in ss], "stratum")
    for s in ss:
        if s.codim < 0 or s.branches < 1:
            raise ValidationError(
                f"stratum {s.name!r} needs codim >= 0 and branches >= 1")
        # a stratum where k+1 local branches meet has codimension k
        if s.branches != s.codim + 1:
            raise ValidationError(
                f"stratum {s.name!r} has {s.branches} branches but "
                f"codimension {s.codim}; expected codim + 1 branches")
    inc = StrataIncidence(mode, ss, pairs)
    for lower, upper in inc.closures:
        if not {lower, upper} <= inc._by_name.keys():
            raise ValidationError(
                f"closure pair ({lower!r}, {upper!r}) names an unknown stratum")
        lo, up = inc.stratum(lower), inc.stratum(upper)
        if lo.codim <= up.codim:
            raise ValidationError(
                f"closure pair ({lower!r}, {upper!r}) must strictly increase "
                f"codimension: {lo.codim} vs {up.codim}")
    return inc


def from_incidence(inc: StrataIncidence) -> DeltaComplex:
    """Dual complex of a curve-type stratification.

    Components become vertices.  In analytic mode a double point on one
    component closes up into a loop; in algebraic mode branches along a
    single component are invisible and contribute nothing.
    """
    deep = [s for s in inc.strata if s.codim > 1]
    if deep:
        raise IncoherentIncidence(
            f"strata of codimension > 1 are not supported here: "
            f"{sorted(s.name for s in deep)}")
    components = [s for s in inc.strata if s.codim == 0]
    nodes = [s for s in inc.strata if s.codim == 1]
    cells = [Cell(s.name, 0, ()) for s in components]
    uppers: dict[str, set[str]] = {}
    for lower, upper in inc.closures:
        uppers.setdefault(lower, set()).add(upper)
    for node in nodes:
        linked = sorted(uppers.get(node.name, ()))
        for u in linked:
            if inc.stratum(u).codim != 0:
                raise IncoherentIncidence(
                    f"node {node.name!r} closure-linked to non-component "
                    f"{u!r}")
        if len(linked) == 2:
            cells.append(Cell(node.name, 1, (linked[1], linked[0])))
        elif len(linked) == 1:
            if inc.mode == "analytic":
                cells.append(Cell(node.name, 1, (linked[0], linked[0])))
            # algebraic mode cannot separate the branches: nothing to add
        else:
            raise IncoherentIncidence(
                f"node {node.name!r} touches {len(linked)} components; "
                f"expected 1 or 2")
    return _assemble(cells, provenance=inc.mode)


# -- maps of complexes -------------------------------------------------------


@dataclass(frozen=True)
class ComplexMap:
    """A simplicial map: each cell lands on a target cell monotonically,
    so a vertex's image is the target vertex its 0-cell lands on."""

    source: DeltaComplex
    target: DeltaComplex
    cell_images: tuple[tuple[str, tuple[str, tuple[int, ...]]], ...]

    @cached_property
    def _cell_index(self) -> dict[str, tuple[str, tuple[int, ...]]]:
        return dict(self.cell_images)

    def cell_image(self, name: str) -> tuple[str, tuple[int, ...]]:
        return self._cell_index[name]


def _reduce_image(x: DeltaComplex, cell_name: str, phi: tuple[int, ...]
                  ) -> tuple[str, tuple[int, ...]]:
    """Collapse unused target vertices: canonical (cell, surjection) pair,
    the face on the vertices phi reaches, with phi renumbered onto it."""
    kept = sorted(set(phi))
    missing = [r for r in range(x.cell(cell_name).dim + 1) if r not in kept]
    return _face_without(x, cell_name, missing), tuple(map(kept.index, phi))


def _sequence_index(x: DeltaComplex) -> dict[tuple[str, ...], list[str]]:
    """Vertex sequence -> names of the cells with it, in cell order."""
    index: dict[tuple[str, ...], list[str]] = {}
    for c in x.cells:
        index.setdefault(cell_vertices(x, c.name), []).append(c.name)
    return index


def _lowest_images(index: dict[tuple[str, ...], list[str]],
                   u: tuple[str, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """All (cell, monotone surjection) pairs of least dimension carrying u.

    A surjection carrying u is constant only where u is, so the fewest
    target vertices are reached by collapsing each run of equal entries of
    u; any cell carrying u has the collapsed sequence as a face.  The pairs
    are therefore the cells with that sequence, in cell order.
    """
    runs = [u[0]]
    phi = []
    for v in u:
        if v != runs[-1]:
            runs.append(v)
        phi.append(len(runs) - 1)
    return [(name, tuple(phi)) for name in index.get(tuple(runs), ())]


def induced_map(source: DeltaComplex, target: DeltaComplex,
                vertex_map: Mapping[str, str],
                cell_images: Optional[Mapping] = None) -> ComplexMap:
    """Simplicial map determined by a vertex assignment.

    Each cell's image is the lowest-dimensional target cell whose vertex
    sequence matches the mapped vertices monotonically.  When parallel
    target cells share a vertex sequence the choice is ambiguous and must
    be supplied through cell_images.
    """
    vm = dict(vertex_map)
    target_vertices = {c.name for c in target.by_dim(0)}
    for v in source.by_dim(0):
        if v.name not in vm:
            raise NotSimplicial(f"vertex {v.name!r} has no image")
        img = vm[v.name]
        if img not in target_vertices:
            raise NotSimplicial(f"{v.name!r} maps to non-vertex {img!r}")
    given = {k: (c, la.integer_vector(phi, ValidationError))
             for k, (c, phi) in (cell_images or {}).items()}
    unknown = [k for k in given if k not in source._by_name]
    if unknown:
        raise ValidationError(
            f"cell_images[{unknown[0]!r}] names no source cell")
    by_sequence = _sequence_index(target)
    images: dict[str, tuple[str, tuple[int, ...]]] = {}
    for cell in source.cells:
        u = tuple(vm[v] for v in cell_vertices(source, cell.name))
        if cell.name in given:
            name, phi = given[cell.name]
            try:
                tcell = target.cell(name)
            except KeyError as exc:
                raise ValidationError(
                    f"cell_images[{cell.name!r}]: {exc.args[0]}") from exc
            if len(phi) != cell.dim + 1 or sorted(set(phi)) != list(
                    range(tcell.dim + 1)) or list(phi) != sorted(phi):
                raise ValidationError(
                    f"cell_images[{cell.name!r}] is not a monotone "
                    f"surjection onto {name!r}")
            if tuple(cell_vertices(target, name)[p] for p in phi) != u:
                raise NotSimplicial(
                    f"cell_images[{cell.name!r}] conflicts with the vertex "
                    f"assignment")
            images[cell.name] = (name, phi)
            continue
        matches = _lowest_images(by_sequence, u)
        if not matches:
            raise NotSimplicial(
                f"vertices of {cell.name!r} map to {u}, which matches no "
                f"target cell")
        if len(matches) > 1:
            raise ValidationError(
                f"image of {cell.name!r} is ambiguous ({matches}); pass "
                f"cell_images")
        images[cell.name] = matches[0]
    # face coherence: the image of a face is the reduced image of the cell
    for cell in source.cells:
        if cell.dim == 0:
            continue
        name, phi = images[cell.name]
        for i in range(cell.dim + 1):
            expected = _reduce_image(target, name, phi[:i] + phi[i + 1:])
            if images[cell.faces[i]] != expected:
                raise NotSimplicial(
                    f"face {i} of {cell.name!r} maps to "
                    f"{images[cell.faces[i]]}, expected {expected}")
    return ComplexMap(source, target, tuple(sorted(images.items())))


# -- points and scale subdivision --------------------------------------------


def _split_walls(points: Sequence[Sequence]) -> tuple[tuple[int, ...], tuple]:
    """The walls of points given in a cell's barycentric coordinates, and
    the points without those coordinates, in their order.

    While some coordinate vanishes on every point, the points move to the
    face of the first such coordinate j, which drops coordinate j from each.
    Dropping a coordinate leaves the others as they were, so the walls are
    the columns that vanish on the input, and one scan finds them all.
    """
    points = tuple(points)
    walls = [j for j, col in enumerate(zip(*points)) if not any(col)]
    del walls[len(points[0]) - 1:]  # a vertex has no face to move to
    if not walls:
        return (), points
    keep = [True] * len(points[0])
    for j in walls:
        keep[j] = False
    return tuple(walls), tuple(
        tuple(itertools.compress(p, keep)) for p in points)


def _drop_walls(x: DeltaComplex, name: str, points: Sequence[Sequence]
                ) -> tuple[str, tuple]:
    """Carrier of points given in a cell's barycentric coordinates: the
    face left without their walls, with the points reduced onto it."""
    walls, points = _split_walls(points)
    return _face_without(x, name, walls), points


def canonical_point(x: DeltaComplex, name: str, coords: Sequence
                    ) -> tuple[str, QVec]:
    """Unique (cell, interior barycentric coordinates) form of a point."""
    cell = x.cell(name)
    t = tuple(Fraction(c) for c in coords)
    if len(t) != cell.dim + 1:
        raise DimensionMismatch(
            f"{len(t)} coordinates for a {cell.dim}-cell")
    if any(c < 0 for c in t) or sum(t) != 1:
        raise ValidationError(f"{t} is not a barycentric point")
    name, (t,) = _drop_walls(x, name, (t,))
    return name, t


def rational_points(x: DeltaComplex, level: int) -> tuple:
    """All points with barycentric denominators dividing the level, as
    (cell name, interior coordinates: positive multiples of 1/level summing
    to 1).  Cells go by name, and a cell's points in the order of their
    cuts from ``combinations``: the lexicographic order of the coordinates,
    which are the differences of consecutive cuts."""
    if level < 1:
        raise ValidationError("level must be a positive integer")
    # an m-cell holds C(level - 1, m) of them in its interior
    _refuse_beyond_cap(sum(math.comb(level - 1, c.dim) for c in x.cells),
                       f"rational points at level {level}")
    parts = [Fraction(k, level) for k in range(level + 1)]
    return tuple(
        (cell.name, tuple(parts[b - a] for a, b in
                          itertools.pairwise((0, *comp, level))))
        for cell in sorted(x.cells, key=attrgetter("name"))
        for comp in itertools.combinations(range(1, level), cell.dim))


@cache
def _interior_offsets(tight: tuple[bool, ...]) -> tuple[tuple, ...]:
    """Faces from one base point that stay interior to their m-cell.

    A face of the Freudenthal subdivision of ``level * O_m`` is a base point
    y and disjoint nonempty step sets S_1, ..., S_k; its vertices are
    y + 1_{S_1 ∪ ... ∪ S_a} for a = 0..k, so the base is its least vertex.
    ``tight[j-1]`` says that barycentric coordinate j vanishes at y
    (y_j = y_{j+1}, or y_m = 0 for j = m).  Such a coordinate stays
    nonnegative and vanishes on no vertex exactly when j steps strictly
    before j + 1 (which may not step at all), or when m steps, for j = m.
    Coordinate 0 vanishes on none when y_1 < level, the caller's bound.

    Each face is returned as its vertex offsets from y in barycentric
    coordinates; step i moves one unit from coordinate i - 1 to i.
    """
    m = len(tight)
    out = []
    # tau[i - 1] is the step set holding i, or 0 when i does not step
    for tau in itertools.product(range(m + 1), repeat=m):
        k = max(tau, default=0)
        if len(set(tau) - {0}) != k:
            continue  # the step sets are not numbered 1..k
        # a tight coordinate j steps, and strictly before j + 1
        if any(t and (not s or 0 < after <= s)
               for t, s, after in zip(tight, tau, tau[1:] + (0,))):
            continue
        offsets = []
        for a in range(k + 1):
            stepped = [0] + [int(0 < s <= a) for s in tau] + [0]
            offsets.append(tuple(stepped[j] - stepped[j + 1]
                                 for j in range(m + 1)))
        out.append(tuple(offsets))
    return tuple(out)


def subdivision_counts(x: DeltaComplex, level: int) -> dict[int, int]:
    """``count_cells(scale_subdivide(x, level).complex)``, no cell built.

    An m-cell's faces are those of ``_interior_offsets(tight)`` from each
    base point whose vanishing coordinates are ``tight``.  Those base
    points split the level into m + 1 - |tight| positive parts, coordinate
    0 and the others, so there are C(level - 1, m - |tight|) of them.
    """
    if not x.affine:
        raise NoAffineStructure(
            "the complex carries no integral-affine charts")
    if level < 1:
        raise ValidationError("subdivision level must be a positive integer")
    counts: Counter = Counter()
    for m, cells in count_cells(x).items():
        for tight in itertools.product((False, True), repeat=m):
            bases = cells * math.comb(level - 1, m - sum(tight))
            for offsets in _interior_offsets(tight):
                counts[len(offsets) - 1] += bases
    return {d: k for d, k in sorted(counts.items()) if k}


def _sub_name(carrier: str, points, strings=None) -> str:
    """Name of a subdivision cell from its level-scaled barycentric vertices
    in the carrier; each vertex is written in the order-simplex coordinates
    y_i = b_i + ... + b_m of ``level * O_m``, once per ``strings`` table."""
    if len(points[0]) == 1:
        return carrier
    strings = {} if strings is None else strings
    return carrier + "|" + "_".join([strings.get(p) or strings.setdefault(
        p, ".".join(map(str, reversed(list(itertools.accumulate(p[:0:-1]))))))
        for p in points])


@dataclass(frozen=True)
class SubdivisionResult:
    """An N-fold scale subdivision with its cells located in the original.

    Each cell's carrier is the original cell whose interior holds it, with
    the cell's vertices in that carrier's barycentric coordinates scaled by
    the level (nonnegative integers summing to the level).
    """

    complex: DeltaComplex
    original: DeltaComplex
    level: int

    @cached_property
    def _carrier_index(self) -> dict[str, tuple[str, tuple]]:
        # read on first use from the templates the cells were made from
        templates = _templates(self.original.dim, self.level)
        return {c.name + s: (c.name, v) for c in self.original.cells
                for v, s in zip(*templates[c.dim][:2])}

    def carrier(self, name: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
        return self._carrier_index[name]


def _templates(top: int, level: int) -> list[tuple]:
    """For m = 0..top, the Freudenthal faces of ``level * O_m`` interior to
    O_m, as (vertices, name suffixes, dimensions, wall sets, face getters).

    The faces are enumerated from each base point y with y_1 < level
    through the step sequences that leave it interior (``_interior_offsets``);
    a face's vertices are in level-scaled barycentric coordinates, and its
    suffix is ``_sub_name`` without the carrier.  The names of an m-cell's
    faces are read from a pool: the names of its own template faces, then
    those of its face on each wall set in turn, the whole template of
    dimension m - len(walls) each.  A face getter takes that pool to the
    names of the face's own codimension-1 faces, face i omitting vertex i.
    """
    strings: dict[tuple, str] = {}
    out: list[tuple] = []
    indexes: list[dict[tuple, int]] = []
    for m in range(top + 1):
        verts = []
        # base points level > y_1 >= ... >= y_m >= 0
        for low in itertools.combinations_with_replacement(range(level), m):
            y = low[::-1]
            base = tuple(a - b for a, b in zip((level,) + y, y + (0,)))
            for offsets in _interior_offsets(tuple(not c for c in base[1:])):
                verts.append(tuple(tuple(map(add, base, o)) for o in offsets))
        index = {v: i for i, v in enumerate(verts)}
        indexes.append(index)
        start: dict[tuple[int, ...], int] = {(): 0}
        size = len(verts)
        getters = []
        for v in verts:
            row = []
            for i in range(len(v)) if len(v) > 1 else ():
                face = v[:i] + v[i + 1:]
                # a face with no walls stays interior to the same cell
                at = index.get(face)
                if at is None:
                    walls, face = _split_walls(face)
                    if walls not in start:
                        start[walls] = size
                        size += len(indexes[m - len(walls)])
                    at = start[walls] + indexes[m - len(walls)][face]
                row.append(at)
            getters.append(itemgetter(*row) if row else lambda pool: ())
        out.append((verts, [_sub_name("", v, strings) for v in verts],
                     [len(v) - 1 for v in verts], list(start)[1:], getters))
    return out


def scale_subdivide(x: DeltaComplex, level: int) -> SubdivisionResult:
    """Exact N-fold subdivision along the integral-affine structure.

    Every cell of the subdivision is a face of the Freudenthal subdivision
    of ``level * O_m`` interior to exactly one cell of ``x``.  Those faces,
    their names after the carrier's and where their own faces fall, depend
    only on m and the level, so they are worked out once per dimension for
    this call (``_templates``).  Each cell then takes its dimension's
    template: a face's name is the carrier's name followed by the suffix,
    and a face of a face that falls on walls of the cell is read from the
    cell's face without those walls, found once per wall set.  Freudenthal
    faces satisfy the simplicial identities, so they are not re-checked.
    """
    _refuse_beyond_cap(sum(subdivision_counts(x, level).values()),
                       f"cells of the level-{level} subdivision")
    templates = _templates(x.dim, level)
    cells = []
    # the names of each cell's template faces, filled in before any
    # coface of the cell reads them: the cells run up by dimension
    instances: dict[str, list[str]] = {}
    for cell in x.cells:
        _, suffixes, dims, walls, getters = templates[cell.dim]
        own = [cell.name + s for s in suffixes]
        pool = list(own)
        for w in walls:
            pool += instances[_face_without(x, cell.name, w)]
        instances[cell.name] = own
        cells += map(Cell, own, dims, [get(pool) for get in getters])
    return SubdivisionResult(
        complex=_assemble(cells, affine=True, provenance=x.provenance),
        original=x,
        level=level,
    )


# -- fibers of simplicial maps and of maps of fans ---------------------------


@dataclass(frozen=True)
class FiberComplex:
    """The open cells of a fiber over an interior point of a base cell.

    Per relative dimension, ascending: the source cells over the base
    (names of a complex's cells, or cones of a fan), each an open cell of
    the fiber whose dimension is its own less the base's.
    """

    cells: tuple[tuple[int, tuple], ...]

    @property
    def counts(self) -> dict[int, int]:
        """Number of cells in each dimension, ascending as ``cells`` are."""
        return {d: len(cs) for d, cs in self.cells}

    @property
    def euler(self) -> int:
        return _signed_sum(self.counts)

    @property
    def f_vector(self) -> tuple[int, ...]:
        counts = self.counts
        if not counts:
            return ()
        return tuple(counts.get(d, 0) for d in range(max(counts) + 1))

    @property
    def is_empty(self) -> bool:
        return not self.cells


def _fiber(over: Iterable[tuple[int, object]]) -> FiberComplex:
    """The fiber of (relative dimension, cell) pairs, each dimension's
    cells in the order given."""
    levels: dict[int, list] = {}
    for d, c in over:
        levels.setdefault(d, []).append(c)
    return FiberComplex(tuple((d, tuple(cs))
                              for d, cs in sorted(levels.items())))


def map_fiber(mapping: ComplexMap, cell_name: str, coords: Sequence
              ) -> FiberComplex:
    """The exact fiber of the map over a rational point p of the target.

    Let τ be p's carrier.  In a source cell σ whose image cell is τ, the
    fiber over p is the product over τ's vertices r of p_r times the open
    simplex on the vertices of σ sent to r: one open cell of dimension
    dim σ - dim τ.  A product face on fewer of σ's vertices is the open
    cell of that face of σ, itself a source cell over τ, so the fiber's
    cells are the source cells over τ, in name order."""
    try:
        tau, _ = canonical_point(mapping.target, cell_name, coords)
    except (KeyError, ValueError, DimensionMismatch) as exc:
        raise PointOutsideTarget(exc.args[0]) from exc
    base = mapping.target.cell(tau).dim
    return _fiber((c.dim - base, c.name) for c in mapping.source.cells
                  if mapping.cell_image(c.name)[0] == tau)


def toric_fiber_complex(matrix: Sequence[Sequence[int]], source: Fan,
                        target: Fan, base: Cone) -> FiberComplex:
    """Fiber of a compatible map of fans over the interior of a base cone:
    the source cones over it, in ``_cone_key`` order."""
    rows = [la.integer_vector(row, DimensionMismatch) for row in matrix]
    if any(len(r) != source.n for r in rows) or len(rows) != target.n:
        raise DimensionMismatch(
            f"matrix shape does not map rank {source.n} to rank {target.n}")

    def image(cone: Cone):
        return ([la.mat_mul_vec(rows, g) for g in cone.rays],
                [la.mat_mul_vec(rows, g) for g in cone.lines])

    for sigma in source.maximal:
        if not any(cone_holds(tau, *image(sigma)) for tau in target.maximal):
            raise NotCompatible(
                f"image of {sigma} lies in no cone of the target fan")
    # base is a cone of the target exactly when it is the carrier of its
    # ray sum
    if target.locate(base.relint_point())[0] != base:
        raise ValidationError("the base cone is not a cone of the target fan")
    over = []
    for face in {f for sigma in source.maximal for f in cone_faces(sigma)}:
        rays, lines = image(face)
        # a generic point of the base lies only over images spanning it,
        # which map the face's relative interior into the base's
        if cone_holds(base, rays, lines) and \
                la.mat_rank(rays + lines) == base.dim:
            over.append(face)
    return _fiber((face.dim - base.dim, face)
                  for face in sorted(over, key=_cone_key))
