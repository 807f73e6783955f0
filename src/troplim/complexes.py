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
keeps branch data and can produce loops, algebraic mode cannot), collapse
from analytic to algebraic, exact N-fold scale subdivision by lattice
alcoves, rational point enumeration, Euler characteristics, simplicial maps
induced by vertex assignments, exact polyhedral fibers of such maps, and
fiber complexes of compatible maps of fans.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import add
from typing import Mapping, Optional, Sequence

from . import _linalg as la
from ._polyhedra import affine_dim, polyhedron_info
from .errors import (
    DimensionMismatch,
    IncoherentIncidence,
    MissingProvenance,
    NoAffineStructure,
    NotCompatible,
    NotSimplicial,
    PointOutsideTarget,
    ValidationError,
)
from .fans import Fan
from .lattice import (
    Cone,
    cone_faces,
    cone_holds,
    cone_is_face,
    face_lattice,
)

QVec = tuple[Fraction, ...]


# -- complexes ---------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """A simplex: dim+1 ordered codimension-1 faces, named."""

    name: str
    dim: int
    faces: tuple[str, ...]


@dataclass(frozen=True)
class DeltaComplex:
    """Cells of all dimensions, closed under faces, identities verified."""

    cells: tuple[Cell, ...]
    affine: bool = True
    provenance: Optional[str] = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return max(c.dim for c in self.cells)

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


def make_complex(cells: Sequence[tuple[str, Sequence[str]]],
                 affine: bool = True,
                 provenance: Optional[str] = None) -> DeltaComplex:
    """Build and validate a complex from (name, face names) pairs.

    Vertices are pairs with an empty face list; an m-cell must list m+1
    faces of dimension m-1, and iterated faces must satisfy the simplicial
    identity d_i d_j = d_{j-1} d_i for i < j.
    """
    built: dict[str, Cell] = {}
    pending = [(str(n), tuple(str(f) for f in fs)) for n, fs in cells]
    if not pending:
        raise ValidationError("a complex needs at least one cell")
    names = [n for n, _ in pending]
    if len(set(names)) != len(names):
        repeats = sorted(n for n, k in Counter(names).items() if k > 1)
        raise ValidationError(f"duplicate cell names {repeats}")
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
    ordered = tuple(sorted(built.values(), key=lambda c: (c.dim, c.name)))
    return DeltaComplex(ordered, affine=affine, provenance=provenance)


def cell_vertices(x: DeltaComplex, name: str) -> tuple[str, ...]:
    """Ordered vertex names of a cell (repeats allowed)."""
    c = x.cell(name)
    if c.dim == 0:
        return (name,)
    head = cell_vertices(x, c.faces[-1])
    tail = cell_vertices(x, c.faces[0])
    return head + (tail[-1],)


def count_cells(x: DeltaComplex) -> dict[int, int]:
    """Number of cells in each dimension."""
    out: dict[int, int] = {}
    for c in x.cells:
        out[c.dim] = out.get(c.dim, 0) + 1
    return out


def _signed_sum(counts: dict[int, int]) -> int:
    """Euler characteristic of a {dim: count} map."""
    return sum((-1) ** d * k for d, k in counts.items())


def euler_characteristic(x: DeltaComplex) -> int:
    return _signed_sum(count_cells(x))


def component_ratio(fine: DeltaComplex, coarse: DeltaComplex) -> Fraction:
    """Ratio of top-cell counts; N^m for an N-fold subdivision in dim m."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch(
            f"top dimensions differ: {fine.dim} vs {coarse.dim}")
    d = fine.dim
    return Fraction(len(fine.by_dim(d)), len(coarse.by_dim(d)))


# -- ready-made complexes ----------------------------------------------------


def point_complex(name: str = "pt") -> DeltaComplex:
    return make_complex([(name, [])])


def segment_complex() -> DeltaComplex:
    return make_complex([("z0", []), ("z1", []), ("e", ["z1", "z0"])])


def triangle_complex() -> DeltaComplex:
    return make_complex([
        ("a", []), ("b", []), ("c", []),
        ("bc", ["c", "b"]), ("ac", ["c", "a"]), ("ab", ["b", "a"]),
        ("T", ["bc", "ac", "ab"]),
    ])


def square_complex() -> DeltaComplex:
    """The unit square as two triangles glued along the diagonal.

    Vertices a=(0,0), b=(1,0), c=(0,1), d=(1,1); the diagonal runs a-d.
    """
    return make_complex([
        ("a", []), ("b", []), ("c", []), ("d", []),
        ("ab", ["b", "a"]), ("ad", ["d", "a"]), ("ac", ["c", "a"]),
        ("bd", ["d", "b"]), ("cd", ["d", "c"]),
        ("abd", ["bd", "ad", "ab"]),
        ("acd", ["cd", "ad", "ac"]),
    ])


def tetrahedron_boundary() -> DeltaComplex:
    """Four triangles glued as the boundary of a 3-simplex (chi = 2)."""
    cells = _simplex_cells(3)
    return make_complex([c for c in cells if len(c[1]) != 4])


def tetrahedron_solid() -> DeltaComplex:
    return make_complex(_simplex_cells(3))


def _simplex_cells(m: int) -> list[tuple[str, list[str]]]:
    """All faces of the standard m-simplex on vertices v0..vm."""
    out = []
    for k in range(1, m + 2):
        for sub in itertools.combinations(range(m + 1), k):
            name = "v" + "".join(str(i) for i in sub)
            faces = ["v" + "".join(str(i) for i in sub[:j] + sub[j + 1:])
                     for j in range(k)] if k > 1 else []
            out.append((name, faces))
    return out


def cycle_complex(m: int) -> DeltaComplex:
    """Cycle with m vertices and m edges; m = 1 is a loop on one vertex."""
    if m < 1:
        raise ValueError("a cycle needs at least one edge")
    cells: list[tuple[str, list[str]]] = [(f"v{i}", []) for i in range(m)]
    for i in range(m):
        cells.append((f"e{i}", [f"v{(i + 1) % m}", f"v{i}"]))
    return make_complex(cells)


# -- stratification incidence ------------------------------------------------


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
    """Validate mode, codimension monotonicity, and branch arithmetic."""
    if mode not in ("analytic", "algebraic"):
        raise ValidationError(f"unknown incidence mode {mode!r}")
    ss = tuple(Stratum(str(n), int(c), int(b)) for n, c, b in strata)
    names = [s.name for s in ss]
    if len(set(names)) != len(names):
        repeats = sorted(n for n, k in Counter(names).items() if k > 1)
        raise ValidationError(f"duplicate stratum names {repeats}")
    for s in ss:
        if s.codim < 0 or s.branches < 1:
            raise ValidationError(
                f"stratum {s.name!r} needs codim >= 0 and branches >= 1")
        # a stratum where k+1 local branches meet has codimension k
        if s.branches != s.codim + 1:
            raise ValidationError(
                f"stratum {s.name!r} has {s.branches} branches but "
                f"codimension {s.codim}; expected codim + 1 branches")
    inc = StrataIncidence(mode, ss, tuple((str(a), str(b)) for a, b in closures))
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
    cells: list[tuple[str, list[str]]] = [(s.name, []) for s in components]
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
            cells.append((node.name, [linked[1], linked[0]]))
        elif len(linked) == 1:
            if inc.mode == "analytic":
                cells.append((node.name, [linked[0], linked[0]]))
            # algebraic mode cannot separate the branches: nothing to add
        else:
            raise IncoherentIncidence(
                f"node {node.name!r} touches {len(linked)} components; "
                f"expected 1 or 2")
    return make_complex(cells, provenance=inc.mode)


def polygon_incidence(m: int, mode: str = "analytic") -> StrataIncidence:
    """Incidence of a cycle of m rational curves (one curve self-glued if 1)."""
    if m < 1:
        raise ValueError("need at least one component")
    strata = [(f"C{i}", 0, 1) for i in range(m)]
    strata += [(f"n{i}", 1, 2) for i in range(m)]
    closures = []
    for i in range(m):
        closures.append((f"n{i}", f"C{i}"))
        if (i + 1) % m != i:
            closures.append((f"n{i}", f"C{(i + 1) % m}"))
    return make_incidence(mode, strata, closures)


def nodal_cubic_incidence(mode: str = "analytic") -> StrataIncidence:
    """An irreducible curve with one double point."""
    return make_incidence(
        mode, [("C", 0, 1), ("p", 1, 2)], [("p", "C")])


# -- maps of complexes -------------------------------------------------------


@dataclass(frozen=True)
class ComplexMap:
    """A simplicial map: each cell lands on a target cell monotonically."""

    source: DeltaComplex
    target: DeltaComplex
    vertex_map: tuple[tuple[str, str], ...]
    cell_images: tuple[tuple[str, tuple[str, tuple[int, ...]]], ...]

    @cached_property
    def _vertex_index(self) -> dict[str, str]:
        return dict(self.vertex_map)

    @cached_property
    def _cell_index(self) -> dict[str, tuple[str, tuple[int, ...]]]:
        return dict(self.cell_images)

    def vertex_image(self, name: str) -> str:
        return self._vertex_index[name]

    def cell_image(self, name: str) -> tuple[str, tuple[int, ...]]:
        return self._cell_index[name]


def _reduce_image(x: DeltaComplex, cell_name: str, phi: tuple[int, ...]
                  ) -> tuple[str, tuple[int, ...]]:
    """Collapse unused target vertices: canonical (cell, surjection) pair."""
    cell = x.cell(cell_name)
    k = cell.dim
    while True:
        missing = [r for r in range(k + 1) if r not in phi]
        if not missing:
            return cell_name, phi
        r = missing[0]
        cell_name = x.cell(cell_name).faces[r]
        cell = x.cell(cell_name)
        k -= 1
        phi = tuple(v - 1 if v > r else v for v in phi)


def _delta(i: int, m: int) -> tuple[int, ...]:
    """The i-th face inclusion {0..m-1} -> {0..m} (skip i)."""
    return tuple(j if j < i else j + 1 for j in range(m))


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
    vm = {str(a): str(b) for a, b in vertex_map.items()}
    target_vertices = {c.name for c in target.by_dim(0)}
    for v in source.by_dim(0):
        if v.name not in vm:
            raise NotSimplicial(f"vertex {v.name!r} has no image")
        img = vm[v.name]
        if img not in target_vertices:
            raise NotSimplicial(f"{v.name!r} maps to non-vertex {img!r}")
    given = {str(k): (str(c), tuple(int(i) for i in phi))
             for k, (c, phi) in (cell_images or {}).items()}
    by_sequence = _sequence_index(target)
    images: dict[str, tuple[str, tuple[int, ...]]] = {}
    for cell in sorted(source.cells, key=lambda c: c.dim):
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
            face_phi = tuple(phi[j] for j in _delta(i, cell.dim))
            expected = _reduce_image(target, name, face_phi)
            if images[cell.faces[i]] != expected:
                raise NotSimplicial(
                    f"face {i} of {cell.name!r} maps to "
                    f"{images[cell.faces[i]]}, expected {expected}")
    return ComplexMap(
        source, target,
        tuple(sorted(vm.items())),
        tuple(sorted(images.items())),
    )


def identity_map(x: DeltaComplex) -> ComplexMap:
    """The identity, with every cell assigned to itself explicitly."""
    return induced_map(
        x, x, {v.name: v.name for v in x.by_dim(0)},
        {c.name: (c.name, tuple(range(c.dim + 1))) for c in x.cells})


def collapse_to_algebraic(x: DeltaComplex
                          ) -> tuple[DeltaComplex, ComplexMap]:
    """Forget branch data: collapse loop edges of an analytic dual complex."""
    if x.provenance is None:
        raise MissingProvenance(
            "complex has no stratification provenance; build it through "
            "from_incidence")
    if x.provenance == "algebraic":
        return x, identity_map(x)
    if x.dim > 1:
        raise IncoherentIncidence("collapse is defined for curve-type duals")
    loops = [c for c in x.by_dim(1) if c.faces[0] == c.faces[1]]
    kept = [c for c in x.cells if c not in loops]
    collapsed = make_complex(
        [(c.name, list(c.faces)) for c in kept], provenance="algebraic")
    images = {c.name: (c.name, tuple(range(c.dim + 1))) for c in kept}
    for c in loops:
        images[c.name] = (c.faces[0], (0, 0))
    mapping = induced_map(
        x, collapsed, {v.name: v.name for v in x.by_dim(0)}, images)
    return collapsed, mapping


# -- points and scale subdivision --------------------------------------------


def _drop_walls(x: DeltaComplex, name: str, points: Sequence[Sequence]
                ) -> tuple[str, tuple]:
    """Carrier of points given in a cell's barycentric coordinates.

    While some coordinate vanishes on every point, move to the face of the
    first such coordinate j and drop coordinate j from each point; the
    points keep their order.
    """
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


def canonical_point(x: DeltaComplex, name: str, coords: Sequence
                    ) -> tuple[str, QVec]:
    """Unique (cell, interior barycentric coordinates) form of a point."""
    cell = x.cell(name)
    t = tuple(Fraction(c) for c in coords)
    if len(t) != cell.dim + 1:
        raise DimensionMismatch(
            f"{len(t)} coordinates for a {cell.dim}-cell")
    if any(c < 0 for c in t) or sum(t) != 1:
        raise ValueError(f"{t} is not a barycentric point")
    name, (t,) = _drop_walls(x, name, (t,))
    return name, t


def rational_points(x: DeltaComplex, level: int) -> frozenset:
    """All points with barycentric denominators dividing the level."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    points = set()
    for cell in x.cells:
        d = cell.dim
        # interior points: positive multiples of 1/level summing to 1
        for comp in itertools.combinations(range(1, level), d):
            cuts = (0,) + comp + (level,)
            t = tuple(Fraction(cuts[i + 1] - cuts[i], level)
                      for i in range(d + 1))
            points.add((cell.name, t))
    return frozenset(points)


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


def _sub_name(carrier: str, points) -> str:
    """Name of a subdivision cell from its level-scaled barycentric vertices
    in the carrier; each vertex is written in the order-simplex coordinates
    y_i = b_i + ... + b_m of ``level * O_m``."""
    if len(points[0]) == 1:
        return carrier
    return carrier + "|" + "_".join(
        ".".join(map(str, reversed(list(itertools.accumulate(p[:0:-1])))))
        for p in points)


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
    carriers: tuple[tuple[str, tuple[str, tuple[tuple[int, ...], ...]]], ...]

    @cached_property
    def _carrier_index(self) -> dict[str, tuple[str, tuple]]:
        return dict(self.carriers)

    def carrier(self, name: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
        return self._carrier_index[name]


def scale_subdivide(x: DeltaComplex, level: int) -> SubdivisionResult:
    """Exact N-fold subdivision along the integral-affine structure.

    Every cell of the subdivision is a face of the Freudenthal subdivision
    of ``level * O_m`` interior to exactly one cell of ``x``, so each is
    enumerated once, from that cell: a base point y with y_1 < level and
    the step sequences that leave it interior (``_interior_offsets``).
    """
    if not x.affine:
        raise NoAffineStructure(
            "the complex carries no integral-affine charts")
    if level < 1:
        raise ValueError("subdivision level must be a positive integer")
    names: dict[tuple, str] = {}
    for cell in x.cells:
        # base points level > y_1 >= ... >= y_m >= 0, in level-scaled
        # barycentric coordinates
        for low in itertools.combinations_with_replacement(
                range(level), cell.dim):
            y = low[::-1]
            base = tuple(a - b for a, b in zip((level,) + y, y + (0,)))
            for offsets in _interior_offsets(tuple(not c for c in base[1:])):
                key = (cell.name, tuple(tuple(map(add, base, o))
                                        for o in offsets))
                names[key] = _sub_name(*key)
    # face i omits vertex i; it is looked up directly when it stays in its
    # cell's interior, else it falls to its own canonical carrier, and
    # neighbouring cells share those, so each is pushed once
    pushed: dict[tuple, str] = {}
    cells = []
    for (carrier, verts), name in names.items():
        faces = []
        for i in range(len(verts)) if len(verts) > 1 else ():
            face = (carrier, verts[:i] + verts[i + 1:])
            face_name = names.get(face) or pushed.get(face)
            if face_name is None:
                face_name = pushed[face] = names[_drop_walls(x, *face)]
            faces.append(face_name)
        cells.append((name, faces))
    carriers = tuple(sorted((name, key) for key, name in names.items()))
    return SubdivisionResult(
        complex=make_complex(cells, affine=True, provenance=x.provenance),
        original=x,
        level=level,
        carriers=carriers,
    )


# -- fibers of simplicial maps -----------------------------------------------


@dataclass(frozen=True)
class FiberComplex:
    """Exact polyhedral fiber of a simplicial map over a rational point."""

    faces_by_dim: tuple[tuple[int, int], ...]

    @property
    def euler(self) -> int:
        return _signed_sum(dict(self.faces_by_dim))

    @property
    def f_vector(self) -> tuple[int, ...]:
        counts = dict(self.faces_by_dim)
        if not counts:
            return ()
        return tuple(counts.get(d, 0) for d in range(max(counts) + 1))

    @property
    def is_empty(self) -> bool:
        return not self.faces_by_dim


def _occurrences(x: DeltaComplex, name: str, face_name: str):
    """Monotone embeddings of face_name as an iterated face of the cell."""
    cell = x.cell(name)
    fdim = x.cell(face_name).dim
    for kept in itertools.combinations(range(cell.dim + 1), fdim + 1):
        cur = name
        for j in sorted(set(range(cell.dim + 1)) - set(kept), reverse=True):
            cur = x.cell(cur).faces[j]
        if cur == face_name:
            yield kept


def map_fiber(mapping: ComplexMap, cell_name: str, coords: Sequence
              ) -> FiberComplex:
    """The exact fiber of the map over a rational point of the target."""
    try:
        tau, p = canonical_point(mapping.target, cell_name, coords)
    except (KeyError, ValueError, DimensionMismatch) as exc:
        raise PointOutsideTarget(str(exc)) from exc
    faces: dict[tuple, int] = {}
    for cell in mapping.source.cells:
        image, phi = mapping.cell_image(cell.name)
        k = mapping.target.cell(image).dim
        m = cell.dim
        for kept in _occurrences(mapping.target, image, tau):
            index_of = {r: i for i, r in enumerate(kept)}
            equations = []
            for r in range(k + 1):
                coeffs = tuple(1 if phi[j] == r else 0 for j in range(m + 1))
                const = -p[index_of[r]] if r in index_of else Fraction(0)
                equations.append((coeffs, const))
            rows = [(tuple(1 if i == j else 0 for i in range(m + 1)),
                     Fraction(0)) for j in range(m + 1)]
            equations.append((tuple([1] * (m + 1)), Fraction(-1)))
            info = polyhedron_info(equations, rows, m + 1)
            if info is None:
                continue
            for fs in face_lattice(info.vertices, rows):
                # a glued face is one vertex set on its carrier
                name, verts = _drop_walls(mapping.source, cell.name, fs)
                faces[name, tuple(sorted(verts))] = affine_dim(verts)
    counts: dict[int, int] = {}
    for d in faces.values():
        counts[d] = counts.get(d, 0) + 1
    return FiberComplex(faces_by_dim=tuple(sorted(counts.items())))


# -- fibers of maps of fans --------------------------------------------------


@dataclass(frozen=True)
class ToricFiberComplex:
    """Source cones sitting over the relative interior of a base cone."""

    cells: tuple[tuple[int, tuple[Cone, ...]], ...]

    @property
    def euler(self) -> int:
        return _signed_sum(self.counts)

    @property
    def counts(self) -> dict[int, int]:
        return {d: len(cs) for d, cs in self.cells}


def toric_fiber_complex(matrix: Sequence[Sequence[int]], source: Fan,
                        target: Fan, base: Cone) -> ToricFiberComplex:
    """Fiber of a compatible map of fans over the interior of a base cone."""
    rows = [tuple(int(a) for a in row) for row in matrix]
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
    if not any(cone_is_face(base, tau) for tau in target.maximal):
        raise ValidationError("the base cone is not a cone of the target fan")
    seen: dict[tuple, Cone] = {}
    for sigma in source.maximal:
        for face in cone_faces(sigma):
            seen[(face.rays, face.lines)] = face
    levels: dict[int, list[Cone]] = {}
    for face in seen.values():
        rays, lines = image(face)
        # a generic point of the base lies only over images spanning it,
        # which map the face's relative interior into the base's
        if cone_holds(base, rays, lines) and \
                la.mat_rank(rays + lines) == base.dim:
            levels.setdefault(face.dim - base.dim, []).append(face)
    cells = tuple(
        (d, tuple(sorted(cs, key=lambda c: (c.rays, c.lines))))
        for d, cs in sorted(levels.items()))
    return ToricFiberComplex(cells)
