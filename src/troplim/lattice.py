"""Exact rational cones in a lattice of rank <= 4.

A cone stores its canonical V-description only:

    primitive integer extreme rays, plus a lineality basis for the cones
    that a meet or a face leaves with lines (normal fans of
    lower-dimensional polytopes need half-spaces and walls).

Its H-description, integer equations (a basis of the orthogonal complement
of the span) and primitive integer facet inner normals, is the
V-description of the dual cone.  It is converted on first read of
``equations`` or ``facets`` and kept out of equality, hashing and repr.

Each constructor converts once: ``cone_intersect`` half-spaces to rays, and
``cone_from_generators`` generators to facets, reading the rays off the facet
masks; it enforces strong convexity (no line) and the ambient rank cap.
A face is read off facet masks: each facet's mask marks the stored rays
it vanishes on, and the face of a set of facets keeps the rays in the AND
of their masks, with no conversion and no row evaluated.  Everything
downstream trusts the stored canonical form.  Conversion both ways runs
through one workhorse, ``halfspaces_to_generators``, the double description
method (Motzkin et al. 1953) over Z: the rows are added one at a time, as
given, to the lines and extreme rays of the cone cut out so far, and
adjacent rays on opposite sides of a new row are combined, adjacency decided
from the rows each ray makes tight (Fukuda & Prodon 1996).  Two adjacent
rays span a 2-dimensional face modulo the lines, cut out by the rows tight
on both, so those number at least n - len(lines) - 2 (each copy of a repeat
counts, which only loosens this) and a pair with fewer is skipped unscanned.
Each ray's tight rows are an int bitmask, bit j for the j-th inequality as
given, so ``face_lattice`` walks the faces of a cone over generators from
the masks of their one conversion, with no row evaluated again.

Each containment question has one routine.  ``locate`` gives the minimal
face holding a point: the cone itself for a point of its relative
interior, inside its own span.  So a cone f is a face of c exactly when
``locate(c, f.relint_point()) == f``.  ``cone_holds`` decides whether a cone
given by generators lies in another.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from operator import and_, mul
from typing import Callable, Sequence

from . import _linalg as la
from ._linalg import IVec, _cancel
from .errors import (
    DimensionMismatch,
    NotStronglyConvex,
    RankCap,
    ValidationError,
    ZeroVector,
)

RANK_CAP = 4


def halfspaces_to_generators(
    equations: Sequence[Sequence], inequalities: Sequence[Sequence], n: int
) -> tuple[tuple[IVec, ...], tuple[IVec, ...], tuple[int, ...]]:
    """V-description (lines, rays) of {x : E x = 0, A x >= 0}, with each
    ray's tight rows.

    Returns canonical primitive integer data: ``lines`` is an RREF-scaled
    basis of the lineality space, ``rays`` are the extreme rays modulo
    lineality, reduced to canonical coset representatives and sorted, so
    lines and rays do not depend on the order or the scaling of the rows.
    The third entry gives, for each ray, the int bitmask of the
    inequalities vanishing on it, bit j for ``inequalities[j]`` as given:
    a repeated row sets the bit of each copy and a zero row is set in every
    mask.  Every row vanishes on the lines, so reducing a ray modulo them
    keeps its tight rows, and the masks are the engine's own, read off
    with no further evaluation.

    The rows are added one at a time as given, equations first, from the
    whole space (lines = the unit vectors, no rays).  A row nonzero on some
    line turns that line into a ray (or drops it, for an equation); otherwise
    each pair of adjacent rays on opposite sides of the row gives a new ray
    on it, and the rays on its negative side go.  Every new vector is an
    integer combination, primitivized.  Two rays are adjacent when they span
    a 2-dimensional face modulo the lines; the rows tight on it have rank
    n - len(lines) - 2, so a pair with fewer common tight bits is skipped
    before the adjacency test (repeats, counted per copy, only loosen this).

    Memoized on the rows exactly as given, in a process-wide LRU cache of
    1024 entries (``_halfspaces_to_generators.cache_info()``).  Equal rows
    give equal keys whether written with ``int`` or ``Fraction`` entries,
    and the result is always ``int`` data, so a hit returns the same bytes
    as a fresh conversion.
    """
    return _halfspaces_to_generators(tuple(map(tuple, equations)),
                                     tuple(map(tuple, inequalities)), n)


@functools.lru_cache(maxsize=1024)
def _halfspaces_to_generators(
    equations: tuple[tuple, ...], inequalities: tuple[tuple, ...], n: int
) -> tuple[tuple[IVec, ...], tuple[IVec, ...], tuple[int, ...]]:
    # a positive scaling keeps each halfspace and each equation's kernel, so
    # the engine runs on primitive integer rows from here on; every row is
    # added as given, so engine bit k is the caller's row k
    rows = ([(la.primitivize(a), True) for a in equations]
            + [(la.primitivize(a), False) for a in inequalities])
    # the cone of the rows added so far is span(lines) + cone(rays); rays
    # are its extreme rays modulo the lines, each with the bitmask of the
    # added rows it makes tight
    lines = la.identity_rows(n)
    rays: list[IVec] = []
    tight: list[int] = []
    for k, (a, is_eq) in enumerate(rows):
        bit = 1 << k
        on_lines = [sum(map(mul, a, l)) for l in lines]
        j = next((j for j, s in enumerate(on_lines) if s), None)
        if j is not None:
            # the row cuts the lineality: move along line j until it vanishes
            s = on_lines.pop(j)
            l = lines.pop(j)
            if s < 0:
                s, l = -s, tuple(-x for x in l)
            lines = [_cancel(s, u, t, l) if t else u
                     for u, t in zip(lines, on_lines)]
            on_rays = [sum(map(mul, a, r)) for r in rays]
            rays = [_cancel(s, r, t, l) if t else r
                    for r, t in zip(rays, on_rays)]
            tight = [m | bit for m in tight]
            if not is_eq:
                # tight on every earlier row, as a line was
                rays.append(l)
                tight.append(bit - 1)
            continue
        # equations come first, before any ray exists, so a row that gets
        # here with rays is an inequality: its nonnegative side stays
        values = [sum(map(mul, a, r)) for r in rays]
        positive = [p for p, s in enumerate(values) if s > 0]
        negative = [q for q, s in enumerate(values) if s < 0]
        # the pair bound counts bits, once per copy of a repeated row, so
        # repeats only loosen it
        need = n - len(lines) - 2
        new_rays, new_tight = [], []
        for p in positive:
            for q in negative:
                # adjacent when no third ray is tight on every row both are
                # (Fukuda & Prodon 1996, combinatorial test)
                common = tight[p] & tight[q]
                if common.bit_count() < need or any(
                        m & common == common and i != p and i != q
                        for i, m in enumerate(tight)):
                    continue
                new_rays.append(_cancel(values[p], rays[q], values[q],
                                        rays[p]))
                new_tight.append(common | bit)
        keep = [i for i, s in enumerate(values) if s >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | bit if values[i] == 0 else tight[i]
                 for i in keep] + new_tight
    # the RREF rows are the canonical basis of the lineality space, and each
    # ray, extreme modulo the lines, is reduced to its own nonzero canonical
    # coset representative; with no lines each ray is primitive already
    lines = la.rref(lines)[0]
    if lines:
        rays = [la.canonical_mod(r, lines) for r in rays]
    masks = dict(zip(rays, tight))
    rays = sorted(masks)
    # the inequalities' bits follow the equations', in the order given
    return (tuple(lines), tuple(rays),
            tuple(masks[r] >> len(equations) for r in rays))


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone, held by its canonical V-description."""

    n: int
    rays: tuple[IVec, ...]
    lines: tuple[IVec, ...]

    @functools.cached_property
    def _dual(self) -> tuple[tuple[IVec, ...], tuple[IVec, ...],
                             tuple[int, ...]]:
        # the dual cone's (lines, rays) are this cone's (equations, facets),
        # and each facet's mask holds the rays it vanishes on
        return halfspaces_to_generators(self.lines, self.rays, self.n)

    @property
    def equations(self) -> tuple[IVec, ...]:
        """A basis of the integer rows vanishing on the cone's span."""
        return self._dual[0]

    @property
    def facets(self) -> tuple[IVec, ...]:
        """The primitive integer inner facet normals."""
        return self._dual[1]

    @property
    def dim(self) -> int:
        return self.n - len(self.equations)

    @property
    def is_pointed(self) -> bool:
        return not self.lines

    @property
    def is_simplicial(self) -> bool:
        return self.is_pointed and len(self.rays) == self.dim

    @property
    def is_unimodular(self) -> bool:
        """Simplicial with ray matrix extendable to a basis of the lattice.

        Equivalent: the gcd of the maximal minors of the ray matrix is 1.
        """
        if not self.is_simplicial:
            return False
        d = self.dim
        if d == 0:
            return True
        g = 0
        for cols in itertools.combinations(range(self.n), d):
            minor = la._det_int([[r[c] for c in cols] for r in self.rays])
            g = gcd(g, minor)
        return g == 1

    def relint_point(self) -> IVec:
        """An exact point in the relative interior (sum of extreme rays)."""
        return tuple(map(sum, zip((0,) * self.n, *self.rays)))

    def __repr__(self):
        parts = [f"rays={list(self.rays)}"]
        if self.lines:
            parts.append(f"lines={list(self.lines)}")
        return f"Cone(n={self.n}, {', '.join(parts)})"


def _face(cone: Cone, mask: int) -> Cone:
    """The face of the cone spanned by its lines and the rays whose bits
    are set in ``mask``, bit i for ``cone.rays[i]``.

    The mask is an AND of facet masks from ``cone._dual[2]``, so the face
    is the lineality space plus the extreme rays on which those facets
    vanish; that subset of the canonical rays, under the same lines, is
    canonical already.
    """
    return Cone(cone.n, tuple(r for i, r in enumerate(cone.rays)
                              if mask >> i & 1), cone.lines)


def cone_from_generators(
    generators: Sequence[Sequence[int]], n: int | None = None
) -> Cone:
    """Strongly convex cone spanned by nonzero integer generators.

    Raises ZeroVector on a zero generator, NotStronglyConvex when the
    generators span a line, RankCap above rank 4, DimensionMismatch on a
    generator of another length, and ValidationError on a non-integer
    entry, a negative rank or no generators and no rank.  One conversion
    gives the facets, whose masks tell the rays.
    """
    gens = [la.integer_vector(g, ValidationError) for g in generators]
    for g in gens:
        if la.is_zero_vec(g):
            raise ZeroVector(f"zero generator in {gens}")
    if n is None:
        if not gens:
            raise ValidationError("ambient rank required for the empty generator set")
        n = len(gens[0])
    if n > RANK_CAP:
        raise RankCap(f"ambient rank {n} exceeds the exact-arithmetic cap {RANK_CAP}")
    if n < 0:
        raise ValidationError("ambient rank must be nonnegative")
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch(f"generator {g} has length {len(g)}, expected {n}")
    dual_lines, facets, masks = halfspaces_to_generators((), gens, n)
    # a facet's mask holds the generators it vanishes on, bit j for gens[j];
    # those tight on every facet span the lineality space
    full = (1 << len(gens)) - 1
    lineal = functools.reduce(and_, masks, full)
    if lineal:
        line = la.rref(g for j, g in enumerate(gens) if lineal >> j & 1)[0][0]
        raise NotStronglyConvex(f"generators {gens} span the line through {line}")
    prims = [la.primitivize(g) for g in gens]
    copies = {r: sum(1 << j for j, p in enumerate(prims) if p == r)
              for r in prims}
    # the facets tight on a generator cut out the least face holding it,
    # an extreme ray exactly when it holds only the generator's copies
    rays = sorted(r for r, c in copies.items() if functools.reduce(
        and_, (m for m in masks if m & c), full) == c)
    cone = Cone(n, tuple(rays), ())
    cone.__dict__["_dual"] = (dual_lines, facets, tuple(
        sum(1 << i for i, r in enumerate(rays) if m & copies[r])
        for m in masks))
    return cone


def locate(cone: Cone, point) -> Cone | None:
    """Minimal face of the cone containing a point, or None if outside.

    The face is the cone itself exactly when the point lies in the
    relative interior, since the rows found tight are genuine facets: it
    keeps the rays in the AND of the tight facets' masks, and the cone
    itself is returned when no facet is tight.

    The point is an exact rational vector, or an object with ``n`` and a
    ``sign(row)`` method giving its sign (-1, 0 or 1) against an integer
    row, such as ``towers.SymbolicVector``.  Equations are checked first,
    then facets in stored order, stopping at the first negative sign, so a
    sign oracle that can fail (a symbolic point) fails on the same row
    every time.
    """
    if hasattr(point, "sign"):
        n, sign = point.n, point.sign
    else:
        # a positive scaling keeps every sign
        vec = la.primitivize(point)
        n = len(vec)

        def sign(row: IVec) -> int:
            value = la.dot(row, vec)
            return (value > 0) - (value < 0)
    if n != cone.n:
        raise DimensionMismatch(f"vector length {n} vs ambient {cone.n}")
    if any(sign(e) != 0 for e in cone.equations):
        return None
    full = mask = (1 << len(cone.rays)) - 1
    for f, on in zip(cone.facets, cone._dual[2]):
        s = sign(f)
        if s < 0:
            return None
        if s == 0:
            mask &= on
    # a facet vanishes on a proper subset of the rays, so the mask stays
    # full exactly when no facet is tight
    return cone if mask == full else _face(cone, mask)


def cone_holds(outer: Cone, rays: Sequence[Sequence],
               lines: Sequence[Sequence] = ()) -> bool:
    """Does ``cone(rays) + span(lines)`` lie in the outer cone?

    The one cone-in-cone check: every equation vanishes on every
    generator, and every facet is nonnegative on the rays and, taken both
    ways, on the lines.
    """
    gens = tuple(rays) + tuple(lines)
    if any(len(g) != outer.n for g in gens):
        raise DimensionMismatch(f"generators of the wrong length for "
                                f"ambient rank {outer.n}")
    return (all(la.dot(e, g) == 0 for e in outer.equations for g in gens)
            and all(la.dot(f, r) >= 0 for f in outer.facets for r in rays)
            and all(la.dot(f, l) == 0 for f in outer.facets for l in lines))


def cone_intersect(a: Cone, b: Cone) -> Cone:
    """Exact intersection, canonical form (may be any face, down to {0})."""
    if a.n != b.n:
        raise DimensionMismatch(f"ambient ranks differ: {a.n} vs {b.n}")
    lines, rays, _ = halfspaces_to_generators(a.equations + b.equations,
                                              a.facets + b.facets, a.n)
    return Cone(a.n, rays, lines)


def face_lattice(count: int, seeds: Sequence[int],
                 keep: Callable[[int], bool] | None = None
                 ) -> dict[int, tuple[int, ...]]:
    """Nonempty faces of a polytope or cone with ``count`` distinct
    vertices, each as the bitmask of its vertices with the ascending
    indices of the rows that vanish on all of it.

    ``seeds[k]`` is the bitmask of the vertices on which row k vanishes,
    bit i for vertex i, over rows nonnegative on the vertices that include
    the facet rows.  A conversion gives them with no evaluation: the masks
    of ``halfspaces_to_generators(equations, vertices, n)`` are, for each
    of its rays r, the seed of the row r over the given vertices.  The
    faces are the whole vertex set together with every nonempty
    intersection of seeds.  For a cone the extreme rays act as the vertices
    and the facets as the rows.  The empty set is not returned, so for a
    cone the minimal face, its lineality space, is left to the caller.

    The walk starts at the whole set and meets each face it reaches with
    every seed.  A face that ``keep`` rejects (the whole set included) is
    not returned, and one other than the whole set is not met further.  So
    the walk returns every face that ``keep`` accepts exactly when each of
    them is the meet of rows whose partial meets ``keep`` all accepts: for
    instance when ``keep`` accepts every face holding an accepted face.
    """
    full = (1 << count) - 1
    seen = {full}
    faces = [full] if keep is None or keep(full) else []
    queue = [full]
    while queue:
        fs = queue.pop()
        for other in seeds:
            meet = fs & other
            if meet and meet not in seen:
                seen.add(meet)
                if keep is None or keep(meet):
                    faces.append(meet)
                    queue.append(meet)
    return {fs: tuple(k for k, seed in enumerate(seeds) if fs & seed == fs)
            for fs in faces}


def cone_faces(cone: Cone) -> tuple[Cone, ...]:
    """All faces (the cone itself included), each in canonical form."""
    masks = {0, *face_lattice(len(cone.rays), cone._dual[2])}
    faces = [_face(cone, mask) for mask in masks]
    return tuple(sorted(faces, key=lambda c: (c.dim, c.rays, c.lines)))
