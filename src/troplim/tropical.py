"""Tropical polynomials, hypersurfaces, and PTrop.

Everything here is min-plus: a term (e, v) contributes v + <e, x> and the
polynomial evaluates to the minimum over its terms.  The tropical
hypersurface is the locus where that minimum is achieved at least twice.
Its cells are dual to the lower faces of conv{(e, v)}, the regular
subdivision of the Newton polytope that the valuations induce
(Maclagan & Sturmfels, Introduction to Tropical Geometry, Prop. 3.1.6), so
one conversion of the cone over the lifted terms and the upward ray yields
every cell exactly, each with its achieving term set, dimension, a
relative-interior point and recession cone.  A cell's H-description rows
follow from the polynomial and the achievers, so no cell stores them.

The projective tropicalization of a principal germ (the set of limit
directions of coordinatewise -log absolute values along the germ) is
computed by two independent exact routes that a theorem makes equal, each
read off one conversion of a cone with the unit vectors among its
generators:

  * normal-fan route: normal cones of the bounded positive-dimensional
    faces of the local Newton polyhedron conv(exponents) + R>=0^n
    (Kouchnirenko, Polyedres de Newton et nombres de Milnor, 1976);
  * recession route: recession cones of the tropical hypersurface's cells
    cut to the orthant, kept when they meet the open orthant.

They agree because the recession cone of the cell with achiever set S is
the normal cone of the smallest Newton face F containing S, F + {0} has
normal cone N_F ∩ R>=0^n in the polyhedron, and a face of the polyhedron
is bounded exactly when its normal cone meets the open orthant.
The numeric sampling oracle lives in the sampling module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import _linalg as la
from ._linalg import IVec
from ._polyhedra import homogenization_info
from .errors import (
    BoundViolation,
    DimensionMismatch,
    OriginNotOnGerm,
    RankCap,
    ValidationError,
)
from .lattice import RANK_CAP, Cone, face_lattice, halfspaces_to_generators

PTROP_ORDER_BOUND = (1, 1, 2, 2, 3, 3, 3)  # claimed bound g(d) for d = 1..7


@dataclass(frozen=True)
class TropicalPolynomial:
    """Min-plus polynomial: (exponent, valuation) terms sorted by exponent."""

    n: int
    terms: tuple[tuple[IVec, Fraction], ...]

    @property
    def degree(self) -> int:
        return max(sum(e) for e, _ in self.terms)

    @property
    def exponents(self) -> tuple[IVec, ...]:
        return tuple(e for e, _ in self.terms)

    def has_constant_term(self) -> bool:
        return any(all(c == 0 for c in e) for e, _ in self.terms)


def trop_poly(terms) -> TropicalPolynomial:
    """Build a polynomial from {exponent: valuation} or (exponent, valuation)s."""
    if isinstance(terms, dict):
        items = list(terms.items())
    else:
        items = [(tuple(e), v) for e, v in terms]
    if not items:
        raise ValidationError("a tropical polynomial needs at least one term")
    n = len(items[0][0])
    if n > RANK_CAP:
        raise RankCap(f"{n} variables exceed the supported rank {RANK_CAP}")
    seen = {}
    for e, v in items:
        e = la.integer_vector(e, ValidationError)
        if len(e) != n:
            raise DimensionMismatch(
                f"exponent {e} has length {len(e)}, expected {n}")
        if any(c < 0 for c in e):
            raise ValidationError(f"negative exponent in {e}")
        v = Fraction(v)
        # repeated exponents keep the dominant (minimal) valuation
        if e not in seen or v < seen[e]:
            seen[e] = v
    return TropicalPolynomial(n, tuple(sorted(seen.items())))


# -- tropical hypersurfaces -------------------------------------------------


@dataclass(frozen=True)
class TropCell:
    """One cell: locus where exactly the achiever terms attain the minimum."""

    achievers: tuple[IVec, ...]
    dim: int
    relint_point: tuple[Fraction, ...]
    recession: Cone


@dataclass(frozen=True)
class TropicalHypersurface:
    """The non-differentiability locus of trop(f), as a cell list."""

    cells: tuple[TropCell, ...]


def _holds_two(m: int) -> Callable[[int], bool]:
    """Keeps a face holding two or more of the vertices with bits below m.
    A face holds every vertex of a face below it, so the face walk may
    prune on it."""
    low = (1 << m) - 1
    return lambda fs: (fs & low).bit_count() >= 2


def _lower(m: int) -> Callable[[int], bool]:
    """Keeps a face off the vertex at bit m holding two or more of the
    vertices below it.  Any face but the whole set is the meet of the rows'
    sets holding it, one of them off the vertex if the face is, so the face
    walk reaches it through faces off the vertex that hold it, and so hold
    its two vertices as well: the walk may prune on both conditions."""
    two = _holds_two(m)
    return lambda fs: not fs >> m & 1 and two(fs)


def _lower_faces(f: TropicalPolynomial, extra: list[IVec]):
    """One conversion of the cone C over the lifted terms (e, v, 1), the
    upward ray (0, 1, 0) and the extra generators: the lines and sorted
    rays of the dual N = {(x, t, z)}, and each face of C off the upward ray
    with two or more terms, as its bitmask over the generators (bit i for
    the i-th term below bit m = len(f.terms), the upward ray at bit m),
    with the ascending indices of the rays of N vanishing on it.  The face
    of N vanishing on such a face, homogenized by t, is a cell, and
    z = -v t - <x, e> on it for each of its terms (e, v, 1).  The
    conversion's masks are the generators each ray of N vanishes on, so
    the face walk reads them, and prunes on both conditions (see
    ``_lower``)."""
    m = len(f.terms)
    gens = [la.primitivize(e + (v, 1)) for e, v in f.terms]
    gens += [(0,) * f.n + (1, 0), *extra]
    lines, normals, seeds = halfspaces_to_generators([], gens, f.n + 2)
    faces = face_lattice(len(gens), seeds, _lower(m))
    return lines, normals, faces.items()


def trop_hypersurface(f: TropicalPolynomial) -> TropicalHypersurface:
    """All cells, from one conversion: the lower faces with two or more
    terms are the saturated achiever sets S, and the face of the dual
    vanishing on S is the homogenized cell once z is dropped."""
    lines, normals, faces = _lower_faces(f, [])
    # N's lines have t = 0 and z = -<x, e>: dropping z keeps them primitive
    # and in RREF, and N's rays reduced against them
    cell_lines = [l[:-1] for l in lines]
    cells = []
    for fs, tight in faces:
        # normals come sorted and tight ascends, and of the projected rays
        # only the order of those with t = 0 reaches the cell, as its
        # recession rays.  Such a normal (x, 0, z), tight on a term
        # (e, v, 1) of fs, has z = -<x, e>, so gcd(x) divides z: dropping z
        # leaves it primitive, and two of them with equal x are equal.  So
        # they stay in increasing order of x, and the list needs no sort.
        rays = [la.primitivize(normals[k][:-1]) for k in tight]
        info = homogenization_info(cell_lines, rays)
        cells.append(TropCell(
            achievers=tuple(e for i, (e, _) in enumerate(f.terms)
                            if fs >> i & 1),
            dim=info.dim,
            relint_point=info.relint_point,
            recession=info.recession,
        ))
    cells.sort(key=lambda c: (c.dim, c.achievers))
    return TropicalHypersurface(tuple(cells))


# -- projective tropicalization ---------------------------------------------


@dataclass(frozen=True)
class PTropSet:
    """Projectivized rational cones in the closed orthant, canonically
    sorted; each is pointed, so a point exactly when it has one ray."""

    cones: tuple[Cone, ...]

    @property
    def points(self) -> tuple[IVec, ...]:
        """Primitive representatives of the dimension-1 elements."""
        return tuple(c.rays[0] for c in self.cones if len(c.rays) == 1)

    @property
    def is_finite(self) -> bool:
        return all(len(c.rays) <= 1 for c in self.cones)


def _ptrop_set(cones) -> PTropSet:
    return PTropSet(tuple(sorted(set(cones), key=lambda c: (
        la.mat_rank(c.rays), c.rays))))


def _require_germ(f: TropicalPolynomial):
    if f.has_constant_term():
        raise OriginNotOnGerm(
            "the polynomial has a constant term, so the origin does not lie "
            "on its zero locus")


def ptrop_normal_fan(f: TropicalPolynomial) -> PTropSet:
    """PTrop via the normal cones of the bounded positive-dimensional faces
    of the polyhedron P + R>=0^n, P the Newton polytope, from one
    conversion of the cone C over the lifted exponents (e, 1) and the unit
    vectors (e_i, 0).  Its dual N = {(x, z) : <x, e> + z >= 0, x >= 0} is
    pointed.  A face of C with no unit vector is bounded, with two or more
    exponents positive-dimensional, and its normal cone, which meets the
    open orthant, is the face of N vanishing on it with z dropped.  That is
    canonical: z = -<x, e> there, so gcd(x) divides z and each normal stays
    primitive, and normals with equal x are equal, so their order is kept.
    """
    _require_germ(f)
    n, m = f.n, len(f.terms)
    gens = [e + (1,) for e in f.exponents]
    gens += [u + (0,) for u in la.identity_rows(n)]
    _, normals, seeds = halfspaces_to_generators([], gens, n + 1)
    # the unit vectors are the generators from bit m on; a face with none
    # of them may be reached only through faces with some, so that is
    # checked after the walk
    cones = [Cone(n, tuple(normals[k][:-1] for k in tight), ())
             for fs, tight in face_lattice(
                 len(gens), seeds, _holds_two(m)).items()
             if not fs >> m]
    return _ptrop_set(cones)


def ptrop_recession(f: TropicalPolynomial) -> PTropSet:
    """PTrop via the recession cones of the hypersurface's cells cut to the
    orthant, from one conversion of the cone over the lifted terms, the
    upward ray and the unit vectors (e_i, 0, 0).  A cut cell's recession
    cone is its face at t = 0 with t and z dropped, canonical as in the
    normal-fan route.  A cell whose recession cone meets the open orthant
    meets the orthant, and its cut then has recession cone
    rec(cell) ∩ R>=0^n, so the cones kept are those whose ray sum is
    positive in every coordinate.
    """
    _require_germ(f)
    n = f.n
    _, normals, faces = _lower_faces(
        f, [u + (0, 0) for u in la.identity_rows(n)])
    cones = []
    for _, tight in faces:
        rays = tuple(normals[k][:n] for k in tight if normals[k][n] == 0)
        if min(map(sum, zip(*rays)), default=0) > 0:
            cones.append(Cone(n, rays, ()))
    return _ptrop_set(cones)


def count_ptrop_points(f: TropicalPolynomial) -> int:
    """Number of PTrop points of a plane germ, checked against the g bound."""
    if f.n != 2:
        raise DimensionMismatch("the point count is defined for 2 variables")
    ptset = ptrop_normal_fan(f)
    count = len(ptset.cones)
    d = f.degree
    if 1 <= d <= len(PTROP_ORDER_BOUND):
        bound = PTROP_ORDER_BOUND[d - 1]
        if count > bound:
            raise BoundViolation(
                f"degree-{d} germ has {count} projective tropicalization "
                f"points, exceeding the claimed bound {bound}",
                count=count, bound=bound)
    return count
