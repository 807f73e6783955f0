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
computed by two independent exact routes that a theorem makes equal:

  * normal-fan route: normal cones of the positive-dimensional faces of the
    Newton polytope, all read off one conversion of the cone over the
    lifted exponents (e, 1), intersected with the nonnegative orthant and
    kept when they meet the open positive orthant;
  * recession route: recession cones of the tropical hypersurface cells,
    filtered the same way.

Both routes return the same canonical cone sets because the recession cone
of the cell with achiever set S equals the normal cone of the smallest face
of the Newton polytope containing S, every positive-dimensional face arises
this way from some nonempty cell, and the filter is applied identically.
The numeric sampling oracle lives in the sampling module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _linalg as la
from ._polyhedra import homogenization_info
from .errors import (
    BoundViolation,
    DimensionMismatch,
    OriginNotOnGerm,
    RankCap,
)
from .lattice import (
    RANK_CAP,
    Cone,
    cone_intersect,
    face_lattice,
    halfspaces_to_generators,
    positive_orthant,
)

IVec = tuple[int, ...]

PTROP_ORDER_BOUND = (1, 1, 2, 2, 3, 3, 3)  # claimed bound g(d) for d = 1..7


@dataclass(frozen=True)
class TropicalPolynomial:
    """A min-plus polynomial: terms map exponents to rational valuations."""

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


def trop_poly(terms, n: Optional[int] = None) -> TropicalPolynomial:
    """Build a polynomial from {exponent: valuation} or (exponent, valuation)s."""
    if isinstance(terms, dict):
        items = list(terms.items())
    else:
        items = [(tuple(e), v) for e, v in terms]
    if not items:
        raise ValueError("a tropical polynomial needs at least one term")
    if n is None:
        n = len(items[0][0])
    if n > RANK_CAP:
        raise RankCap(f"{n} variables exceed the supported rank {RANK_CAP}")
    seen = {}
    for e, v in items:
        e = tuple(int(c) for c in e)
        if len(e) != n:
            raise DimensionMismatch(
                f"exponent {e} has length {len(e)}, expected {n}")
        if any(c < 0 for c in e):
            raise ValueError(f"negative exponent in {e}")
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

    n: int
    cells: tuple[TropCell, ...]

    @property
    def is_empty(self) -> bool:
        return not self.cells


def trop_hypersurface(f: TropicalPolynomial) -> TropicalHypersurface:
    """All cells, from one conversion of the cone C over the lifted terms
    (e, v, 1) and the upward ray (0, 1, 0).  C's faces off the upward ray
    are the lower faces of conv{(e, v)}; their term sets of two or more are
    the saturated achiever sets S.  The face of the dual N = {(x, t, z)}
    vanishing on S (N's lines and the facet normals of C vanishing on S)
    maps one-to-one onto the homogenized cell when z is dropped."""
    n = f.n
    terms = {la.primitivize(e + (v, 1)): i for i, (e, v) in enumerate(f.terms)}
    up = (0,) * n + (1, 0)
    lines, normals = halfspaces_to_generators([], list(terms) + [up], n + 2)
    # N's lines have t = 0 and z = -<x, e>: dropping z keeps them primitive
    # and in RREF, and N's rays reduced against them
    cell_lines = [l[:-1] for l in lines]
    cells = []
    for fs, tight in face_lattice(list(terms) + [up],
                                  [(r, 0) for r in normals]).items():
        if up in fs or len(fs) < 2:
            continue
        # normals come sorted and tight ascends, and of the projected rays
        # only the order of those with t = 0 reaches the cell, as its
        # recession rays.  Such a normal (x, 0, z), tight on a term
        # (e, v, 1) of fs, has z = -<x, e>, so gcd(x) divides z: dropping z
        # leaves it primitive, and two of them with equal x are equal.  So
        # they stay in increasing order of x, and the list needs no sort.
        rays = [la.primitivize(normals[k][:-1]) for k in tight]
        info = homogenization_info(cell_lines, rays, n)
        cells.append(TropCell(
            achievers=tuple(sorted(f.terms[terms[g]][0] for g in fs)),
            dim=info.dim,
            relint_point=info.relint_point,
            recession=info.recession,
        ))
    cells.sort(key=lambda c: (c.dim, c.achievers))
    return TropicalHypersurface(n, tuple(cells))


# -- projective tropicalization ---------------------------------------------


@dataclass(frozen=True)
class PTropSet:
    """Projectivized rational cones in the closed orthant, canonically sorted."""

    n: int
    cones: tuple[Cone, ...]

    @property
    def points(self) -> tuple[IVec, ...]:
        """Primitive representatives of the dimension-1 elements."""
        return tuple(c.rays[0] for c in self.cones if c.dim == 1)

    @property
    def is_finite(self) -> bool:
        return all(c.dim <= 1 for c in self.cones)


def _positive_part(cone: Cone) -> Optional[Cone]:
    """Meet with the nonnegative orthant; keep cones seeing the open orthant.

    Two rules settle most cones without a conversion.  By Gordan's
    alternative a cone misses the open orthant exactly when its dual holds
    a nonzero vector that is <= 0 in every coordinate: such a vector is
    nonnegative on the cone and negative on the open orthant.  A facet
    normal with no positive entry is one, and so is an equation with
    entries of one sign, taken with the sign that makes it <= 0.  A pointed
    cone whose rays are all nonnegative lies in the closed orthant, so it
    is its own meet with it.  Only the other cones are converted.
    """
    if any(max(f) <= 0 for f in cone.facets) or \
            any(max(e) <= 0 or min(e) >= 0 for e in cone.equations):
        return None
    if cone.lines or any(min(r) < 0 for r in cone.rays):
        cone = cone_intersect(cone, positive_orthant(cone.n))
    if cone.dim == 0:
        return None
    if any(t == 0 for t in cone.relint_point()):
        return None
    return cone


def _ptrop_set(n: int, cones) -> PTropSet:
    kept = set()
    for c in cones:
        pos = _positive_part(c)
        if pos is not None:
            kept.add(pos)
    return PTropSet(n, tuple(sorted(kept, key=lambda c: (c.dim, c.rays))))


def _require_germ(f: TropicalPolynomial):
    if f.has_constant_term():
        raise OriginNotOnGerm(
            "the polynomial has a constant term, so the origin does not lie "
            "on its zero locus")


def ptrop_normal_fan(f: TropicalPolynomial) -> PTropSet:
    """PTrop via normal cones of positive-dimensional Newton faces, from one
    conversion of the cone over the lifted exponents (e, 1).

    Its dual N = {(x, z) : <x, e> + z >= 0} has the facet normals of the
    Newton polytope as rays and the normal space of its affine hull as
    lines.  The normal cone of a face F is the face of N vanishing on F
    (N's lines and the rays vanishing on F) with z dropped, one-to-one
    since z = -<x, e> on it for e in F.  So the dropped form is canonical
    already: gcd(x) divides z, so each normal stays primitive; two normals
    with equal x are equal, so their sorted order is kept; and no line has
    its pivot in z (z = 0 wherever x = 0), so the lines stay in RREF.
    """
    _require_germ(f)
    n = f.n
    points = [e + (1,) for e in f.exponents]
    lines, normals = halfspaces_to_generators([], points, n + 1)
    cone_lines = tuple(l[:-1] for l in lines)
    cones = []
    for fs, tight in face_lattice(points, [(r, 0) for r in normals]).items():
        # the exponents are distinct, so a face of two or more is no vertex
        if len(fs) < 2:
            continue
        cones.append(Cone(n, tuple(normals[k][:-1] for k in tight),
                          cone_lines))
    return _ptrop_set(n, cones)


def ptrop_recession(h: TropicalHypersurface) -> PTropSet:
    """PTrop via recession cones of the hypersurface cells."""
    return _ptrop_set(h.n, (cell.recession for cell in h.cells))


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
