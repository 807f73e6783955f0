"""Tropical polynomials, Newton polytopes, hypersurfaces, and PTrop.

Everything here is min-plus: a term (e, v) contributes v + <e, x> and the
polynomial evaluates to the minimum over its terms.  The tropical
hypersurface is the locus where that minimum is achieved at least twice; its
cells are enumerated exactly, each with the achieving term set and an affine
H-description.

The projective tropicalization of a principal germ (the set of limit
directions of coordinatewise -log absolute values along the germ) is
computed by two independent exact routes that a theorem makes equal:

  * normal-fan route: normal cones of the positive-dimensional faces of the
    Newton polytope, intersected with the nonnegative orthant and kept when
    they meet the open positive orthant;
  * recession route: recession cones of the tropical hypersurface cells,
    filtered the same way.

Both routes return the same canonical cone sets because the recession cone
of the cell with achiever set S equals the normal cone of the smallest face
of the Newton polytope containing S, every positive-dimensional face arises
this way from some nonempty cell, and the filter is applied identically.
The numeric sampling oracle lives in the sampling module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from . import _linalg as la
from ._polyhedra import affine_dim, polyhedron_info
from .errors import (
    BoundViolation,
    DimensionMismatch,
    OriginNotOnGerm,
    RankCap,
)
from .fans import Fan, fan_from_cones
from .lattice import (
    RANK_CAP,
    Cone,
    _cone_from_halfspaces,
    cone_intersect,
    face_lattice,
    make_cone,
    positive_orthant,
)

IVec = tuple[int, ...]

PTROP_ORDER_BOUND = (1, 1, 2, 2, 3, 3, 3)  # claimed bound g(d) for d = 1..7


@dataclass(frozen=True)
class TropicalPolynomial:
    """A min-plus polynomial: terms map exponents to rational valuations."""

    n: int
    terms: tuple[tuple[IVec, Fraction], ...]
    convention: str = "min-plus"

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


def trop_eval(f: TropicalPolynomial, x: Sequence
              ) -> tuple[Fraction, tuple[IVec, ...]]:
    """Min-plus value at x together with the set of achieving exponents."""
    if len(x) != f.n:
        raise DimensionMismatch(
            f"point has length {len(x)}, polynomial has {f.n} variables")
    xs = [Fraction(c) for c in x]
    best = None
    achievers: list[IVec] = []
    for e, v in f.terms:
        val = v + sum(c * xc for c, xc in zip(e, xs))
        if best is None or val < best:
            best, achievers = val, [e]
        elif val == best:
            achievers.append(e)
    return best, tuple(achievers)


# -- Newton polytopes and normal fans ---------------------------------------


@dataclass(frozen=True)
class NewtonPolytope:
    """Convex hull of the exponents, remembering the valuation lift."""

    n: int
    vertices: tuple[IVec, ...]
    lifts: tuple[tuple[IVec, Fraction], ...]

    @property
    def dim(self) -> int:
        return affine_dim(self.vertices)


def newton_polytope(f: TropicalPolynomial) -> NewtonPolytope:
    """Exact hull of the exponent set."""
    lifted = make_cone([e + (1,) for e in f.exponents], n=f.n + 1,
                       check_rank=False)
    vertices = tuple(sorted(r[:-1] for r in lifted.rays))
    return NewtonPolytope(f.n, vertices, f.terms)


def polytope_faces(p: NewtonPolytope) -> tuple[tuple[IVec, ...], ...]:
    """All nonempty faces as vertex tuples (the polytope itself included)."""
    lifted = make_cone([v + (1,) for v in p.vertices], n=p.n + 1,
                       check_rank=False)
    faces = face_lattice(p.vertices, [(a[:-1], a[-1]) for a in lifted.facets])
    return tuple(sorted(tuple(sorted(fs)) for fs in faces))


def normal_cone(p: NewtonPolytope, face: Sequence[IVec]) -> Cone:
    """Directions minimized exactly on the given face (min convention)."""
    v0 = face[0]
    eqs = [la.vec_sub(v, v0) for v in face[1:]]
    ineqs = [la.vec_sub(u, v0) for u in p.vertices]
    return _cone_from_halfspaces(eqs, ineqs, p.n)


def normal_fan(p: NewtonPolytope) -> Fan:
    """Complete fan of vertex normal cones."""
    cones = [normal_cone(p, (v,)) for v in p.vertices]
    return fan_from_cones(cones, p.n)


# -- tropical hypersurfaces -------------------------------------------------


@dataclass(frozen=True)
class TropCell:
    """One cell: locus where exactly the achiever terms attain the minimum."""

    achievers: tuple[IVec, ...]
    equations: tuple[tuple[IVec, Fraction], ...]
    inequalities: tuple[tuple[IVec, Fraction], ...]
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


def _cell_rows(f: TropicalPolynomial, subset: frozenset):
    """H-description rows for the locus with achievers >= subset."""
    idx = sorted(subset)
    s0 = idx[0]
    e0, v0 = f.terms[s0]
    eqs = [(la.vec_sub(f.terms[s][0], e0), f.terms[s][1] - v0)
           for s in idx[1:]]
    ineqs = [(la.vec_sub(f.terms[t][0], e0), f.terms[t][1] - v0)
             for t in range(len(f.terms)) if t not in subset]
    return eqs, ineqs


def trop_hypersurface(f: TropicalPolynomial) -> TropicalHypersurface:
    """Enumerate all cells exactly, keyed by saturated achiever sets."""
    m = len(f.terms)
    if m == 1:
        return TropicalHypersurface(f.n, ())
    exp_index = {e: i for i, (e, _) in enumerate(f.terms)}
    cells: dict[frozenset, TropCell] = {}
    dead: set[frozenset] = set()
    queue = deque(frozenset(p) for p in combinations(range(m), 2))
    while queue:
        seed = queue.popleft()
        if seed in cells or seed in dead:
            continue
        eqs, ineqs = _cell_rows(f, seed)
        info = polyhedron_info(eqs, ineqs, f.n)
        if info is None:
            dead.add(seed)
            continue
        _, achieved = trop_eval(f, info.relint_point)
        sat = frozenset(exp_index[e] for e in achieved)
        if seed != sat:
            dead.add(seed)
            if sat in cells:
                continue
            eqs, ineqs = _cell_rows(f, sat)
            info = polyhedron_info(eqs, ineqs, f.n)
        elif sat in cells:
            continue
        cells[sat] = TropCell(
            achievers=tuple(sorted(f.terms[i][0] for i in sat)),
            equations=tuple(eqs),
            inequalities=tuple(ineqs),
            dim=info.dim,
            relint_point=info.relint_point,
            recession=info.recession,
        )
        for t in range(m):
            if t not in sat:
                queue.append(sat | {t})
    ordered = sorted(cells.values(), key=lambda c: (c.dim, c.achievers))
    return TropicalHypersurface(f.n, tuple(ordered))


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
    """Meet with the nonnegative orthant; keep cones seeing the open orthant."""
    c = cone_intersect(cone, positive_orthant(cone.n))
    if c.dim == 0:
        return None
    if any(t == 0 for t in c.relint_point()):
        return None
    return c


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
    """PTrop via normal cones of positive-dimensional Newton faces."""
    _require_germ(f)
    p = newton_polytope(f)
    cones = [normal_cone(p, face) for face in polytope_faces(p)
             if affine_dim(face) >= 1]
    return _ptrop_set(f.n, cones)


def ptrop_recession(h: TropicalHypersurface) -> PTropSet:
    """PTrop via recession cones of the hypersurface cells."""
    return _ptrop_set(h.n, (cell.recession for cell in h.cells))


@dataclass(frozen=True)
class IdealPTrop:
    """Intersection of generator PTrop sets; exact only for tropical bases."""

    ptset: PTropSet
    upper_bound: bool


def ptrop_ideal(gens: Sequence[TropicalPolynomial],
                tropical_basis_asserted: bool = False) -> IdealPTrop:
    """Intersect the per-generator sets; flag the result unless asserted."""
    if not gens:
        raise ValueError("need at least one generator")
    sets = [ptrop_normal_fan(g) for g in gens]
    current = list(sets[0].cones)
    for s in sets[1:]:
        current = [cone_intersect(a, b) for a in current for b in s.cones]
    ptset = _ptrop_set(gens[0].n, current)
    return IdealPTrop(ptset, upper_bound=not tropical_basis_asserted
                      and len(gens) > 1)


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
                f"points, exceeding the claimed bound {bound}")
    return count
