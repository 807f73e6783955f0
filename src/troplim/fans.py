"""Rational polyhedral fans: validation, refinement, and star splits.

A fan is stored by its maximal cones; faces are derived on demand.  Validity
means every pairwise intersection of stored cones is a common face of both.
Completeness is certified by facet pairing: a valid fan of full-dimensional
cones covers the whole space exactly when every facet of every maximal cone
is shared with exactly one other maximal cone (the support is then closed and
open off a codimension-2 set, hence everything).  Both criteria are exact
integer computations.  ``Fan.complete`` runs the pairing on first read.  One
routine, ``_split``, does every star split: the barycentric and
toward-direction tower steps differ only in which cones they split and at
which rays.  It writes each join down from its rays, with no conversion,
and returns the subdivision witness, since it knows which cone each join
came from.

Validity is certified pair by pair from facet signs where they suffice, with
no conversion: the facet normals of each cone that are <= 0 on the other sum
to a u that is >= 0 on one cone and <= 0 on the other, so their meet lies in
u^⊥; when both cones have the same lines and meet u^⊥ in the same proper
face, that face is the meet (Fulton, *Introduction to Toric Varieties*,
1993, §1.2).  Equal cones, containments and the pairs the certificate leaves
undecided, such as opposite cones meeting only at 0 on whose rays the summed
normals vanish, get the full check: the meet is converted, and it is a face
of each cone exactly when ``lattice.locate`` finds it as the minimal face
holding its ray sum, so the messages and their order do not depend on the
certificate.  The same signs skip the refinement of a pair whose meet lies
in a facet, decide whether a facet lies in a carrier's facet, and pick the
facets that a star split joins to its ray.  Since the cones of a valid fan
meet in common faces, every maximal cone holding a point gives the same
minimal face, so ``Fan.locate`` keeps the first one it finds.

A subdivision witness records the coarse cone that carries each fine
cone.  ``common_refinement`` knows its pieces' carriers, as ``_split``
does: a full-dimensional piece lies in exactly one maximal cone of a valid
pure fan.  Containment is not enough (the refinement might cover only part
of a carrier), so it checks each witness by relative facet pairing inside
each carrier: every facet of a fine cone must either be shared with a
sibling in the same carrier or lie inside a facet of the carrier itself.  A
standard walking argument shows this is equivalent to the fine cones tiling
the carrier exactly; a witness that fails is None.

All constructors return canonical values (cones sorted by ray data), so
golden tests can compare fans directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from . import _linalg as la
from .errors import DimensionMismatch, ValidationError
from .lattice import (
    Cone,
    _face,
    cone_intersect,
    locate,
)

IVec = tuple[int, ...]


def _cone_key(c: Cone):
    """Deterministic sort key for cones, read with no conversion."""
    return (c.rays, c.lines)


def facet_cones(c: Cone) -> tuple[Cone, ...]:
    """The codimension-1 faces of a cone, one per facet normal."""
    return tuple(_face(c, (f,)) for f in c.facets)


@dataclass(frozen=True)
class FanReport:
    """Outcome of fan validation."""

    valid: bool
    complete: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones; construct via fan_from_cones."""

    n: int
    maximal: tuple[Cone, ...]

    @cached_property
    def complete(self) -> bool:
        return _is_complete(self.maximal, self.n)

    @property
    def rays(self) -> tuple[IVec, ...]:
        """Sorted primitive ray directions appearing in the maximal cones."""
        return tuple(sorted({r for c in self.maximal for r in c.rays}))

    @property
    def dim(self) -> int:
        return max(c.dim for c in self.maximal)

    @property
    def is_pure(self) -> bool:
        return len({c.dim for c in self.maximal}) == 1

    def locate(self, point, among: Optional[Iterable[int]] = None
               ) -> tuple[Optional[Cone], list[int]]:
        """The carrier of the point, the minimal cone of the fan containing
        it (None outside), and the indices of the maximal cones holding it;
        the point is a rational vector or a ``towers.SymbolicVector``.

        ``among`` limits the search to the maximal cones of those indices,
        which must include every one holding the point.  Each is located
        once, and the first face found is the carrier: the cones of a valid
        fan meet in common faces, so the minimal face holding the point is
        the same cone in every holder.
        """
        carrier, holding = None, []
        for j in range(len(self.maximal)) if among is None else among:
            face = locate(self.maximal[j], point)
            if face is not None:
                holding.append(j)
                if carrier is None:
                    carrier = face
        return carrier, holding


def _pair_facets(maximal: Sequence[Cone]):
    """Each facet cone of the given cones with the number sharing it."""
    pairs: dict = {}
    for c in maximal:
        for f in facet_cones(c):
            pairs.setdefault((f.rays, f.lines), [0, f])[0] += 1
    return pairs.values()


def _is_complete(maximal: Sequence[Cone], n: int) -> bool:
    """Facet-pairing completeness test for a valid fan."""
    if not maximal:
        return False
    if any(c.dim != n for c in maximal):
        return False
    if n == 0:
        return True
    return all(k == 2 for k, _ in _pair_facets(maximal))


def _facing(a: Cone, b: Cone) -> list[IVec]:
    """a's facet normals that are <= 0 on b: on its rays, and 0 on its lines.
    Each one puts a ∩ b in a proper face of a."""
    return [f for f in a.facets
            if all(sum(map(mul, f, r)) <= 0 for r in b.rays)
            and not any(sum(map(mul, f, l)) for l in b.lines)]


def _separated(a: Cone, b: Cone) -> bool:
    """Is a ∩ b a proper face of both, by a facet-sign certificate?

    u, the sum of ``_facing(a, b)`` minus that of ``_facing(b, a)``, is
    >= 0 on a and <= 0 on b, so a ∩ b lies in u^⊥.  Each summand has one
    sign on each cone, so a cone meets u^⊥ in the face spanned by its lines
    and the rays on which u vanishes.  When a and b have the same lines and
    those rays are the same proper subset of each, that face is a ∩ b
    (Fulton's separation lemma).  False leaves the pair undecided.
    """
    if a.lines != b.lines:
        return False
    u = [0] * a.n
    for f in _facing(a, b):
        u = [x + y for x, y in zip(u, f)]
    for g in _facing(b, a):
        u = [x - y for x, y in zip(u, g)]
    on_a = tuple(r for r in a.rays if not sum(map(mul, u, r)))
    return on_a == tuple(r for r in b.rays if not sum(map(mul, u, r))) and \
        len(on_a) < min(len(a.rays), len(b.rays))


def _violations(cones: list[Cone], n: Optional[int]) -> list[str]:
    """Every fan axiom the cones break, in the order checked; empty for a fan.

    A pair that ``_separated`` certifies is skipped; every other pair is
    intersected and its meet checked against both cones.
    """
    if not cones:
        return ["fan has no cones"]
    violations = [f"cone {i} lives in rank {c.n}, expected {n}"
                  for i, c in enumerate(cones) if c.n != n]
    if violations:
        return violations
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i], cones[j]
            if a == b:
                violations.append(f"cones {i} and {j} are equal")
                continue
            if _separated(a, b):
                continue
            m = cone_intersect(a, b)
            if m == a or m == b:
                violations.append(f"cone {i if m == a else j} is contained "
                                  f"in cone {j if m == a else i}")
                continue
            # m lies in both, so it is a face of each exactly when it is the
            # minimal face holding its relative interior point
            p = m.relint_point()
            if not (locate(a, p) == m and locate(b, p) == m):
                violations.append(
                    f"cones {i} and {j} intersect in {m.rays} + lines "
                    f"{m.lines}, not a common face")
    return violations


def validate_fan(cones: Sequence[Cone], n: Optional[int] = None) -> FanReport:
    """Check the fan axioms on a set of cones and report violations."""
    cones = list(cones)
    if cones and n is None:
        n = cones[0].n
    violations = _violations(cones, n)
    valid = not violations
    return FanReport(valid, valid and _is_complete(cones, n),
                     tuple(violations))


def _trusted_fan(cones: Sequence[Cone], n: int) -> Fan:
    """Build a fan from cones known to satisfy the axioms."""
    return Fan(n, tuple(sorted(set(cones), key=_cone_key)))


def fan_from_cones(cones: Sequence[Cone], n: Optional[int] = None) -> Fan:
    """Validating fan constructor; raises ValidationError with the report."""
    cones = list(cones)
    if cones and n is None:
        n = cones[0].n
    # completeness is left to Fan.complete, on first read
    violations = _violations(cones, n)
    if violations:
        raise ValidationError("; ".join(violations))
    return _trusted_fan(cones, n)


# -- subdivision ------------------------------------------------------------


@dataclass(frozen=True)
class SubdivisionWitness:
    """Carrier assignment certifying that a fine fan subdivides a coarse
    one: the index of the coarse cone holding each fine maximal cone."""

    carrier: tuple[int, ...]

    def children(self, coarse: Iterable[int]) -> list[int]:
        """Indices of the fine cones carried by the given coarse cones."""
        coarse = set(coarse)
        return [i for i, j in enumerate(self.carrier) if j in coarse]


def _tiles(fine: Fan, coarse: Fan, carrier: Sequence[int]
           ) -> Optional[SubdivisionWitness]:
    """The witness of a carrier assignment, each fine cone in the coarse
    cone of its index, or None when the fine cones do not tile every coarse
    cone.  A carrier tiled by itself alone needs no facet pairing."""
    groups: dict[int, list[Cone]] = {}
    for i, j in enumerate(carrier):
        groups.setdefault(j, []).append(fine.maximal[i])
    if len(groups) != len(coarse.maximal):
        return None
    for j, taus in groups.items():
        sigma = coarse.maximal[j]
        if taus == [sigma]:
            continue
        for count, f in _pair_facets(taus):
            if count == 2:
                continue
            if count > 2:
                return None
            # f lies in sigma, so in the facet of a normal vanishing on it
            gens = f.rays + f.lines
            if not any(all(la.dot(g, x) == 0 for x in gens)
                       for g in sigma.facets):
                return None
    return SubdivisionWitness(tuple(carrier))


def common_refinement(a: Fan, b: Fan) -> tuple[
        Fan, Optional[SubdivisionWitness], Optional[SubdivisionWitness]]:
    """Coarsest fan refining both, from full-dimensional pairwise meets,
    with its witness over a and over b; None over a fan whose support the
    other does not cover.  A full-dimensional meet of a's cone i and b's
    cone j lies in no other maximal cone of either, so i and j are its
    carriers."""
    if a.n != b.n:
        raise DimensionMismatch(f"fans live in ranks {a.n} and {b.n}")
    if not (a.is_pure and b.is_pure and a.dim == b.dim):
        raise ValidationError("common refinement needs pure fans of equal "
                              "dimension")
    d = a.dim
    carriers: dict[Cone, tuple[int, int]] = {}
    for i, sa in enumerate(a.maximal):
        for j, sb in enumerate(b.maximal):
            if _facing(sa, sb) or _facing(sb, sa):
                # the meet lies in a facet of one of them
                continue
            m = cone_intersect(sa, sb)
            if m.dim == d:
                carriers[m] = (i, j)
    if not carriers:
        raise ValidationError("fan supports have no full-dimensional overlap")
    fan = _trusted_fan(carriers, a.n)
    over = [carriers[c] for c in fan.maximal]
    return fan, _tiles(fan, a, [i for i, _ in over]), \
        _tiles(fan, b, [j for _, j in over])


def _split(fan: Fan, rays: dict[int, IVec]
           ) -> tuple[Fan, SubdivisionWitness]:
    """Replace each maximal cone j in ``rays``, which must hold the
    primitive ray ``rays[j]``, by the joins of its facets missing that ray
    with it; a cone with no such facet holds the ray in its lineality space
    and stays whole.  Returns the new fan and its witness over ``fan``.

    The normal f of a facet F missing the ray r is >= 0 on F + r and
    vanishes on it exactly along F, so F is a face of the join and r the one
    generator off f^⊥.  The join lies in sigma and holds its lines, so its
    lines are sigma's: its canonical rays are F's rays and r reduced modulo
    those lines, sorted, with no conversion.  A full-dimensional join lies
    in no other maximal cone of a valid fan, so its carrier is j; a cone
    left whole is its own.
    """
    carrier: dict[Cone, int] = {}
    for j, sigma in enumerate(fan.maximal):
        ray = rays.get(j)
        # the ray lies in sigma, so in a facet exactly when its normal
        # vanishes on it
        missing = [] if ray is None else [
            f for f in sigma.facets if la.dot(f, ray) != 0]
        if not missing:
            # no ray, or one in every facet and so in sigma's lineality
            # space (all of a cone with no facets): sigma is its own star
            carrier[sigma] = j
            continue
        # the canonical representative of the ray modulo the lines: each
        # RREF line pivots on its first nonzero entry
        pivots = [next(i for i, a in enumerate(l) if a) for l in sigma.lines]
        ray = la.primitivize(la.reduce_prepared(ray, sigma.lines, pivots))
        for f in missing:
            face = _face(sigma, (f,)).rays
            carrier[Cone(fan.n, tuple(sorted(face + (ray,))), sigma.lines)] = j
    maximal = tuple(sorted(carrier, key=_cone_key))
    return Fan(fan.n, maximal), \
        SubdivisionWitness(tuple(carrier[c] for c in maximal))
