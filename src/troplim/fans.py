"""Rational polyhedral fans: validation, refinement, and star splits.

A fan is stored by its maximal cones; faces are derived on demand.  Validity
means every pairwise intersection of stored cones is a common face of both.
One routine, ``_split``, does every star split: the barycentric and
toward-direction tower steps differ only in which cones they split and at
which rays.  It writes each join down with no conversion, its rays and
also its H-side, the equations and facets read off the split cone's
facets and ridges, and returns the subdivision witness, since it knows
which cone each join came from.

Validity is certified pair by pair from facet signs where they suffice, with
no conversion: the facet normals of each cone that are <= 0 on the other sum
to a u that is >= 0 on one cone and <= 0 on the other, so their meet lies in
u^⊥; when both cones have the same lines and meet u^⊥ in the same proper
face, that face is the meet (Fulton, *Introduction to Toric Varieties*,
1993, §1.2).  The signs are read from one sign table of all the cones:
each facet is evaluated once on each distinct ray and line and kept as
two bitmasks, where it is <= 0 and where it is 0, so the certificate of a
pair is a few mask operations and u is never formed.  Equal cones,
containments and the pairs the certificate leaves undecided, such as
opposite cones meeting only at 0 on whose rays the summed normals
vanish, get the full check: the meet is converted, and it is a face
of each cone exactly when ``lattice.locate`` finds it as the minimal face
holding its ray sum, so the messages and their order do not depend on the
certificate.  The same signs skip the refinement of a pair whose meet lies
in a facet and pick the facets that a star split joins to its ray.  Since
the cones of a valid fan meet in common faces, every maximal cone holding
a point gives the same minimal face, so ``Fan.locate`` keeps the first one
it finds.

Completeness and subdivision witnesses ask one question, whether some
cones of a valid fan tile a cone sigma holding them, and ``_tiled``
answers it by facet pairing off the same sign table: the cones, all of
sigma's dimension, tile it exactly when each of their facets is shared by
exactly two of them, or belongs to one only and lies in sigma's boundary,
where some facet of sigma vanishes on all of its rays (a standard walking
argument: their union is then closed and open in sigma off a
codimension-2 set).  A facet is the pair of masks of its rays and its
lines, so no facet is built as a cone.  A fan is complete when its
full-dimensional cones tile the whole space, which has no facet and so no
boundary; ``Fan.complete`` asks on first read, and ``validate_fan``
reads the answer off the sign table its axiom check built.  A
subdivision witness records the coarse cone that carries each fine cone.
``common_refinement`` knows its pieces' carriers, as ``_split`` does: a
full-dimensional piece lies in exactly one maximal cone of a valid pure
fan.  Containment is not enough (the refinement might cover only part of
a carrier), so the pieces must tile each carrier; a witness that fails is
None.

All constructors return canonical values (cones sorted by ray data), so
golden tests can compare fans directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from . import _linalg as la
from ._linalg import IVec, _cancel
from .errors import DimensionMismatch, ValidationError
from .lattice import (
    Cone,
    _face,
    cone_intersect,
    locate,
)


def _cone_key(c: Cone):
    """Deterministic sort key for cones, read with no conversion."""
    return (c.rays, c.lines)


@dataclass(frozen=True)
class FanReport:
    """Outcome of fan validation."""

    valid: bool
    complete: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones, which every constructor sorts by
    ``_cone_key`` and readers keep in order; construct via fan_from_cones."""

    n: int
    maximal: tuple[Cone, ...]

    @cached_property
    def complete(self) -> bool:
        return _is_complete(self.maximal)

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


def _tiled(rows, boundary) -> bool:
    """Do the cones of these ``_sign_table`` rows, cones of a valid fan
    with sigma's dimension that lie in sigma, tile it?  ``boundary`` holds
    the masks of sigma's facets, from sigma's row in the same table.  A
    facet of a cone is the pair of masks of its rays, those of the cone on
    which its normal vanishes, and of the cone's lines.  It must be shared
    by two of the cones, or belong to one and lie in sigma's boundary,
    where a facet of sigma vanishes on all of its rays."""
    count = Counter((zero & rays, lines)
                    for rays, lines, facets in rows for _, zero in facets)
    return all(k == 2 or k == 1 and any(z & r == r for _, z in boundary)
               for (r, _), k in count.items())


def _is_complete(maximal: Sequence[Cone], table: Optional[list] = None
                 ) -> bool:
    """Do the maximal cones of a valid fan tile the whole space, which has
    no boundary?  ``table`` is their ``_sign_table`` when it is built
    already."""
    return bool(maximal) and all(c.dim == maximal[0].n for c in maximal) \
        and _tiled(_sign_table(maximal) if table is None else table, ())


def _sign_table(cones: Sequence[Cone]) -> list[tuple[int, int, list]]:
    """One row per cone: its rays and its lines as bitmasks over the
    distinct rays and lines of all the cones, and for each of its facets
    the masks of those vectors on which the facet is <= 0 and is 0.  Each
    facet is evaluated once on each vector."""
    index: dict[IVec, int] = {}
    for c in cones:
        for v in c.rays + c.lines:
            index.setdefault(v, 1 << len(index))
    table = []
    for c in cones:
        facets = []
        for f in c.facets:
            le = zero = 0
            for v, bit in index.items():
                s = sum(map(mul, f, v))
                if s <= 0:
                    le |= bit
                    if not s:
                        zero |= bit
            facets.append((le, zero))
        table.append((sum(map(index.get, c.rays)),
                      sum(map(index.get, c.lines)), facets))
    return table


def _facing(a, b) -> list[int]:
    """The zero masks of a's facet normals that are <= 0 on b: on its rays,
    and 0 on its lines; a and b are rows of one ``_sign_table``.  Each
    normal puts a ∩ b in a proper face of a."""
    rays, lines, _ = b
    return [zero for le, zero in a[2]
            if rays & le == rays and lines & zero == lines]


def _separated(a, b) -> bool:
    """Is a ∩ b a proper face of both, by a facet-sign certificate?  a and
    b are rows of one ``_sign_table``.

    u, the sum of the normals ``_facing(a, b)`` minus those of
    ``_facing(b, a)``, is >= 0 on a and <= 0 on b, so a ∩ b lies in u^⊥.
    On a's rays every summand is >= 0 and on b's every one is <= 0, so u
    vanishes on a ray of either exactly where every summand does: in the
    AND of their zero masks, and u itself is never formed.  A cone meets
    u^⊥ in the face spanned by its lines and those rays, and when a and b
    have the same lines and those rays are the same proper subset of each,
    that face is a ∩ b (Fulton's separation lemma).  False leaves the pair
    undecided.
    """
    (rays_a, lines_a, _), (rays_b, lines_b, _) = a, b
    if lines_a != lines_b:
        return False
    vanish = -1
    for zero in _facing(a, b) + _facing(b, a):
        vanish &= zero
    on_a = rays_a & vanish
    return on_a == rays_b & vanish and \
        on_a.bit_count() < min(rays_a.bit_count(), rays_b.bit_count())


def _violations(cones: list[Cone]) -> tuple[list[str], Optional[list]]:
    """Every fan axiom the cones break, in the order checked, empty for a
    fan; and the cones' sign table, None when the check stops before it.
    The rank is the first cone's.

    A pair that ``_separated`` certifies from one sign table of all the
    cones is skipped; every other pair is intersected and its meet checked
    against both cones.
    """
    if not cones:
        return ["fan has no cones"], None
    n = cones[0].n
    violations = [f"cone {i} lives in rank {c.n}, expected {n}"
                  for i, c in enumerate(cones) if c.n != n]
    if violations:
        return violations, None
    table = _sign_table(cones)
    keys = [_cone_key(c) for c in cones]
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i], cones[j]
            if keys[i] == keys[j]:
                violations.append(f"cones {i} and {j} are equal")
                continue
            if _separated(table[i], table[j]):
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
    return violations, table


def validate_fan(cones: Sequence[Cone]) -> FanReport:
    """Check the fan axioms on a set of cones and report violations."""
    cones = list(cones)
    violations, table = _violations(cones)
    valid = not violations
    return FanReport(valid, valid and _is_complete(cones, table),
                     tuple(violations))


def _trusted_fan(cones: Iterable[Cone]) -> Fan:
    """Build a fan from pairwise unequal cones that satisfy the axioms."""
    cones = tuple(sorted(cones, key=_cone_key))
    return Fan(cones[0].n, cones)


def fan_from_cones(cones: Sequence[Cone]) -> Fan:
    """Validating fan constructor; raises ValidationError with the report."""
    cones = list(cones)
    # completeness is left to Fan.complete, on first read
    violations, _ = _violations(cones)
    if violations:
        raise ValidationError("; ".join(violations))
    return _trusted_fan(cones)


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
        if taus != [sigma]:
            (_, _, boundary), *rows = _sign_table([sigma, *taus])
            if not _tiled(rows, boundary):
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
    table = _sign_table(a.maximal + b.maximal)
    signs_a, signs_b = table[:len(a.maximal)], table[len(a.maximal):]
    # each meet with its carriers, keyed by its rays and lines
    carriers: dict[tuple, tuple[Cone, int, int]] = {}
    for i, (sa, ta) in enumerate(zip(a.maximal, signs_a)):
        for j, (sb, tb) in enumerate(zip(b.maximal, signs_b)):
            if _facing(ta, tb) or _facing(tb, ta):
                # the meet lies in a facet of one of them
                continue
            # an equal pair's meet is the cone itself, with no conversion
            m = sa if _cone_key(sa) == _cone_key(sb) else \
                cone_intersect(sa, sb)
            if m.dim == d:
                carriers[_cone_key(m)] = (m, i, j)
    if not carriers:
        raise ValidationError("fan supports have no full-dimensional overlap")
    over = [carriers[k] for k in sorted(carriers)]
    fan = Fan(a.n, tuple(m for m, _, _ in over))
    return fan, _tiles(fan, a, [i for _, i, _ in over]), \
        _tiles(fan, b, [j for _, _, j in over])


def _join(sigma: Cone, i: int, ray: IVec, values: Sequence[int]) -> Cone:
    """The join of sigma's facet F_i with a ray r of sigma off it, handed
    its H-side; r is reduced modulo sigma's lines and ``values[k]`` is
    f_k·r up to one positive factor for every k.

    The join is a pyramid over F_i with apex r, spanning sigma's span, so
    its equations are sigma's and its facets are F_i, with normal f_i, and
    the join of r with each facet F_i ∩ F_k of F_i, a ridge of sigma, with
    normal h = (f_i·r) f_k - (f_k·r) f_i: h vanishes on r and on the ridge
    and is (f_i·r) f_k >= 0 on F_i.  F_i ∩ F_k is a ridge exactly when no
    third facet vanishes on all of its rays (the combinatorial adjacency
    test on the dual side, Fukuda & Prodon 1996).  f_i and f_k are
    canonical modulo the equations, zero in their pivot columns, so h is
    too, and primitive it is canonical.  Each normal's mask marks the
    join's rays it vanishes on: F_i's rays for f_i, and r with the ridge's
    rays for h.
    """
    facets, masks = sigma.facets, sigma._dual[2]
    face = masks[i]
    rays = tuple(sorted(_face(sigma, face).rays + (ray,)))
    bit = {r: 1 << t for t, r in enumerate(rays)}
    normals = {facets[i]: (1 << len(rays)) - 1 - bit[ray]}
    for k, (f, mask) in enumerate(zip(facets, masks)):
        ridge = face & mask
        if k == i or any(m & ridge == ridge for t, m in enumerate(masks)
                         if t != i and t != k):
            continue
        h = _cancel(values[i], f, values[k], facets[i])
        normals[h] = bit[ray] | sum(bit[r] for t, r in enumerate(sigma.rays)
                                    if ridge >> t & 1)
    order = sorted(normals)
    join = Cone(sigma.n, rays, sigma.lines)
    join.__dict__["_dual"] = (sigma.equations, tuple(order),
                              tuple(map(normals.__getitem__, order)))
    return join


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
    those lines, sorted, with no conversion, and ``_join`` writes down its
    equations and facets.  A full-dimensional join lies in no other maximal
    cone of a valid fan, so its carrier is j; a cone left whole is its own.
    """
    # each piece with its carrier, keyed by its rays and lines
    carrier: dict[tuple, tuple[Cone, int]] = {}
    for j, sigma in enumerate(fan.maximal):
        ray = rays.get(j)
        # the ray lies in sigma, so in a facet exactly when its normal
        # vanishes on it
        values = [] if ray is None else [la.dot(f, ray) for f in sigma.facets]
        if not any(values):
            # no ray, or one in every facet and so in sigma's lineality
            # space (all of a cone with no facets): sigma is its own star
            carrier[_cone_key(sigma)] = (sigma, j)
            continue
        ray = la.canonical_mod(ray, sigma.lines)
        for i, value in enumerate(values):
            if value:
                join = _join(sigma, i, ray, values)
                carrier[_cone_key(join)] = (join, j)
    pieces = [carrier[k] for k in sorted(carrier)]
    return Fan(fan.n, tuple(c for c, _ in pieces)), \
        SubdivisionWitness(tuple(j for _, j in pieces))
