"""Hand-built inputs and small references for the tests.

None of these is reached by the library.  The complexes (a point, a
segment, a triangle, the square as two triangles, the boundary and the
solid tetrahedron, the torus of two triangles) are what the tests
subdivide, map and compare, their dict form is what complex files hold,
and its ``json.dumps`` text is what `io.canonical_json` must write.  The
m-cycle with its names formatted per cell and validated by
``make_complex`` is the reference for ``cycle_complex``.  A rational
vector is the plain case of a symbolic direction, and
``fraction_enclosure`` bounds a symbolic combination in Fractions, the
reference for the integer enclosure of ``SymbolicVector``.  The incidences of a
cycle of rational curves and of a nodal cubic, with the collapse of an
analytic dual complex to its algebraic one, build the dual-complex
examples.  The Newton polytope and
its normal fan, a stellar subdivision at one ray, the complete rank-2
fan of a ray set and the carrier search ``is_subdivision`` are the
references that the exact routes, the split steps, the refinement
witnesses and the randomized fan suites compare against or build from.
``fresh_chain_toward`` walks a tower from its first level whatever
extending it found, the reference for the chain that reuses those carriers.
Facet pairing over facet cones built one by one (``facet_cones``), with
every boundary sign evaluated (``pair_facets``, ``is_complete`` and
``tiles``), is the reference for the fan layer's one tiling check, which
reads its facets off a sign table's masks.
The facet-sign certificate with every sign evaluated (``facing``,
``separated`` and ``certified_refinement``) is the reference for the
sign tables of fan validation and refinement.  Cones with lines, which
the library reads off half-spaces only, come from ``make_cone``, which
converts twice, the second time in ``from_dual``: the reference for the
one conversion of ``lattice.cone_from_generators``;
``cone_is_face``, which evaluates its own rows, is the reference that
``lattice.locate`` finds faces against, and ``label`` reads the angle of
a galaxy vertex off its name.  ``face_lattice`` walks the faces of a
vertex set with rows evaluated on it, the reference for the library's
walk over conversion masks, and ``unpruned_conversion`` is the
conversion engine with no bound on its pairs, each ray's mask read off
by evaluation.
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import mul

from troplim import _linalg as la
from troplim._linalg import IVec
from troplim import fans, lattice
from troplim.complexes import (
    ComplexMap,
    DeltaComplex,
    StrataIncidence,
    induced_map,
    make_complex,
    make_incidence,
)
from troplim.errors import (
    DimensionMismatch,
    IncoherentIncidence,
    OutsideSupport,
    TropLimError,
    ValidationError,
    ZeroVector,
)
from troplim.fans import Fan, fan_from_cones
from troplim.lattice import (
    Cone,
    cone_holds,
    halfspaces_to_generators,
)
from troplim.towers import ConeChain, SymbolicVector, symbolic_vector
from troplim.tropical import TropicalPolynomial


def component_ratio(fine: DeltaComplex, coarse: DeltaComplex) -> Fraction:
    """Ratio of top-cell counts; N^m for an N-fold subdivision in dim m."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch(
            f"top dimensions differ: {fine.dim} vs {coarse.dim}")
    d = fine.dim
    return Fraction(len(fine.by_dim(d)), len(coarse.by_dim(d)))


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


def torus() -> DeltaComplex:
    """The torus R^2/Z^2 as a Δ-complex: one vertex, three loop edges a, b,
    c (the sides and the diagonal of the unit square) and two triangles;
    level N subdivides it into N^2 vertices, 3N^2 edges and 2N^2
    triangles."""
    return make_complex([
        ("v", []), ("a", ["v", "v"]), ("b", ["v", "v"]), ("c", ["v", "v"]),
        ("T0", ["b", "c", "a"]), ("T1", ["a", "c", "b"]),
    ])


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


def serialize_complex(x: DeltaComplex) -> dict:
    """The dict form of a complex in the input schema: what complex files
    hold, and the reference for `io.canonical_json` of a complex."""
    return {
        "cells": [{"name": c.name, "faces": list(c.faces)} for c in x.cells],
        "affine": x.affine,
        "provenance": x.provenance,
    }


def json_reference(obj) -> str:
    """The text `io.canonical_json` must write for obj."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cycle_reference(m: int) -> DeltaComplex:
    """The m-cycle with each name formatted per cell, through make_complex."""
    return make_complex([(f"v{i}", []) for i in range(m)] +
                        [(f"e{i}", [f"v{(i + 1) % m}", f"v{i}"])
                         for i in range(m)])


def rational_vector(v) -> SymbolicVector:
    """SymbolicVector wrapper around an ordinary rational vector."""
    return symbolic_vector(list(v))


def fraction_enclosure(row, symbols) -> tuple[Fraction, Fraction]:
    """The interval of the combination whose coefficients of 1 and of each
    symbol are ``row``, over the symbols' boxes, in Fractions."""
    lo = hi = Fraction(row[0])
    for c, s in zip(row[1:], symbols):
        a, b = sorted((c * s.lo, c * s.hi))
        lo, hi = lo + a, hi + b
    return lo, hi


# -- incidences and their dual complexes ------------------------------------


class MissingProvenance(TropLimError):
    """The complex does not carry the incidence data needed for this operation."""


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
    collapsed = make_complex([(c.name, c.faces) for c in kept],
                             provenance="algebraic")
    images = {c.name: (c.name, tuple(range(c.dim + 1))) for c in kept}
    for c in loops:
        images[c.name] = (c.faces[0], (0, 0))
    mapping = induced_map(
        x, collapsed, {v.name: v.name for v in x.by_dim(0)}, images)
    return collapsed, mapping


# -- cones -------------------------------------------------------------------


def cone_from_halfspaces(equations, inequalities, n: int) -> Cone:
    """The cone {x : E x = 0, A x >= 0}, converted once."""
    lines, rays, _ = halfspaces_to_generators(equations, inequalities, n)
    return Cone(n, rays, lines)


def make_cone(generators, n=None, lines=()) -> Cone:
    """The cone spanned by generators and lines, which the library builds
    only from half-spaces: the dual's (lines, rays) first, then the cone
    from them, which is handed its dual.  Zero generators span nothing."""
    gens = [tuple(int(a) for a in g) for g in generators]
    lns = [tuple(int(a) for a in g) for g in lines]
    if n is None:
        n = len((gens + lns)[0])
    dual_lines, facets, _ = halfspaces_to_generators(lns, gens, n)
    return from_dual(dual_lines, facets, n)


def from_dual(dual_lines, facets, n: int) -> Cone:
    """The cone whose dual has these canonical (lines, rays), by a second
    conversion.  Those depend only on the cone, so they are its H-side as a
    later read would convert it; the cone is handed them, with each
    facet's mask over the rays transposed from each ray's mask over the
    facets, as the cone's own conversion would give it.  Generators to
    facets and back through ``from_dual`` is the two-conversion reference
    for ``lattice.cone_from_generators``, which reads the rays off the
    first conversion's masks."""
    lines, rays, on_facets = halfspaces_to_generators(dual_lines, facets, n)
    cone = Cone(n, rays, lines)
    cone.__dict__["_dual"] = (
        tuple(dual_lines), tuple(facets),
        tuple(sum(1 << i for i, m in enumerate(on_facets) if m >> k & 1)
              for k in range(len(facets))))
    return cone


def cone_is_face(face: Cone, cone: Cone) -> bool:
    """Is ``face`` a face of ``cone``?  The facets of ``cone`` vanishing on
    ``face`` cut out a face of ``cone``, and ``face`` must be that one: the
    reference for ``locate(cone, face.relint_point()) == face``."""
    if face.n != cone.n:
        raise DimensionMismatch(f"ambient ranks differ: {face.n} vs {cone.n}")
    gens = face.rays + face.lines
    active = [f for f in cone.facets if all(la.dot(f, g) == 0 for g in gens)]
    rays = tuple(r for r in cone.rays
                 if all(la.dot(f, r) == 0 for f in active))
    return Cone(cone.n, rays, cone.lines) == face


def face_lattice(vertices, rows, keep=None) -> dict[int, tuple[int, ...]]:
    """``lattice.face_lattice`` with each row's seed evaluated: ``rows`` are
    affine (coefficients, constant) rows nonnegative on the distinct
    vertices, and row k's seed holds the vertices on which it vanishes."""
    seeds = [sum(1 << i for i, v in enumerate(vertices)
                 if la.dot(coeffs, v) + const == 0)
             for coeffs, const in rows]
    full = (1 << len(vertices)) - 1
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


def unpruned_conversion(equations, inequalities, n: int):
    """``lattice.halfspaces_to_generators`` as its engine ran before the
    pair bound: every pair of rays goes to the adjacency test.  Unlike the
    engine, which adds every row as given, it still drops zero and repeated
    rows and reads each ray's mask off by evaluating every inequality on
    it, so it stays independent of the engine's own masks."""
    rows = [(a, True) for a in dict.fromkeys(map(la.primitivize, equations))]
    rows += [(a, False)
             for a in dict.fromkeys(map(la.primitivize, inequalities))]
    rows = [(a, is_eq) for a, is_eq in rows if not la.is_zero_vec(a)]
    lines = la.identity_rows(n)
    rays, tight = [], []
    for k, (a, is_eq) in enumerate(rows):
        bit = 1 << k
        on_lines = [sum(map(mul, a, l)) for l in lines]
        j = next((j for j, s in enumerate(on_lines) if s), None)
        if j is not None:
            s = on_lines.pop(j)
            l = lines.pop(j)
            if s < 0:
                s, l = -s, tuple(-x for x in l)
            lines = [la._cancel(s, u, t, l) if t else u
                     for u, t in zip(lines, on_lines)]
            on_rays = [sum(map(mul, a, r)) for r in rays]
            rays = [la._cancel(s, r, t, l) if t else r
                    for r, t in zip(rays, on_rays)]
            tight = [m | bit for m in tight]
            if not is_eq:
                rays.append(l)
                tight.append(bit - 1)
            continue
        values = [sum(map(mul, a, r)) for r in rays]
        new_rays, new_tight = [], []
        for p, sp in enumerate(values):
            if sp <= 0:
                continue
            for q, sq in enumerate(values):
                if sq >= 0:
                    continue
                common = tight[p] & tight[q]
                if any(m & common == common and i != p and i != q
                       for i, m in enumerate(tight)):
                    continue
                new_rays.append(la._cancel(sp, rays[q], sq, rays[p]))
                new_tight.append(common | bit)
        keep = [i for i, s in enumerate(values) if s >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | bit if values[i] == 0 else tight[i]
                 for i in keep] + new_tight
    lines = la.rref(lines)[0]
    reduced = {la.canonical_mod(r, lines) for r in rays}
    rays = sorted(r for r in reduced if not la.is_zero_vec(r))
    masks = [sum(1 << j for j, a in enumerate(inequalities)
                 if la.dot(a, r) == 0) for r in rays]
    return tuple(lines), tuple(rays), tuple(masks)


# -- galaxy labels -----------------------------------------------------------


class UnknownStratum(TropLimError):
    """No vertex with the requested name."""


def label(m: int, vertex: str) -> Fraction:
    """The angle j/m of the vertex ``v{j}`` of the m-cycle, the circle of
    an I_m degeneration, j in canonical decimal, read off the name."""
    j, size = vertex[1:], str(m)
    # canonical decimals (no leading zero) compare as numbers do by
    # (length, digits), so j < m is read without parsing a long name
    if vertex[:1] == "v" and j.isascii() and j.isdigit() and \
            (j == "0" or j[0] != "0") and (len(j), j) < (len(size), size):
        return Fraction(int(j), m)
    raise UnknownStratum(f"no vertex named {vertex!r}")


# -- Newton polytopes and normal fans ---------------------------------------


def _minus(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def affine_dim(points) -> int:
    """Affine dimension of a nonempty point set."""
    p0 = points[0]
    return la.mat_rank([_minus(p, p0) for p in points[1:]])


@dataclass(frozen=True)
class NewtonPolytope:
    """Convex hull of the exponents."""

    n: int
    vertices: tuple[IVec, ...]

    @property
    def dim(self) -> int:
        return affine_dim(self.vertices)


def newton_polytope(f: TropicalPolynomial) -> NewtonPolytope:
    """Exact hull of the exponent set."""
    lifted = make_cone([e + (1,) for e in f.exponents], n=f.n + 1)
    vertices = tuple(sorted(r[:-1] for r in lifted.rays))
    return NewtonPolytope(f.n, vertices)


def normal_cone(p: NewtonPolytope, face) -> Cone:
    """Directions minimized exactly on the given face (min convention)."""
    v0 = face[0]
    eqs = [_minus(v, v0) for v in face[1:]]
    ineqs = [_minus(u, v0) for u in p.vertices]
    return cone_from_halfspaces(eqs, ineqs, p.n)


def normal_fan(p: NewtonPolytope) -> Fan:
    """Complete fan of vertex normal cones."""
    cones = [normal_cone(p, (v,)) for v in p.vertices]
    return fan_from_cones(cones)


# -- fans -------------------------------------------------------------------


def stellar_subdivision(fan: Fan, ray) -> Fan:
    """Split every cone containing the ray along it, leaving the rest."""
    r = la.primitivize(ray)
    if len(r) != fan.n:
        raise DimensionMismatch(f"ray has rank {len(r)}, fan has rank {fan.n}")
    holding = {j: r for j, sigma in enumerate(fan.maximal)
               if cone_holds(sigma, [r])}
    if not holding:
        raise ValidationError(f"ray {r} lies outside the fan support")
    return fans._split(fan, holding)[0]


def is_subdivision(fine: Fan, coarse: Fan):
    """The witness that every coarse cone is tiled by fine cones, or None,
    by search: a fine cone's carrier is the first coarse cone containing
    it.  A fine cone equal to a coarse cone is its own, looked up by value
    (in a valid fan no maximal cone lies in another, so a scan finds the
    same)."""
    if fine.n != coarse.n:
        raise DimensionMismatch(
            f"fans live in ranks {fine.n} and {coarse.n}")
    if not (fine.is_pure and coarse.is_pure and fine.dim == coarse.dim):
        return None
    index = {(sigma.rays, sigma.lines): j
             for j, sigma in enumerate(coarse.maximal)}
    carrier = []
    for tau in fine.maximal:
        found = index.get((tau.rays, tau.lines))
        if found is None:
            found = next((j for j, sigma in enumerate(coarse.maximal)
                          if cone_holds(sigma, tau.rays, tau.lines)), None)
            if found is None:
                return None
        carrier.append(found)
    return tiles(fine, coarse, carrier)


def fresh_chain_toward(t, x: SymbolicVector):
    """``towers.chain_toward`` as one whole walk, with no carrier kept from
    extending the tower: x is located on every level, among the witness
    children of the cones holding it one level up."""
    if x.is_zero:
        raise ZeroVector("cannot chase the zero direction")
    cones, holding = [], None
    for i, fan in enumerate(t.fans):
        among = None if holding is None else \
            t.witnesses[i - 1].children(holding)
        carrier, holding = fan.locate(x, among)
        if carrier is None:
            raise OutsideSupport(
                f"direction lies outside the level-{i} support")
        cones.append(carrier)
    return ConeChain(tuple(cones))


def facet_cones(c: Cone) -> tuple[Cone, ...]:
    """The codimension-1 faces of a cone, one per facet normal, each built
    as a cone from its facet's mask."""
    return tuple(lattice._face(c, mask) for mask in c._dual[2])


def pair_facets(cones):
    """Each facet cone of the given cones with the number sharing it."""
    pairs = {}
    for c in cones:
        for f in facet_cones(c):
            pairs.setdefault((f.rays, f.lines), [0, f])[0] += 1
    return pairs.values()


def is_complete(maximal, n) -> bool:
    """``fans._is_complete`` as facet pairing alone: a valid fan of
    full-dimensional cones is complete when every facet is shared by
    exactly two of them, and a rank-0 fan of the zero cone is."""
    if not maximal or any(c.dim != n for c in maximal):
        return False
    return n == 0 or all(k == 2 for k, _ in pair_facets(maximal))


def tiles(fine: Fan, coarse: Fan, carrier):
    """``fans._tiles`` with each facet of a fine cone that no sibling
    shares tested against the carrier's facets by evaluation: it lies in
    the carrier's boundary when some facet normal vanishes on all of its
    rays and lines."""
    groups = {}
    for i, j in enumerate(carrier):
        groups.setdefault(j, []).append(fine.maximal[i])
    if len(groups) != len(coarse.maximal):
        return None
    for j, taus in groups.items():
        sigma = coarse.maximal[j]
        if taus == [sigma]:
            continue
        for count, f in pair_facets(taus):
            if count == 2:
                continue
            if count > 2:
                return None
            gens = f.rays + f.lines
            if not any(all(la.dot(g, x) == 0 for x in gens)
                       for g in sigma.facets):
                return None
    return fans.SubdivisionWitness(tuple(carrier))


def facing(a: Cone, b: Cone) -> list[IVec]:
    """``fans._facing`` with each sign evaluated: a's facet normals that
    are <= 0 on b's rays and 0 on its lines."""
    return [f for f in a.facets
            if all(sum(map(mul, f, r)) <= 0 for r in b.rays)
            and not any(sum(map(mul, f, l)) for l in b.lines)]


def separated(a: Cone, b: Cone) -> bool:
    """``fans._separated`` with u formed and evaluated: the sum of
    ``facing(a, b)`` minus that of ``facing(b, a)``, whose zero set on each
    cone's rays must be the same proper subset of both, under equal
    lines."""
    if a.lines != b.lines:
        return False
    u = [0] * a.n
    for f in facing(a, b):
        u = [x + y for x, y in zip(u, f)]
    for g in facing(b, a):
        u = [x - y for x, y in zip(u, g)]
    on_a = tuple(r for r in a.rays if not sum(map(mul, u, r)))
    return on_a == tuple(r for r in b.rays if not sum(map(mul, u, r))) and \
        len(on_a) < min(len(a.rays), len(b.rays))


def certified_refinement(a: Fan, b: Fan):
    """``fans.common_refinement`` with ``facing`` skipping the pairs whose
    meet lies in a facet: the fan and its witnesses over a and b."""
    carriers = {}
    for i, sa in enumerate(a.maximal):
        for j, sb in enumerate(b.maximal):
            if facing(sa, sb) or facing(sb, sa):
                continue
            m = lattice.cone_intersect(sa, sb)
            if m.dim == a.dim:
                carriers[m] = (i, j)
    fan = fans.Fan(a.n, tuple(sorted(carriers, key=fans._cone_key)))
    over = [carriers[c] for c in fan.maximal]
    return fan, tiles(fan, a, [i for i, _ in over]), \
        tiles(fan, b, [j for _, j in over])


def _half(v: IVec) -> int:
    """0 for directions with angle in [0, pi), 1 otherwise."""
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def angular_cmp(u: IVec, v: IVec) -> int:
    """Exact counterclockwise comparison of plane directions from (1,0)."""
    h = _half(u) - _half(v)
    if h:
        return h
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


def fan_from_rays_2d(rays) -> Fan:
    """Complete rank-2 fan whose maximal cones join angularly adjacent rays."""
    prims = sorted({la.primitivize(r) for r in rays},
                   key=cmp_to_key(angular_cmp))
    if len(prims) < 3:
        raise ValidationError("need at least 3 ray directions for a complete "
                              "rank-2 fan")
    cones = []
    for i, a in enumerate(prims):
        b = prims[(i + 1) % len(prims)]
        # counterclockwise gap from a to b must stay below a half turn
        if a[0] * b[1] - a[1] * b[0] <= 0:
            raise ValidationError(f"rays {a} and {b} leave an angular gap of "
                                  "a half turn or more")
        cones.append(make_cone([a, b], n=2))
    fan = fan_from_cones(cones)
    if not fan.complete:
        raise ValidationError("rays do not positively span the plane")
    return fan
