"""Fan towers and their boundary points: chains of nested cones.

A tower is a sequence of complete fans, each subdividing the last, with
stored subdivision witnesses.  A boundary point is approached through a
compatible chain of cones, one per level; resolving the chain means
intersecting it exactly and asking whether a single ray remains.  Rational
directions resolve at finite depth, irrational ones never do, and the
descriptor type keeps "not yet resolved" as a first-class answer rather than
an error.

Irrational coordinates enter only through SymbolicVector: each coordinate is
a rational linear combination of 1 and declared symbols alpha_1, ..., alpha_k
that the caller asserts are Q-linearly independent together with 1.  Sign
questions about such coordinates are answered exactly when the combination
is rational or identically zero, and otherwise through the rational interval
enclosure each symbol carries, bounded once in integers, which also gives a
toward step the centre of the target's box; if the enclosure straddles zero
while the combination is nonzero, UndecidableSign reports the offending data
so the caller can supply a tighter enclosure.  Independence itself is never
proved here; it is the caller's mathematical assertion, and it is what makes
"combination is zero" decidable by linear algebra alone.

A toward tower of rank 2 chased toward its own target needs no fan: its
carriers are the mediant intervals of the target's slope, each found from
the one above by one sign, so ``tower_chain`` builds them alone and leaves
``extend_tower`` and ``chain_toward`` to every other chase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from . import _linalg as la
from ._linalg import IVec
from .errors import (
    DepthCap,
    DimensionMismatch,
    EmptyChain,
    OutsideSupport,
    RankCap,
    UndecidableSign,
    ValidationError,
    ZeroVector,
)
from .fans import Fan, SubdivisionWitness, _join, _split, common_refinement
from .lattice import (
    RANK_CAP,
    Cone,
    cone_holds,
    locate,
)

TOWER_DEPTH_CAP = 64
_ENCLOSURE_DEN = 10 ** 6
# the misses of a chase: the target on level 0 as the tower is extended
# toward it, and a chased direction on some level of a built tower
_TARGET_OUTSIDE = "target direction lies outside the fan support"
_LEVEL_OUTSIDE = "direction lies outside the level-{} support"
_ZERO_DIRECTION = "cannot chase the zero direction"


@dataclass(frozen=True)
class Symbol:
    """A declared irrational with a rational interval enclosure."""

    name: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"empty enclosure for {self.name}")
        if self.lo == self.hi:
            # a zero-width box is a rational, which no symbol may be
            raise ValidationError(f"enclosure [{self.lo}, {self.hi}] of "
                                  f"{self.name} has no interior")

    @staticmethod
    def sqrt(k: int) -> "Symbol":
        """Symbol for sqrt(k) with a width-10^-6 rational enclosure; k must
        not be a perfect square."""
        if k <= 0:
            raise ValidationError("sqrt symbol needs a positive argument")
        if isqrt(k) ** 2 == k:
            raise ValidationError(f"sqrt({k}) = {isqrt(k)} is rational")
        s = isqrt(k * _ENCLOSURE_DEN ** 2)
        return Symbol(f"sqrt{k}", Fraction(s, _ENCLOSURE_DEN),
                      Fraction(s + 1, _ENCLOSURE_DEN))


Coefficient = Union[int, Fraction]
Entry = Union[Coefficient, Sequence[Coefficient]]


@dataclass(frozen=True)
class SymbolicVector:
    """A vector whose entries are Q-linear combinations of 1 and symbols."""

    symbols: tuple[Symbol, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """A positive common denominator D of the entries, and the entries'
        coefficients of 1 and of each symbol, one column each, times D."""
        den = lcm(*(c.denominator for row in self.rows for c in row))
        return den, tuple(
            tuple(row[j].numerator * (den // row[j].denominator)
                  for row in self.rows)
            for j in range(len(self.symbols) + 1))

    @cached_property
    def _boxes(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """A positive common denominator E of the symbols' enclosures, and
        each enclosure's ends times E."""
        den = lcm(*(b.denominator for s in self.symbols for b in (s.lo, s.hi)))
        return den, tuple((s.lo.numerator * (den // s.lo.denominator),
                           s.hi.numerator * (den // s.hi.denominator))
                          for s in self.symbols)

    def _enclosure(self, combo: Sequence[int]) -> tuple[int, int]:
        """Bounds, times D * E, of the combination whose coefficients of 1
        and of each symbol, times D, are ``combo``; D and E are the scales
        of ``_scaled`` and ``_boxes``.  Both are positive, so the bounds
        have the signs of the combination's bounds."""
        scale, boxes = self._boxes
        lo = hi = combo[0] * scale
        for c, (a, b) in zip(combo[1:], boxes):
            if c > 0:
                lo, hi = lo + c * a, hi + c * b
            else:
                lo, hi = lo + c * b, hi + c * a
        return lo, hi

    def sign(self, functional: Sequence[Coefficient]) -> int:
        """Exact sign of <functional, self>, or UndecidableSign.

        The combination is summed in integers over the columns of
        ``_scaled`` and bounded by ``_enclosure``.  Fractions are built
        only for the report of an undecidable sign.
        """
        if len(functional) != self.n:
            raise DimensionMismatch(
                f"functional has length {len(functional)}, vector has "
                f"{self.n}")
        den, columns = self._scaled
        combo = [sum(map(mul, functional, col)) for col in columns]
        if not any(combo[1:]):
            return (combo[0] > 0) - (combo[0] < 0)
        lo, hi = self._enclosure(combo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        # nonzero by declared independence, but the enclosure cannot tell
        # the sign
        scale = den * self._boxes[0]
        raise UndecidableSign(
            "sign of a nonzero symbolic combination is not determined by "
            "the declared enclosures",
            coefficients=tuple(Fraction(c, den) for c in combo),
            interval=(Fraction(lo, scale), Fraction(hi, scale)))


def symbolic_vector(entries: Sequence[Entry],
                    symbols: Sequence[Symbol] = ()) -> SymbolicVector:
    """Build a SymbolicVector; plain numbers mean rational coordinates.
    Symbols must have distinct names."""
    symbols = tuple(symbols)
    names = [s.name for s in symbols]
    for i, name in enumerate(names):
        if names.index(name) < i:
            raise ValidationError(f"symbols {names.index(name)} and {i} "
                                  f"share the name {name!r}")
    k = len(symbols)
    rows = []
    for i, e in enumerate(entries):
        if isinstance(e, (int, Fraction)):
            row = (Fraction(e),) + (Fraction(0),) * k
        else:
            row = tuple(Fraction(c) for c in e)
            if len(row) != k + 1:
                basis = ", ".join(["1"] + [s.name for s in symbols])
                raise DimensionMismatch(
                    f"entry {i}: expected one coefficient for each of "
                    f"({basis}), got {len(row)}")
        rows.append(row)
    return SymbolicVector(symbols, tuple(rows))


# -- fiber rank and model ---------------------------------------------------


def fiber_rank(x: SymbolicVector) -> int:
    """Q-rank of the span of the coordinates of x."""
    if x.is_zero:
        raise ZeroVector("fiber rank of the zero vector is undefined")
    return la.mat_rank(x.rows)


@dataclass(frozen=True)
class FiberModel:
    """Shape of the fiber through x: a limit toric space of dim n - r."""

    dim: int
    rank: int
    basis_change: tuple[IVec, ...]
    kind = "LimitToricSpace"


def fiber_model(x: SymbolicVector) -> FiberModel:
    """Fiber descriptor plus a GL(n,Z) move putting independent coords first."""
    n = x.n
    if n > RANK_CAP:
        raise RankCap(
            f"ambient rank {n} exceeds the exact-arithmetic cap {RANK_CAP}")
    r = fiber_rank(x)
    # with the coordinates as columns, each pivot column is independent of
    # the columns before it
    chosen = la.rref(zip(*x.rows))[1]
    order = chosen + [i for i in range(n) if i not in chosen]
    perm = tuple(tuple(1 if j == order[i] else 0 for j in range(n))
                 for i in range(n))
    return FiberModel(dim=n - r, rank=r, basis_change=perm)


# -- towers -----------------------------------------------------------------


@dataclass(frozen=True)
class FanTower:
    """Complete fans, each subdividing the previous, with stored witnesses."""

    fans: tuple[Fan, ...]
    witnesses: tuple[SubdivisionWitness, ...]

    @property
    def depth(self) -> int:
        return len(self.fans)


def fan_tower(base: Fan) -> FanTower:
    """A depth-1 tower."""
    return FanTower((base,), ())


@dataclass(frozen=True)
class StellarAtBarycenters:
    """Split every maximal cone of dimension >= 2 at its primitive ray sum."""

    def step(self, fan: Fan) -> tuple[Fan, SubdivisionWitness]:
        # a ray sum lies inside its own maximal cone only, so one pass gives
        # what splitting the cones one after another gives
        return _split(fan, {
            j: la.primitivize(sigma.relint_point())
            for j, sigma in enumerate(fan.maximal)
            if sigma.dim >= 2 and sigma.rays})


@dataclass(frozen=True)
class TowardDirection:
    """Shrink the carrier cone of a fixed target direction each step."""

    target: SymbolicVector

    def ray(self, carrier: Cone) -> IVec:
        """The primitive ray a step splits ``carrier`` at, the target's
        carrier of dimension >= 2, in its relative interior.  A two-ray
        cone of rank 2 is split at its ray sum, any other carrier at the
        centre of the target's box, each coordinate's lo + hi from
        ``_enclosure``: the walk decided every facet sign of the carrier on
        the whole box, so the centre lies in its relative interior."""
        if carrier.n == 2 and len(carrier.rays) == 2:
            return la.primitivize(carrier.relint_point())
        x = self.target
        new_ray = tuple(sum(x._enclosure(combo))
                        for combo in zip(*x._scaled[1]))
        if locate(carrier, new_ray) != carrier:
            raise AssertionError(f"internal: the target's box centre "
                                 f"{new_ray} leaves the carrier's "
                                 f"relative interior")
        return la.primitivize(new_ray)

    def step(self, fan: Fan, carrier: Cone, holding: Sequence[int]
             ) -> tuple[Fan, SubdivisionWitness]:
        """Split at ``ray(carrier)``, inside ``carrier``, the target's
        carrier, whose relative interior holds the ray; so the cones to
        split are ``holding``, the indices of the maximal cones containing
        it.  A carrier of dimension <= 1 leaves the fan as it is."""
        if carrier.dim <= 1:
            return fan, SubdivisionWitness(tuple(range(len(fan.maximal))))
        return _split(fan, dict.fromkeys(holding, self.ray(carrier)))


@dataclass(frozen=True)
class CommonRefineWith:
    """Refine by a fixed fan; idempotent after the first step."""

    other: Fan

    def step(self, fan: Fan) -> tuple[Fan, Optional[SubdivisionWitness]]:
        """The refinement and its witness over ``fan``, None when the other
        fan does not cover ``fan``'s support."""
        new, witness, _ = common_refinement(fan, self.other)
        return new, witness


def _chased(t: FanTower, x: SymbolicVector) -> dict:
    """The carriers of x found so far on t's levels, by level, each with
    the indices of the maximal cones holding it: those that extending t
    toward x found, and a chain of t toward x since; empty for any other
    x.  They sit outside the tower's eq, hash and repr."""
    target, found = t.__dict__.get("_chase", (None, {}))
    return found if target == x else {}


def _carriers(fans, witnesses, x: SymbolicVector, start: int, found: dict,
              outside: str):
    """The carrier of x on each level from ``start`` on, with the indices of
    the maximal cones holding it; a miss raises OutsideSupport(outside)
    formatted with the level.  The lists may grow while the walk runs.  A
    fine cone holding x lies in its witness carrier, which then holds x, so
    a level is searched among the children of the cones holding x one
    level up, when those are known.  ``found`` holds the levels already
    located, as ``_chased`` gives them; each level is located once and
    added to it.
    """
    i = start
    while i < len(fans):
        if i not in found:
            above = found.get(i - 1)
            among = None if above is None else \
                witnesses[i - 1].children(above[1])
            carrier, holding = fans[i].locate(x, among)
            if carrier is None:
                raise OutsideSupport(outside.format(i))
            found[i] = carrier, holding
        yield found[i]
        i += 1


def _check_depth(depth: int) -> None:
    """Refuse a tower deeper than the cap."""
    if depth > TOWER_DEPTH_CAP:
        raise DepthCap(f"tower depth {depth} exceeds the cap of "
                       f"{TOWER_DEPTH_CAP}")


def extend_tower(t: FanTower, strategy, steps: int) -> FanTower:
    """Append `steps` refinements produced by the strategy, each step
    giving the new fan with its witness; a toward step is handed the
    target's carrier on the last level and the cones holding it, and the
    tower keeps the carriers it found for a chain toward the target."""
    _check_depth(t.depth + steps)
    fans = list(t.fans)
    witnesses = list(t.witnesses)
    chase = isinstance(strategy, TowardDirection)
    if chase:
        found = dict(_chased(t, strategy.target))
        walk = _carriers(fans, witnesses, strategy.target, len(fans) - 1,
                         found, _TARGET_OUTSIDE)
    for _ in range(steps):
        if chase:
            new, w = strategy.step(fans[-1], *next(walk))
        else:
            new, w = strategy.step(fans[-1])
        if w is None:
            # only a common refinement, whose support is the two supports'
            # meet, can miss part of the fan
            raise OutsideSupport(
                f"the common-refine-with fan does not cover the support of "
                f"the level-{len(fans) - 1} fan")
        fans.append(new)
        witnesses.append(w)
    tower = FanTower(tuple(fans), tuple(witnesses))
    if chase:
        tower.__dict__["_chase"] = strategy.target, found
    return tower


# -- chains and resolution --------------------------------------------------


@dataclass(frozen=True)
class ConeChain:
    """Nested cones, one per level from level 0, finer levels contained in
    coarser ones; the nesting is checked on construction."""

    cones: tuple[Cone, ...]

    def __post_init__(self):
        for i, (a, b) in enumerate(zip(self.cones, self.cones[1:])):
            if not cone_holds(a, b.rays, b.lines):
                raise ValidationError(f"cone at level {i + 1} is not "
                                      f"contained in cone at level {i}")


@dataclass(frozen=True)
class ResolvedRay:
    """The chain intersects in one rational ray: its primitive vector."""

    ray: IVec


@dataclass(frozen=True)
class UnresolvedCone:
    """The chain intersection still has dimension != 1 at its last level."""

    cone: Cone


LimitPointDescriptor = Union[ResolvedRay, UnresolvedCone]


def resolve_direction(c: ConeChain) -> LimitPointDescriptor:
    """The chain's meet, its last cone since the chain is nested, as a ray
    or as the remaining cone."""
    if not c.cones:
        raise EmptyChain("cannot resolve an empty chain")
    meet = c.cones[-1]
    if meet.dim == 1 and not meet.lines:
        return ResolvedRay(meet.rays[0])
    return UnresolvedCone(meet)


def chain_toward(t: FanTower, x: SymbolicVector) -> ConeChain:
    """The chain of minimal carriers of x, one per tower level; x is
    located only on the levels where extending the tower toward x did
    not locate it."""
    if x.is_zero:
        raise ZeroVector(_ZERO_DIRECTION)
    return ConeChain(tuple(
        carrier for carrier, _ in _carriers(
            t.fans, t.witnesses, x, 0, _chased(t, x), _LEVEL_OUTSIDE)))


def _plane_step(sigma: Cone, ray: IVec, x: SymbolicVector) -> Cone:
    """The carrier of x one level below ``sigma``, a two-ray cone of rank
    2 with x in its interior, once sigma is split at ``ray``, primitive
    and in its interior: the ray itself when x lies on it, or else the
    join of the ray with sigma's ray on x's side, as ``_split`` builds it,
    H-side included.

    x's side is its sign on the row that vanishes on the ray and is
    positive on sigma's first ray a.  That row is the facet through the
    ray of the join with a, the first join in ``_cone_key`` order, so an
    undecidable sign carries the data the search among the joins gives;
    the joins' other facets are sigma's, decided one level up.  The join
    with a keeps sigma's facet F_i = a, whose mask is bit 0."""
    row = (-ray[1], ray[0])
    if la.dot(row, sigma.rays[0]) < 0:
        row = (ray[1], -ray[0])
    side = x.sign(row)
    if not side:
        return Cone(2, (ray,), ())
    return _join(sigma, sigma._dual[2].index(1 if side > 0 else 2), ray,
                 [la.dot(f, ray) for f in sigma.facets])


def _plane_chase(base: Fan, strategy: TowardDirection, steps: int
                 ) -> ConeChain:
    """``chain_toward(extend_tower(fan_tower(base), strategy, steps), x)``
    for a base of rank 2 and x the strategy's target, read off each
    carrier alone, with no fan built: the carriers are the mediant
    (Stern-Brocot) intervals of x's slope (Oda 1988, §1.6).

    A step splits only the carrier, at ``strategy.ray``, and x lies in one
    of the two joins or on the ray, which ``_plane_step`` tells by one
    sign.  Any other carrier, a ray, or a cone with lines which the split
    leaves whole, is the carrier on every level below.  The errors are
    the tower's, raised where it raises them: with a step, extending the
    tower locates x on level 0 before chaining refuses a zero x; with no
    step, the chain refuses it first, and names the level of a miss."""
    _check_depth(1 + steps)
    x = strategy.target
    if not steps and x.is_zero:
        raise ZeroVector(_ZERO_DIRECTION)
    carrier, _ = base.locate(x)
    if carrier is None:
        raise OutsideSupport(_TARGET_OUTSIDE if steps
                             else _LEVEL_OUTSIDE.format(0))
    if x.is_zero:
        raise ZeroVector(_ZERO_DIRECTION)
    cones = [carrier]
    for _ in range(steps):
        if len(carrier.rays) == 2:
            carrier = _plane_step(carrier, strategy.ray(carrier), x)
        cones.append(carrier)
    return ConeChain(tuple(cones))


def tower_chain(base: Fan, strategy, steps: int, x: SymbolicVector
                ) -> ConeChain:
    """The chain toward x of the tower that ``steps`` refinements of
    ``base`` by the strategy build, ``chain_toward(extend_tower(
    fan_tower(base), strategy, steps), x)``, errors included.  A toward
    tower of rank 2 chased toward its own target builds no fan
    (``_plane_chase``)."""
    if isinstance(strategy, TowardDirection) and base.n == 2 \
            and x == strategy.target:
        return _plane_chase(base, strategy, steps)
    return chain_toward(extend_tower(fan_tower(base), strategy, steps), x)
