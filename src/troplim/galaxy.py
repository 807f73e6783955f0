"""Galaxy skeletons of one-parameter degenerations.

A skeleton is a value with three reads: its base complex (`complex`), its
level-d complex (`level(d)`), the dual complex after a degree-d base change,
and that level's cell counts with nothing built (`counts(d)`).  For a
semistable model, base change of degree d followed by the standard
resolution subdivides the dual complex d-fold (Kempf, Knudsen, Mumford and
Saint-Donat, *Toroidal Embeddings I*, 1973), so a `Skeleton` given as an
affine Δ-complex has the d-fold scale subdivision as its level d.

The `Circle` is the skeleton of an elliptic fibration acquiring a cycle of
m rational curves (an I_m fiber): the m-cycle with unit affine charts, a
circle of circumference 1 with vertices at the angles j/m.  Base change
turns I_m into I_{dm}, the (dm)-cycle with vertices relabeled j/(dm), so a
circle holds only m and answers every read in closed form from m·d.  Along
a tower of base changes whose degrees form a divisibility chain reaching
every integer, each rational angle p/q eventually becomes a vertex (an open
slot of the limit space), while an irrational angle stays interior to a
strictly shrinking chain of edges and survives as a closed point.
Irrational angles are symbols with rational enclosures; one too coarse to
separate the angle from a vertex is refused.  Both cases depend only on the
cycle sizes m·d, all a tower holds; it builds no level.

The decomposition ledger counts, for any skeleton at a given level, the
open slots realized so far (its rational points) and the remaining
positive-dimensional cells, from the skeleton's level counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from . import _linalg as la
from .complexes import (
    DeltaComplex,
    cycle_complex,
    scale_subdivide,
    subdivision_counts,
)
from .errors import (
    DepthCap,
    IncompleteTower,
    UndecidableSign,
    ValidationError,
)
from .towers import TOWER_DEPTH_CAP, Symbol


# -- skeletons ---------------------------------------------------------------


class Skeleton:
    """A skeleton given as an affine Δ-complex, kept as given; its level d
    is the d-fold scale subdivision."""

    def __init__(self, x: DeltaComplex):
        self.complex = x

    def level(self, d: int) -> DeltaComplex:
        return scale_subdivide(self.complex, d).complex

    def counts(self, d: int) -> dict[int, int]:
        return subdivision_counts(self.complex, d)


@dataclass(frozen=True)
class Circle(Skeleton):
    """The skeleton of an I_m degeneration: the labeled m-cycle.

    Vertex ``v{j}`` carries the angle j/m; the edge ``e{j}`` covers
    [j/m, (j+1)/m].  Only m is held: the cycle is derived from it on first
    read and kept out of eq, hash and repr, and level d is the (md)-cycle,
    which keeps the ``v{k}``/``e{k}`` names, with no subdivision run.
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("an I_m degeneration needs m >= 1")

    @cached_property
    def complex(self) -> DeltaComplex:
        return cycle_complex(self.m)

    def level(self, d: int) -> DeltaComplex:
        return cycle_complex(self.counts(d)[0])

    def counts(self, d: int) -> dict[int, int]:
        if d < 1:
            raise ValidationError(
                "subdivision level must be a positive integer")
        return {0: self.m * d, 1: self.m * d}


# -- towers and point classification -----------------------------------------


class EllipticTower:
    """The I_m circle under base changes of cumulative degrees d_i, held by
    its cycle sizes m·d_i.

    The degrees must form a divisibility chain of positive integers, at
    least one and at most the depth cap; they are checked first, then m.
    """

    def __init__(self, m: int, degrees: Sequence[int]):
        degs = la.integer_vector(degrees, ValidationError)
        if not degs:
            raise ValidationError("a tower needs at least one level")
        if any(d < 1 for d in degs):
            raise ValidationError("degrees must be positive")
        for a, b in zip(degs, degs[1:]):
            if b % a != 0:
                raise ValidationError(
                    f"degrees must form a divisibility chain: {a} does not "
                    f"divide {b}")
        if len(degs) > TOWER_DEPTH_CAP:
            raise DepthCap(
                f"tower depth {len(degs)} exceeds {TOWER_DEPTH_CAP}")
        self.circle = Circle(m)
        self.degrees = degs

    @property
    def cycle_sizes(self) -> tuple[int, ...]:
        return tuple(self.circle.m * d for d in self.degrees)


def galaxy_point(value: Union[int, str, Fraction, Symbol]
                 ) -> Union[Fraction, Symbol]:
    """Normalize an angle to [0, 1): rational mod 1, or a symbol as given."""
    if isinstance(value, Symbol):
        if not (0 <= value.lo <= value.hi <= 1):
            raise ValidationError(
                f"symbol enclosure [{value.lo}, {value.hi}] must lie in "
                f"[0, 1]; shift the symbol to its fractional part first")
        return value
    return Fraction(value) % 1


@dataclass(frozen=True)
class CarrierEdge:
    """The edge of one tower level whose interior holds the angle."""

    level: int
    cell: str
    interval: tuple[Fraction, Fraction]

    @property
    def width(self) -> Fraction:
        return self.interval[1] - self.interval[0]


@dataclass(frozen=True)
class OpenPoint:
    """A rational angle, a vertex from its stabilization level onward."""

    label: Fraction
    level: int
    vertex: str


@dataclass(frozen=True)
class ClosedPoint:
    """An irrational angle: interior to a shrinking edge at every level."""

    carriers: tuple[CarrierEdge, ...]


def _carrier_index(m: int, sym: Symbol) -> tuple[int, Fraction, Fraction]:
    """Index k with k/m < angle < (k+1)/m, certified by the enclosure, with
    k/m and (k+1)/m."""
    k = math.floor(sym.lo * m)
    lo_v = Fraction(k, m)
    hi_v = Fraction(k + 1, m)
    if not (lo_v < sym.lo and sym.hi < hi_v):
        raise UndecidableSign(
            f"enclosure [{sym.lo}, {sym.hi}] of {sym.name} is not strictly "
            f"inside one edge of the {m}-gon; refine the enclosure",
            interval=(sym.lo, sym.hi))
    return k, lo_v, hi_v


def classify_point(tower: EllipticTower,
                   point: Union[int, str, Fraction, Symbol]
                   ) -> Union[OpenPoint, ClosedPoint]:
    """Open/closed dichotomy for an angle, from a tower's cycle sizes alone;
    ``galaxy_point`` normalizes the angle first.

    A rational p/q is open from the first level whose cycle size is a
    multiple of q; if no provided level works the finite tower cannot
    certify anything and IncompleteTower is raised.  A symbolic (irrational)
    angle is closed, witnessed by the nested chain of carrier edges.
    """
    point = galaxy_point(point)
    sizes = tower.cycle_sizes
    if isinstance(point, Symbol):
        carriers = []
        for i, m in enumerate(sizes):
            k, lo_v, hi_v = _carrier_index(m, point)
            carriers.append(CarrierEdge(level=i, cell=f"e{k}",
                                        interval=(lo_v, hi_v)))
        return ClosedPoint(carriers=tuple(carriers))
    q = point.denominator
    for i, m in enumerate(sizes):
        if m % q == 0:
            return OpenPoint(label=point, level=i,
                             vertex=f"v{int(point * m)}")
    raise IncompleteTower(
        f"denominator {q} divides no cycle size in the provided "
        f"{len(sizes)} levels; extend the tower")


# -- decomposition ledger ----------------------------------------------------


@dataclass(frozen=True)
class DecompositionRecord:
    """Open slots realized at one level, and the leftover cell count."""

    level: int
    slot_count: int
    non_klt_cells: int


def decomposition(skeleton: Skeleton, level: int) -> DecompositionRecord:
    """Decompose a skeleton at a level: rational points vs remaining cells.

    The open slots are the vertices of the level-N complex, one per
    rational point, and the rest are its positive-dimensional cells; both
    are read off the skeleton's level counts, with no cell built.
    """
    counts = skeleton.counts(level)
    slots = counts.pop(0)
    return DecompositionRecord(level=level, slot_count=slots,
                               non_klt_cells=sum(counts.values()))
