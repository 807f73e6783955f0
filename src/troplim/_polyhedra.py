"""Exact rational affine polyhedra via homogenization to cones.

A polyhedron {x : E x + e = 0, A x + a >= 0} is studied through its
homogenization cone {(x, t) : E x + e t = 0, A x + a t >= 0, t >= 0} in one
more dimension.  The polyhedron is nonempty exactly when the cone has a
generator with positive last coordinate; summing all generators and scaling
back to t = 1 produces a relative-interior point; the t = 0 face of the cone
is the recession cone; generators with positive t are the vertices.  All of
this is one call to the double-description conversion, so every quantity
here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _linalg as la
from .lattice import Cone, IVec, _cone_from_canonical, halfspaces_to_generators

Row = tuple[tuple[Fraction, ...], Fraction]  # (coefficients, constant)


@dataclass(frozen=True)
class PolyhedronInfo:
    """Exact facts about a nonempty affine polyhedron."""

    n: int
    dim: int
    relint_point: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    recession: Cone


def polyhedron_info(equations: Sequence[Row], inequalities: Sequence[Row],
                    n: int) -> Optional[PolyhedronInfo]:
    """Analyze {x : eq rows vanish, ineq rows nonnegative}; None if empty."""
    eqs = [coeffs + (const,) for coeffs, const in equations]
    ineqs = [coeffs + (const,) for coeffs, const in inequalities]
    ineqs.append(tuple([Fraction(0)] * n) + (Fraction(1),))
    lines, rays = halfspaces_to_generators(eqs, ineqs, n + 1)
    return homogenization_info(lines, rays, n)


def homogenization_info(lines: Sequence[IVec], rays: Sequence[IVec], n: int
                        ) -> Optional[PolyhedronInfo]:
    """The facts of ``polyhedron_info`` read off the canonical (lines, rays)
    of a homogenization cone in rank n + 1; None if no ray has t > 0."""
    positive = [r for r in rays if r[-1] > 0]
    if not positive:
        return None
    total = [0] * (n + 1)
    for r in rays:
        total = [a + b for a, b in zip(total, r)]
    t = total[-1]
    relint = tuple(Fraction(c, t) for c in total[:-1])
    vertices = tuple(tuple(Fraction(c, r[-1]) for c in r[:-1])
                     for r in positive)
    # the t = 0 face of the homogenization: its extreme rays are exactly the
    # t = 0 extreme rays, and canonical form survives dropping the t entry
    horizon = [r[:-1] for r in rays if r[-1] == 0]
    rec = _cone_from_canonical(horizon, [l[:-1] for l in lines], n)
    # dimension of the polyhedron is one less than that of its homogenization
    cone_dim = la.mat_rank(list(rays) + list(lines))
    return PolyhedronInfo(
        n=n,
        dim=cone_dim - 1,
        relint_point=relint,
        vertices=vertices,
        recession=rec,
    )


def affine_dim(points: Sequence[Sequence]) -> int:
    """Affine dimension of a nonempty point set."""
    p0 = points[0]
    return la.mat_rank([la.vec_sub(p, p0) for p in points[1:]])

