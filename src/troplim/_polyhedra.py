"""Exact rational affine polyhedra via homogenization to cones.

A polyhedron {x : E x + e = 0, A x + a >= 0} is studied through its
homogenization cone {(x, t) : E x + e t = 0, A x + a t >= 0, t >= 0} in one
more dimension.  The polyhedron is nonempty exactly when the cone has a
generator with positive last coordinate; summing all generators and scaling
back to t = 1 produces a relative-interior point; the t = 0 face of the cone
is the recession cone.  All of this is read off the canonical generators
of one double-description conversion, so every quantity here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _linalg as la
from ._linalg import IVec
from .lattice import Cone


@dataclass(frozen=True)
class PolyhedronInfo:
    """Exact facts about a nonempty affine polyhedron."""

    dim: int
    relint_point: tuple[Fraction, ...]
    recession: Cone


def homogenization_info(lines: Sequence[IVec], rays: Sequence[IVec]
                        ) -> Optional[PolyhedronInfo]:
    """Dimension, a relative-interior point and the recession cone of a
    polyhedron, read off the canonical (lines, rays) of its homogenization
    cone in rank n + 1; None if no ray has t > 0, so it is empty."""
    if not any(r[-1] > 0 for r in rays):
        return None
    n = len(rays[0]) - 1
    total = [0] * (n + 1)
    for r in rays:
        total = [a + b for a, b in zip(total, r)]
    t = total[-1]
    relint = tuple(Fraction(c, t) for c in total[:-1])
    # the t = 0 face of the homogenization: its extreme rays are exactly the
    # t = 0 extreme rays, and canonical form survives dropping the t entry
    rec = Cone(n, tuple(r[:-1] for r in rays if r[-1] == 0),
               tuple(l[:-1] for l in lines))
    # dimension of the polyhedron is one less than that of its homogenization
    cone_dim = la.mat_rank(list(rays) + list(lines))
    return PolyhedronInfo(
        dim=cone_dim - 1,
        relint_point=relint,
        recession=rec,
    )

