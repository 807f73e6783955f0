"""Floating-point sampling oracle for projective tropicalizations.

The exact routes compute PTrop combinatorially.  This module approaches the
same set numerically, the way one would probe an unknown germ: follow paths
x -> 0 inside the variety, record the vector of -log|coordinate| values,
normalize, and cluster the resulting directions.  Agreement within loose
tolerance is strong evidence that the exact combinatorics match the
analytic limit set; the oracle is deliberately independent of the exact
code (numpy root finding, no rational arithmetic), and imports numpy and
scipy on first use, so that importing troplim loads neither.

Paths are radial: for plane germs x1 = r exp(i theta) with r halved at each
depth step, solving for the other coordinate; for surface germs the first
two coordinates get random positive weights w and x3 is solved for.  The
growth exponent of a vanishing branch is read off as a difference quotient
of log|x_last| between the last two radii, which cancels multiplicative
constants and converges quickly.  Directions are clustered by single
linkage in angular distance.

Each stage runs over all paths at once, bit for bit as path by path: one
draw of every path's random numbers (the same stream); each polynomial
built from a table of the powers of its substituted coordinates, in the
scalar arithmetic and order of a term-by-term expansion; all polynomials
solved together as companion-matrix eigenvalues, one numpy call per
polynomial length, exactly what numpy.roots returns for each; and the
slopes of the paths whose two root counts agree read with one abs, sort
and log per count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import DimensionMismatch, NoBranchFound
from .tropical import PTropSet, TropicalPolynomial

if TYPE_CHECKING:
    import numpy as np

IVec = tuple[int, ...]


# path sampler settings, as in the reported experiments: radius
# INITIAL_RADIUS * DECAY ** k at depth step k, slopes kept inside
# (MIN_SLOPE, MAX_SLOPE), single linkage below CLUSTER_ANGLE radians
PATHS = 200
DEPTH = 12
INITIAL_RADIUS = 0.1
DECAY = 0.5
MIN_SLOPE = 0.08
MAX_SLOPE = 50.0
CLUSTER_ANGLE = 3e-3


@dataclass(frozen=True)
class Cluster:
    """A bundle of sampled limit directions, normalized to coordinate sum 1."""

    direction: tuple[float, ...]
    size: int


def lift_coefficients(f: TropicalPolynomial, seed: int = 0
                      ) -> dict[IVec, complex]:
    """Generic complex coefficients for the support of f (moduli in [1/2, 2])."""
    import numpy as np
    rng = np.random.default_rng(seed)
    out = {}
    for e, _ in f.terms:
        modulus = 0.5 + 1.5 * rng.random()
        phase = 2 * math.pi * rng.random()
        out[e] = modulus * complex(math.cos(phase), math.sin(phase))
    return out


def _last_var_polys(coeffs: Mapping[IVec, complex],
                    fixed: Sequence[Sequence[complex]]) -> list[list[complex]]:
    """Coefficients in the last variable, highest degree first, after each
    substitution of the other one or two coordinates (in scalar complex
    arithmetic).

    A substitution's powers are taken once each, into a table of the
    exponents each coordinate carries.  A term is its coefficient times its
    power of each coordinate in turn, a zeroth power included, so every
    product is the one a term-by-term expansion forms.
    """
    top = max(e[-1] for e in coeffs)
    kinds = [{e[j] for e in coeffs} for j in range(len(fixed[0]))]
    polys = []
    # one loop per number of substituted coordinates: an inner loop over
    # them costs more than the powers the tables save
    if len(kinds) == 1:
        plan = [(c, top - e[-1], e[0]) for e, c in coeffs.items()]
        for (v,) in fixed:
            powers = {k: v ** k for k in kinds[0]}
            poly = [0j] * (top + 1)
            for c, slot, a in plan:
                poly[slot] += c * powers[a]
            polys.append(poly)
        return polys
    plan = [(c, top - e[-1], e[0], e[1]) for e, c in coeffs.items()]
    for v0, v1 in fixed:
        p0 = {k: v0 ** k for k in kinds[0]}
        p1 = {k: v1 ** k for k in kinds[1]}
        poly = [0j] * (top + 1)
        for c, slot, a, b in plan:
            poly[slot] += c * p0[a] * p1[b]
        polys.append(poly)
    return polys


def _batched_roots(polys: Sequence[Sequence[complex]]) -> list[np.ndarray]:
    """np.roots of every polynomial, bit for bit, with one eigenvalue call
    per trimmed length.

    As in np.roots: leading zeros are stripped, each trailing zero adds one
    zero root after the eigenvalues, and a polynomial that is zero, or
    constant once trimmed, has no other root.  The rest are the eigenvalues
    of the companion matrix, first row -p[1:]/p[0] and ones below the
    diagonal (Edelman & Murakami 1995), stacked by trimmed length.
    """
    import numpy as np
    roots: list = [None] * len(polys)
    groups: dict[int, list] = {}
    for i, p in enumerate(polys):
        nonzero = [j for j, c in enumerate(p) if c]
        if not nonzero:
            roots[i] = np.array([])
            continue
        first, last = nonzero[0], nonzero[-1]
        zeros = len(p) - last - 1
        if first == last:
            roots[i] = np.zeros(zeros)
            continue
        groups.setdefault(last - first + 1, []).append(
            (i, p[first:last + 1], zeros))
    for size, members in groups.items():
        p = np.array([trimmed for _, trimmed, _ in members], dtype=complex)
        companion = np.zeros((len(members), size - 1, size - 1), dtype=complex)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        below = np.arange(size - 2)
        companion[:, below + 1, below] = 1
        for (i, _, zeros), eig in zip(members,
                                      np.linalg.eigvals(companion)):
            roots[i] = np.concatenate((eig, np.zeros(zeros, eig.dtype)))
    return roots


def _path_slopes(before: Sequence[np.ndarray], after: Sequence[np.ndarray]
                 ) -> list[list[float]]:
    """Exponent estimates for each path's vanishing branches, from its roots
    at the last two radii: the difference quotient of their sorted log
    magnitudes, and none when the two root counts differ.  The pairs of
    each length are stacked and read with one abs, sort and log."""
    import numpy as np
    slopes: list[list[float]] = [[] for _ in before]
    by_length: dict[int, list[int]] = {}
    for i, (b, a) in enumerate(zip(before, after)):
        if len(b) == len(a):
            by_length.setdefault(len(b), []).append(i)
    for members in by_length.values():
        pairs = np.array([(before[i], after[i]) for i in members])
        logs = np.log(np.maximum(np.sort(np.abs(pairs), axis=-1), 1e-280))
        quot = (logs[:, 1] - logs[:, 0]) / math.log(DECAY)
        for i, row in zip(members, quot.tolist()):
            slopes[i] = [s for s in row if MIN_SLOPE < s < MAX_SLOPE]
    return slopes


def _cluster(directions: np.ndarray, angle: float) -> list[Cluster]:
    """Single-linkage clustering at the given angular threshold.

    Clusters are the connected components of the graph linking directions
    closer than the angle, found by a breadth-first search from each lowest
    unlabelled index; members are summed in increasing index order.
    """
    import numpy as np
    m = len(directions)
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    # the upper triangle, mirrored, so the graph is symmetric bit for bit
    close = np.triu(np.arccos(gram) < angle, 1)
    close |= close.T
    labels = np.full(m, -1)
    clusters = []
    for seed in range(m):
        if labels[seed] >= 0:
            continue
        frontier = np.array([seed])
        while frontier.size:
            labels[frontier] = seed
            frontier = np.flatnonzero(close[frontier].any(axis=0)
                                      & (labels < 0))
        members = np.flatnonzero(labels == seed)
        total = unit[members].sum(axis=0)
        norm = total / total.sum()
        clusters.append(Cluster(tuple(float(c) for c in norm), len(members)))
    return sorted(clusters, key=lambda c: c.direction)


def ptrop_sample_oracle(coeffs: Mapping[IVec, complex], n: int,
                        seed: int = 0) -> tuple[Cluster, ...]:
    """Sampled PTrop directions of the germ of {poly = 0} at the origin."""
    import numpy as np
    if n not in (2, 3):
        raise DimensionMismatch(
            f"the sampler handles 2 or 3 variables, not {n}")
    if not coeffs:
        raise ValueError("need at least one coefficient")
    rng = np.random.default_rng(seed)
    # only the last two radii are read: the slope is their difference quotient
    radii = [INITIAL_RADIUS * DECAY ** k for k in (DEPTH - 2, DEPTH - 1)]
    # every path's draws at once: the same stream as one draw per path
    if n == 2:
        thetas = 2 * math.pi * rng.random(PATHS)
        weights = [(1.0,)] * PATHS
        phases = [complex(math.cos(t), math.sin(t)) for t in thetas]
        fixed = [(r * phase,) for phase in phases for r in radii]
    else:
        draws = rng.random((PATHS, 4))
        thetas = 2 * math.pi * draws[:, :2]
        w = 0.25 + 1.75 * draws[:, 2:]
        weights = [(float(a), float(b)) for a, b in w]
        fixed = []
        for (t0, t1), (w0, w1) in zip(thetas, w):
            p0 = complex(math.cos(t0), math.sin(t0))
            p1 = complex(math.cos(t1), math.sin(t1))
            fixed += [(r ** w0 * p0, r ** w1 * p1) for r in radii]
    roots = _batched_roots(_last_var_polys(coeffs, fixed))
    directions: list[tuple[float, ...]] = []
    for vec0, slopes in zip(weights, _path_slopes(roots[::2], roots[1::2])):
        for slope in slopes:
            vec = vec0 + (slope,)
            total = sum(vec)
            directions.append(tuple(c / total for c in vec))
    if not directions:
        raise NoBranchFound(
            "no path produced a branch approaching the origin; the germ may "
            "miss the origin entirely")
    return tuple(_cluster(np.asarray(directions), CLUSTER_ANGLE))


def _angle_to(mat: np.ndarray, a: np.ndarray) -> float:
    """Angle from the unit vector a to the cone spanned by mat's columns."""
    import numpy as np
    from scipy.optimize import nnls

    coeffs, _ = nnls(mat, a)
    proj = mat @ coeffs
    norm = np.linalg.norm(proj)
    if norm < 1e-12:
        return math.pi / 2
    return float(np.arccos(np.clip(a @ proj / norm, -1.0, 1.0)))


@functools.lru_cache(maxsize=1)
def _ray_matrices(ptset: PTropSet) -> tuple[np.ndarray, ...]:
    """Each cone's rays as the columns of a float matrix, built once for
    the distances of every cluster to the same set."""
    import numpy as np
    return tuple(np.asarray(cone.rays, dtype=float).T for cone in ptset.cones)


def distance_to_ptrop(ptset: PTropSet, u: Sequence[float]) -> float:
    """Angular distance from a direction to the exact PTrop set."""
    import numpy as np
    a = np.asarray(u, dtype=float)
    a = a / np.linalg.norm(a)
    best = math.pi / 2
    for mat in _ray_matrices(ptset):
        best = min(best, _angle_to(mat, a))
    return best
