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
two coordinates get random positive weights w and x3 is solved for.  Every
path is drawn first, and all their polynomials are solved together as
companion-matrix eigenvalues, one numpy call per polynomial length, bit for
bit what numpy.roots returns for each.  The growth exponent of a vanishing
branch is read off as a difference quotient of log|x_last| between the
last two radii, which cancels multiplicative constants and converges
quickly.  Directions are clustered by single linkage in angular distance.
"""

from __future__ import annotations

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


def _last_var_poly(coeffs: Mapping[IVec, complex], fixed: Sequence[complex]
                   ) -> list[complex]:
    """Coefficients in the last variable, highest degree first, after
    substituting the other coordinates (in Python complex arithmetic)."""
    top = max(e[-1] for e in coeffs)
    poly = [0j] * (top + 1)
    for e, c in coeffs.items():
        scale = c
        for val, k in zip(fixed, e):
            scale *= val ** k
        poly[top - e[-1]] += scale
    return poly


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


def _draw_path(rng: np.random.Generator, n: int):
    """One path's fixed weights and its substitution r -> the first n - 1
    coordinates at radius r."""
    if n == 2:
        theta = 2 * math.pi * rng.random()
        phase = complex(math.cos(theta), math.sin(theta))

        def fixed_at(r):
            return (r * phase,)

        return (1.0,), fixed_at
    thetas = 2 * math.pi * rng.random(2)
    w = 0.25 + 1.75 * rng.random(2)
    phases = [complex(math.cos(t), math.sin(t)) for t in thetas]

    def fixed_at(r):
        return (r ** w[0] * phases[0], r ** w[1] * phases[1])

    return (float(w[0]), float(w[1])), fixed_at


def _slopes(before: np.ndarray, after: np.ndarray) -> list[float]:
    """Exponent estimates for vanishing branches, from the roots at the last
    two radii: the difference quotient of their sorted log magnitudes."""
    import numpy as np
    if len(before) != len(after):
        return []
    logs = [np.log(np.maximum(np.sort(np.abs(roots)), 1e-280))
            for roots in (before, after)]
    quot = (logs[1] - logs[0]) / math.log(DECAY)
    return [float(s) for s in quot if MIN_SLOPE < s < MAX_SLOPE]


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
    paths = [_draw_path(rng, n) for _ in range(PATHS)]
    # only the last two radii are read: the slope is their difference quotient
    radii = [INITIAL_RADIUS * DECAY ** k for k in (DEPTH - 2, DEPTH - 1)]
    roots = _batched_roots([_last_var_poly(coeffs, fixed_at(r))
                            for _, fixed_at in paths for r in radii])
    directions: list[tuple[float, ...]] = []
    for (weights, _), before, after in zip(paths, roots[::2], roots[1::2]):
        for slope in _slopes(before, after):
            vec = weights + (slope,)
            total = sum(vec)
            directions.append(tuple(c / total for c in vec))
    if not directions:
        raise NoBranchFound(
            "no path produced a branch approaching the origin; the germ may "
            "miss the origin entirely")
    return tuple(_cluster(np.asarray(directions), CLUSTER_ANGLE))


def distance_to_cone(rays: Sequence[Sequence[int]], u: Sequence[float]
                     ) -> float:
    """Angular distance from a direction to a cone given by its rays."""
    import numpy as np
    from scipy.optimize import nnls

    a = np.asarray(u, dtype=float)
    a = a / np.linalg.norm(a)
    mat = np.asarray(rays, dtype=float).T
    coeffs, _ = nnls(mat, a)
    proj = mat @ coeffs
    norm = np.linalg.norm(proj)
    if norm < 1e-12:
        return math.pi / 2
    return float(np.arccos(np.clip(a @ proj / norm, -1.0, 1.0)))


def distance_to_ptrop(ptset: PTropSet, u: Sequence[float]) -> float:
    """Angular distance from a direction to the exact PTrop set."""
    best = math.pi / 2
    for cone in ptset.cones:
        best = min(best, distance_to_cone(cone.rays, u))
    return best
