"""Floating-point sampling oracle for projective tropicalizations.

The exact routes compute PTrop combinatorially.  This module approaches the
same set numerically, the way one would probe an unknown germ: follow paths
x -> 0 inside the variety, record the vector of -log|coordinate| values,
normalize, and cluster the resulting directions.  Agreement within loose
tolerance is strong evidence that the exact combinatorics match the
analytic limit set; the oracle is deliberately independent of the exact
code (numpy root finding, no rational arithmetic).

Paths are radial: for plane germs x1 = r exp(i theta) with r halved at each
depth step, solving for the other coordinate with numpy.roots; for surface
germs the first two coordinates get random positive weights w and x3 is
solved for.  The growth exponent of a vanishing branch is read off as a
difference quotient of log|x_last| between consecutive radii, which cancels
multiplicative constants and converges quickly.  Directions are clustered
by single linkage in angular distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NoBranchFound
from .tropical import PTropSet, TropicalPolynomial

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
    rng = np.random.default_rng(seed)
    out = {}
    for e, _ in f.terms:
        modulus = 0.5 + 1.5 * rng.random()
        phase = 2 * math.pi * rng.random()
        out[e] = modulus * complex(math.cos(phase), math.sin(phase))
    return out


def _last_var_roots(coeffs: Mapping[IVec, complex], fixed: Sequence[complex]
                    ) -> np.ndarray:
    """Roots in the last variable after substituting the other coordinates."""
    top = max(e[-1] for e in coeffs)
    poly = np.zeros(top + 1, dtype=complex)
    for e, c in coeffs.items():
        scale = c
        for val, k in zip(fixed, e):
            scale *= val ** k
        poly[e[-1]] += scale
    return np.roots(poly[::-1])


def _branch_slopes(coeffs: Mapping[IVec, complex], fixed_at) -> list[float]:
    """Exponent estimates for vanishing branches along one shrinking path."""
    # only the last two radii are read: the slope is their difference quotient
    logs = []
    for k in (DEPTH - 2, DEPTH - 1):
        r = INITIAL_RADIUS * DECAY ** k
        mags = np.sort(np.abs(_last_var_roots(coeffs, fixed_at(r))))
        logs.append(np.log(np.maximum(mags, 1e-280)))
    if len(logs[0]) != len(logs[1]):
        return []
    quot = (logs[1] - logs[0]) / math.log(DECAY)
    return [float(s) for s in quot if MIN_SLOPE < s < MAX_SLOPE]


def _cluster(directions: np.ndarray, angle: float) -> list[Cluster]:
    """Single-linkage clustering at the given angular threshold.

    Clusters are the connected components of the graph linking directions
    closer than the angle, found by a breadth-first search from each lowest
    unlabelled index; members are summed in increasing index order.
    """
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
    if n not in (2, 3):
        raise DimensionMismatch(
            f"the sampler handles 2 or 3 variables, not {n}")
    if not coeffs:
        raise ValueError("need at least one coefficient")
    rng = np.random.default_rng(seed)
    directions: list[tuple[float, ...]] = []
    for _ in range(PATHS):
        if n == 2:
            theta = 2 * math.pi * rng.random()
            phase = complex(math.cos(theta), math.sin(theta))
            weights = (1.0,)

            def fixed_at(r, phase=phase):
                return (r * phase,)
        else:
            thetas = 2 * math.pi * rng.random(2)
            w = 0.25 + 1.75 * rng.random(2)
            phases = [complex(math.cos(t), math.sin(t)) for t in thetas]
            weights = (float(w[0]), float(w[1]))

            def fixed_at(r, phases=phases, w=w):
                return (r ** w[0] * phases[0], r ** w[1] * phases[1])

        for slope in _branch_slopes(coeffs, fixed_at):
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
    # imported here: scipy is the oracle's slowest import and only this reads it
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
