"""Floating-point sampling oracle for projective tropicalizations.

The exact routes compute PTrop combinatorially.  This module approaches the
same set numerically, the way one would probe an unknown germ: follow paths
x -> 0 inside the variety, record the vector of -log|coordinate| values,
normalize, and cluster the resulting directions.  Agreement within loose
tolerance is strong evidence that the exact combinatorics match the
analytic limit set; the oracle is deliberately independent of the exact
code (numpy root finding, no rational arithmetic), and imports numpy and
scipy on first use, so that importing troplim loads neither.

Paths are radial: for plane germs x1 = r exp(i theta), solving for the
other coordinate; for surface germs the first two coordinates get random
positive weights w and x3 is solved for.  Each path is evaluated at two
radii only, r = INITIAL_RADIUS * DECAY ** k for k = DEPTH - 2 and DEPTH - 1,
and the growth exponent of a vanishing branch is the difference quotient
of log|x_last| between them, which cancels multiplicative constants.
Directions are clustered by single linkage in angular distance.

Each stage runs over all paths at once, in whole arrays, bit for bit as
path by path: one draw of every path's random numbers (the same stream);
one complex array of polynomials, one row per path and radius, built on
the real and imaginary parts of power tables with the formulas of Python's
scalar complex product and integer power, term by term in a fixed order;
the rows of one trimmed length solved together as companion-matrix
eigenvalues, exactly what numpy.roots returns for each, of which only the
magnitudes are kept, in one zero-padded table; the slopes of the paths
whose two root counts agree read off it with one sort, log and difference
per count; the directions divided by totals summed in the order Python's
sum adds floats; and the clusters grown over the rows of the closeness
graph packed as int bitmasks.  numpy's array complex product and square
differ from Python's in the last bits on many inputs, so neither is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ._linalg import IVec
from .errors import (
    DimensionMismatch, NoBranchFound, ResourceCap, ValidationError)
from .tropical import PTropSet, TropicalPolynomial

if TYPE_CHECKING:
    import numpy as np


# path sampler settings, as in the reported experiments: two radii per path,
# INITIAL_RADIUS * DECAY ** k for k = DEPTH - 2 and DEPTH - 1, slopes kept
# inside (MIN_SLOPE, MAX_SLOPE), single linkage below CLUSTER_ANGLE radians
PATHS = 200
DEPTH = 12
INITIAL_RADIUS = 0.1
DECAY = 0.5
MIN_SLOPE = 0.08
MAX_SLOPE = 50.0
CLUSTER_ANGLE = 3e-3
# the largest degree in the solved variable that the oracle samples: it
# solves 2 * PATHS companion matrices of side one less, and x + y^64 took
# 1.9 s and 65 MB on 2 vCPUs, x + y^150 24.5 s and 186 MB
DEGREE_CAP = 64


@dataclass(frozen=True)
class Cluster:
    """A bundle of sampled limit directions, normalized to coordinate sum 1."""

    direction: tuple[float, ...]
    size: int


def _require_degree(exponents) -> None:
    """Refuse, with ResourceCap, a support of degree above DEGREE_CAP in
    the last variable, the one the oracle solves for."""
    degree = max(e[-1] for e in exponents)
    if degree > DEGREE_CAP:
        raise ResourceCap(
            f"degree {degree} in the last variable exceeds the sampling "
            f"oracle's cap of {DEGREE_CAP}")


def lift_coefficients(f: TropicalPolynomial, seed: int = 0
                      ) -> dict[IVec, complex]:
    """Generic complex coefficients for the support of f (moduli in [1/2, 2]).
    A support that the oracle would refuse is refused here, before numpy
    is loaded."""
    _require_degree(f.exponents)
    import numpy as np
    rng = np.random.default_rng(seed)
    out = {}
    for e, _ in f.terms:
        modulus = 0.5 + 1.5 * rng.random()
        phase = 2 * math.pi * rng.random()
        out[e] = modulus * complex(math.cos(phase), math.sin(phase))
    return out


def _prod(ar, ai, br, bi):
    """(ar + ai i)(br + bi i), formed as CPython's complex product forms it,
    on floats or float arrays alike."""
    return ar * br - ai * bi, ar * bi + ai * br


def _powers(re: np.ndarray, im: np.ndarray, exponents) -> dict:
    """The real and imaginary parts of x ** k for each exponent k, by
    CPython's repeated squaring for integer powers: from 1, times each
    squaring x ** (2 ** bit) whose bit k sets, lowest bit first.

    Python raises exponents above 100 by a polar formula instead, and numpy
    scalars those from 100 on by libm's cpow; such a power may differ from
    theirs in the last bits.
    """
    squares = [(re, im)]
    while 1 << len(squares) <= max(exponents):
        squares.append(_prod(*squares[-1], *squares[-1]))
    table = {}
    for k in exponents:
        power = (1.0, 0.0)
        for bit, square in enumerate(squares):
            if k >> bit & 1:
                power = _prod(*power, *square)
        table[k] = power
    return table


def _last_var_polys(coeffs: Mapping[IVec, complex],
                    fixed: np.ndarray) -> np.ndarray:
    """Coefficients in the last variable, highest degree first, one row per
    row of ``fixed``, the values substituted for the other one or two
    coordinates.

    The arithmetic is a term-by-term expansion in scalar complex arithmetic,
    done on the real and imaginary parts of whole columns: each
    coordinate's powers are taken once, into a table of the exponents it
    carries, and a term is its coefficient times its power of each
    coordinate in turn, a zeroth power included, added to its slot in
    ``coeffs`` order.
    """
    import numpy as np
    top = max(e[-1] for e in coeffs)
    tables = [_powers(fixed.real[:, j], fixed.imag[:, j],
                      {e[j] for e in coeffs})
              for j in range(fixed.shape[1])]
    polys = np.zeros((len(fixed), top + 1), dtype=complex)
    re, im = polys.real, polys.imag
    for e, c in coeffs.items():
        c = complex(c)
        term = (c.real, c.imag)
        for table, k in zip(tables, e):
            term = _prod(*term, *table[k])
        re[:, top - e[-1]] += term[0]
        im[:, top - e[-1]] += term[1]
    return polys


def _root_slopes(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponent estimates for the vanishing branches of each path, whose
    polynomials at the last two radii are rows 2i and 2i + 1: the path
    indices, increasing, and beside them the difference quotients of the
    path's sorted log root magnitudes inside (MIN_SLOPE, MAX_SLOPE), none
    for a path whose two root counts differ.

    The roots are np.roots' of each row, bit for bit: leading zeros are
    stripped, each trailing zero adds one zero root, and a row that is zero,
    or constant once trimmed, has no other root.  Each row's nonzero span is
    read off a mask with ``argmax``; the rows of one trimmed length are
    gathered, and their companion matrices, first row -p[1:]/p[0] and ones
    below the diagonal (Edelman & Murakami 1995), stacked into one
    eigenvalue call.  Only the magnitudes are kept, in one table whose zero
    padding stands for the zero roots.
    """
    import numpy as np
    width = polys.shape[1]
    nonzero = polys != 0
    first = nonzero.argmax(axis=1)
    last = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    sizes = np.where(nonzero.any(axis=1), last - first + 1, 0)
    # a zero row has no root (its mask puts its last nonzero entry at the
    # end, so it counts no trailing zero), a constant one only those zeros
    counts = np.maximum(sizes - 1, 0) + (width - 1 - last)
    mags = np.zeros((len(polys), counts.max(initial=0)))
    for size in np.unique(sizes[sizes > 1]).tolist():
        rows = np.flatnonzero(sizes == size)
        p = polys[rows[:, None], first[rows, None] + np.arange(size)]
        companion = np.zeros((len(rows), size - 1, size - 1), dtype=complex)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        below = np.arange(size - 2)
        companion[:, below + 1, below] = 1
        mags[rows, :size - 1] = np.abs(np.linalg.eigvals(companion))
    before, after = counts[::2], counts[1::2]
    slopes = np.full((len(before), mags.shape[1]), -np.inf)  # kept by none
    for count in np.unique(before[before == after]).tolist():
        paths = np.flatnonzero((before == count) & (after == count))
        pairs = mags[2 * paths[:, None] + np.arange(2), :count]
        logs = np.log(np.maximum(np.sort(pairs, axis=-1), 1e-280))
        slopes[paths, :count] = (logs[:, 1] - logs[:, 0]) / math.log(DECAY)
    paths, branches = np.nonzero((MIN_SLOPE < slopes) & (slopes < MAX_SLOPE))
    return paths, slopes[paths, branches]


def _cluster(directions: np.ndarray, angle: float) -> list[Cluster]:
    """Single-linkage clustering at the given angular threshold.

    Clusters are the connected components of the graph linking directions
    closer than the angle, each grown from its lowest index by OR-ing the
    graph's rows, packed into int bitmasks, of its newly reached members.
    One stable argsort of the labels lists each cluster's members in
    increasing index order, the order in which they are summed.
    """
    import numpy as np
    m = len(directions)
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    # one symmetric product (syrk) with its triangle copied, so the graph
    # is symmetric bit for bit
    gram = unit @ unit.T
    # arccos(gram) < angle, decided by gram alone outside a band around
    # cos(angle) far wider than arccos's error, and by arccos inside it
    cos = math.cos(angle)
    close = gram > cos + 1e-9
    band = (gram > cos - 1e-9) & ~close
    close[band] = np.arccos(gram[band]) < angle
    packed = np.packbits(close, axis=1, bitorder="little")
    step, data = packed.shape[1], packed.tobytes()
    rows = [int.from_bytes(data[i:i + step], "little")
            for i in range(0, m * step, step)]
    labels = [-1] * m
    sizes: list[int] = []
    for seed in range(m):
        if labels[seed] >= 0:
            continue
        reached = frontier = 1 << seed
        while frontier:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                i = bit.bit_length() - 1
                labels[i] = len(sizes)
                grown |= rows[i]
                frontier ^= bit
            frontier = grown & ~reached
            reached |= frontier
        sizes.append(reached.bit_count())
    order = np.argsort(labels, kind="stable")
    clusters = []
    for end, size in zip(np.cumsum(sizes).tolist(), sizes):
        total = unit[order[end - size:end]].sum(axis=0)
        norm = total / total.sum()
        clusters.append(Cluster(tuple(norm.tolist()), size))
    return sorted(clusters, key=lambda c: c.direction)


def ptrop_sample_oracle(coeffs: Mapping[IVec, complex], seed: int = 0
                        ) -> tuple[Cluster, ...]:
    """Sampled PTrop directions of the germ of {poly = 0} at the origin,
    in as many variables as the exponents have entries, which must agree.
    A germ of degree above DEGREE_CAP in the last variable, the one solved
    for, is refused with ResourceCap before anything is built."""
    if not coeffs:
        raise ValidationError("need at least one coefficient")
    n = len(next(iter(coeffs)))
    for e in coeffs:
        if len(e) != n:
            raise DimensionMismatch(
                f"exponent {e} has length {len(e)}, not {n}")
    if n not in (2, 3):
        raise DimensionMismatch(
            f"the sampler handles 2 or 3 variables, not {n}")
    _require_degree(coeffs)
    import numpy as np
    rng = np.random.default_rng(seed)
    # only the last two radii are read: the slope is their difference quotient
    radii = [INITIAL_RADIUS * DECAY ** k for k in (DEPTH - 2, DEPTH - 1)]
    # every path's draws at once: the same stream as one draw per path.  A
    # path's coordinates at each radius are the complex products r * phase
    # or r ** w * phase, with libm's cos, sin and pow
    if n == 2:
        thetas = 2 * math.pi * rng.random((PATHS, 1))
        weights = np.ones((PATHS, 1))
        scale = np.array(radii)[:, None]
    else:
        draws = rng.random((PATHS, 4))
        thetas = 2 * math.pi * draws[:, :2]
        weights = 0.25 + 1.75 * draws[:, 2:]
        scale = np.array([[[r ** w for w in ws] for r in radii]
                          for ws in weights.tolist()])
    thetas = thetas.tolist()
    cos = np.array([[math.cos(t) for t in ts] for ts in thetas])[:, None]
    sin = np.array([[math.sin(t) for t in ts] for ts in thetas])[:, None]
    fixed = np.empty((PATHS, len(radii), n - 1), dtype=complex)
    fixed.real, fixed.imag = _prod(scale, 0.0, cos, sin)
    rows, last = _root_slopes(
        _last_var_polys(coeffs, fixed.reshape(-1, n - 1)))
    if not rows.size:
        raise NoBranchFound(
            "no path produced a branch approaching the origin; the germ may "
            "miss the origin entirely")
    w = weights[rows]
    # summed left to right, as Python 3.11's sum adds floats: (w0 + w1) + s
    total = (w[:, 0] if n == 2 else w[:, 0] + w[:, 1]) + last
    directions = np.column_stack((w, last)) / total[:, None]
    return tuple(_cluster(directions, CLUSTER_ANGLE))


def _angle_to(mat: np.ndarray, a: np.ndarray) -> float:
    """Angle from the unit vector a to the cone spanned by mat's columns."""
    import numpy as np
    from scipy.optimize import nnls

    coeffs, _ = nnls(mat, a)
    proj = mat @ coeffs
    norm = np.linalg.norm(proj)
    if norm < 1e-12:
        return math.pi / 2
    return float(np.arccos(min(max(a @ proj / norm, -1.0), 1.0)))


def distance_to_ptrop(ptset: PTropSet, directions: Sequence[Sequence[float]]
                      ) -> list[float]:
    """Angular distance from each direction to the exact PTrop set, with
    each cone's rays made the columns of a float matrix once.

    Each cone lies in a spherical cap: the centre c is the normalized sum of
    its unit rays and the radius rho the largest angle from c to a ray.
    The rays lie in the closed orthant, so rho < pi/2 and the cap is convex
    and holds the whole cone, and by the triangle inequality the angle from
    u to the cone is at least angle(u, c) - rho.  The cones are solved in
    increasing order of that bound until it passes the best angle so far by
    more than 1e-6, far above the rounding of the angles, so every cone left
    out is farther than the best and the minimum keeps its bits.
    """
    import numpy as np
    if not ptset.cones or not len(directions):
        return [math.pi / 2] * len(directions)
    mats = [np.asarray(cone.rays, dtype=float).T for cone in ptset.cones]
    units = [mat / np.linalg.norm(mat, axis=0) for mat in mats]
    centres = np.array([u.sum(axis=1) for u in units])
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    radii = np.array([np.arccos(min(1.0, float((c @ u).min())))
                      for c, u in zip(centres, units)])
    dirs = np.asarray(directions, dtype=float)
    cosines = dirs @ centres.T / np.linalg.norm(dirs, axis=1, keepdims=True)
    lower = (np.arccos(np.clip(cosines, -1.0, 1.0)) - radii).tolist()
    distances = []
    for u, bounds in zip(directions, lower):
        # normalized alone, so the bits _angle_to sees do not depend on
        # the other directions
        a = np.asarray(u, dtype=float)
        a = a / np.linalg.norm(a)
        best = math.pi / 2
        for k in sorted(range(len(bounds)), key=bounds.__getitem__):
            if bounds[k] > best + 1e-6:
                break
            best = min(best, _angle_to(mats[k], a))
        distances.append(best)
    return distances
