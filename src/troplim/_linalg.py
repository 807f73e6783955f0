"""Exact linear algebra over the rationals.

Small dense routines on tuples: row reduction, rank, kernels, determinants,
affine solves.  Everything is exact (int / fractions.Fraction); no floats.
Matrices are sequences of rows; rows are sequences of int or Fraction.
Elimination (``rref``, and everything built on it) runs fraction-free in
the integers; ``solve_affine`` returns Fraction values, and ``det`` does
on non-integer input.
Sizes are desk scale (rank <= 6 after homogenization), so clarity beats
asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence) -> Fraction | int:
    """Exact inner product."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Sequence, s) -> tuple:
    return tuple(a * s for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def primitivize(v: Sequence) -> IVec:
    """Scale a rational vector to a primitive integer vector (same direction).

    Entries are int or Fraction.  Zero vectors pass through unchanged.
    """
    if not all(type(a) is int for a in v):
        den = lcm(*(a.denominator for a in v))
        v = [a.numerator * (den // a.denominator) for a in v]
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def rref(rows: Iterable[Sequence]) -> tuple[list[IVec], list[int]]:
    """Reduced row echelon form over Q, computed in integers.

    Returns (nonzero rows, pivot columns).  Each row is the primitive integer
    multiple of its RREF row with a positive pivot, so it is zero in every
    other pivot column and before its own.  Input rows are primitivized
    first (the row space is unchanged), then eliminated by cross-multiplying
    with the pivot row and dividing by the content, so no entry leaves Z.
    """
    rows_left = [list(primitivize(row)) for row in rows]
    if not rows_left:
        return [], []
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(len(rows_left[0])):
        i = next((i for i, r in enumerate(rows_left) if r[col] != 0), None)
        if i is None:
            continue
        pivot_row = rows_left.pop(i)
        p = pivot_row[col]
        if p < 0:
            p = -p
            pivot_row = [-a for a in pivot_row]
        for r in rows_left + out:
            f = r[col]
            if f != 0:
                r[:] = [a * p - f * b for a, b in zip(r, pivot_row)]
                g = gcd(*r)
                if g > 1:
                    r[:] = [a // g for a in r]
        out.append(pivot_row)
        pivots.append(col)
        if not rows_left:
            break
    return [tuple(r) for r in out], pivots


def mat_rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Iterable[Sequence], ncols: int) -> list[IVec]:
    """Primitive integer basis of the right kernel {x : A x = 0}."""
    red, pivots = rref(rows)
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = scale
        for row, pc in zip(red, pivots):
            x[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitivize(x))
    return basis


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant: direct formulas up to 3x3, Bareiss above."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            piv = next((i for i in range(col + 1, n) if m[i][col] != 0), None)
            if piv is None:
                return 0
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def det(rows: Sequence[Sequence]) -> Fraction | int:
    """Exact determinant; integer fast path, else elimination over Q."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if all(isinstance(a, int) for row in rows for a in row):
        return _det_int(rows)
    m = [[Fraction(a) for a in row] for row in rows]
    sign = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / m[col][col]
                for j in range(col, n):
                    m[i][j] -= f * m[col][j]
    result = Fraction(sign)
    for i in range(n):
        result *= m[i][i]
    return result


def signed_minor_kernel(rows: Sequence[Sequence[int]]) -> IVec | None:
    """Kernel direction of an integer (k-1) x k matrix via signed maximal minors.

    Returns a primitive integer kernel vector, or None when the rows have
    rank below k-1 (all minors vanish).  This is the hot path of facet and
    extreme-ray enumeration.
    """
    k = len(rows[0]) if rows else 0
    if len(rows) != k - 1:
        raise ValueError("signed_minor_kernel expects k-1 rows of length k")
    if k == 2:
        (a, b), = rows
        minors: Sequence = (b, -a)
    elif k == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        minors = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    else:
        minors = [
            (-1) ** drop * _det_int([[row[j] for j in range(k) if j != drop]
                                     for row in rows])
            for drop in range(k)
        ]
    if all(m == 0 for m in minors):
        return None
    return primitivize(minors)


def solve_affine(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def canonical_subspace_basis(rows: Iterable[Sequence]) -> tuple[IVec, ...]:
    """Canonical primitive-integer basis of the row span (RREF scaled)."""
    return tuple(rref(rows)[0])


def reduce_prepared(v: Sequence, red: Sequence[IVec], pivots: Sequence[int]
                    ) -> tuple:
    """v reduced against an integer RREF, up to a positive factor.

    Clears every pivot column by cross-multiplication, so integer input
    stays integer.  The result is a positive multiple of the canonical
    representative of v modulo the row span (zero in every pivot column,
    depending only on the coset of v); primitivize it to compare.
    """
    x = list(v)
    for row, pc in zip(red, pivots):
        f = x[pc]
        if f != 0:
            p = row[pc]
            x = [a * p - f * b for a, b in zip(x, row)]
    return tuple(x)


def identity_rows(n: int) -> list[IVec]:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def mat_mul_vec(rows: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)
