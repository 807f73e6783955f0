"""Exact linear algebra over the rationals.

Small dense routines on tuples: row reduction, rank, integer determinants,
reduction modulo a span.  Everything is exact (int / fractions.Fraction);
no floats.  Matrices are sequences of rows; rows are sequences of int or
Fraction.  Elimination (``rref``, and everything built on it) runs
fraction-free in the integers, so no routine here builds a Fraction: one
comes out of ``dot`` or ``mat_mul_vec`` only when one goes in.
Sizes are desk scale (rank <= 6 after homogenization), so clarity beats
asymptotics throughout.  The integer-vector conventions live here only:
``IVec``, the primitive form, the cancelling combination and the pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ValidationError

IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence) -> Fraction | int:
    """Exact inner product."""
    if len(u) != len(v):
        raise ValidationError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def integer_vector(v: Iterable, error: type[Exception]) -> IVec:
    """The entries as ints; ``error`` refuses one that ``int`` would change."""
    v = tuple(v)
    out = tuple(map(int, v))
    if out != v:
        raise error(f"{v} has an entry that is not an integer")
    return out


def primitivize(v: Sequence) -> IVec:
    """Scale a rational vector to a primitive integer vector (same direction).

    Entries are int or Fraction.  Zero vectors pass through unchanged.
    """
    try:
        g = gcd(*v)
    except TypeError:
        # a Fraction entry: clear the denominators first
        den = lcm(*(a.denominator for a in v))
        v = [a.numerator * (den // a.denominator) for a in v]
        g = gcd(*v)
    if g <= 1:
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


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant of a square matrix of size >= 1, by Bareiss
    elimination: each division is exact, so no entry leaves Z."""
    n = len(rows)
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


def canonical_mod(v: Sequence, red: Sequence[IVec]) -> IVec:
    """The primitive representative of v modulo the span of an integer
    RREF as ``rref`` gives it: zero in each row's pivot column, its first
    nonzero entry, and the same for every positive multiple of every
    vector in v's coset."""
    x = primitivize(v)
    for row in red:
        pc = next(i for i, a in enumerate(row) if a)
        if x[pc]:
            x = _cancel(row[pc], x, x[pc], row)
    return x


def _cancel(s: int, v: IVec, t: int, w: IVec) -> IVec:
    """primitivize(s v - t w): with a.w = s and a.v = t, a row ``a`` vanishes
    on it; a positive multiple of v plus a multiple of w when s > 0."""
    return primitivize([s * x - t * y for x, y in zip(v, w)])


def identity_rows(n: int) -> list[IVec]:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def mat_mul_vec(rows: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in rows)
