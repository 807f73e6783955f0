"""Tests for the exact linear algebra under the cone conversion.

`_linalg.rref` eliminates in the integers.  The Gauss-Jordan elimination
over `Fraction` below is the reference it replaced; the routines built on
`rref` are checked against references built on it, on mixed int/Fraction
matrices with zero, duplicate and dependent rows.  The integer determinant
is checked against Gaussian elimination over `Fraction` on square integer
matrices, singular ones included.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from troplim import _linalg as la


# -- the Fraction reference -------------------------------------------------


def reference_rref(rows):
    """Reduced row echelon form over Q with Fraction entries (pivots 1)."""
    work = [tuple(Fraction(a) for a in row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    out = []
    pivots = []
    rows_left = [list(r) for r in work]
    col = 0
    while rows_left and col < ncols:
        pivot_row = None
        for r in rows_left:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows_left.remove(pivot_row)
        inv = pivot_row[col]
        pivot_row = [a / inv for a in pivot_row]
        for r in rows_left:
            if r[col] != 0:
                f = r[col]
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        for r in out:
            if r[col] != 0:
                f = r[col]
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        out.append(pivot_row)
        pivots.append(col)
        col += 1
    return [tuple(r) for r in out], pivots


def reference_det(rows):
    """Determinant over Q: Gaussian elimination with row swaps, Fraction
    entries, the product of the pivots."""
    m = [[Fraction(a) for a in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in m[col + 1:]:
            f = r[col] / m[col][col]
            r[:] = [a - f * b for a, b in zip(r, m[col])]
    return det


def reference_primitivize(v):
    fracs = [Fraction(a) for a in v]
    if all(a == 0 for a in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for a in fracs:
        denom_lcm = denom_lcm * a.denominator // gcd(denom_lcm, a.denominator)
    ints = [int(a * denom_lcm) for a in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
    return tuple(a // g for a in ints)


def reference_solve_affine(rows, rhs):
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = reference_rref(
        [list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return tuple(x)


def reference_reduce(v, span_rows):
    """Canonical representative of v modulo the span, over Fraction."""
    x = [Fraction(a) for a in v]
    red, pivots = reference_rref(span_rows)
    for row, pc in zip(red, pivots):
        f = x[pc]
        x = [a - f * b for a, b in zip(x, row)]
    return tuple(x)


# -- strategies -------------------------------------------------------------

entries = st.one_of(st.integers(-6, 6),
                    st.fractions(-6, 6, max_denominator=6))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """(ncols, rows): mixed int/Fraction rows, with zero, duplicate and
    dependent rows mixed in at random positions."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols).map(tuple)
    rows = draw(st.lists(row, max_size=max_rows))
    extra = []
    for kind in draw(st.lists(st.sampled_from(("zero", "dup", "comb")),
                              max_size=3)):
        if kind == "zero" or not rows:
            extra.append(tuple([0] * ncols))
            continue
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "dup":
            extra.append(tuple(draw(st.sampled_from((1, -1, Fraction(3, 2))))
                               * x for x in a))
        else:
            s, t = draw(entries), draw(entries)
            extra.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return ncols, draw(st.permutations(rows + extra))


# -- rref -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rows_are_primitive_int_scalings_of_the_fraction_rref(data):
    _, rows = data
    red, pivots = la.rref(rows)
    ref, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    for row, pc in zip(red, pivots):
        assert all(type(a) is int for a in row)
        assert gcd(*row) == 1
        assert row[pc] > 0
    assert [tuple(Fraction(a, row[pc]) for a in row)
            for row, pc in zip(red, pivots)] == ref


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_routines_on_rref_match_the_fraction_reference(data):
    _, rows = data
    assert la.mat_rank(rows) == len(reference_rref(rows)[0])


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_canonical_mod_is_the_primitive_reduction(data, draw):
    ncols, rows = data
    v = draw.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    reduced = la.canonical_mod(v, la.rref(rows)[0])
    assert reduced == reference_primitivize(reference_reduce(v, rows))
    assert all(type(a) is int for a in reduced)


def test_dot_refuses_vectors_of_unequal_length():
    """No input reaches this refusal: the library's callers check lengths
    against the ambient rank first (``cone_holds`` and ``locate`` raise
    DimensionMismatch)."""
    with pytest.raises(ValueError, match="length mismatch 2 vs 1"):
        la.dot((1, 2), (1,))


def test_rref_of_no_rows_and_zero_rows():
    assert la.rref([]) == ([], [])
    assert la.rref([(0, 0), (Fraction(0), 0)]) == ([], [])


# -- primitivize ------------------------------------------------------------


@pytest.mark.parametrize("vec, expected", [
    ((2, 4, -6), (1, 2, -3)),
    ((2, 4), (1, 2)),
    ((1, 0, 0), (1, 0, 0)),
    ((-6, 9, -3), (-2, 3, -1)),
    ((Fraction(1, 2), Fraction(3, 4)), (2, 3)),
    ((-3, 0, 9), (-1, 0, 3)),
    ((Fraction(1, 2), 3, Fraction(-3, 4)), (2, 12, -3)),
    ((Fraction(-2, 3), Fraction(4, 9)), (-3, 2)),
    ((Fraction(6, 5), 0), (1, 0)),
    ((0, 0, 0), (0, 0, 0)),
    ((Fraction(0), 0), (0, 0)),
    ((), ()),
])
def test_primitivize_cases(vec, expected):
    result = la.primitivize(vec)
    assert result == expected == reference_primitivize(vec)
    assert all(type(a) is int for a in result)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=6))
def test_primitivize_matches_the_fraction_reference(vec):
    result = la.primitivize(vec)
    assert result == reference_primitivize(vec)
    assert all(type(a) is int for a in result)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=6),
       st.one_of(st.integers(1, 9),
                 st.fractions(Fraction(1, 6), 9, max_denominator=6)))
def test_primitivize_is_idempotent_and_positive_scale_invariant(vec, scale):
    p = la.primitivize(vec)
    assert la.primitivize(p) == p
    assert la.primitivize([scale * a for a in vec]) == p


# -- det --------------------------------------------------------------------


@st.composite
def square_matrices(draw):
    """Square integer matrices of sizes 1-5; about half are made singular
    by a zero, repeated or combined row, or a zero column."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    kind = draw(st.sampled_from(("any", "zero row", "repeat", "comb",
                                 "zero column")))
    if kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    elif kind == "zero column":
        k = draw(st.integers(0, n - 1))
        rows = [r[:k] + [0] + r[k + 1:] for r in rows]
    elif kind != "any" and n > 1:
        # row i becomes a combination of one other row, or of two
        i, j, *rest = draw(st.permutations(range(n)))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        other = rows[rest[0]] if kind == "comb" and rest else [0] * n
        rows[i] = [s * a + t * b for a, b in zip(rows[j], other)]
    return rows


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_det_matches_the_fraction_reference(rows):
    det = la._det_int(rows)
    assert type(det) is int
    assert det == reference_det(rows)


def test_det_cases():
    assert la._det_int([[7]]) == 7
    assert la._det_int([[0, 1], [1, 0]]) == -1
    assert la._det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert la._det_int([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 5],
                        [0, 0, 7, 0]]) == -210
    assert la._det_int([[1, 2], [2, 4]]) == 0
