"""Hand-built inputs for the tests: small Δ-complexes, a cell-count
ratio and rational direction vectors.

None of these is reached by the library: the complexes (a point, a
segment, a triangle, the square as two triangles, the boundary and the
solid tetrahedron, the torus of two triangles) are what the tests
subdivide, map and compare, and a rational vector is the plain case of a
symbolic direction.
"""

import itertools
from fractions import Fraction

from troplim.complexes import DeltaComplex, make_complex
from troplim.errors import DimensionMismatch
from troplim.towers import SymbolicVector, symbolic_vector


def component_ratio(fine: DeltaComplex, coarse: DeltaComplex) -> Fraction:
    """Ratio of top-cell counts; N^m for an N-fold subdivision in dim m."""
    if fine.dim != coarse.dim:
        raise DimensionMismatch(
            f"top dimensions differ: {fine.dim} vs {coarse.dim}")
    d = fine.dim
    return Fraction(len(fine.by_dim(d)), len(coarse.by_dim(d)))


def point_complex(name: str = "pt") -> DeltaComplex:
    return make_complex([(name, [])])


def segment_complex() -> DeltaComplex:
    return make_complex([("z0", []), ("z1", []), ("e", ["z1", "z0"])])


def triangle_complex() -> DeltaComplex:
    return make_complex([
        ("a", []), ("b", []), ("c", []),
        ("bc", ["c", "b"]), ("ac", ["c", "a"]), ("ab", ["b", "a"]),
        ("T", ["bc", "ac", "ab"]),
    ])


def square_complex() -> DeltaComplex:
    """The unit square as two triangles glued along the diagonal.

    Vertices a=(0,0), b=(1,0), c=(0,1), d=(1,1); the diagonal runs a-d.
    """
    return make_complex([
        ("a", []), ("b", []), ("c", []), ("d", []),
        ("ab", ["b", "a"]), ("ad", ["d", "a"]), ("ac", ["c", "a"]),
        ("bd", ["d", "b"]), ("cd", ["d", "c"]),
        ("abd", ["bd", "ad", "ab"]),
        ("acd", ["cd", "ad", "ac"]),
    ])


def tetrahedron_boundary() -> DeltaComplex:
    """Four triangles glued as the boundary of a 3-simplex (chi = 2)."""
    cells = _simplex_cells(3)
    return make_complex([c for c in cells if len(c[1]) != 4])


def tetrahedron_solid() -> DeltaComplex:
    return make_complex(_simplex_cells(3))


def torus() -> DeltaComplex:
    """The torus R^2/Z^2 as a Δ-complex: one vertex, three loop edges a, b,
    c (the sides and the diagonal of the unit square) and two triangles;
    level N subdivides it into N^2 vertices, 3N^2 edges and 2N^2
    triangles."""
    return make_complex([
        ("v", []), ("a", ["v", "v"]), ("b", ["v", "v"]), ("c", ["v", "v"]),
        ("T0", ["b", "c", "a"]), ("T1", ["a", "c", "b"]),
    ])


def _simplex_cells(m: int) -> list[tuple[str, list[str]]]:
    """All faces of the standard m-simplex on vertices v0..vm."""
    out = []
    for k in range(1, m + 2):
        for sub in itertools.combinations(range(m + 1), k):
            name = "v" + "".join(str(i) for i in sub)
            faces = ["v" + "".join(str(i) for i in sub[:j] + sub[j + 1:])
                     for j in range(k)] if k > 1 else []
            out.append((name, faces))
    return out


def rational_vector(v) -> SymbolicVector:
    """SymbolicVector wrapper around an ordinary rational vector."""
    return symbolic_vector(list(v))
