"""Reference routines for subdivisions and galaxy skeletons, used by tests.

None of these is reached by the library: they locate subdivision points
and circle angles in exact ``Fraction`` arithmetic, and walk every alcove
of a dilated order simplex, so that the integer paths of ``troplim`` can be
checked against them.
"""

import itertools
from fractions import Fraction as F
from operator import mul

from builders import UnknownStratum
from troplim.complexes import canonical_point


def alcoves(m, level):
    """Unimodular alcoves of the dilated order simplex level*O_m.

    Each alcove is the ordered vertex chain b, b+e_{pi(1)}, ..., b+1 for an
    integer base point and a permutation; exactly level**m of them fit.
    """
    if m == 0:
        yield ((),)
        return
    bases = [b for b in itertools.product(range(level + 1), repeat=m)
             if all(b[i] >= b[i + 1] for i in range(m - 1))]
    for b in bases:
        for pi in itertools.permutations(range(m)):
            chain = [tuple(b)]
            cur = list(b)
            ok = True
            for step in pi:
                cur[step] += 1
                good = all(cur[i] >= cur[i + 1] for i in range(m - 1)) \
                    and cur[0] <= level and cur[-1] >= 0
                if not good:
                    ok = False
                    break
                chain.append(tuple(cur))
            if ok:
                yield tuple(chain)


def push_point(sub, name, coords):
    """Locate a point of a subdivision cell in the original complex."""
    carrier, verts = sub.carrier(name)
    weights = tuple(F(c) for c in coords)
    assert len(weights) == len(verts)
    t = tuple(sum(map(mul, weights, col)) / sub.level for col in zip(*verts))
    return canonical_point(sub.original, carrier, t)


def vertex_location(sub, name):
    return push_point(sub, name, (F(1),))


def rational_point_set(x, level):
    """The level's rational points as a set of (cell name, interior
    barycentric coordinates): in each m-cell, the m cuts of 0..level
    strictly inside it, and the Fraction differences of consecutive cuts."""
    points = set()
    for cell in x.cells:
        for comp in itertools.combinations(range(1, level), cell.dim):
            cuts = (0,) + comp + (level,)
            points.add((cell.name, tuple(F(cuts[i + 1] - cuts[i], level)
                                         for i in range(cell.dim + 1))))
    return points


def circle_position(p, cell_name, coords):
    """Angle in [0, 1) of a point of a labeled cycle, from its labels and
    charts; ``p`` has ``m``, ``complex`` and ``label(vertex)``."""
    name, t = canonical_point(p.complex, cell_name, coords)
    cell = p.complex.cell(name)
    if cell.dim == 0:
        return p.label(name)
    start = p.label(cell.faces[1])
    return (start + t[1] * F(1, p.m)) % 1


def edge_interval(p, edge):
    """The angle interval covered by an edge, on the universal cover."""
    cell = p.complex.cell(edge)
    if cell.dim != 1:
        raise UnknownStratum(f"{edge!r} is not an edge")
    start = p.label(cell.faces[1])
    return start, start + F(1, p.m)
