"""Seeded job corpora for the three benchmark workloads.

Pure Python with no troplim import: the inputs, and the answers each job is
checked against, are built here independently of the program under test.

A workload is a list of blocks.  Every block has the same job mix (the same
subcommands, term counts, tower depths and subdivision levels), and the seed
only picks the geometry inside that mix: exponents and valuations, fan rays,
directions, vertex labels, angles.  Fixing the mix keeps the work per block
nearly seed-independent, so the figures of two seeds are comparable, while
every block still holds inputs no earlier block had.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product


@dataclass
class Job:
    """One `troplim` invocation and the answer its report must give."""

    name: str
    argv: list
    files: dict = field(default_factory=dict)   # file name -> JSON object
    expect: dict = field(default_factory=dict)  # read by checks.check

    @property
    def inputs(self):
        """The input file names: positional arguments after the subcommand."""
        names, args = [], iter(self.argv[1:])
        for arg in args:
            if arg.startswith("--"):
                next(args)  # every flag used here takes a value
            else:
                names.append(arg)
        return names


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def primitive(v):
    g = 0
    for a in v:
        g = math.gcd(g, a)
    return tuple(a // g for a in v)


# -- ptrop --------------------------------------------------------------------

# the worked examples of the acceptance suite, as (n, {exponent: valuation})
WORKED = [
    (2, {(1, 1): 0, (3, 0): 0, (0, 3): 0}),
    (2, {(1, 0): 0, (0, 1): 0}),
    (3, {(1, 1, 0): 0, (0, 0, 2): 0}),
    (2, {(2, 0): 0, (1, 1): 0, (0, 2): 0}),
    (3, {(1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0}),
    (4, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 0, (0, 0, 1, 1): 0}),
    (2, {(1, 0): Fraction(1, 2), (0, 2): 0, (2, 1): -1}),
]

# (vars, term counts cycled through block by block, jobs per block).  The
# plane germs are mostly oracle time and the largest class, so the median
# job is one of them.  The 8-term rank-4 germs are the slow tail: they
# outnumber the ten jobs the tail percentile leaves beyond it, and the
# rank-3 germs stay small enough to keep out of their range.
PTROP_MIX = [
    (2, list(range(2, 15)), 6),
    (3, list(range(2, 9)), 2),
    (4, list(range(2, 8)), 4),
    (4, [8], 4),
]


def _poly(n, terms):
    return {"vars": n, "terms": [{"exp": list(e), "val": q(v)}
                                 for e, v in sorted(terms.items())]}


def _germ(rng, n, count, max_deg=4):
    pool = [e for e in product(range(max_deg + 1), repeat=n)
            if 0 < sum(e) <= max_deg]
    return {e: rng.randint(-3, 3) for e in rng.sample(pool, count)}


def ptrop_block(rng, b, seed):
    jobs = []
    if b == 0:
        for i, (n, terms) in enumerate(WORKED):
            jobs.append(_ptrop_job(f"b{b:02d}-worked{i}", n, terms))
    for n, counts, per_block in PTROP_MIX:
        for j in range(per_block):
            count = counts[(b * per_block + j) % len(counts)]
            jobs.append(_ptrop_job(f"b{b:02d}-n{n}t{count:02d}-{j}", n,
                                   _germ(rng, n, count)))
    return jobs


def _ptrop_job(name, n, terms):
    # the oracle runs for n <= 3 and may find no branch through the origin
    return Job(name, ["ptrop", name + ".json"],
               {name + ".json": _poly(n, terms)},
               {"kind": "ptrop",
                "outcomes": ["NoBranchFound"] if n <= 3 else []})


def ptrop_warmup(rng, p):
    return [_ptrop_job(f"{p}-n2", 2, _germ(rng, 2, 4)),
            _ptrop_job(f"{p}-n3", 3, _germ(rng, 3, 4)),
            _ptrop_job(f"{p}-n4", 4, _germ(rng, 4, 5))]


# -- fans and towers ----------------------------------------------------------


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular(u, v):
    h = _half(u) - _half(v)
    if h:
        return h
    c = u[0] * v[1] - u[1] * v[0]
    return 0 if c == 0 else (-1 if c > 0 else 1)


def fan_json(rank, cones):
    """Canonical fan file: rays sorted, each cone as sorted ray indices."""
    rays = sorted({r for c in cones for r in c})
    index = {r: i for i, r in enumerate(rays)}
    return {"rank": rank, "rays": [[str(a) for a in r] for r in rays],
            "maximal_cones": sorted(sorted(index[r] for r in c)
                                    for c in cones)}


def complete_fan_2d(rng, extra):
    """The axis rays plus exactly `extra` further primitive directions."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < 4 + extra:
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v != (0, 0):
            rays.add(primitive(v))
    ring = sorted(rays, key=cmp_to_key(_angular))
    return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]


def unimodular(rng, n):
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        for r in range(n):
            m[r][i] += k * m[r][j]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * a for a in m[perm[i]]] for i in range(n)]


def apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(m)))


def orthant_fan(m, n):
    """Image of the coordinate-orthant fan under the unimodular matrix m."""
    cones = []
    for signs in product((1, -1), repeat=n):
        cones.append(tuple(apply(m, tuple(s if k == i else 0
                                          for k in range(n)))
                           for i, s in enumerate(signs)))
    return cones


def _sb_direction(rng, length):
    """A positive-quadrant direction reached by `length` mediant steps."""
    u, v = (1, 0), (0, 1)
    w = (1, 1)
    for _ in range(length - 1):
        if rng.random() < 0.5:
            v = w
        else:
            u = w
        w = (u[0] + v[0], u[1] + v[1])
    return w


def _sqrt_symbol(k):
    lo = math.isqrt(k * 10 ** 12)
    return {"name": f"sqrt{k}", "lo": q(Fraction(lo, 10 ** 6)),
            "hi": q(Fraction(lo + 1, 10 ** 6))}


def _symbolic_direction(rng, m, n):
    """m applied to a positive vector over (1, sqrt k), irrational in ratio."""
    k = rng.choice((2, 3, 5, 7))
    while True:
        rows = [(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
        if len({Fraction(a, b) for a, b in rows}) == n:
            break
    entries = [[q(sum(m[i][j] * rows[j][t] for j in range(n)))
                for t in range(2)] for i in range(n)]
    return {"symbols": [_sqrt_symbol(k)], "entries": entries}


def _rational_vector(v):
    return {"entries": [q(a) for a in v]}


def _limit_job(name, base_cones, n, steps, direction, expect,
               strategy="toward-direction"):
    spec = {"base_fan": fan_json(n, base_cones), "steps": steps}
    if strategy == "toward-direction":
        spec["strategy"] = {"kind": strategy, "direction": direction}
    else:
        spec["strategy"] = {"kind": strategy}
        spec["direction"] = direction
    return Job(name, ["limit-point", name + ".json"], {name + ".json": spec},
               dict(expect, kind="limit-point", depth=steps + 1))


def towers_block(rng, b, seed):
    # fan-validate jobs are the fastest, refine jobs next and the towers
    # slowest; as many validations as towers put the median on a refine job
    p = f"b{b:02d}"
    jobs = []
    for j, extra in enumerate((3, 4, 3, 4)):
        a, c = complete_fan_2d(rng, extra), complete_fan_2d(rng, extra)
        jobs.append(_refine_job(f"{p}-refine{j}", a, c))
    a = complete_fan_2d(rng, 4)
    jobs.append(_refine_job(f"{p}-refine-self", a, a))
    for j, extra in enumerate((2, 3, 4, 5, 2, 3, 4)):
        cones = complete_fan_2d(rng, extra)
        name = f"{p}-validate{j}"
        jobs.append(Job(name, ["fan-validate", name + ".json"],
                        {name + ".json": fan_json(2, cones)},
                        {"kind": "fan-validate",
                         "rays": sorted({r for c in cones for r in c})}))
    for j in range(3):
        # resolved halfway up a 24-step tower, then kept through the rest:
        # the slowest job class that every block has, so it sets the tail
        m = unimodular(rng, 2)
        steps, length = 24, 12
        d0 = _sb_direction(rng, length)
        d0 = (rng.choice((1, -1)) * d0[0], rng.choice((1, -1)) * d0[1])
        d = apply(m, d0)
        jobs.append(_limit_job(
            f"{p}-chase2-q{j}", orthant_fan(m, 2), 2, steps,
            _rational_vector(d),
            {"ray": primitive(d),
             "carrier_dims": [2] * length + [1] * (steps + 1 - length)}))
    m = unimodular(rng, 2)
    jobs.append(_limit_job(f"{p}-chase2-s", orthant_fan(m, 2), 2, 24,
                           _symbolic_direction(rng, m, 2), {"ray": None}))
    for j, steps in enumerate((4, 8)):
        m = unimodular(rng, 3)
        d = apply(m, tuple(rng.choice((1, -1)) * rng.randint(1, 5)
                           for _ in range(3)))
        jobs.append(_limit_job(
            f"{p}-chase3-q{j}", orthant_fan(m, 3), 3, steps,
            _rational_vector(d),
            {"ray": primitive(d), "carrier_dims": [3] + [1] * steps}))
    m = unimodular(rng, 3)
    jobs.append(_limit_job(f"{p}-chase3-s", orthant_fan(m, 3), 3, 8,
                           _symbolic_direction(rng, m, 3), {"ray": None}))
    # stellar-at-barycenters towers: one step in every block, and one
    # two-step tower (several seconds) in the first block only
    for steps in (1, 2) if b == 0 else (1,):
        m = unimodular(rng, 3)
        d = apply(m, tuple(rng.choice((1, -1)) * rng.randint(1, 5)
                           for _ in range(3)))
        jobs.append(_limit_job(f"{p}-stellar3-{steps}", orthant_fan(m, 3), 3,
                               steps, _rational_vector(d),
                               {"ray": primitive(d), "maybe_unresolved": True},
                               strategy="stellar-at-barycenters"))
    return jobs


def _refine_job(name, a, c):
    """Refine fan a by fan c; with c = a, both inputs are the same file."""
    first = name + "-a.json"
    second = first if a == c else name + "-b.json"
    files = {first: fan_json(2, a), second: fan_json(2, c)}
    rays = sorted({r for cone in a + c for r in cone})
    return Job(name, ["refine", first, second], files,
               {"kind": "refine", "rays": rays,
                "fan": fan_json(2, a) if a == c else None})


def towers_warmup(rng, p):
    m = unimodular(rng, 2)
    d = apply(m, _sb_direction(rng, 2))
    return [_refine_job(f"{p}-refine", complete_fan_2d(rng, 2),
                        complete_fan_2d(rng, 2)),
            _limit_job(f"{p}-chase2", orthant_fan(m, 2), 2, 2,
                       _rational_vector(d),
                       {"ray": primitive(d), "carrier_dims": [2, 2, 1]})]


# -- complexes and galaxies ---------------------------------------------------


def _labels(rng, count):
    names = set()
    while len(names) < count:
        names.add("".join(rng.choice("abcdefghjkmnpqrstuvwxyz")
                          for _ in range(3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def ordered_complex(labels, tops):
    """Cells of an ordered simplicial complex given by its top simplices.

    Each simplex lists its vertices in the label order; face i omits vertex
    i, which satisfies the simplicial identities.  Returns the complex file
    and its cell counts by dimension.
    """
    simplices = set()
    for top in tops:
        top = tuple(sorted(top))
        for k in range(1, len(top) + 1):
            simplices.update(combinations(top, k))
    name = {s: ".".join(labels[i] for i in s) for s in simplices}
    cells = [{"name": name[s],
              "faces": [name[s[:i] + s[i + 1:]] for i in range(len(s))]
              if len(s) > 1 else []}
             for s in sorted(simplices, key=lambda s: (len(s), s))]
    counts = {}
    for s in simplices:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return {"cells": cells, "affine": True, "provenance": None}, counts


SHAPES = {
    "triangle": (3, [(0, 1, 2)]),
    "square": (4, [(0, 1, 3), (0, 2, 3)]),
    "tetrahedron": (4, [(0, 1, 2, 3)]),
}


def _shape(rng, kind):
    if kind in SHAPES:
        nverts, tops = SHAPES[kind]
    else:  # a random pure 2-complex with six triangles on seven vertices
        nverts = 7
        tops = rng.sample(list(combinations(range(nverts), 3)), 6)
    return ordered_complex(_labels(rng, nverts), tops)


def _euler(counts):
    return sum((-1) ** d * c for d, c in counts.items())


def _subdivide_job(name, file_obj, counts, level, output=None, source=None,
                   euler=None):
    """Subdivide a complex file, or with `source` the artifact of an earlier
    job; `counts` are the cell counts of the complex being subdivided."""
    m = max(counts)
    argv = ["subdivide", "--N", str(level), source or name + ".json"]
    if output:
        argv += ["--output", output]
    return Job(name, argv, {} if source else {name + ".json": file_obj},
               {"kind": "subdivide", "top_dim": m,
                "top_cells": counts[m] * level ** m,
                "euler": _euler(counts) if euler is None else euler})


def _galaxy_points(rng, count_rational, count_symbolic):
    points = []
    for _ in range(count_rational):
        den = rng.choice((1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 5, 7, 96, 384))
        points.append(q(Fraction(rng.randint(0, 2 * den), den)))
    for _ in range(count_symbolic):
        k = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        lo = math.isqrt(k * 10 ** 12) - math.isqrt(k) * 10 ** 6
        points.append({"symbol": {
            "name": f"frac-sqrt{k}", "lo": q(Fraction(lo, 10 ** 6)),
            "hi": q(Fraction(lo + 1, 10 ** 6))}})
    return points


MAP_DATASETS = {
    # name: (vertices, source top simplices, vertex -> segment end, the
    #        f-vector of the fiber over every interior point of the segment)
    "square": (4, [(0, 1, 3), (0, 2, 3)], (0, 1, 0, 1), [3, 2]),
    "tetrahedron": (4, [(0, 1, 2, 3)], (0, 1, 1, 1), [3, 3, 1]),
}


def _map_job(rng, name, dataset):
    nverts, tops, vmap, fiber = MAP_DATASETS[dataset]
    labels = _labels(rng, nverts)
    source, _ = ordered_complex(labels, tops)
    target, _ = ordered_complex(["z0", "z1"], [(0, 1)])
    points = []
    for _ in range(3):
        den = rng.randint(2, 9)
        t = Fraction(rng.randint(1, den - 1), den)
        points.append({"cell": "z0.z1", "coords": [q(t), q(1 - t)]})
    obj = {"source": source, "target": target,
           "vertex_map": {labels[i]: f"z{vmap[i]}" for i in range(nverts)},
           "points": points}
    expect = {"kind": "map-fibers", "f_vector": fiber}
    if dataset == "tetrahedron":
        obj["reference"], counts = ordered_complex(
            labels, list(combinations(range(4), 3)))
        expect.update(reference_euler=_euler(counts), mismatch=True)
    return Job(name, ["map-fibers", name + ".json"], {name + ".json": obj},
               expect)


def _dualcx_job(rng, name, mode):
    k = rng.randint(3, 7)
    comps = [f"C{i}" for i in range(k)]
    strata = [{"name": c, "codim": 0, "branches": 1} for c in comps]
    closures, edges = [], 0
    for i in range(rng.randint(k, 2 * k)):
        linked = rng.sample(comps, rng.choice((1, 2)))
        strata.append({"name": f"n{i}", "codim": 1, "branches": 2})
        closures += [[f"n{i}", c] for c in linked]
        edges += 1 if (len(linked) == 2 or mode == "analytic") else 0
    obj = {"mode": mode, "strata": strata, "closures": closures}
    counts = {0: k, 1: edges} if edges else {0: k}
    return Job(name, ["dualcx", name + ".json"], {name + ".json": obj},
               {"kind": "dualcx", "counts": counts})


# subdivision levels of the re-subdivision pair, final cycle sizes of the
# elliptic base changes and of the galaxy towers.  The first galaxy tower
# classifies rational angles only, which need just the levels up to the
# one they open at; symbolic angles need every level.
RESUB = (3, 3)
BASE_CHANGE_SIZES = (768, 1536)
GALAXY_SIZES = (1536, 864)
CYCLE_DIVISORS = (1, 2, 3, 4, 6, 8, 12)


def _factor(k):
    out = []
    for p in (2, 3):
        while k % p == 0:
            out.append(p)
            k //= p
    if k != 1:
        raise ValueError("cycle sizes must be products of 2s and 3s")
    return out


def skeletons_block(rng, b, seed):
    p = f"b{b:02d}"
    jobs = []
    for kind, level in (("triangle", 8), ("square", 6), ("tetrahedron", 3),
                        ("random2", 4)):
        obj, counts = _shape(rng, kind)
        jobs.append(_subdivide_job(f"{p}-sub-{kind}", obj, counts, level))
    obj, counts = _shape(rng, "tetrahedron")
    first = f"{p}-resub-a"
    jobs.append(_subdivide_job(first, obj, counts, RESUB[0],
                               output=first + "-out.json"))
    # the second job subdivides the first one's output file, whose top
    # count is known and whose Euler characteristic is the tetrahedron's
    jobs.append(_subdivide_job(
        f"{p}-resub-b", None, {3: counts[3] * RESUB[0] ** 3}, RESUB[1],
        source=first + "-out.json", euler=_euler(counts)))
    for j, size in enumerate(BASE_CHANGE_SIZES):
        # distinct cycle lengths from block to block, same final size
        m = CYCLE_DIVISORS[(b + j + seed) % len(CYCLE_DIVISORS)]
        level = size // m
        name = f"{p}-basechange{j}"
        jobs.append(Job(name, ["subdivide", "--N", str(level), name + ".json"],
                        {name + ".json": {"elliptic": {"m": m}}},
                        {"kind": "subdivide", "top_dim": 1,
                         "top_cells": m * level, "euler": 0,
                         "counts": {0: m * level, 1: m * level}}))
    for j, (size, symbols) in enumerate(zip(GALAXY_SIZES, (0, 2))):
        # a divisibility chain of base changes ending at the same cycle
        # size for every seed: m times a shuffled product of 2s and 3s
        m = CYCLE_DIVISORS[(b + j + seed) % len(CYCLE_DIVISORS)]
        factors = _factor(size // m)
        rng.shuffle(factors)
        degrees = [1]
        for f in factors:
            degrees.append(degrees[-1] * f)
        name = f"{p}-galaxy{j}"
        jobs.append(Job(name, ["galaxy", name + ".json"],
                        {name + ".json": {
                            "elliptic": {"m": m, "degrees": degrees},
                            "points": _galaxy_points(rng, 4, symbols)}},
                        {"kind": "galaxy"}))
    for j, (kind, level) in enumerate((("tetrahedron", 6), ("random2", 8))):
        obj, counts = _shape(rng, kind)
        name = f"{p}-points{j}"
        jobs.append(Job(name, ["rational-points", "--level", str(level),
                               name + ".json"], {name + ".json": obj},
                        {"kind": "rational-points",
                         "count": sum(c * math.comb(level - 1, d)
                                      for d, c in counts.items())}))
    for dataset in MAP_DATASETS:
        jobs.append(_map_job(rng, f"{p}-fibers-{dataset}", dataset))
    for mode in ("analytic", "algebraic"):
        jobs.append(_dualcx_job(rng, f"{p}-dualcx-{mode}", mode))
    return jobs


def skeletons_warmup(rng, p):
    obj, counts = _shape(rng, "triangle")
    return [_subdivide_job(f"{p}-sub", obj, counts, 2),
            Job(f"{p}-galaxy", ["galaxy", f"{p}-galaxy.json"],
                {f"{p}-galaxy.json": {"elliptic": {"m": 3, "degrees": [1, 2]},
                                      "points": _galaxy_points(rng, 1, 1)}},
                {"kind": "galaxy"}),
            _map_job(rng, f"{p}-fibers", "square"),
            _dualcx_job(rng, f"{p}-dualcx", "analytic")]


WORKLOADS = {
    "ptrop": (ptrop_block, ptrop_warmup),
    "towers": (towers_block, towers_warmup),
    "skeletons": (skeletons_block, skeletons_warmup),
}


def generate(workload, seed, blocks, warmups):
    """The warm-up job lists and the measured job list for one run."""
    block_fn, warm_fn = WORKLOADS[workload]
    warm = [warm_fn(random.Random(f"{workload}:{seed}:warm:{i}"), f"warm{i}")
            for i in range(warmups)]
    measured = []
    for b in range(blocks):
        measured += block_fn(random.Random(f"{workload}:{seed}:{b}"), b, seed)
    return warm, measured
