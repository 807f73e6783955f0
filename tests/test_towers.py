"""Tests for fan towers, symbolic directions, and chain resolution.

The frozen values come from hand-checked small cases: barycentric splitting
of the quadrant fan, mediant chains toward (1, sqrt 2) whose carrier rays are
continued-fraction convergents, and the fiber-rank examples where the answer
is immediate from the coefficient matrix.
"""

import functools
import itertools
from operator import mul
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from builders import (
    cone_is_face,
    fan_from_rays_2d,
    fraction_enclosure,
    is_subdivision,
    make_cone,
    rational_vector,
    stellar_subdivision,
)
from troplim import fans, towers as tw
from troplim._linalg import _det_int, mat_rank, primitivize
from troplim.errors import (
    DepthCap, DimensionMismatch, EmptyChain, OutsideSupport, RankCap,
    TropLimError, UndecidableSign, ValidationError, ZeroVector,
)
from troplim.lattice import (
    RANK_CAP, cone_faces, cone_holds, locate,
)
from troplim.lattice import cone_from_generators as cg

SQRT2 = tw.Symbol.sqrt(2)


def quadrant_fan():
    return fans.fan_from_cones([
        cg([(1, 0), (0, 1)]), cg([(0, 1), (-1, 0)]),
        cg([(-1, 0), (0, -1)]), cg([(0, -1), (1, 0)]),
    ])


# -- symbols and signs ------------------------------------------------------


def test_sqrt_symbol_enclosure():
    s = tw.Symbol.sqrt(2)
    assert s.lo ** 2 <= 2 <= s.hi ** 2
    assert s.hi - s.lo == F(1, 10 ** 6)


def test_sqrt_symbol_of_square_is_exact():
    # sqrt(4) = 2 is rational: a box [2, 2] would be taken as irrational
    with pytest.raises(ValueError, match=r"sqrt\(4\) = 2 is rational"):
        tw.Symbol.sqrt(4)


@pytest.mark.parametrize("k", [0, -2])
def test_sqrt_symbol_of_a_non_positive_argument_is_refused(k):
    """No input reaches this refusal: input files give each symbol's box,
    and only the tests build a symbol by ``Symbol.sqrt``."""
    with pytest.raises(ValueError, match="needs a positive argument"):
        tw.Symbol.sqrt(k)


def test_symbol_refuses_a_box_without_interior():
    # a box [1, 1] holds only a rational, and [2, 1] holds nothing
    with pytest.raises(ValueError,
                       match=r"enclosure \[1, 1\] of s has no interior"):
        tw.Symbol("s", F(1), F(1))
    with pytest.raises(ValueError, match="empty enclosure for s"):
        tw.Symbol("s", F(2), F(1))
    assert tw.Symbol("s", F(1), F(2)).hi == 2


def test_symbolic_vector_entry_validation():
    with pytest.raises(DimensionMismatch) as exc:
        tw.symbolic_vector([1, (1, 2, 3)], [SQRT2])
    assert str(exc.value) == \
        "entry 1: expected one coefficient for each of (1, sqrt2), got 3"
    # two symbols of one name would be read as independent
    with pytest.raises(ValidationError) as exc:
        tw.symbolic_vector([1, (0, 1, -1)], [SQRT2, SQRT2])
    assert str(exc.value) == "symbols 0 and 1 share the name 'sqrt2'"


def test_sign_refuses_a_functional_of_the_wrong_length():
    """No input reaches this refusal: the one caller, ``lattice.locate``,
    compares the vector's length with the cone's rank first and raises
    DimensionMismatch itself."""
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    with pytest.raises(DimensionMismatch,
                       match="functional has length 3, vector has 2"):
        x.sign((1, 0, 0))
    with pytest.raises(DimensionMismatch, match="vector length 2 vs ambient 3"):
        locate(cg([(1, 0, 0)]), x)


def test_sign_of_rational_and_zero():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    assert x.sign((1, 0)) == 1
    assert x.sign((-1, 0)) == -1
    assert rational_vector([1, 1]).sign((1, -1)) == 0


def test_sign_of_irrational_combination():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    # sqrt2 - 1 > 0 and 1 - sqrt2 < 0, decided by the enclosure
    assert x.sign((-1, 1)) == 1
    assert x.sign((1, -1)) == -1
    # 2 - sqrt2*sqrt... cannot cancel: 2*x1 - x2 = 2 - sqrt2 > 0
    assert x.sign((2, -1)) == 1


def test_sign_of_undecidable_reports_data():
    eps = tw.Symbol("eps", F(-1, 1000), F(1, 1000))
    x = tw.symbolic_vector([1, (0, 1)], [eps])
    with pytest.raises(UndecidableSign) as exc:
        x.sign((0, 1))
    assert exc.value.coefficients == (F(0), F(1))
    assert exc.value.interval == (F(-1, 1000), F(1, 1000))


def reference_sign(x, functional):
    """``SymbolicVector.sign`` with the combination and its enclosure in
    Fractions; an undecidable sign is returned as the error's data."""
    combo = [sum(F(a) * row[j] for a, row in zip(functional, x.rows))
             for j in range(len(x.symbols) + 1)]
    if not any(combo[1:]):
        return (combo[0] > 0) - (combo[0] < 0)
    lo, hi = fraction_enclosure(combo, x.symbols)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return UndecidableSign, tuple(combo), (lo, hi)


def box_centre(x):
    """The centre of x's box, each coordinate's Fraction enclosure's
    midpoint."""
    return tuple((lo + hi) / 2 for lo, hi in
                 (fraction_enclosure(row, x.symbols) for row in x.rows))


def sign_outcome(x, functional):
    try:
        return x.sign(functional)
    except UndecidableSign as exc:
        return UndecidableSign, exc.coefficients, exc.interval


@st.composite
def boxed_vectors(draw):
    """Vectors over 1-3 symbols whose boxes have large, unequal
    denominators, with entries of large denominators too, and a
    functional on them of integers and fractions."""
    k = draw(st.integers(1, 3))
    big = st.integers(-10 ** 12, 10 ** 12)
    den = st.integers(1, 10 ** 9)
    symbols = []
    for i in range(k):
        lo = F(draw(big), draw(den))
        width = F(draw(st.integers(1, 10 ** 12)), draw(den))
        symbols.append(tw.Symbol(f"a{i}", lo, lo + width))
    entry = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 6))
    rows = draw(st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1),
                         min_size=1, max_size=4))
    functional = draw(st.lists(
        st.one_of(st.integers(-5, 5), st.builds(F, st.integers(-5, 5),
                                                st.integers(1, 7))),
        min_size=len(rows), max_size=len(rows)))
    return tw.symbolic_vector(rows, symbols), functional


STRADDLE = (tw.symbolic_vector(
    [[F(1, 3), F(2, 999_999_937)], [F(-1, 3), 0]],
    [tw.Symbol("a", F(-10 ** 9, 999_999_929), F(10 ** 9, 1_000_000_007))]),
    [1, 1])
DECIDED = (tw.symbolic_vector(
    [[F(7, 3), F(2, 999_999_937)]],
    [tw.Symbol("a", F(-1, 999_999_929), F(3, 1_000_000_007))]), [1])


@settings(max_examples=300, deadline=None)
@given(boxed_vectors())
@example(STRADDLE)
@example(DECIDED)
def test_the_integer_enclosure_decides_as_the_fractions_do(case):
    """The sign decided in integers over the scaled boxes is the Fraction
    enclosure's; where the enclosure straddles zero, the error reports the
    same coefficients and interval.  In ranks 3 and 4, a toward step
    splits the orthant cone around the box centre at the ray of the
    Fraction enclosure's centre."""
    x, functional = case
    assert sign_outcome(x, functional) == reference_sign(x, functional)
    if x.n < 3:
        return
    centre = box_centre(x)
    fan = orthant_image(x.n, [])
    carrier, holding = fan.locate(centre)
    if carrier.dim < 2:
        return
    new, _ = tw.TowardDirection(x).step(fan, carrier, holding)
    assert set(new.rays) - set(fan.rays) == {primitivize(centre)}
    assert tw.TowardDirection(x).ray(carrier) == primitivize(centre)


def test_a_toward_step_builds_no_fraction(monkeypatch):
    """The toward step places its ray in integers: with the target's
    scaled entries and boxes read first, one step on the octant toward
    (1, sqrt 2, 1/2) builds no Fraction."""
    x = tw.symbolic_vector([1, (0, 1), F(1, 2)], [SQRT2])
    assert x._scaled and x._boxes
    tower = tw.fan_tower(orthant_image(3, []))
    built, new = [], F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    tower = tw.extend_tower(tower, tw.TowardDirection(x), 1)
    monkeypatch.undo()
    assert built == []
    assert tower.depth == 2


def test_a_toward_step_off_the_target_carrier_is_an_internal_error():
    """``extend_tower`` hands the step the target's carrier, whose relative
    interior holds the box centre; only a direct call with another carrier
    reaches the self-check."""
    x = tw.symbolic_vector([1, (0, 1), F(1, 2)], [SQRT2])
    fan = orthant_image(3, [])
    carrier, holding = fan.locate((-1, -1, -1))
    with pytest.raises(AssertionError, match="internal: the target's box "
                       "centre"):
        tw.TowardDirection(x).step(fan, carrier, holding)


def test_an_undecidable_sign_reports_fractions_of_unequal_denominators():
    x, functional = STRADDLE
    c = F(2, 999_999_937)
    with pytest.raises(UndecidableSign) as exc:
        x.sign(functional)
    assert exc.value.coefficients == (0, c)
    assert exc.value.interval == (c * F(-10 ** 9, 999_999_929),
                                  c * F(10 ** 9, 1_000_000_007))
    assert DECIDED[0].sign(DECIDED[1]) == 1


# -- fiber rank and model ---------------------------------------------------


def test_fiber_rank_examples():
    assert tw.fiber_rank(tw.symbolic_vector([1, (0, 1)], [SQRT2])) == 2
    assert tw.fiber_rank(rational_vector([1, 1])) == 1
    assert tw.fiber_rank(tw.symbolic_vector([1, (0, 1), (1, 1)], [SQRT2])) == 2


def test_fiber_rank_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        tw.fiber_rank(rational_vector([0, 0]))


def test_fiber_model_dimensions():
    assert tw.fiber_model(tw.symbolic_vector([1, (0, 1)], [SQRT2])).dim == 0
    assert tw.fiber_model(rational_vector([1, 1])).dim == 1
    x3 = tw.symbolic_vector([1, (0, 1), (1, 1)], [SQRT2])
    assert tw.fiber_model(x3).dim == 1


def test_fiber_model_normalization():
    x = tw.symbolic_vector([(1, 1), 1, (0, 1)], [SQRT2])
    m = tw.fiber_model(x)
    assert abs(_det_int(m.basis_change)) == 1
    permuted = [x.rows[row.index(1)] for row in m.basis_change]
    assert mat_rank(permuted[:m.rank]) == m.rank
    for i in range(m.rank, 3):
        assert mat_rank(permuted[:m.rank] + [permuted[i]]) == m.rank


def reference_fiber_choice(x):
    """The coordinates ``fiber_model`` puts first, chosen by one rank test
    per coordinate: each one independent of those already chosen."""
    chosen, picked = [], []
    for i, row in enumerate(x.rows):
        if mat_rank(picked + [row]) > len(picked):
            chosen.append(i)
            picked.append(row)
    return chosen


def reference_permutation_sign(order):
    """(-1) to the number of inversions."""
    flips = sum(1 for i, j in itertools.combinations(range(len(order)), 2)
                if order[i] > order[j])
    return -1 if flips % 2 else 1


@st.composite
def symbolic_vectors(draw):
    """Nonzero vectors of 1-5 coordinates over 1 and up to three square
    roots, each coordinate a small combination of at most three shared
    rows, so that ranks 1-5 and repeated coordinates all come up."""
    symbols = [tw.Symbol.sqrt(p) for p in (2, 3, 5)][:draw(st.integers(0, 3))]
    k = len(symbols) + 1
    coeff = st.integers(-2, 2)
    base = draw(st.lists(st.lists(coeff, min_size=k, max_size=k),
                         min_size=1, max_size=3))
    n = draw(st.integers(1, 5))
    entries = []
    for _ in range(n):
        weights = draw(st.lists(coeff, min_size=len(base),
                                max_size=len(base)))
        entries.append([sum(w * b[j] for w, b in zip(weights, base))
                        + F(draw(coeff), draw(st.sampled_from((1, 3))))
                        * draw(st.sampled_from((0, 0, 1)))
                        for j in range(k)])
    x = tw.symbolic_vector(entries, symbols)
    assume(not x.is_zero)
    return x


@settings(max_examples=300, deadline=None)
@given(symbolic_vectors())
def test_fiber_model_matches_the_rank_per_coordinate_loop(x):
    if x.n > RANK_CAP:
        with pytest.raises(RankCap):
            tw.fiber_model(x)
        return
    m = tw.fiber_model(x)
    chosen = reference_fiber_choice(x)
    order = chosen + [i for i in range(x.n) if i not in chosen]
    assert m.rank == len(chosen) == tw.fiber_rank(x)
    assert m.dim == x.n - m.rank
    assert m.basis_change == tuple(
        tuple(int(j == order[i]) for j in range(x.n)) for i in range(x.n))
    assert _det_int(m.basis_change) == reference_permutation_sign(order)


# -- tower extension --------------------------------------------------------


def test_barycentric_step_splits_every_cone():
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), 1)
    assert len(t.fans[1].maximal) == 8
    assert t.fans[1].rays == (
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    assert len(t.witnesses[0].carrier) == len(t.fans[1].maximal)


def test_zero_steps_is_identity():
    t = tw.fan_tower(quadrant_fan())
    assert tw.extend_tower(t, tw.StellarAtBarycenters(), 0) == t


def test_depth_cap():
    t = tw.fan_tower(quadrant_fan())
    with pytest.raises(DepthCap):
        tw.extend_tower(t, tw.StellarAtBarycenters(), tw.TOWER_DEPTH_CAP)


def test_common_refine_strategy_absorbs():
    diag = fan_from_rays_2d([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.CommonRefineWith(diag), 2)
    assert len(t.fans[1].maximal) == 8
    assert t.fans[2] == t.fans[1]


def test_ray_stability_along_towers():
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), 3)
    for coarse, fine in zip(t.fans, t.fans[1:]):
        assert set(coarse.rays) <= set(fine.rays)


# -- chains toward directions -----------------------------------------------


def test_toward_irrational_shrinks_strictly():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 5)
    chain = tw.chain_toward(t, x)
    assert len(chain.cones) == 6
    for a, b in zip(chain.cones, chain.cones[1:]):
        # strictly nested plane cones have strictly smaller angles
        assert cone_holds(a, b.rays, b.lines) and b != a
    # convergents of sqrt 2 appear as carrier rays
    assert chain.cones[-1].rays == ((2, 3), (5, 7))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.UnresolvedCone)
    assert res.cone.dim == 2


def test_toward_irrational_never_resolves_at_any_prefix():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 6)
    chain = tw.chain_toward(t, x)
    for d in range(1, len(chain.cones) + 1):
        prefix = tw.ConeChain(chain.cones[:d])
        assert isinstance(tw.resolve_direction(prefix), tw.UnresolvedCone)


def test_toward_rational_resolves():
    x = rational_vector([2, 5])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.TowardDirection(x), 12)
    res = tw.resolve_direction(tw.chain_toward(t, x))
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray == (2, 5)


def test_chain_toward_quadrant_contains_direction():
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), 2)
    chain = tw.chain_toward(t, rational_vector([1, 1]))
    for cone in chain.cones:
        assert locate(cone, (1, 1)) is not None


def test_chain_toward_zero_rejected():
    t = tw.fan_tower(quadrant_fan())
    with pytest.raises(ZeroVector):
        tw.chain_toward(t, rational_vector([0, 0]))


def test_resolve_constant_chain():
    ray = cg([(1, 1)])
    chain = tw.ConeChain((ray, ray, ray))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray == (1, 1)


def test_resolve_nested_chain_to_boundary_ray():
    chain = tw.ConeChain((
        cg([(1, 0), (0, 1)]), cg([(1, 0), (1, 1)]), cg([(1, 0), (2, 1)]),
        cg([(1, 0), (3, 1)]), cg([(1, 0)]),
    ))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray == (1, 0)


def test_resolve_empty_chain_rejected():
    with pytest.raises(EmptyChain):
        tw.resolve_direction(tw.ConeChain(()))


def test_chain_constructor_rejects_non_nested():
    with pytest.raises(ValueError):
        tw.ConeChain((cg([(1, 0), (1, 1)]), cg([(0, 1), (1, 1)])))


def test_monotone_intersection_along_chain():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 4)
    chain = tw.chain_toward(t, x)
    meets = []
    meet = chain.cones[0]
    for cone in chain.cones[1:]:
        meet = fans.cone_intersect(meet, cone)
        meets.append(meet)
    dims = [m.dim for m in meets]
    assert dims == sorted(dims, reverse=True)


def test_chain_ray_roundtrip_for_tower_rays():
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), 2)
    for r in t.fans[-1].rays:
        res = tw.resolve_direction(tw.chain_toward(t, rational_vector(r)))
        assert isinstance(res, tw.ResolvedRay)
        assert res.ray == r


# -- rational dichotomy -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_rational_directions_resolve(p, q):
    x = rational_vector([p, q])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.TowardDirection(x), 14)
    res = tw.resolve_direction(tw.chain_toward(t, x))
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray == primitivize((p, q))
    assert tw.fiber_rank(x) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 7).filter(lambda k: int(k ** 0.5) ** 2 != k))
def test_irrational_directions_stay_unresolved(k):
    x = tw.symbolic_vector([1, (0, 1)], [tw.Symbol.sqrt(k)])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 8)
    res = tw.resolve_direction(tw.chain_toward(t, x))
    assert isinstance(res, tw.UnresolvedCone)
    assert tw.fiber_rank(x) == 2


# -- symbolic location against rational location ----------------------------


small_vec2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec2.filter(any), min_size=1, max_size=5), small_vec2)
def test_symbolic_locate_agrees_with_rational_locate(gens, v):
    c = make_cone(gens)
    for p in [v] + [f.relint_point() for f in cone_faces(c)]:
        expected = locate(c, p)
        got = locate(c, rational_vector(p))
        assert got == expected
        if got is not None:
            assert (got.facets, got.equations) == \
                (expected.facets, expected.equations)


@functools.cache
def barycentric_fan(steps):
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), steps)
    return t.fans[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), small_vec2)
def test_symbolic_carrier_agrees_with_fan_carrier(steps, v):
    fan = barycentric_fan(steps)
    carrier, _ = fan.locate(v)
    assert locate(carrier, v) == carrier
    assert any(cone_is_face(carrier, sigma) for sigma in fan.maximal)
    sym, _ = fan.locate(rational_vector(v))
    assert sym == carrier
    assert (sym.facets, sym.equations) == (carrier.facets, carrier.equations)


# -- witness-children search and one-pass step against the full search ------


def reference_chain_toward(t, x):
    """``chain_toward`` before the search followed the witnesses: every
    maximal cone of every level is located."""
    cones = []
    for i, fan in enumerate(t.fans):
        carrier, _ = fan.locate(x)
        if carrier is None:
            raise OutsideSupport(f"direction outside level {i}")
        cones.append(carrier)
    return tw.ConeChain(tuple(cones))


def reference_barycentric_step(fan):
    """The barycentric step as one stellar subdivision per cone."""
    out = fan
    for sigma in fan.maximal:
        if sigma.dim >= 2 and sigma.rays:
            out = stellar_subdivision(out, sigma.relint_point())
    return out


def reference_toward_step(strategy, fan):
    """The toward-direction step before the tower handed it the carrier and
    the cones holding it: the carrier is located among every maximal cone,
    and the fan is split by a stellar subdivision, which tests every
    maximal cone for the new ray."""
    carrier, _ = fan.locate(strategy.target)
    if carrier is None:
        raise OutsideSupport("target direction lies outside the fan support")
    if carrier.dim <= 1:
        return fan
    if carrier.n == 2 and len(carrier.rays) == 2:
        new_ray = carrier.relint_point()
    else:
        new_ray = box_centre(strategy.target)
        assert locate(carrier, new_ray) == carrier
    return stellar_subdivision(fan, new_ray)


def reference_levels(base, strategy, steps):
    """The tower's fans, each step searching the whole fan."""
    levels = [base]
    for _ in range(steps):
        if isinstance(strategy, tw.StellarAtBarycenters):
            levels.append(reference_barycentric_step(levels[-1]))
        elif isinstance(strategy, tw.TowardDirection):
            levels.append(reference_toward_step(strategy, levels[-1]))
        else:
            levels.append(strategy.step(levels[-1])[0])
    return levels


def sheared_units(n, moves):
    """The images of the unit vectors under a product of elementary shears
    e_i += k e_j."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), k in moves:
        for row in m:
            row[i] += k * row[j]
    return [tuple(m[r][c] for r in range(n)) for c in range(n)]


def orthant_image(n, moves):
    """The orthant fan under a product of elementary shears e_i += k e_j."""
    cols = sheared_units(n, moves)
    return fans.fan_from_cones(
        [cg([tuple(s * a for a in col) for s, col in zip(signs, cols)])
         for signs in itertools.product((1, -1), repeat=n)])


def non_pure_image(moves):
    """A rank-3 fan that is not pure: the four octants over the third unit
    vector and the 2-dimensional cone over (1, 0, -1) and (0, 1, -1), which
    meets them in the origin only, under a product of shears."""
    a, b, c = sheared_units(3, moves)
    return fans.fan_from_cones(
        [cg([tuple(s * e for e in a), tuple(t * e for e in b), c])
         for s, t in itertools.product((1, -1), repeat=2)]
        + [cg([tuple(p - q for p, q in zip(a, c)),
               tuple(p - q for p, q in zip(b, c))])])


def shears(n):
    return st.lists(st.tuples(st.permutations(range(n)).map(lambda p: p[:2]),
                              st.sampled_from((-1, 1))), max_size=3)


@st.composite
def targets(draw, n):
    """A nonzero rational vector, or one over (1, sqrt k)."""
    coords = st.integers(-3, 3)
    if draw(st.booleans()):
        v = draw(st.tuples(*[coords] * n).filter(any))
        return rational_vector(v)
    rows = draw(st.tuples(*[st.tuples(coords, coords)] * n)
                .filter(lambda rows: any(b for _, b in rows)))
    return tw.symbolic_vector(list(rows),
                              [tw.Symbol.sqrt(draw(st.sampled_from((2, 3))))])


def outcome(fn, *args):
    """The value of fn, or UndecidableSign when it raises that."""
    try:
        return fn(*args)
    except UndecidableSign:
        return UndecidableSign



@settings(max_examples=15, deadline=None)
@given(st.data())
def test_completeness_on_read_matches_validation(data):
    """``Fan.complete``, computed on first read, against the validation
    report, on orthant images, their stellar, barycentric and toward
    levels, common refinements, and each of these less one cone."""
    n = data.draw(st.sampled_from((2, 3)))
    base = orthant_image(n, data.draw(shears(n)))
    ray = data.draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    levels = [base, stellar_subdivision(base, ray),
              tw.StellarAtBarycenters().step(base)[0],
              fans.common_refinement(
                  base, orthant_image(n, data.draw(shears(n))))[0]]
    tower = outcome(tw.extend_tower, tw.fan_tower(base),
                    tw.TowardDirection(data.draw(targets(n))), 2)
    if tower is not UndecidableSign:
        levels += tower.fans[1:]
    for fan in levels:
        less = fans._trusted_fan(fan.maximal[1:])
        assert fan.complete == fans.validate_fan(fan.maximal).complete
        assert less.complete == fans.validate_fan(less.maximal).complete
        assert fan.complete and not less.complete

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_children_search_matches_full_search(data):
    n = data.draw(st.sampled_from((2, 3)))
    base = orthant_image(n, data.draw(shears(n)))
    x = data.draw(targets(n))
    kind = data.draw(st.sampled_from(("toward", "barycentric", "refine")))
    if kind == "toward":
        strategy = tw.TowardDirection(x)
        steps = data.draw(st.integers(1, 8 if n == 2 else 4))
    elif kind == "barycentric":
        strategy = tw.StellarAtBarycenters()
        steps = data.draw(st.integers(1, 2 if n == 2 else 1))
    else:
        strategy = tw.CommonRefineWith(orthant_image(n, data.draw(shears(n))))
        steps = data.draw(st.integers(1, 2))
    levels = outcome(reference_levels, base, strategy, steps)
    tower = outcome(tw.extend_tower, tw.fan_tower(base), strategy, steps)
    if levels is UndecidableSign:
        return
    assert tower.fans == tuple(levels)
    expected = outcome(reference_chain_toward, tower, x)
    if expected is UndecidableSign:
        return
    chain = tw.chain_toward(tower, x)
    assert chain == expected
    for got, want in zip(chain.cones, expected.cones):
        assert (got.facets, got.equations) == (want.facets, want.equations)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_common_refine_steps_hand_over_the_searched_witness(data):
    """Each common-refine-with step's witness, read off the refinement, is
    the one the carrier search finds, also when the other fan lacks a cone
    and so covers only part of the support, where both are None."""
    n = data.draw(st.sampled_from((2, 3)))
    fan = orthant_image(n, data.draw(shears(n)))
    other = orthant_image(n, data.draw(shears(n)))
    if data.draw(st.booleans()):
        drop = data.draw(st.integers(0, len(other.maximal) - 1))
        other = fans._trusted_fan(other.maximal[:drop]
                                  + other.maximal[drop + 1:])
    strategy = tw.CommonRefineWith(other)
    for _ in range(2):
        new, w = strategy.step(fan)
        assert w == is_subdivision(new, fan)
        if w is None:
            return
        fan = new


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_toward_tower_extended_in_two_calls_equals_one_call(data):
    """The second call continues the walk of the first from the last
    level of a depth-3 tower, among the children of the cones holding the
    target; it builds the tower that four steps in one call build, and
    the chain of that tower is the full search's."""
    n = data.draw(st.sampled_from((2, 3)))
    base = tw.fan_tower(orthant_image(n, data.draw(shears(n))))
    x = data.draw(targets(n))
    strategy = tw.TowardDirection(x)
    once = outcome(tw.extend_tower, base, strategy, 4)
    half = outcome(tw.extend_tower, base, strategy, 2)
    twice = half if half is UndecidableSign else \
        outcome(tw.extend_tower, half, strategy, 2)
    assert twice == once
    if once is not UndecidableSign:
        assert outcome(tw.chain_toward, once, x) == \
            outcome(reference_chain_toward, once, x)


def test_toward_step_splits_every_cone_holding_a_wall_carrier():
    """A target on a wall of the octant fan is held by two octants; the
    step splits both, as the full-search reference does."""
    base = orthant_image(3, [])
    strategy = tw.TowardDirection(rational_vector([1, 0, 2]))
    tower = tw.extend_tower(tw.fan_tower(base), strategy, 2)
    assert tower.fans == tuple(reference_levels(base, strategy, 2))
    assert len(tower.fans[1].maximal) == 10


# -- the carrier and its holding cones against the two-pass search ----------


def reference_locate(fan, x, among=None):
    """The carrier search before it handed back the cones holding x: every
    candidate is located and the least face kept, then the candidates
    containing that carrier are found again with ``cone_holds``."""
    among = range(len(fan.maximal)) if among is None else among
    carrier = None
    for j in among:
        face = locate(fan.maximal[j], x)
        if face is not None and (carrier is None or face.dim < carrier.dim):
            carrier = face
    if carrier is None:
        return None, []
    return carrier, [j for j in among
                     if cone_holds(fan.maximal[j], carrier.rays,
                                   carrier.lines)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_locate_matches_the_two_pass_search(data):
    """On the toward and barycentric towers of the children-search test,
    at every level, for the tower's target and a second target: the whole
    fan, and the witness children of the cones holding the point one level
    up, as the chase searches them."""
    n = data.draw(st.sampled_from((2, 3)))
    base = orthant_image(n, data.draw(shears(n)))
    x = data.draw(targets(n))
    if data.draw(st.booleans()):
        strategy = tw.TowardDirection(x)
        steps = data.draw(st.integers(1, 8 if n == 2 else 4))
    else:
        strategy = tw.StellarAtBarycenters()
        steps = data.draw(st.integers(1, 2 if n == 2 else 1))
    tower = outcome(tw.extend_tower, tw.fan_tower(base), strategy, steps)
    if tower is UndecidableSign:
        return
    for y in (x, data.draw(targets(n))):
        holding = None
        for i, fan in enumerate(tower.fans):
            assert outcome(fan.locate, y) == \
                outcome(reference_locate, fan, y)
            among = tower.witnesses[i - 1].children(holding) if i else None
            expected = outcome(reference_locate, fan, y, among)
            got = outcome(fan.locate, y, among)
            assert got == expected
            if expected is UndecidableSign:
                break
            carrier, holding = expected
            assert carrier is not None
            assert (got[0].facets, got[0].equations) == \
                (carrier.facets, carrier.equations)


def test_the_chase_tests_no_cone_in_a_cone(monkeypatch):
    """The carrier search hands back the cones holding the target, so
    neither extending a toward tower nor chasing it runs ``cone_holds``,
    except for the nesting check of the chain it returns, once per level."""
    calls = []

    def counted(outer, rays, lines=()):
        calls.append(rays)
        return cone_holds(outer, rays, lines)

    monkeypatch.setattr(tw, "cone_holds", counted)
    x = rational_vector([3, 5, 7])
    tower = tw.extend_tower(tw.fan_tower(orthant_image(3, [])),
                            tw.TowardDirection(x), 4)
    assert calls == []
    chain = tw.chain_toward(tower, x)
    assert len(calls) == len(chain.cones) - 1 == 4


# -- one walk per chase -----------------------------------------------------


def caught(fn, *args):
    """The value of fn, or the type, message and data of the troplim error
    it raises."""
    try:
        return fn(*args)
    except TropLimError as exc:
        return (type(exc), str(exc), getattr(exc, "coefficients", None),
                getattr(exc, "interval", None))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_tower_extended_in_two_calls_misses_as_one_call(data):
    """On rank-2 and rank-3 bases, some less one cone: a toward tower
    extended in two calls is the tower extended in one, errors included,
    and a target off the support stops the extension with its message;
    a direction off it stops the chain of a toward, stellar or stepless
    tower with the level-0 message."""
    n = data.draw(st.sampled_from((2, 3)))
    base = orthant_image(n, data.draw(shears(n)))
    if data.draw(st.booleans()):
        drop = data.draw(st.integers(0, len(base.maximal) - 1))
        base = fans._trusted_fan(base.maximal[:drop]
                                 + base.maximal[drop + 1:])
    target = data.draw(targets(n))
    toward = tw.TowardDirection(target)
    kind = data.draw(st.sampled_from(("once", "twice", "stellar", "none")))
    tower = tw.fan_tower(base)
    if kind == "once":
        steps = data.draw(st.integers(1, 8 if n == 2 else 4))
        tower = caught(tw.extend_tower, tower, toward, steps)
    elif kind == "twice":
        first, second = data.draw(st.tuples(
            *[st.integers(1, 4 if n == 2 else 2)] * 2))
        half = caught(tw.extend_tower, tower, toward, first)
        tower = half if isinstance(half, tuple) else \
            caught(tw.extend_tower, half, toward, second)
        assert tower == caught(tw.extend_tower, tw.fan_tower(base), toward,
                               first + second)
    elif kind == "stellar":
        tower = tw.extend_tower(tower, tw.StellarAtBarycenters(), 1)
    if isinstance(tower, tuple):
        if tower[0] is OutsideSupport:
            assert tower[1] == "target direction lies outside the fan support"
        return
    x = target if data.draw(st.booleans()) else data.draw(targets(n))
    chain = caught(tw.chain_toward, tower, x)
    if isinstance(chain, tuple) and chain[0] is OutsideSupport:
        assert chain[1] == "direction lies outside the level-0 support"


def test_the_misses_of_a_chase_are_pinned():
    """On the quadrant fan less a quadrant, a target in the missing one
    stops the extension, and a direction there stops the chain of a tower
    extended toward another target, each with its message."""
    base = orthant_image(2, [])
    outside = rational_vector(base.maximal[0].relint_point())
    less = fans._trusted_fan(base.maximal[1:])
    with pytest.raises(OutsideSupport) as exc:
        tw.extend_tower(tw.fan_tower(less), tw.TowardDirection(outside), 2)
    assert str(exc.value) == "target direction lies outside the fan support"
    inside = rational_vector(less.maximal[0].relint_point())
    tower = tw.extend_tower(tw.fan_tower(less), tw.TowardDirection(inside), 2)
    with pytest.raises(OutsideSupport) as exc:
        tw.chain_toward(tower, outside)
    assert str(exc.value) == "direction lies outside the level-0 support"
    # the carrier chase misses where the tower would: on level 0 as a
    # toward tower is extended, or as the chain of a stellar tower or a
    # tower of no step
    for strategy, steps, message in (
            (tw.TowardDirection(outside), 2,
             "target direction lies outside the fan support"),
            (tw.TowardDirection(outside), 0,
             "direction lies outside the level-0 support"),
            (tw.StellarAtBarycenters(), 2,
             "direction lies outside the level-0 support")):
        with pytest.raises(OutsideSupport) as exc:
            tw.tower_chain(less, strategy, steps, outside)
        assert str(exc.value) == message


# -- the carrier chase against the tower -----------------------------------


def tower_reference(base, strategy, steps, x):
    """The chain of the built tower, which ``tower_chain`` reads off the
    carriers alone for a toward tower chased toward its target and for a
    stellar tower."""
    return tw.chain_toward(tw.extend_tower(tw.fan_tower(base), strategy,
                                           steps), x)


def plane_move(draw):
    """A unimodular move of the plane, as a product of shears and a
    reflection."""
    m = [[1, 0], [0, 1]]
    for i, t in draw(st.lists(st.tuples(st.integers(0, 1),
                                        st.integers(-2, 2)), max_size=3)):
        m[i] = [a + t * b for a, b in zip(m[i], m[1 - i])]
    if draw(st.booleans()):
        m[0] = [-a for a in m[0]]
    return lambda v: tuple(sum(map(mul, row, v)) for row in m)


@st.composite
def plane_fans(draw):
    """A complete rank-2 fan holding the non-unimodular cone sigma =
    cone(u, v), a unimodular move of cone((1, 0), (k, m)) with m >= 2
    and (k, m) primitive,
    with -(u + v) and up to three more rays off sigma's interior; or the
    same fan less one cone.  Gives the fan, u and v."""
    move = plane_move(draw)
    m = draw(st.integers(2, 5))
    k = draw(st.sampled_from([k for k in range(-4, 5) if gcd(k, m) == 1]))
    u, v = move((1, 0)), move((k, m))
    side = _det_int([u, v])
    extra = [e for e in draw(st.lists(
        st.tuples(*[st.integers(-5, 5)] * 2).filter(any), max_size=3))
        if not (_det_int([u, e]) * side > 0 and _det_int([e, v]) * side > 0)]
    fan = fan_from_rays_2d([u, v, tuple(-a - b for a, b in zip(u, v)),
                            *extra])
    sigma = cg([u, v])
    assert sigma in fan.maximal and not sigma.is_unimodular
    if draw(st.booleans()):
        drop = draw(st.integers(0, len(fan.maximal) - 1))
        fan = fans._trusted_fan(fan.maximal[:drop] + fan.maximal[drop + 1:])
    return fan, u, v


@st.composite
def plane_targets(draw, u, v):
    """A rational or (1, sqrt k) target anywhere or inside cone(u, v), the
    zero vector, or a vector of the wrong length."""
    kind = draw(st.sampled_from(("rational", "sigma", "sqrt", "sigma-sqrt",
                                 "zero", "length")))
    if kind == "rational":
        big = draw(st.sampled_from((6, 400)))
        return rational_vector(draw(st.tuples(
            *[st.integers(-big, big)] * 2).filter(any)))
    if kind == "sigma":
        s, t = draw(st.tuples(*[st.integers(1, 60)] * 2))
        return rational_vector([s * a + t * b for a, b in zip(u, v)])
    symbol = tw.Symbol.sqrt(draw(st.sampled_from((2, 3, 5))))
    if kind == "sqrt":
        coords = st.integers(-3, 3)
        rows = draw(st.tuples(*[st.tuples(coords, coords)] * 2)
                    .filter(lambda rows: any(b for _, b in rows)))
        return tw.symbolic_vector(list(rows), [symbol])
    if kind == "sigma-sqrt":
        return tw.symbolic_vector(list(zip(u, v)), [symbol])
    if kind == "zero":
        return tw.symbolic_vector([0, 0])
    return rational_vector(draw(st.lists(st.integers(-3, 3), min_size=1,
                                         max_size=3).filter(
        lambda w: len(w) != 2)))


@st.composite
def space_fans(draw, n):
    """An orthant image of rank 3 or 4, the same less one cone, or in rank
    3 the fan of ``non_pure_image``."""
    moves = draw(shears(n))
    if n == 3 and draw(st.booleans()):
        return non_pure_image(moves)
    fan = orthant_image(n, moves)
    if draw(st.booleans()):
        drop = draw(st.integers(0, len(fan.maximal) - 1))
        fan = fans._trusted_fan(fan.maximal[:drop] + fan.maximal[drop + 1:])
    return fan


@st.composite
def space_targets(draw, fan):
    """A rational or (1, sqrt k) target of ``targets``, the zero vector, or
    a (1, sqrt k) target on a wall: a sum of fewer rays than the dimension
    of a maximal cone, each times a positive p + q sqrt k, drawn from the
    cone's rays and its ray sum, so that some lie on the walls of the
    stellar level below."""
    kind = draw(st.sampled_from(("targets", "targets", "wall", "wall", "wall",
                                 "zero")))
    if kind == "targets":
        return draw(targets(fan.n))
    if kind == "zero":
        return tw.symbolic_vector([0] * fan.n)
    sigma = draw(st.sampled_from(fan.maximal))
    rays = draw(st.lists(
        st.sampled_from(sigma.rays + (primitivize(sigma.relint_point()),)),
        min_size=1, max_size=sigma.dim - 1, unique=True))
    weights = [draw(st.tuples(st.integers(0, 3), st.integers(1, 3)))
               for _ in rays]
    return tw.symbolic_vector(
        [tuple(sum(w[k] * r[i] for w, r in zip(weights, rays))
               for k in range(2)) for i in range(fan.n)],
        [tw.Symbol.sqrt(draw(st.sampled_from((2, 3))))])


# a stellar tower multiplies its cones by up to n each step, so the tower
# it is checked against is built to a smaller depth than a toward tower
STELLAR_STEPS = {2: 6, 3: 2, 4: 1}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_closed_form_chase_is_the_chain_of_the_tower(data):
    """``tower_chain`` toward a toward tower's own target, and toward any
    direction of a stellar tower, against the chain of the tower built:
    the same cones, facets and equations, or the same error, its data
    included.  Rank 2 draws fans holding a non-unimodular cone, which
    carries some targets, and chases toward towers to depth 64 and past
    it; ranks 3 and 4 draw orthant images, some less one cone, and a fan
    that is not pure, with targets on walls, to depth 4.

    One error may differ in its data: an ``UndecidableSign`` raised
    splitting a carrier that is not a maximal cone of its level.  The
    tower locates the direction among the joins of every cone holding
    the carrier, and the chase among the joins of the carrier alone,
    their faces; the same sign is undecidable in both, but each meets
    its own row first."""
    n = data.draw(st.sampled_from((2, 3, 4)))
    if n == 2:
        base, u, v = data.draw(plane_fans())
        x = data.draw(plane_targets(u, v))
    else:
        base = data.draw(space_fans(n))
        x = data.draw(space_targets(base))
    if data.draw(st.booleans()):
        strategy, deepest = tw.TowardDirection(x), 64 if n == 2 else 4
    else:
        strategy, deepest = tw.StellarAtBarycenters(), STELLAR_STEPS[n]
    # hypothesis favours small integers; so half the draws count down
    steps = data.draw(st.integers(0, deepest)
                      | st.integers(0, deepest).map(lambda k: deepest - k))
    expected = caught(tower_reference, base, strategy, steps, x)
    chain = caught(tw.tower_chain, base, strategy, steps, x)
    if isinstance(expected, tuple):
        if expected[0] is UndecidableSign and chain != expected:
            assert isinstance(chain, tuple) and chain[:2] == expected[:2]
            # the first depth whose chase raises, and the carrier above it
            depth = next(k for k in range(steps + 1) if isinstance(
                caught(tw.tower_chain, base, strategy, k, x), tuple))
            above = tw.tower_chain(base, strategy, depth - 1, x).cones[-1]
            level = tw.extend_tower(tw.fan_tower(base), strategy,
                                    depth - 1).fans[-1]
            assert above not in level.maximal
        else:
            assert chain == expected
        return
    assert chain == expected
    for got, want in zip(chain.cones, expected.cones):
        assert (got.facets, got.equations) == (want.facets, want.equations)


@pytest.mark.parametrize("entries", [[(1, 1), (0, 1), (0, 1)],
                                     [1, (0, 1), 0]],
                         ids=["level-1-wall", "level-0-wall"])
def test_a_stellar_chase_splits_maximal_carriers_only(entries):
    """A stellar step splits each octant at its ray sum and leaves the
    walls whole.  e1 + sqrt 2 (1, 1, 1) lies in an octant, then on the
    wall through e1 and the ray sum; (1, sqrt 2, 0) lies on a wall of the
    octant fan.  Each keeps that wall as its carrier below, as the tower
    does."""
    base, strategy = orthant_image(3, []), tw.StellarAtBarycenters()
    x = tw.symbolic_vector(entries, [SQRT2])
    chain = tw.tower_chain(base, strategy, 3, x)
    assert chain == tower_reference(base, strategy, 3, x)
    assert [c.dim for c in chain.cones][-3:] == [2, 2, 2]


def test_a_non_unimodular_carrier_splits_at_its_primitive_ray_sum():
    """cone((1, 0), (1, 2)) has index 2 and ray sum (2, 2): the chase
    toward (3, 2) splits it at (1, 1), as the tower does.  Each strategy
    states that ray primitive; ``_split`` reduces the ray it is handed, so
    no chain would tell (2, 2) from it."""
    base = fan_from_rays_2d([(1, 0), (1, 2), (-1, -1)])
    x = rational_vector([3, 2])
    strategy = tw.TowardDirection(x)
    chain = tw.tower_chain(base, strategy, 3, x)
    assert not chain.cones[0].is_unimodular
    assert strategy.ray(chain.cones[0]) == (1, 1)
    assert tw.StellarAtBarycenters().ray(chain.cones[0]) == (1, 1)
    assert chain.cones[1].rays == ((1, 0), (1, 1))
    assert chain == tower_reference(base, strategy, 3, x)
