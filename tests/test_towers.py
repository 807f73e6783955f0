"""Tests for fan towers, symbolic directions, and chain resolution.

The frozen values come from hand-checked small cases: barycentric splitting
of the quadrant fan, mediant chains toward (1, sqrt 2) whose carrier rays are
continued-fraction convergents, and the fiber-rank examples where the answer
is immediate from the coefficient matrix.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from builders import (
    cone_is_face,
    fan_from_rays_2d,
    is_subdivision,
    make_cone,
    rational_vector,
    stellar_subdivision,
)
from troplim import fans, towers as tw
from troplim._linalg import _det_int, mat_rank
from troplim.errors import (
    DepthCap, DimensionMismatch, EmptyChain, OutsideSupport, RankCap,
    UndecidableSign, ValidationError, ZeroVector,
)
from troplim.lattice import RANK_CAP, cone_faces, cone_holds, locate
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


# -- fiber rank and model ---------------------------------------------------


def test_fiber_rank_examples():
    assert tw.fiber_rank(tw.symbolic_vector([1, (0, 1)], [SQRT2])) == 2
    assert tw.fiber_rank(rational_vector([1, 1])) == 1
    assert tw.fiber_rank(tw.symbolic_vector([1, (0, 1), (1, 1)], [SQRT2])) == 2


def test_fiber_rank_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        tw.fiber_rank(rational_vector([0, 0]))


def test_fiber_model_dimensions():
    assert tw.fiber_model(2, tw.symbolic_vector([1, (0, 1)], [SQRT2])).dim == 0
    assert tw.fiber_model(2, rational_vector([1, 1])).dim == 1
    x3 = tw.symbolic_vector([1, (0, 1), (1, 1)], [SQRT2])
    assert tw.fiber_model(3, x3).dim == 1


def test_fiber_model_normalization():
    x = tw.symbolic_vector([(1, 1), 1, (0, 1)], [SQRT2])
    m = tw.fiber_model(3, x)
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
            tw.fiber_model(x.n, x)
        return
    m = tw.fiber_model(x.n, x)
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
    assert len(chain.entries) == 6
    for (_, a), (_, b) in zip(chain.entries, chain.entries[1:]):
        # strictly nested plane cones have strictly smaller angles
        assert cone_holds(a, b.rays, b.lines) and b != a
    # convergents of sqrt 2 appear as carrier rays
    assert chain.entries[-1][1].rays == ((2, 3), (5, 7))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.UnresolvedCone)
    assert res.cone.dim == 2


def test_toward_irrational_never_resolves_at_any_prefix():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 6)
    chain = tw.chain_toward(t, x)
    for d in range(1, len(chain.entries) + 1):
        prefix = tw.ConeChain(chain.entries[:d])
        assert isinstance(tw.resolve_direction(prefix), tw.UnresolvedCone)


def test_toward_rational_resolves():
    x = rational_vector([2, 5])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.TowardDirection(x), 12)
    res = tw.resolve_direction(tw.chain_toward(t, x))
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray.direction == (2, 5)


def test_chain_toward_quadrant_contains_direction():
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.StellarAtBarycenters(), 2)
    chain = tw.chain_toward(t, rational_vector([1, 1]))
    for _, cone in chain.entries:
        assert locate(cone, (1, 1)) is not None


def test_chain_toward_zero_rejected():
    t = tw.fan_tower(quadrant_fan())
    with pytest.raises(ZeroVector):
        tw.chain_toward(t, rational_vector([0, 0]))


def test_resolve_constant_chain():
    ray = cg([(1, 1)])
    chain = tw.ConeChain(((0, ray), (1, ray), (2, ray)))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray.direction == (1, 1)


def test_resolve_nested_chain_to_boundary_ray():
    chain = tw.ConeChain((
        (0, cg([(1, 0), (0, 1)])), (1, cg([(1, 0), (1, 1)])),
        (2, cg([(1, 0), (2, 1)])), (3, cg([(1, 0), (3, 1)])),
        (4, cg([(1, 0)])),
    ))
    res = tw.resolve_direction(chain)
    assert isinstance(res, tw.ResolvedRay)
    assert res.ray.direction == (1, 0)


def test_resolve_empty_chain_rejected():
    with pytest.raises(EmptyChain):
        tw.resolve_direction(tw.ConeChain(()))


def test_chain_constructor_rejects_non_nested():
    entries = ((0, cg([(1, 0), (1, 1)])), (1, cg([(0, 1), (1, 1)])))
    with pytest.raises(ValueError):
        tw.ConeChain(entries)
    with pytest.raises(ValueError):
        tw.ConeChain(((1, entries[0][1]), (0, entries[0][1])))


def test_monotone_intersection_along_chain():
    x = tw.symbolic_vector([1, (0, 1)], [SQRT2])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()), tw.TowardDirection(x), 4)
    chain = tw.chain_toward(t, x)
    meets = []
    meet = chain.entries[0][1]
    for _, cone in chain.entries[1:]:
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
        assert res.ray.direction == r


# -- rational dichotomy -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_rational_directions_resolve(p, q):
    x = rational_vector([p, q])
    t = tw.extend_tower(tw.fan_tower(quadrant_fan()),
                        tw.TowardDirection(x), 14)
    res = tw.resolve_direction(tw.chain_toward(t, x))
    assert isinstance(res, tw.ResolvedRay)
    from troplim.lattice import primitive
    assert res.ray == primitive((p, q))
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
    entries = []
    for i, fan in enumerate(t.fans):
        carrier, _ = fan.locate(x)
        if carrier is None:
            raise OutsideSupport(f"direction outside level {i}")
        entries.append((i, carrier))
    return tw.ConeChain(tuple(entries))


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
        mid = tuple((lo + hi) / 2 for lo, hi in
                    (strategy.target.interval(i)
                     for i in range(strategy.target.n)))
        if locate(carrier, mid) == carrier:
            new_ray = mid
        else:
            new_ray = carrier.relint_point()
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


def orthant_image(n, moves):
    """The orthant fan under a product of elementary shears e_i += k e_j."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), k in moves:
        for row in m:
            row[i] += k * row[j]
    cols = [tuple(m[r][c] for r in range(n)) for c in range(n)]
    return fans.fan_from_cones(
        [cg([tuple(s * a for a in col) for s, col in zip(signs, cols)])
         for signs in itertools.product((1, -1), repeat=n)], n)


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
        less = fans._trusted_fan(fan.maximal[1:], n)
        assert fan.complete == fans.validate_fan(fan.maximal, n).complete
        assert less.complete == fans.validate_fan(less.maximal, n).complete
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
    for (_, got), (_, want) in zip(chain.entries, expected.entries):
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
                                  + other.maximal[drop + 1:], n)
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
    """The second call starts its walk at the last level of a depth-3
    tower, with a full search there; it builds the tower that four steps
    in one call build, and the chain of that tower is the full search's."""
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
    assert len(calls) == len(chain.entries) - 1 == 4
