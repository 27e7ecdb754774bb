"""Cone engine tests; Fourier-Motzkin is the independent oracle throughout."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import cones, fm, linalg
from zipcone.cones import (
    RationalCone,
    dual_description,
    cone_from_generators,
    cone_from_inequalities,
)
from zipcone.errors import BadParams, DimensionMismatch, DimensionTooLarge

from oracles import dual_description_unpruned


def fm_cone(dim, gens):
    """The cone of the generators, via the Fourier-Motzkin route only."""
    h = fm.h_from_v(dim, gens)
    return cone_from_inequalities(dim, h)


def test_first_quadrant_both_ways():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    assert set(c.inequalities) == {(1, 0), (0, 1)}
    c2 = cone_from_inequalities(2, [(1, 0), (0, 1)])
    assert set(c2.generators) == {(1, 0), (0, 1)}


def test_empty_inputs():
    assert cone_from_inequalities(2, []).member((-100, 100))
    zero = cone_from_generators(3, [])
    assert zero.member((0, 0, 0)) and not zero.member((1, 0, 0))
    assert zero.generators == ()


def test_wedge_matches_hand_computation():
    c = cone_from_generators(2, [(1, 1), (1, -1)])
    assert set(c.inequalities) == {(1, 1), (1, -1)}
    assert c.equal(fm_cone(2, [(1, 1), (1, -1)]))


def test_lineality_halfplane():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.inequalities == ((0, 1),)
    assert c.generators == ((-1, 0), (0, 1), (1, 0))
    assert c.equal(fm_cone(2, [(1, 0), (-1, 0), (0, 1)]))


def test_member_examples():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    assert c.member((0, 0))
    assert c.member((1, 1))
    assert not c.member((-1, 1))
    for g in c.generators:
        assert c.member(g)


def test_member_dimension_check():
    c = cone_from_generators(2, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        c.member((1, 0, 0))


def test_contains_and_witness():
    quad = cone_from_generators(2, [(1, 0), (0, 1)])
    ray = cone_from_generators(2, [(1, 1)])
    assert quad.contains(ray)
    assert quad.contains(quad)
    half = cone_from_inequalities(2, [(1, 0)])
    bad = cone_from_generators(2, [(-1, 5)])
    assert not half.contains(bad)
    assert half.witness_outside(bad) == (-1, 5)


def test_intersect_equal_dim():
    plane = cone_from_inequalities(2, [])
    c = cone_from_generators(2, [(2, 1), (0, 1)])
    assert c.intersect(plane).equal(c)
    line = cone_from_inequalities(2, [(1, 0)]).intersect(
        cone_from_inequalities(2, [(-1, 0)])
    )
    assert line.generators == ((0, -1), (0, 1))


def test_image_under_identity_and_negation():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    assert c.image_under(linalg.mat_identity(2)).equal(c)
    neg = c.image_under(((-1, 0), (0, -1)))
    assert set(neg.generators) == {(-1, 0), (0, -1)}


def test_image_under_round_trip_invertible():
    rnd = random.Random(3)
    m = ((1, 2, 0), (0, 1, 0), (1, 1, 1))
    minv = linalg.mat_inverse(m)
    for _ in range(20):
        gens = [tuple(rnd.randint(-4, 4) for _ in range(3)) for _ in range(5)]
        c = cone_from_generators(3, gens)
        back = c.image_under(m).image_under(minv)
        assert back.equal(c)


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        cone_from_generators(13, [tuple([1] + [0] * 12)]).complete()


def test_mutual_validation_of_double_input():
    with pytest.raises(DimensionMismatch):
        RationalCone(2, generators=[(1, 0)], inequalities=[(-1, 0)]).complete()


def test_json_round_trip():
    c = cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (-1, 0, 2)])
    data = c.to_json()
    c2 = RationalCone.from_json(data).complete()
    assert c2.equal(c)
    assert data == c2.to_json()


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 2.7, "generators": [[1, 0]]},
        {"dim": 2.0, "generators": [[1, 0]]},
        {"dim": True, "generators": [[1]]},
        {"dim": "2", "generators": [[1, 0]]},
        {"dim": 2, "generators": [[1.9, 0]]},
        {"dim": 2, "generators": [["1", 0]]},
        {"dim": 2, "generators": [[True, 0]]},
        {"dim": 2, "inequalities": [[1, 0.0]]},
        {"dim": 2, "generators": "10"},
        {"dim": 2, "generators": [{"0": 1, "1": 0}]},
        {"dim": 2, "inequalities": {"0": [1, 0]}},
        {"generators": [[1, 0]]},
        [[1, 0]],
        {"dim": -1, "generators": []},
    ],
)
def test_from_json_accepts_json_integers_only(data):
    with pytest.raises(BadParams):
        RationalCone.from_json(data)


def test_dim_zero_cone_stays_valid():
    c = RationalCone.from_json({"dim": 0, "generators": []}).complete()
    assert c.to_json() == {"dim": 0, "generators": [], "inequalities": []}


def test_random_round_trips_and_fm_agreement():
    rnd = random.Random(99)
    for _ in range(60):
        dim = rnd.randint(1, 5)
        gens = [
            tuple(rnd.randint(-3, 3) for _ in range(dim))
            for _ in range(rnd.randint(0, 7))
        ]
        c = cone_from_generators(dim, gens).complete()
        # V -> H -> V round trip is the same cone
        again = cone_from_inequalities(dim, c.inequalities)
        assert again.equal(c)
        assert c.equal(fm_cone(dim, gens))
        for g in gens:
            assert c.member(g)


def _det(m):
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def brute_force_facets(dim, rows):
    """Sorted primitive facet normals of cone(rows): the cofactor normal of
    every (dim - 1)-subset of rank dim - 1, kept (or negated) when all rows
    lie on one side of it."""
    facets = set()
    for sub in itertools.combinations(rows, dim - 1):
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in sub]) for j in range(dim)]
        g = math.gcd(*normal)
        if g == 0:  # every minor vanishes: rank below dim - 1
            continue
        normal = tuple(x // g for x in normal)
        sides = {sum(x * y for x, y in zip(normal, r)) for r in rows}
        if min(sides) >= 0:
            facets.add(normal)
        elif max(sides) <= 0:
            facets.add(tuple(-x for x in normal))
    return tuple(sorted(facets))


def test_dd_matches_brute_force_facets_in_dims_6_and_7():
    # the cones-benchmark regime, where the DD adjacency test decides which
    # ray pairs combine; the FM and drawn tests stop at dim 5
    rnd = random.Random(12)
    for dim, nrows in ((6, 9), (6, 10), (6, 11), (6, 11), (7, 9), (7, 10), (7, 11), (7, 11)):
        while True:  # a positive first coordinate keeps cone(rows) pointed
            rows = [
                (rnd.randint(1, 3),) + tuple(rnd.randint(-3, 3) for _ in range(dim - 1))
                for _ in range(nrows)
            ]
            facets = brute_force_facets(dim, rows)
            # full rank gives at least dim facets, lower rank at most two
            if len(facets) >= dim:
                break
        assert cone_from_generators(dim, rows).inequalities == facets
        # by polarity the facet normals of cone(rows) generate {x : rows x >= 0}
        assert cone_from_inequalities(dim, rows).generators == facets


def brute_force_generators_mod_line(dim, rows, facets, l):
    """Canonical generators of cone(rows) when it is full-dimensional with
    lineality span(l): each row reduced modulo the RREF of l and kept when the
    facets tight at it have rank dim - 2, plus +-that basis row."""
    red, pivots = linalg.rref([l])
    gens = {linalg.vec_neg(red[0]), red[0]}
    for r in rows:
        if linalg.rank([h for h in facets if linalg.dot(h, r) == 0]) == dim - 2:
            gens.add(linalg.primitive(linalg.reduce_mod_subspace(r, red, pivots)))
    return tuple(sorted(gens))


def test_dd_matches_brute_force_with_lineality_in_dims_6_and_7():
    # the given side carries a line: +-l among the generators (V route) or an
    # equality +-l among the inequalities (H route); each completion then
    # recomputes that side in a DD pass whose rows all vanish on l, so `lin`
    # keeps the line l through every insertion that combines ray pairs
    rnd = random.Random(13)
    for dim, nrows in ((6, 8), (6, 10), (7, 8), (7, 10)):
        while True:
            # rows with a positive first coordinate and l with a zero one keep
            # the quotient by l pointed
            l = (0,) + tuple(rnd.randint(-2, 2) for _ in range(dim - 1))
            rows = [
                (rnd.randint(1, 3),) + tuple(rnd.randint(-3, 3) for _ in range(dim - 1))
                for _ in range(nrows)
            ] + [l, linalg.vec_neg(l)]
            if any(l) and linalg.rank(rows) == dim:
                break
        facets = brute_force_facets(dim, rows)
        assert len(facets) >= dim and all(linalg.dot(h, l) == 0 for h in facets)
        gens = brute_force_generators_mod_line(dim, rows[:-2], facets, l)
        v_route = cone_from_generators(dim, rows)
        assert (v_route.inequalities, v_route.generators) == (facets, gens)
        h_route = cone_from_inequalities(dim, rows)
        assert (h_route.generators, h_route.inequalities) == (facets, gens)


def fuzzed_dd_rows(rnd, dim):
    """Rows with the degeneracies the DD count test must survive: zero,
    repeated, negated and Fraction rows, and rows that all vanish on a line."""
    rows = [tuple(rnd.randint(-3, 3) for _ in range(dim)) for _ in range(rnd.randint(0, dim + 5))]
    l = tuple(rnd.randint(-2, 2) for _ in range(dim))
    if any(l) and rnd.random() < 0.4:  # project every row onto l-perp
        ll = linalg.dot(l, l)
        rows = [linalg.vec_sub(linalg.vec_scale(ll, r), linalg.vec_scale(linalg.dot(r, l), l)) for r in rows]
    extra = []
    for r in rows:
        roll = rnd.random()
        if roll < 0.1:
            extra.append(r)
        elif roll < 0.2:
            extra.append(linalg.vec_neg(r))
        elif roll < 0.3:
            extra.append(tuple(Fraction(x, 2) for x in r))
    if rnd.random() < 0.3:
        extra.append((0,) * dim)
    rows += extra
    rnd.shuffle(rows)
    return rows


def test_dd_equals_unpruned_oracle_on_fuzzed_rows():
    # the count test on shared tight rows only skips pairs the third-ray scan
    # rejects, so the output tuples are those of the loop without it
    rnd = random.Random(2024)
    for _ in range(1500):
        dim = rnd.randint(0, 7)
        rows = fuzzed_dd_rows(rnd, dim)
        assert dual_description(dim, rows) == dual_description_unpruned(dim, rows), (dim, rows)


def test_both_sides_must_describe_same_cone():
    # mutually satisfied but different cones: quadrant gens vs half-plane
    with pytest.raises(DimensionMismatch):
        RationalCone(2, generators=[(1, 0), (0, 1)], inequalities=[(0, 1)]).complete()
    # agreeing pair is accepted
    RationalCone(2, generators=[(1, 0), (0, 1)], inequalities=[(1, 0), (0, 1)]).complete()


@st.composite
def generator_sets(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    return dim, draw(st.lists(vec, max_size=7))


@st.composite
def redundant_rows(draw, rows):
    """Scaled copies and nonnegative combinations of the given rows."""
    if not rows:
        return []
    row = st.sampled_from(rows)
    copies = draw(st.lists(st.tuples(st.integers(1, 3), row), max_size=4))
    combo = st.lists(st.tuples(st.integers(0, 3), row), min_size=2, max_size=3)
    combos = draw(st.lists(combo, max_size=4))
    out = [linalg.vec_scale(k, r) for k, r in copies]
    for terms in combos:
        total = tuple(0 for _ in rows[0])
        for k, r in terms:
            total = linalg.vec_add(total, linalg.vec_scale(k, r))
        out.append(total)
    return out


def assert_dd_output_canonical(dim, rows):
    """DD returns the canonical form of the side it computes: the lineality
    basis is the primitive RREF rows of its span, each ray is reduced modulo it."""
    rays, lin = dual_description(dim, rows)
    red, pivots = linalg.rref(lin)
    assert lin == tuple(red)
    assert all(linalg.reduce_mod_subspace(r, red, pivots) == r for r in rays)
    assert rays == tuple(sorted(set(map(linalg.primitive, rays))))


@settings(max_examples=100, deadline=None)
@given(generator_sets(), st.data())
def test_canonical_form_independent_of_route(drawn, data):
    # the same cone reaches one canonical json via either description
    gens_a = [(2, 1, 0), (1, 2, 0), (0, 0, 1), (3, 3, 1)]  # last is redundant
    gens_b = [(4, 2, 0), (1, 2, 0), (0, 0, 3), (1, 2, 3)]
    c1 = cone_from_generators(3, gens_a).complete()
    c2 = cone_from_generators(3, gens_b).complete()
    assert c1.equal(c2)
    assert c1.to_json() == c2.to_json()
    c3 = cone_from_inequalities(3, c1.inequalities).complete()
    assert c3.to_json() == c1.to_json()
    # a plane of lineality whose DD basis, before the RREF, is not canonical
    assert_dd_output_canonical(4, [(1, 2, 0, 1), (-1, -2, 0, -1), (0, 1, 1, -1), (0, -1, -1, 1)])
    # drawn cones, each side padded with redundant and duplicated rows
    dim, gens = drawn
    canonical = cone_from_generators(dim, gens).to_json()
    ineqs = [tuple(h) for h in canonical["inequalities"]]
    extra = data.draw(redundant_rows(ineqs), label="extra inequalities")
    rows = data.draw(st.permutations(ineqs + extra), label="inequality rows")
    assert cone_from_inequalities(dim, rows).to_json() == canonical
    assert_dd_output_canonical(dim, rows)
    extra = data.draw(redundant_rows(gens), label="extra generators")
    assert cone_from_generators(dim, gens + extra).to_json() == canonical


@pytest.mark.parametrize(
    "side,rows",
    [
        ("generators", [(1, 0, 0), (1, 1, 0), (0, 1, 1), (2, 1, 1)]),
        ("inequalities", [(1, 0, 0), (1, 1, 0), (0, 1, 1), (2, 1, 1)]),
        ("generators", [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),  # with lineality
        ("inequalities", [(1, 0, 0), (0, 1, 0), (0, -1, 0)]),  # with an equality
    ],
)
def test_complete_makes_two_dd_passes(monkeypatch, side, rows):
    calls = []

    def counting(dim, rows):
        calls.append(len(rows))
        return dual_description(dim, rows)

    monkeypatch.setattr(cones, "dual_description", counting)
    c = RationalCone(3, **{side: rows})
    c.complete()
    assert len(calls) == 2
    c.complete()
    c.to_json()
    assert len(calls) == 2


# -- double-description properties on drawn generator sets --------------------


def satisfies(gens, ineqs):
    return all(linalg.dot(g, h) >= 0 for g in gens for h in ineqs)


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_complete_is_a_fixed_point_reached_from_either_side(drawn):
    dim, gens = drawn
    c = cone_from_generators(dim, gens).complete()
    canonical = c.to_json()
    assert c.complete().to_json() == canonical
    assert RationalCone.from_json(canonical).complete().to_json() == canonical
    assert cone_from_generators(dim, c.generators).complete().to_json() == canonical
    assert cone_from_inequalities(dim, c.inequalities).complete().to_json() == canonical


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_computed_sides_bracket_the_given_generators(drawn):
    dim, gens = drawn
    c = cone_from_generators(dim, gens).complete()
    # cone(gens) lies inside the computed H-cone, and the computed V-cone
    # inside the H-cone that Fourier-Motzkin finds for cone(gens)
    assert satisfies(gens, c.inequalities)
    assert satisfies(c.generators, fm.h_from_v(dim, gens))
