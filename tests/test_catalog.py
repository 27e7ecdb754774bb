import json
import time
from collections import Counter

import pytest

from zipcone import catalog, linalg, zipcones
from zipcone.cones import RationalCone
from zipcone.errors import BadParams, UnknownPreset


def test_preset_names_and_param_validation():
    with pytest.raises(UnknownPreset):
        catalog.preset("U22-split", q=2)
    with pytest.raises(BadParams):
        catalog.preset("SOodd", q=2)  # missing n
    with pytest.raises(BadParams):
        catalog.preset("U21-inert", q=1)
    with pytest.raises(BadParams):
        catalog.preset("U21-inert", q=2, n=3)
    for n in (0, -5):
        with pytest.raises(BadParams, match="n must be >= 1"):
            catalog.preset("SOodd", n=n, q=2)
    so3 = catalog.preset("SOodd", n=1, q=2)
    assert so3.rd.label == "B1" and so3.rd.simple_roots == ((1,),) and so3.I == ()


@pytest.mark.parametrize(
    "call,name,params",
    [
        (catalog.preset, "HilbertA1m", {"m": 2.0, "q": 2}),
        (catalog.preset, "ResSplit", {"base": "B2", "r": 2.0, "q": 2}),
        (catalog.preset, "ResSplit", {"base": 3, "r": 2, "q": 2}),
        (catalog.preset, "SOodd", {"n": True, "q": 2}),
        (catalog.preset, "U21-inert", {"q": 2.0}),
        (catalog.reproduce, "SOodd", {"n": "3", "q": 2}),
        (catalog.reproduce, "SOodd", {"n": 2.0, "q": 2}),
        (catalog.reproduce, "U21-inert", {"q": True}),
    ],
    ids=["hilbert-float-m", "ressplit-float-r", "ressplit-int-base", "soodd-bool-n",
         "u21-float-q", "reproduce-str-n", "reproduce-float-n", "reproduce-bool-q"],
)
def test_untyped_preset_and_reproduce_params_are_bad_params(call, name, params):
    with pytest.raises(BadParams, match="parameter"):
        call(name, **params)


def test_u21_preset_is_the_inert_picard_context():
    ctx = catalog.preset("U21-inert", q=2)
    assert ctx.rd.label == "GL3" and ctx.I == (0,) and ctx.split_degree == 2


def test_so_odd_preset():
    ctx = catalog.preset("SOodd", n=3, q=2)
    assert ctx.rd.label == "B3"
    assert ctx.I == (1, 2)


def test_hilbert_preset_m2():
    ctx = catalog.preset("HilbertA1m", m=2, q=3)
    assert ctx.rd.r == 2 and ctx.I == ()
    assert ctx.frob.sigma_perm == (1, 0)
    assert ctx.split_degree == 2


def test_quotient_map_kernel_is_declared_lineality():
    _, meta = catalog.preset_with_meta("U21-inert", q=2)
    qm = meta["quotient_map"]
    for gen in meta["lineality"]:
        assert linalg.mat_vec(qm, gen) == (0, 0)
    # and the kernel is no larger
    assert linalg.rank(qm) == 2


def test_determinant_direction_in_every_u21_cone():
    ctx = catalog.preset("U21-inert", q=3)
    lw = zipcones.lw_cone(ctx)
    for cone in (
        zipcones.i_dominant_cone(ctx),
        zipcones.neg_levi_cone(ctx),
        zipcones.gs_cone(ctx),
        zipcones.pha_cone(ctx),
        zipcones.hw_cone(ctx),
        lw,
    ):
        assert cone.member((1, 1, 1)) and cone.member((-1, -1, -1))


def test_res_split_derived_data_two_ways():
    # the simple roots of the blocks that every sigma^{-i} keeps in I are I0
    for base, r in (("B2", 2), ("A2", 3)):
        ctx, meta = catalog.preset_with_meta("ResSplit", base=base, r=r, q=2)
        inv, kept = ctx.frob.perm_power(-1), []
        for block in meta["blocks"]:
            for a in block:
                walk = [a]
                while len(walk) < r:
                    walk.append(inv[walk[-1]])
                if set(walk) <= set(ctx.I):
                    kept.append(a)
        assert tuple(sorted(kept)) == ctx.I0


def test_res_split_frobenius_cycles_blocks():
    ctx, meta = catalog.preset_with_meta("ResSplit", base="B2", r=2, q=2)
    assert ctx.split_degree == 2
    perm = ctx.frob.sigma_perm
    b0, b1 = meta["blocks"]
    assert [perm[i] for i in b0] == b1


def test_standard_catalog_size_and_distinctness():
    cat = catalog.standard_catalog(2)
    assert len(cat) >= 10
    assert len({name for name, _ in cat}) == len(cat)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_reproduce_u21(q):
    rep = catalog.reproduce("U21-inert", q=q)
    assert rep["passed"], rep


@pytest.mark.parametrize(
    "n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (6, 2), (6, 3), (7, 2), (7, 3), (12, 2)]
)
def test_reproduce_so_odd(n, q):
    rep = catalog.reproduce("SOodd", n=n, q=q)
    assert rep["passed"], rep
    names = {row["name"] for row in rep["rows"]}
    assert {"gs", "pha", "hw", "lw", "zip", "idominant", "neglevi"} <= names


@pytest.mark.parametrize(
    "name,params",
    [("HilbertA1m", {"m": 49, "q": 2}), ("ResSplit", {"base": "B2", "r": 49, "q": 2})],
    ids=["hilbert-m49", "ressplit-r49"],
)
def test_restriction_past_the_sigma_order_cap_fails_before_building(name, params):
    start = time.perf_counter()
    with pytest.raises(BadParams, match="SIGMA_ORDER_CAP = 48"):
        catalog.preset(name, **params)
    assert time.perf_counter() - start < 0.1


def test_reproduce_so_odd_n2_hw_equals_pha():
    rep = catalog.reproduce("SOodd", n=2, q=3)
    assert rep["flag_checks"]["hw equals pha at n=2"]


def test_reproduce_so_odd_n3_strict():
    rep = catalog.reproduce("SOodd", n=3, q=2)
    assert rep["flag_checks"]["hw strictly inside pha at n=3"]


BUILDERS = ("i_dominant_cone", "neg_levi_cone", "gs_cone", "pha_cone", "hw_cone", "lw_cone")


@pytest.mark.parametrize(
    "name,params", [("U21-inert", {"q": 2}), ("SOodd", {"n": 3, "q": 2})], ids=["U21", "SOodd"]
)
def test_reproduce_builds_each_cone_once_per_context(monkeypatch, name, params):
    calls = Counter()
    seen = []  # keeps every context alive, so no id is reused

    def counting(builder, fn):
        def wrapper(ctx, *args):
            seen.append(ctx)
            calls[builder, id(ctx)] += 1
            return fn(ctx, *args)
        return wrapper

    for builder in BUILDERS:
        monkeypatch.setattr(zipcones, builder, counting(builder, getattr(zipcones, builder)))
    rep = catalog.reproduce(name, **params)
    assert rep["passed"]
    assert {builder for builder, _ in calls} == set(BUILDERS)
    assert set(calls.values()) == {1}, calls

    report = rep["zip_report"]["cones"]
    quotient = catalog.preset_with_meta(name, **params)[1].get("quotient_map")
    for row in rep["rows"]:
        cone = report[rep["zip_route"].split()[0] if row["name"] == "zip" else row["name"]]
        if quotient is not None:
            cone = RationalCone.from_json(cone).image_under(quotient).to_json()
        assert json.dumps(row["computed"]) == json.dumps(cone), row["name"]


@pytest.mark.parametrize(
    "name,params",
    [
        ("U21-inert", {"q": 2, "n": 7}),
        ("SOodd", {"n": 3, "q": 2, "m": 2}),
        ("U21-inert", {}),
        ("SOodd", {"n": 3, "q": None}),
    ],
    ids=["u21-n", "soodd-m", "u21-no-q", "soodd-none-q"],
)
def test_reproduce_rejects_parameters_its_example_does_not_take(name, params):
    with pytest.raises(BadParams):
        catalog.reproduce(name, **params)


def test_reproduce_unknown_example():
    with pytest.raises(UnknownPreset):
        catalog.reproduce("Sp4", q=2)


def test_so_odd_rank_one():
    ctx = catalog.preset("SOodd", n=1, q=2)
    assert ctx.I == () and ctx.rd.n == 1
    assert zipcones.is_hasse_type(ctx)


def test_so7_slice_corner_data():
    # n = 3 slice a1 = -(q-1): the hw boundary passes through (a, a) and
    # (b, 0) with a = (q^4-1)/(q^3+q^2-q-1) and b = (q^4-1)/(q^3-1), the gs
    # corner sits at (q-1, q-1), the pha corners at (q+1, q+1) and (q+1, 0),
    # and q-1 < a < b < q+1 exactly.
    from fractions import Fraction as Q

    for q in (2, 3, 5):
        ctx = catalog.preset("SOodd", n=3, q=q)
        hw = zipcones.hw_cone(ctx).complete()
        pha = zipcones.pha_cone(ctx)
        gs = zipcones.gs_cone(ctx)
        a = Q(q**4 - 1, q**3 + q**2 - q - 1)
        b = Q(q**4 - 1, q**3 - 1)
        assert Q(q - 1) < a < b < Q(q + 1)

        def scaled(x, y):
            # integer point on the ray through (-(q-1), x, y)
            from math import lcm

            den = lcm(x.denominator, y.denominator)
            return (-(q - 1) * den, int(x * den), int(y * den))

        # boundary memberships: inside the cone, with the key row binding
        for cone, pt in ((hw, scaled(a, a)), (hw, scaled(b, Q(0))),
                         (pha, scaled(Q(q + 1), Q(q + 1))), (pha, scaled(Q(q + 1), Q(0))),
                         (gs, scaled(Q(q - 1), Q(q - 1)))):
            assert cone.member(pt), (q, pt)
            assert cone.binding(pt), (q, pt)
        # on the diagonal, hw reaches exactly to a: past it lies only pha
        mid = (a + b) / 2
        pt = scaled(mid, mid)
        assert not hw.member(pt) and pha.member(pt)
        # on the axis, hw reaches exactly to b: past it lies only pha
        outer = (b + Q(q + 1)) / 2
        pt = scaled(outer, Q(0))
        assert not hw.member(pt) and pha.member(pt)
        # and just inside both markers the point still belongs to hw
        assert hw.member(scaled((a + Q(q - 1)) / 2, (a + Q(q - 1)) / 2))
        assert hw.member(scaled((b + a) / 2, Q(0)))


def test_gs_contains_neg_levi_everywhere():
    for name, ctx in catalog.standard_catalog(2):
        assert zipcones.gs_cone(ctx).contains(zipcones.neg_levi_cone(ctx)), name


def test_so_odd_templates_pinned_at_max_degree_plus_one_points():
    # the expected covectors are integer polynomials in q of degree 2n-2;
    # exact agreement at 2n-1 distinct q values pins every coefficient
    for n in (2, 3, 4, 5):
        degree = 2 * n - 2
        qs = [2, 3, 4, 5, 7, 8, 9, 11, 13][: degree + 1]
        assert len(qs) == degree + 1
        for q in qs:
            rep = catalog.reproduce("SOodd", n=n, q=q)
            assert rep["passed"], (n, q)
