"""Zip-context derived data and the weight cones of the worked examples."""
import dataclasses
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import catalog, hasse, linalg, weyl, zipcones
from zipcone.cones import RationalCone, cone_from_generators, cone_from_inequalities
from zipcone.errors import BadParams, CapExceeded, InternalError, InvalidR
from zipcone.rootdata import (
    build_root_datum,
    datum_from_cartan,
    split_frobenius,
    validate_frobenius,
)

U21_SIGMA = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


@pytest.fixture
def u21():
    return catalog.preset("U21-inert", q=2)


def quotient(cone):
    return cone.image_under(((1, 0, -1), (0, 1, -1))).complete()


def test_context_gl3_inert_hand_trace(u21):
    # sigma-orbit of e2-e3 is e2-e3 -> e1-e2 -> e2-e3
    assert u21.I == (0,)
    assert u21.I0 == ()
    assert u21.delta_p == (1,)
    assert u21.r_alpha == (2, 2)
    assert u21.m_alpha == {1: 2}
    assert u21.split_degree == 2


def test_context_so_odd_split():
    for n in (2, 3, 4):
        ctx = catalog.preset("SOodd", n=n, q=2)
        assert ctx.I0 == ctx.I
        assert ctx.delta_p == (0,)
        assert all(r == 1 for r in ctx.r_alpha)
        assert ctx.m_alpha == {0: 1}
        assert ctx.split_degree == 1


def test_context_full_levi_degenerate():
    rd = build_root_datum("GL3")
    frob = validate_frobenius(rd, 2, U21_SIGMA)
    ctx = zipcones.make_context(rd, frob, [0, 1])
    assert ctx.delta_p == ()
    assert ctx.I0 == (0, 1)
    # hw and lw collapse to the I-dominant cone
    assert zipcones.hw_cone(ctx).equal(zipcones.i_dominant_cone(ctx))
    lw = zipcones.lw_cone(ctx)
    assert lw.equal(zipcones.i_dominant_cone(ctx))


def test_delta_alpha_split_closed_form():
    ctx = catalog.preset("SOodd", n=3, q=5)
    for i in range(3):
        av = ctx.rd.simple_coroots[i]
        assert zipcones.delta_alpha(ctx, ctx.rd.simple_roots[i]) == tuple(
            Q(-x, 4) for x in av
        )


def test_delta_alpha_gl3_inert_and_defining_identity(u21):
    q = u21.q
    da = zipcones.delta_alpha(u21, u21.rd.simple_roots[1])
    assert da == tuple(Q(-x, q * q - 1) for x in (q, 1 - q, -1))
    for ctx in (u21, catalog.preset("SOodd", n=2, q=3)):
        for i in range(ctx.rd.r):
            da = zipcones.delta_alpha(ctx, ctx.rd.simple_roots[i])
            assert zipcones.frobenius_twist_of_cocharacter(ctx, da) == tuple(
                Q(x) for x in ctx.rd.simple_coroots[i]
            )


def test_delta_alpha_for_non_simple_root(u21):
    # e1 - e3 = sum of the simple roots; its coroot transports correctly
    da = zipcones.delta_alpha(u21, (1, 0, -1))
    assert zipcones.frobenius_twist_of_cocharacter(u21, da) == (Q(1), Q(0), Q(-1))


def test_dominant_and_levi_cones(u21):
    dom = zipcones.dominant_cone(u21)
    assert dom.member((3, 2, 1)) and not dom.member((1, 2, 3))
    idom = zipcones.i_dominant_cone(zipcones.make_context(u21.rd, u21.frob, []))
    assert idom.member((-5, 7, 1))  # I empty: whole lattice
    assert quotient(zipcones.neg_levi_cone(u21)).generators == ((-1, -1),)


def test_gs_cone_tables(u21):
    assert quotient(zipcones.gs_cone(u21)).inequalities == ((-1, 0), (1, -1))
    so = catalog.preset("SOodd", n=3, q=2)
    gs = zipcones.gs_cone(so)
    expect = cone_from_inequalities(
        3, [so.rd.simple_coroots[1], so.rd.simple_coroots[2], (-1, -1, 0)]
    )
    assert gs.equal(expect)
    assert gs.member((0, 0, 0))


def test_hz_map_image_of_basis_vector(u21):
    # hand derivation: h_Z(1,0,0) = (1,0,0) - q*w0I(sigma^{-1}(1,0,0)) = (1,0,q)
    h = zipcones.hz_map(u21)
    assert linalg.mat_vec(h, (1, 0, 0)) == (1, 0, u21.q)


def test_pha_cone_quotient_table():
    for q in (2, 3, 5):
        ctx = catalog.preset("U21-inert", q=q)
        got = quotient(zipcones.pha_cone(ctx))
        expect = cone_from_inequalities(2, [(q, -(q - 1)), (-(q - 1), -1)])
        assert got.equal(expect)


def test_pha_cone_so_odd_table():
    for n, q in ((2, 2), (3, 2), (4, 3)):
        ctx = catalog.preset("SOodd", n=n, q=q)
        idom = [tuple(ctx.rd.simple_coroots[i]) for i in ctx.I]
        expect = cone_from_inequalities(
            n, idom + [tuple([-(q + 1), -(q - 1)] + [0] * (n - 2))]
        )
        assert zipcones.pha_cone(ctx).equal(expect)


@pytest.mark.parametrize("q", [2, 3])
def test_pha_cone_equals_dominant_image_on_catalog(q):
    # V-route oracle: the image of the dominant cone under h_Z
    for name, ctx in catalog.standard_catalog(q):
        image = zipcones.dominant_cone(ctx).image_under(zipcones.hz_map(ctx))
        assert image.equal(zipcones.pha_cone(ctx)), name


def test_k_alpha_so5_closed_form():
    ctx = catalog.preset("SOodd", n=2, q=2)
    rnd = random.Random(11)
    for _ in range(40):
        a1, a2 = rnd.randint(-9, 9), rnd.randint(-9, 9)
        assert zipcones.k_alpha(ctx, (a1, a2), 0) == (2 + 1) * a1 + (2 - 1) * a2
    assert zipcones.k_alpha(ctx, (0, 0), 0) == 0
    assert zipcones.k_alpha(ctx, (0, 0), 1) == 0


def test_k_alpha_agrees_with_hz_route_on_catalog():
    rnd = random.Random(23)
    for name, ctx in catalog.standard_catalog(2):
        pha = zipcones.pha_cone(ctx)
        for _ in range(150):
            lam = tuple(rnd.randint(-50, 50) for _ in range(ctx.n))
            via_k = all(
                zipcones.k_alpha(ctx, lam, a) <= 0 for a in range(ctx.rd.r)
            )
            assert via_k == pha.member(lam), (name, lam)


def test_hw_cone_tables(u21):
    got = quotient(zipcones.hw_cone(u21))
    assert got.equal(cone_from_inequalities(2, [(1, -1), (-2, 1)]))
    # cross-check: W_{L0}(F_q) = {1}, r = 2 gives (a2-a3) + q(a1-a2) <= 0
    assert len(u21.fixed_levi_weyl()) == 1
    so = catalog.preset("SOodd", n=4, q=2)
    q, n = 2, 4
    row = tuple(
        [-(q ** (2 * n - 2) - 1)]
        + [(q - 1) * (q ** (i - 2) - q ** (2 * n - 1 - i)) for i in range(2, n + 1)]
    )
    idom = [tuple(so.rd.simple_coroots[i]) for i in so.I]
    assert zipcones.hw_cone(so).equal(cone_from_inequalities(n, idom + [row]))


def test_neg_levi_inside_hw_everywhere():
    for name, ctx in catalog.standard_catalog(2):
        assert zipcones.hw_cone(ctx).contains(zipcones.neg_levi_cone(ctx)), name


def test_lw_cone_u21_equals_zip(u21):
    lw = zipcones.lw_cone(u21)
    assert zipcones.certified_lw(u21)  # m_alpha = 2: the commutation condition is vacuous
    assert quotient(lw).equal(cone_from_inequalities(2, [(1, -1), (-1, -1)]))


def test_lw_equals_hw_when_sigma_fixes_I():
    for name in ("SOodd-n3", "GL3-split", "Sp4"):
        ctx = dict(catalog.standard_catalog(2))[name]
        lw = zipcones.lw_cone(ctx)
        assert lw.equal(zipcones.hw_cone(ctx)), name


def test_gs_inside_lw_on_catalog():
    for name, ctx in catalog.standard_catalog(2):
        lw = zipcones.lw_cone(ctx)
        assert lw.contains(zipcones.gs_cone(ctx)), name


def test_certified_lw_computed_without_the_lw_cone(monkeypatch):
    def no_lw_cone(ctx):
        raise AssertionError("certified_lw built the lw cone")

    for name, ctx in catalog.standard_catalog(2):
        fresh = zipcones.make_context(ctx.rd, ctx.frob, ctx.I)
        expected = all(zipcones.check_cond_commute(fresh, a) for a in fresh.delta_p)
        with monkeypatch.context() as m:
            m.setattr(zipcones, "lw_cone", no_lw_cone)
            assert zipcones.certified_lw(fresh) is expected, name
        assert zipcones.zip_report(fresh)["certified_lw"] is expected, name


def test_coroot_orbit_longer_than_sigma_order_is_internal_error(u21):
    # the U21 sigma has order 2; a datum claiming order 1 cannot close the orbit
    broken = dataclasses.replace(u21, frob=dataclasses.replace(u21.frob, sigma_order=1))
    with pytest.raises(InternalError):
        zipcones.delta_alpha(broken, broken.rd.simple_roots[0])
    with pytest.raises(InternalError):
        zipcones.hw_cone(broken)


def test_cond_commute_cases(u21):
    assert zipcones.check_cond_commute(u21, 1)  # m_alpha = 2, vacuous
    split = catalog.preset("GL3-split", q=2)
    assert all(zipcones.check_cond_commute(split, a) for a in split.delta_p)
    res = catalog.preset("ResSplit", base="B2", r=2, q=2)
    assert all(zipcones.check_cond_commute(res, a) for a in res.delta_p)


def block_cartan(parts):
    """The block-diagonal Cartan matrix of the connected types `parts`."""
    blocks = [hasse.cartan_matrix(letter, n) for letter, n in parts]
    r = sum(len(b) for b in blocks)
    cartan = [[0] * r for _ in range(r)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            cartan[off + i][off : off + len(b)] = row
        off += len(b)
    return tuple(tuple(row) for row in cartan)


def coordinate_sigma(perm):
    """On the coroot basis of the simply-connected realization, the diagram
    automorphism e_i -> e_perm[i] sends alpha_i to alpha_perm[i]."""
    r = len(perm)
    return tuple(tuple(int(i == perm[j]) for j in range(r)) for i in range(r))


def literal_cond_commute(ctx, alpha_index):
    """The commutation condition on vectors, the oracle for the Cartan-matrix
    rule of `check_cond_commute`: sigma^{-1} walked as a matrix on roots and
    coroots, the pairings checked both ways and every combination
    a beta + b gamma, a, b in 1..3, looked up among the roots."""
    m = ctx.m_alpha[alpha_index]
    if m <= 2:
        return True
    sigma_inv = linalg.transpose(ctx.frob.sigma_costar)
    costar_inv = linalg.transpose(ctx.frob.sigma)
    roots = [ctx.rd.simple_roots[alpha_index]]
    coroots = [ctx.rd.simple_coroots[alpha_index]]
    for _ in range(m - 1):
        roots.append(linalg.mat_vec(sigma_inv, roots[-1]))
        coroots.append(linalg.mat_vec(costar_inv, coroots[-1]))
    record = ctx.rd.root_record()
    for i in range(1, m - 1):
        for j in range(i + 1, m):
            if linalg.dot(roots[i], coroots[j]) or linalg.dot(roots[j], coroots[i]):
                return False
            for a in range(1, 4):
                for b in range(1, 4):
                    combo = linalg.vec_add(
                        linalg.vec_scale(a, roots[i]), linalg.vec_scale(b, roots[j])
                    )
                    if combo in record or linalg.vec_neg(combo) in record:
                        return False
    return True


def test_cond_commute_matches_the_literal_condition():
    # every diagram automorphism and every I of four products at q = 2
    pairs = failures = 0
    for parts in ([("A", 2)] * 2, [("A", 3)] * 2, [("D", 4)], [("A", 2)] * 3):
        cartan = block_cartan(parts)
        rd = datum_from_cartan(cartan)
        r = len(cartan)
        for perm in hasse.diagram_automorphisms(cartan):
            frob = validate_frobenius(rd, 2, coordinate_sigma(perm))
            for levi in range(2**r):
                ctx = zipcones.make_context(rd, frob, [i for i in range(r) if levi >> i & 1])
                for a in ctx.delta_p:
                    expected = literal_cond_commute(ctx, a)
                    assert zipcones.check_cond_commute(ctx, a) is expected, (parts, perm, ctx.I, a)
                    pairs += 1
                    failures += not expected
    assert (pairs, failures) == (11200, 296)


def test_uncertified_context_end_to_end():
    # A2 + A2 with sigma = (2 3 1 0) on the base and I = {0, 1, 2}: the walk
    # sigma^{-1} from alpha_3 passes alpha_1, alpha_2, alpha_0, so m_3 = 4,
    # and sigma^2(alpha_3) = alpha_2 is adjacent to alpha_3
    cartan = block_cartan([("A", 2), ("A", 2)])
    rd = datum_from_cartan(cartan)
    perm = (2, 3, 1, 0)
    ctx = zipcones.make_context(rd, validate_frobenius(rd, 2, coordinate_sigma(perm)), {0, 1, 2})
    assert ctx.frob.sigma_perm == perm and ctx.m_alpha == {3: 4}
    assert not zipcones.check_cond_commute(ctx, 3)
    assert not literal_cond_commute(ctx, 3)
    assert zipcones.certified_lw(ctx) is False
    rep = zipcones.zip_report(ctx)
    assert rep["certified_lw"] is False
    assert "lw" in rep["cones"] and "lw" not in rep["inner_bounds"]


@pytest.mark.parametrize("levi", [[True], [0.0], "01", [Q(1)]], ids=["bool", "float", "str", "fraction"])
def test_make_context_rejects_non_integer_levi_indices(levi):
    rd = build_root_datum("GL3")
    with pytest.raises(BadParams, match="Levi index must be a JSON integer"):
        zipcones.make_context(rd, split_frobenius(rd, 2), levi)


def test_weil_transport_gs_identity():
    for name, ctx in catalog.standard_catalog(2):
        sctx = zipcones.split_context(ctx)
        moved = zipcones.gs_cone(sctx).image_under(
            linalg.mat_mul(ctx.w0I.matrix, ctx.w0I0.matrix)
        )
        assert moved.equal(zipcones.gs_cone(ctx)), name


@pytest.mark.parametrize("q", [2, 3])
def test_split_context_is_ctx_exactly_when_it_would_rebuild_it(q):
    for name, ctx in catalog.standard_catalog(q):
        for r in sorted({1, ctx.split_degree}):
            sctx = zipcones.split_context(ctx, r)
            assert (sctx is ctx) == (r == 1 and ctx.I0 == ctx.I), (name, r)
            sigma_r = linalg.mat_pow(ctx.frob.sigma, r)
            fresh = zipcones.make_context(ctx.rd, validate_frobenius(ctx.rd, q ** r, sigma_r), ctx.I0)
            assert sctx == fresh, (name, r)


@pytest.mark.parametrize("q", [2, 3])
def test_report_weil_hw_matches_transport_from_fresh_split_context(q):
    for (name, ctx), (_, fresh) in zip(catalog.standard_catalog(q), catalog.standard_catalog(q)):
        r = fresh.split_degree
        sigma_r = linalg.mat_pow(fresh.frob.sigma, r)
        sctx = zipcones.make_context(fresh.rd, validate_frobenius(fresh.rd, q ** r, sigma_r), fresh.I0)
        oracle = zipcones.weil_transport(fresh, r, zipcones.hw_cone(sctx)).complete()
        assert zipcones.zip_report(ctx)["cones"]["weil_hw"] == oracle.to_json(), name


def test_weil_transport_zero_cone(u21):
    zero = cone_from_generators(3, [])
    assert zipcones.weil_transport(u21, 2, zero).equal(zero)


def test_weil_transport_invalid_r(u21):
    with pytest.raises(InvalidR):
        zipcones.weil_transport(u21, 1, cone_from_generators(3, []))


def test_weil_transport_hw_lands_in_zip_cone(u21):
    # the transported split-context highest-weight bound is inside the known
    # zip cone {(q-1)x + y <= 0, x >= y} of the unitary example
    sctx = zipcones.split_context(u21, 2)
    inner = zipcones.hw_cone(sctx)
    moved = zipcones.weil_transport(u21, 2, inner)
    zipc = quotient(zipcones.lw_cone(u21))
    for g in moved.generators:
        assert zipc.member(
            (g[0] - g[2], g[1] - g[2])
        ), g


def test_factorization_identity_behind_so_proof():
    rnd = random.Random(5)
    for label in ("B2", "B3", "B4"):
        rd = build_root_datum(label)
        I = tuple(range(1, rd.r))
        alpha_idx = 0
        coroot = rd.simple_coroots[alpha_idx]
        i_alpha = tuple(
            i for i in I if linalg.dot(rd.simple_roots[i], coroot) == 0
        )
        wi = weyl.enumerate_parabolic(rd, I)
        wia = weyl.enumerate_parabolic(rd, i_alpha)
        reps = weyl.min_coset_reps(rd, i_alpha, ambient=I)
        for q in (2, 3, 5):
            for _ in range(5):
                lam = tuple(rnd.randint(-9, 9) for _ in range(rd.n))
                lhs = sum(
                    q ** w.length * linalg.dot(w.act(lam), coroot) for w in wi
                )
                prefactor = sum(q ** u.length for u in wia)
                rhs = prefactor * sum(
                    q ** v.length * linalg.dot(v.act(lam), coroot) for v in reps
                )
                assert lhs == rhs


def test_zip_report_structure(u21):
    rep = zipcones.zip_report(u21)
    assert rep["hasse_type"] is False and rep["exact_zip"] is False
    assert rep["certified_lw"] is True
    assert rep["outer_bound"] == "idominant"
    assert set(rep["inner_bounds"]) == {"pha", "hw", "gs", "neglevi", "weil_hw", "lw"}
    # every inner bound is included in the outer bound
    for name in rep["inner_bounds"]:
        assert [name, "idominant"] in rep["inclusions"]
    so = zipcones.zip_report(catalog.preset("SOodd", n=3, q=2))
    assert so["hasse_type"] and so["exact_zip"] and so["zip_cone"] == "pha"


def test_hasse_type_detection():
    assert not zipcones.is_hasse_type(catalog.preset("U21-inert", q=2))
    assert zipcones.is_hasse_type(catalog.preset("SOodd", n=3, q=2))
    rd = build_root_datum("GL3")
    ctx = zipcones.make_context(rd, split_frobenius(rd, 2), [])
    assert zipcones.is_hasse_type(ctx)  # I empty: vacuous


def test_hasse_type_pha_binding_only_on_delta_p():
    # for Hasse-type contexts the partial Hasse cone is cut out inside the
    # I-dominant cone by the Delta^P inequalities alone
    for name in ("SOodd-n2", "SOodd-n3", "Sp4", "GL3-split"):
        ctx = dict(catalog.standard_catalog(2))[name]
        assert zipcones.is_hasse_type(ctx)
        ineqs = [ctx.rd.simple_coroots[i] for i in ctx.I]
        covs = zipcones.k_alpha_covectors(ctx)
        ineqs += [linalg.vec_neg(covs[a]) for a in ctx.delta_p]
        reduced = cone_from_inequalities(ctx.n, ineqs)
        assert reduced.equal(zipcones.pha_cone(ctx)), name


def test_zip_membership_of_paper_counterexample(u21):
    # quotient point (x, y) = (-(q-1), q) = (-1, 2) violates (q-1)x + y <= 0
    lw = zipcones.lw_cone(u21)
    assert not lw.member((-1, 2, 0))
    assert not quotient(lw).member((-1, 2))


def test_u21_cones_pairwise_distinct(u21):
    lw = zipcones.lw_cone(u21)
    cones = {
        "pha": zipcones.pha_cone(u21),
        "gs": zipcones.gs_cone(u21),
        "hw": zipcones.hw_cone(u21),
        "zip": lw,
    }
    names = sorted(cones)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not cones[a].equal(cones[b]), (a, b)


def test_degenerate_full_levi_report():
    rd = build_root_datum("GL3")
    ctx = zipcones.make_context(rd, split_frobenius(rd, 2), [0, 1])
    rep = zipcones.zip_report(ctx)
    assert rep["hasse_type"] is False  # -w0,I is the A2 flip, sigma = 1
    idom = zipcones.i_dominant_cone(ctx)
    for name in rep["inner_bounds"]:
        inner = RationalCone.from_json(rep["cones"][name])
        assert idom.contains(inner)


# -- the coset chain behind the norm covectors ------------------------------


def brute_norm_matrix(ctx):
    """Oracle: sum of q^l(w) w^T over the enumerated W_{L0}(F_q)."""
    n = ctx.n
    total = [[0] * n for _ in range(n)]
    for w in ctx.fixed_levi_weyl():
        for i in range(n):
            for j in range(n):
                total[i][j] += ctx.q ** w.length * w.matrix[j][i]
    return tuple(tuple(row) for row in total)


@pytest.mark.parametrize("q", [2, 3])
def test_norm_matrix_matches_enumeration_on_catalog(q):
    for name, ctx in catalog.standard_catalog(q):
        for c in (ctx, zipcones.split_context(ctx)):
            assert zipcones.norm_matrix(c) == brute_norm_matrix(c), name


def draw_twisted_context(draw, cartan, label=""):
    """The simply-connected realization of `cartan` with a drawn diagram
    automorphism as sigma, a drawn q and a drawn I."""
    rd = datum_from_cartan(cartan, label)
    perm = draw(st.sampled_from(hasse.diagram_automorphisms(cartan)))
    q = draw(st.sampled_from([2, 3, 5]))
    levi = draw(st.sets(st.integers(0, len(cartan) - 1)))
    return zipcones.make_context(rd, validate_frobenius(rd, q, coordinate_sigma(perm)), levi)


@st.composite
def twisted_contexts(draw):
    letter, rank = draw(st.sampled_from([t for t in hasse.CONNECTED_TYPES if t[1] <= 5]))
    return draw_twisted_context(draw, hasse.cartan_matrix(letter, rank), f"{letter}{rank}")


@st.composite
def product_contexts(draw):
    """2-3 connected types of total rank <= 6, often equal ones, so that a
    diagram automorphism can cycle them (a Weil restriction, possibly with a
    twist on the wrap)."""
    parts = [draw(st.sampled_from([t for t in hasse.CONNECTED_TYPES if t[1] <= 5]))]
    for _ in range(draw(st.integers(1, 2))):
        room = 6 - sum(n for _, n in parts)
        if room == 0:
            break
        if parts[0][1] <= room and draw(st.booleans()):
            parts.append(parts[0])
        else:
            parts.append(draw(st.sampled_from([t for t in hasse.CONNECTED_TYPES if t[1] <= room])))
    return draw_twisted_context(draw, block_cartan(parts))


@settings(max_examples=40, deadline=None)
@given(twisted_contexts())
def test_norm_matrix_matches_enumeration_on_drawn_contexts(ctx):
    assert zipcones.norm_matrix(ctx) == brute_norm_matrix(ctx)


@st.composite
def lattice_contexts(draw):
    """A-D labels of build_root_datum in their lattice coordinates, with sigma
    = 1, the GL flip e_i -> -e_{n-1-i} on A, or e_n -> -e_n on D."""
    letter = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers({"A": 1, "B": 2, "C": 2, "D": 3}[letter], 5))
    rd = build_root_datum(f"{letter}{rank}")
    n = rd.n
    sigma = linalg.mat_identity(n)
    if letter == "A" and draw(st.booleans()):
        sigma = tuple(tuple(-int(i + j == n - 1) for j in range(n)) for i in range(n))
    if letter == "D" and draw(st.booleans()):
        sigma = tuple(tuple(int(i == j) * (-1 if i == n - 1 else 1) for j in range(n)) for i in range(n))
    q = draw(st.sampled_from([2, 3, 5]))
    levi = draw(st.sets(st.integers(0, rank - 1)))
    return zipcones.make_context(rd, validate_frobenius(rd, q, sigma), levi)


def full_row_gs_cone(ctx):
    """Oracle: I-dominance and -beta^vee for every beta in Phi+ \\ Phi+_L."""
    ineqs = [ctx.rd.simple_coroots[i] for i in ctx.I]
    for root, coroot in ctx.rd.positive_roots_with_coroots():
        coeffs = ctx.rd.root_coefficients(root)
        if any(c for k, c in enumerate(coeffs) if k not in ctx.I):
            ineqs.append(linalg.vec_neg(coroot))
    return cone_from_inequalities(ctx.n, ineqs)


def assert_gs_cone_matches_full_rows(ctx):
    got = zipcones.gs_cone(ctx).complete().to_json()
    assert got == full_row_gs_cone(ctx).complete().to_json(), (ctx.rd.label, ctx.I)


def check_gs_cone_on_levis(ranks, min_levi_rank=0):
    """Compare gs_cone with the full-row oracle on every Levi of at least
    `min_levi_rank` simple roots of each split connected type with a rank in
    `ranks`; returns the number of contexts compared."""
    count = 0
    for letter, rank in hasse.CONNECTED_TYPES:
        if rank not in ranks:
            continue
        rd = build_root_datum(f"{letter}{rank}")
        for k in range(min_levi_rank, rank + 1):
            for levi in itertools.combinations(range(rank), k):
                assert_gs_cone_matches_full_rows(
                    zipcones.make_context(rd, split_frobenius(rd, 2), levi)
                )
                count += 1
    return count


def test_gs_cone_equals_full_row_builder_on_every_levi_of_rank_le_5():
    assert check_gs_cone_on_levis(range(6)) == 246


def test_gs_cone_equals_full_row_builder_on_every_levi_of_ranks_6_and_7():
    # A, B, C, D and E in each rank: 5 * 2^6 + 5 * 2^7 Levis
    assert check_gs_cone_on_levis((6, 7)) == 960


def test_gs_cone_equals_full_row_builder_on_rank_8_levis_of_corank_le_1():
    # A8, B8, C8, D8 and E8, each with I of 7 or 8 simple roots; all 1,280
    # Levis of rank 8 take about 12 s, too long for every run
    assert check_gs_cone_on_levis((8,), min_levi_rank=7) == 45


def assert_vector_sigma_test_is_commutation(ctx):
    """Each chain step keeps exactly the representatives that commute with
    sigma as lattice maps; returns how many it dropped."""
    candidates = []
    real = weyl.min_coset_reps

    def recording(*args, **kwargs):
        candidates.append(real(*args, **kwargs))
        return candidates[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(weyl, "min_coset_reps", recording)
        steps = zipcones.coset_chain(ctx)
    assert steps == [[v for v in reps if weyl.commutes(ctx.frob, v)] for reps in candidates]
    return sum(len(reps) for reps in candidates) - sum(len(step) for step in steps)


def test_vector_sigma_test_is_commutation_on_catalog():
    dropped = 0
    for _, ctx in catalog.standard_catalog(2):
        for c in (ctx, zipcones.split_context(ctx)):
            dropped += assert_vector_sigma_test_is_commutation(c)
    assert dropped > 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(twisted_contexts(), lattice_contexts(), product_contexts()))
def test_paper_relations_on_drawn_contexts(ctx):
    """Every inner bound lies in the I-dominant cone, and in the partial
    Hasse cone in Hasse type; for a sigma-stable I the lattice criterion
    agrees with the opposition condition of the induced Dynkin triple.  The
    reduced GS rows and the vector sigma test agree with their oracles."""
    assert_gs_cone_matches_full_rows(ctx)
    assert_vector_sigma_test_is_commutation(ctx)
    rep = zipcones.zip_report(ctx)
    for name in rep["inner_bounds"]:
        assert [name, "idominant"] in rep["inclusions"], name
        if rep["hasse_type"] and name != "pha":
            assert [name, "pha"] in rep["inclusions"], name
    if {ctx.frob.sigma_perm[i] for i in ctx.I} == set(ctx.I):
        triple = hasse.triple_from_context(ctx)
        assert hasse.opposition_condition(triple) == zipcones.is_hasse_type(ctx)


# degrees of the basic invariants: |W| = prod d_i and
# sum_w q^l(w) = prod (q^d_i - 1) / (q - 1)
DEGREES = {
    **{f"A{n}": tuple(range(2, n + 2)) for n in range(1, 9)},
    **{f"B{n}": tuple(range(2, 2 * n + 1, 2)) for n in range(2, 9)},
    **{f"C{n}": tuple(range(2, 2 * n + 1, 2)) for n in range(2, 9)},
    **{f"D{n}": tuple(range(2, 2 * n - 1, 2)) + (n,) for n in range(4, 9)},
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


@pytest.mark.parametrize("label", sorted(DEGREES))
def test_coset_chain_poincare_sum_matches_degrees(label):
    rd = build_root_datum(label)
    ctx = zipcones.make_context(rd, split_frobenius(rd, 2), range(rd.r))
    steps = zipcones.coset_chain(ctx)
    assert len(steps) == rd.r
    for q in (1, 2, 3):
        chain = math.prod(sum(q ** v.length for v in step) for step in steps)
        degrees = math.prod(sum(q ** k for k in range(d)) for d in DEGREES[label])
        assert chain == degrees, q


def test_split_e7_report_never_enumerates_the_e6_levi(monkeypatch):
    # |W(E6)| = 51,840; the largest coset step, ^{D5} W_{E6}, has 27 elements
    monkeypatch.setenv("ZIPCONE_ENUM_CAP", "1000")
    rd = build_root_datum("E7")
    ctx = zipcones.make_context(rd, split_frobenius(rd, 2), range(6))
    rep = zipcones.zip_report(ctx)
    assert ["hw", "idominant"] in rep["inclusions"]
    assert ["neglevi", "hw"] in rep["inclusions"]
    with pytest.raises(CapExceeded):
        ctx.fixed_levi_weyl()
