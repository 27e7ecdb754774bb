"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(or `pytest -v`, where the test names carry the same information).  Every
check is exact; the stated wall-clock limits are asserted.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

from zipcone import catalog, fm, hasse, linalg, weyl, zipcones
from zipcone.cones import cone_from_generators, cone_from_inequalities
from zipcone.rootdata import build_root_datum

from oracles import inversion_length


@contextmanager
def criterion(num, desc, limit=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL {desc}")
        raise
    dt = time.monotonic() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} took {dt:.2f}s, limit {limit}s"
    print(f"[criterion {num:>2}] PASS {desc} ({dt:.2f}s)")


def _cone_members(cone, count, rnd, scale=10):
    gens = cone.generators
    out = []
    for _ in range(count):
        coeffs = [rnd.randint(0, scale) for _ in gens]
        vec = tuple(0 for _ in range(cone.dim))
        for c, g in zip(coeffs, gens):
            vec = linalg.vec_add(vec, linalg.vec_scale(c, g))
        out.append(vec)
    return out


def test_criterion_01_u21_inert_reproduction():
    with criterion(1, "U(2,1) inert table for q in {2,3,5}", limit=1.0):
        for q in (2, 3, 5):
            rep = catalog.reproduce("U21-inert", q=q)
            assert rep["passed"], (q, rep["flag_checks"])


def test_criterion_02_so_odd_reproduction():
    with criterion(2, "SO(2n+1) table for n in {2..5}, q in {2,3}", limit=10.0):
        for n in (2, 3, 4, 5):
            for q in (2, 3):
                rep = catalog.reproduce("SOodd", n=n, q=q)
                assert rep["passed"], (n, q, rep["flag_checks"])
                assert rep["flag_checks"]["hasse_type is True"]
                assert rep["flag_checks"]["exact zip equals pha"]
                if n == 2:
                    assert rep["flag_checks"]["hw equals pha at n=2"]
                else:
                    assert rep["flag_checks"][f"hw strictly inside pha at n={n}"]


def test_criterion_03_appendix_classification():
    with criterion(3, "appendix classification, rank <= 8, vs transcribed tables", limit=300.0):
        diffs = hasse.compare_with_expected(8)
        for table, d in diffs.items():
            assert not d["missing"] and not d["unexpected"], (table, d)
        # the maximal table decomposes into the ten headline cases plus the
        # two documented degenerate families, nothing else
        expected = hasse.load_expected_tables()
        by_source = {}
        for e in expected["maximal"]:
            by_source.setdefault(e["source"].split()[0], []).append(e)
        headline = {s for s in by_source if s.startswith("case-")}
        assert headline == {f"case-{k}" for k in range(1, 11)}
        assert set(by_source) - set(headline) == {"degenerate-full", "degenerate-star"}
        # the Hodge allow-list is exactly Cor. A.7's four families at rank <= 8
        hodge_types = {(e["type"], tuple(e["I"])) for e in expected["hodge"]}
        assert hodge_types == (
            {("A1", ()), ("A2", (1,)), ("A2", (2,))}
            | {(f"B{n}", tuple(range(2, n + 1))) for n in range(2, 9)}
            | {("D5", (2, 3, 4, 5)), ("D7", (2, 3, 4, 5, 6, 7))}
        )


def test_criterion_04_inclusion_property_suite():
    with criterion(4, "cone inclusion lattice over the ten-context catalog", limit=30.0):
        cat = catalog.standard_catalog(2)
        assert len(cat) >= 10
        for name, ctx in cat:
            hw = zipcones.hw_cone(ctx)
            lw = zipcones.lw_cone(ctx)
            gs = zipcones.gs_cone(ctx)
            pha = zipcones.pha_cone(ctx)
            idom = zipcones.i_dominant_cone(ctx)
            neglevi = zipcones.neg_levi_cone(ctx)
            assert hw.contains(neglevi), name
            assert lw.contains(gs), name
            assert idom.contains(pha), name
            assert idom.contains(hw), name
            perm = ctx.frob.sigma_perm
            if all(perm[i] == i for i in ctx.I):
                assert hw.equal(lw), name
                assert hw.contains(gs), name


def test_criterion_05_k_alpha_consistency():
    with criterion(5, "K_alpha <= 0 for all alpha iff h_Z^{-1}(lam) dominant, 1000 samples/context", limit=10.0):
        rnd = random.Random(20260809)
        for name, ctx in catalog.standard_catalog(2):
            pha = zipcones.pha_cone(ctx)
            covs = zipcones.k_alpha_covectors(ctx)
            for _ in range(1000):
                lam = tuple(rnd.randint(-50, 50) for _ in range(ctx.n))
                via_k = all(linalg.dot(lam, c) <= 0 for c in covs)
                assert via_k == pha.member(lam), (name, lam)


def test_criterion_06_hasse_type_internal_inequality():
    with criterion(6, "Hasse-type contexts: K_alpha(lam) <= 0 on I for I-dominant lam", limit=5.0):
        rnd = random.Random(31337)
        for name, ctx in catalog.standard_catalog(2):
            if not zipcones.is_hasse_type(ctx):
                continue
            covs = zipcones.k_alpha_covectors(ctx)
            idom = zipcones.i_dominant_cone(ctx).complete()
            for lam in _cone_members(idom, 1000, rnd):
                assert all(linalg.dot(lam, covs[i]) <= 0 for i in ctx.I), (name, lam)


def test_criterion_07_delta_alpha_identity():
    with criterion(7, "delta_alpha - q sigma(delta_alpha) = alpha^vee exactly"):
        for name, ctx in catalog.standard_catalog(2):
            for i in range(ctx.rd.r):
                da = zipcones.delta_alpha(ctx, ctx.rd.simple_roots[i])
                want = tuple(Q(x) for x in ctx.rd.simple_coroots[i])
                assert zipcones.frobenius_twist_of_cocharacter(ctx, da) == want, name


def test_criterion_08_gs_transport_identity():
    with criterion(8, "w_{0,I} w_{0,I0} C_GS(I0) = C_GS(I) on the catalog"):
        for name, ctx in catalog.standard_catalog(2):
            sctx = zipcones.split_context(ctx)
            mat = linalg.mat_mul(ctx.w0I.matrix, ctx.w0I0.matrix)
            moved = zipcones.gs_cone(sctx).image_under(mat)
            assert moved.equal(zipcones.gs_cone(ctx)), name


def test_criterion_09_cone_engine_oracle():
    with criterion(9, "double description vs Fourier-Motzkin on 200 random cones", limit=60.0):
        rnd = random.Random(424242)
        for _ in range(200):
            dim = rnd.randint(1, 6)
            gens = [
                tuple(rnd.randint(-3, 3) for _ in range(dim))
                for _ in range(rnd.randint(0, 8))
            ]
            c = cone_from_generators(dim, gens).complete()
            h = fm.h_from_v(dim, gens)
            oracle = cone_from_inequalities(dim, h)
            assert c.equal(oracle), (dim, gens)
            round_trip = cone_from_inequalities(dim, c.inequalities)
            assert round_trip.equal(c), (dim, gens)


def test_criterion_10_weyl_layer():
    with criterion(10, "lengths, group orders, and the coset factorization identity"):
        for label, order in (("A3", 24), ("B3", 48), ("D4", 192)):
            rd = build_root_datum(label)
            els = weyl.enumerate_parabolic(rd, range(rd.r))
            assert len(els) == order, label
            for w in els:
                assert w.length == inversion_length(rd, w.matrix), (label, w.matrix)
        rnd = random.Random(8)
        for label in ("B2", "B3", "B4"):
            rd = build_root_datum(label)
            I = tuple(range(1, rd.r))
            coroot = rd.simple_coroots[0]
            i_alpha = tuple(i for i in I if linalg.dot(rd.simple_roots[i], coroot) == 0)
            wi = weyl.enumerate_parabolic(rd, I)
            wia = weyl.enumerate_parabolic(rd, i_alpha)
            reps = weyl.min_coset_reps(rd, i_alpha, ambient=I)
            for q in (2, 3, 5):
                for _ in range(3):
                    lam = tuple(rnd.randint(-9, 9) for _ in range(rd.n))
                    lhs = sum(q ** w.length * linalg.dot(w.act(lam), coroot) for w in wi)
                    rhs = sum(q ** u.length for u in wia) * sum(
                        q ** v.length * linalg.dot(v.act(lam), coroot) for v in reps
                    )
                    assert lhs == rhs, (label, q, lam)
