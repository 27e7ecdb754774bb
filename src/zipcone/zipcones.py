"""Weight cones attached to a zip context (root datum, Frobenius, Levi type).

A ZipContext packages a root datum, a Frobenius datum and a subset I of the
simple roots (the type of the Levi centralizing the cocharacter), together
with the derived combinatorics: the largest sigma-stable subset I0 of I, the
longest elements w_{0,I} and w_{0,I0}, the orbit lengths r_alpha and the exit
times m_alpha.  On top of that sit the cones:

  dominant, I-dominant, X*_-(L),
  the Griffiths-Schmid cone,
  the partial Hasse invariant cone (image of the dominant cone under
      h_Z: lam -> lam - q w_{0,I} sigma^{-1} lam),
  the highest and lowest weight cones (norm-extension inequalities),
  and Weil-restriction transports of split-context cones.

Everything is exact; q enters as a plain integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q

from . import linalg, weyl
from .cones import RationalCone, check_dim, cone_from_inequalities, equality_pair
from .errors import DimensionMismatch, InternalError, InvalidR, json_integer
from .rootdata import FrobeniusDatum, RootDatum, pair, perm_orbits, validate_frobenius
from .weyl import WeylElement


@dataclass(frozen=True)
class ZipContext:
    rd: RootDatum
    frob: FrobeniusDatum
    I: tuple
    I0: tuple
    delta_p: tuple
    delta_p0: tuple
    w0I: WeylElement
    w0I0: WeylElement
    r_alpha: tuple  # sigma-orbit length of each simple root
    m_alpha: dict  # alpha in Delta^P -> min m >= 1 with sigma^-m(alpha) not in I
    split_degree: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.frob.q

    @property
    def n(self) -> int:
        return self.rd.n

    def fixed_levi_weyl(self):
        """W_{L_0}(F_q) by brute force: all of W_{I0}, kept where it commutes
        with sigma.  The cones never call this; it is the oracle that
        `norm_matrix` is checked against."""
        if "wfix" not in self._cache:
            els = weyl.enumerate_parabolic(self.rd, self.I0)
            self._cache["wfix"] = tuple(weyl.sigma_fixed(els, self.frob))
        return self._cache["wfix"]


def make_context(rd: RootDatum, frob: FrobeniusDatum, I) -> ZipContext:
    I = tuple(sorted({json_integer(i, "Levi index") for i in I}))
    if any(i < 0 or i >= rd.r for i in I):
        raise DimensionMismatch("Levi indices out of range")
    perm_inv = frob.perm_power(-1)
    orbit_of = {i: orbit for orbit in perm_orbits(frob.sigma_perm) for i in orbit}
    iset = set(I)
    I0 = tuple(sorted(i for i in I if iset.issuperset(orbit_of[i])))
    delta_p = tuple(i for i in range(rd.r) if i not in iset)
    delta_p0 = tuple(i for i in range(rd.r) if i not in set(I0))
    r_alpha = tuple(len(orbit_of[i]) for i in range(rd.r))
    m_alpha = {}
    for a in delta_p:
        j, m = perm_inv[a], 1
        while j in iset:
            j = perm_inv[j]
            m += 1
            if m > frob.sigma_order + 1:
                raise InternalError("m_alpha walk failed to terminate")
        m_alpha[a] = m
    split_degree = frob.sigma_order
    for a in delta_p:
        if not 1 <= m_alpha[a] <= r_alpha[a] <= split_degree:
            raise InternalError("1 <= m_alpha <= r_alpha <= split degree violated")
    return ZipContext(
        rd=rd,
        frob=frob,
        I=I,
        I0=I0,
        delta_p=delta_p,
        delta_p0=delta_p0,
        w0I=weyl.longest_element(rd, I),
        w0I0=weyl.longest_element(rd, I0),
        r_alpha=r_alpha,
        m_alpha=m_alpha,
        split_degree=split_degree,
    )


def split_context(ctx: ZipContext, r: int | None = None) -> ZipContext:
    """The context (same datum, Frobenius sigma^r with parameter q^r, Levi I0)
    used by the Weil-restriction transport.  Default r is the split degree.
    For r = 1 and I0 = I that context equals ctx, and ctx itself is returned,
    so the two share their cached cones and norm matrix."""
    r = ctx.split_degree if r is None else r
    if r == 1 and ctx.I0 == ctx.I:
        return ctx
    frob_r = validate_frobenius(ctx.rd, ctx.q ** r, linalg.mat_pow(ctx.frob.sigma, r))
    return make_context(ctx.rd, frob_r, ctx.I0)


# -- delta_alpha ----------------------------------------------------------


def _orbit_coroot_sum(ctx: ZipContext, coroot):
    """(sum_{j<r} q^j sigma*^j(coroot), r) for r the sigma*-orbit length of coroot."""
    costar = ctx.frob.sigma_costar
    total, r = coroot, 1
    cur, qpow = linalg.mat_vec(costar, coroot), ctx.q
    while cur != coroot:
        if r == ctx.frob.sigma_order:
            raise InternalError("coroot orbit longer than sigma order")
        total = linalg.vec_add(total, linalg.vec_scale(qpow, cur))
        cur, qpow, r = linalg.mat_vec(costar, cur), qpow * ctx.q, r + 1
    return total, r


def delta_alpha(ctx: ZipContext, alpha):
    """The rational cocharacter with delta - q sigma(delta) = alpha^vee."""
    total, r = _orbit_coroot_sum(ctx, ctx.rd.coroot_of(tuple(alpha)))
    denom = ctx.q ** r - 1
    return tuple(Q(-t, denom) for t in total)


def frobenius_twist_of_cocharacter(ctx: ZipContext, delta):
    """The map delta -> delta - q sigma(delta) on X_*(T)_Q."""
    img = linalg.mat_vec(ctx.frob.sigma_costar, delta)
    return tuple(Q(d) - ctx.q * Q(s) for d, s in zip(delta, img))


# -- basic cones ----------------------------------------------------------


def dominant_cone(ctx: ZipContext) -> RationalCone:
    return cone_from_inequalities(ctx.n, list(ctx.rd.simple_coroots))


def i_dominant_cone(ctx: ZipContext) -> RationalCone:
    return cone_from_inequalities(ctx.n, [ctx.rd.simple_coroots[i] for i in ctx.I])


def neg_levi_cone(ctx: ZipContext) -> RationalCone:
    """X*_-(L): trivial on the coroots of I, nonpositive on Delta^P coroots."""
    ineqs = []
    for i in ctx.I:
        ineqs.extend(equality_pair(ctx.rd.simple_coroots[i]))
    for a in ctx.delta_p:
        ineqs.append(linalg.vec_neg(ctx.rd.simple_coroots[a]))
    return cone_from_inequalities(ctx.n, ineqs)


def gs_cone(ctx: ZipContext) -> RationalCone:
    """Nonnegative on I-coroots, nonpositive on coroots of Phi+ \\ Phi+_L.

    Only the I-dominant coroots gamma^vee (<alpha_i, gamma^vee> >= 0 for all
    i in I) give rows; the others are implied.  W_L permutes Phi+ \\ Phi+_L,
    and each W_L-orbit of its coroots holds exactly one I-dominant element
    gamma^vee; every other element is gamma^vee minus a nonnegative
    combination of the alpha_i^vee, i in I.  So for I-dominant lam,
    <lam, w gamma^vee> <= <lam, gamma^vee>, and the I-dominant rows imply
    all the others (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 13.2).
    """
    levi = set(ctx.rd.positive_roots(ctx.I))
    ineqs = [ctx.rd.simple_coroots[i] for i in ctx.I]
    for root, coroot in ctx.rd.positive_roots_with_coroots():
        if root not in levi and all(linalg.dot(ctx.rd.simple_roots[i], coroot) >= 0 for i in ctx.I):
            ineqs.append(linalg.vec_neg(coroot))
    return cone_from_inequalities(ctx.n, ineqs)


# -- partial Hasse invariant cone ----------------------------------------


def _twist_matrix(ctx: ZipContext):
    """w_{0,I} sigma^{-1} on X*(T); sigma^{-1} is the transpose of sigma*."""
    return linalg.mat_mul(ctx.w0I.matrix, linalg.transpose(ctx.frob.sigma_costar))


def hz_map(ctx: ZipContext):
    """Integer matrix of h_Z: lam -> lam - q w_{0,I}(sigma^{-1} lam)."""
    twist = _twist_matrix(ctx)
    n = ctx.n
    return tuple(
        tuple((1 if i == j else 0) - ctx.q * twist[i][j] for j in range(n))
        for i in range(n)
    )


def pha_cone(ctx: ZipContext) -> RationalCone:
    """Saturation of h_Z(X*_+(T)).

    The dominance inequalities are pulled back through h_Z^{-1} (covectors
    transform by the inverse-transpose).  h_Z is invertible for q >= 2 since
    the twist matrix has finite order, so every eigenvalue of q*twist has
    modulus q.
    """
    hinvt = linalg.transpose(linalg.mat_inverse(hz_map(ctx)))
    ineqs = [linalg.mat_vec(hinvt, av) for av in ctx.rd.simple_coroots]
    return cone_from_inequalities(ctx.n, ineqs)


def k_alpha_period(ctx: ZipContext) -> int:
    """Number of terms in the K_alpha sum.

    The twisted operator w_{0,I} o sigma^{-1} satisfies B^d = 1 for d its
    order, so sum_{i<D} q^i B^i = (1 - q^D) h_Z^{-1} for any multiple D of d.
    Taking D = lcm(2 * split_degree, d) keeps the familiar 2n-term sum
    whenever sigma stabilizes I (d divides 2n there) and stays an even
    multiple of d in general.
    """
    return math.lcm(2 * ctx.split_degree, linalg.mat_order(_twist_matrix(ctx)))


def k_alpha_covectors(ctx: ZipContext):
    """Covectors c_a with K_a(lam) = <lam, c_a>, cached on the context."""
    if "k_covectors" not in ctx._cache:
        twist_t = linalg.transpose(_twist_matrix(ctx))
        period = k_alpha_period(ctx)
        covs = []
        for a in range(ctx.rd.r):
            cur = ctx.rd.simple_coroots[a]
            total = tuple(0 for _ in range(ctx.n))
            qpow = 1
            for _ in range(period):
                total = linalg.vec_add(total, linalg.vec_scale(qpow, cur))
                cur = linalg.mat_vec(twist_t, cur)
                qpow *= ctx.q
            covs.append(total)
        ctx._cache["k_covectors"] = tuple(covs)
    return ctx._cache["k_covectors"]


def k_alpha(ctx: ZipContext, lam, alpha_index: int):
    """K_alpha(lam) = sum_i q^i <(w_{0,I} sigma^{-1})^i lam, alpha^vee>."""
    return pair(lam, k_alpha_covectors(ctx)[alpha_index])


# -- highest and lowest weight cones --------------------------------------


def coset_chain(ctx: ZipContext):
    """W_{L0}(F_q) as a product of small coset sets, one list per step.

    Along a chain {} = J_0 < J_1 < ... < J_m = I0 of sigma-stable sets, each
    one sigma-orbit larger than the last, step t lists the sigma-fixed
    minimal representatives of W_{J_{t-1}} \\ W_{J_t}.  Each w in W_{J_t} is
    uniquely u v with u in W_{J_{t-1}}, v such a representative and
    l(w) = l(u) + l(v); conjugation by sigma preserves both sets, so a
    sigma-fixed w has sigma-fixed factors.  Hence every w in W_{L0}(F_q) is
    uniquely v_1 v_2 ... v_m with v_t from step t, and l(w) is the sum of
    the l(v_t).  The next orbit is one that touches those already taken,
    when any does: growing one component at a time keeps each step as small
    as the diagram allows.  The cap bounds each step before the sigma filter.

    v is kept iff sigma(v(2 rho)) = v(2 rho), for 2 rho the sum of the
    positive roots.  sigma permutes the base, so u = v^{-1} sigma v sigma^{-1}
    is in W, and v commutes with sigma iff u = 1.  W acts trivially on the
    annihilator of the coroots, so u = 1 iff u fixes one regular vector of
    the root span.  2 rho is regular and sigma-fixed, so u(2 rho) = 2 rho
    iff sigma v (2 rho) = v (2 rho).
    """
    cap = weyl.enum_cap()  # read even when I0 is empty: a bad value is an error
    cartan = ctx.rd.cartan()
    two_rho = tuple(map(sum, zip(*ctx.rd.positive_roots())))
    left = [o for o in perm_orbits(ctx.frob.sigma_perm) if o[0] in ctx.I0]
    J = ()
    steps = []
    while left:
        orbit = next((o for o in left if any(cartan[i][j] for i in o for j in J)), left[0])
        left.remove(orbit)
        ambient = tuple(sorted(J + orbit))
        reps = weyl.min_coset_reps(ctx.rd, J, ambient=ambient, cap=cap)
        steps.append(
            [v for v in reps if linalg.mat_vec(ctx.frob.sigma, x := v.act(two_rho)) == x]
        )
        J = ambient
    return steps


def norm_matrix(ctx: ZipContext):
    """N = sum_{w in W_{L0}(F_q)} q^{l(w)} w^T = R_m ... R_1, where R_t sums
    q^{l(v)} v^T over step t of the coset chain; cached on the context."""
    if "norm" not in ctx._cache:
        n = ctx.n
        total = linalg.mat_identity(n)
        for step in coset_chain(ctx):
            r = [[0] * n for _ in range(n)]
            for v in step:
                c = ctx.q ** v.length
                for i in range(n):
                    for j in range(n):
                        r[i][j] += c * v.matrix[j][i]
            total = linalg.mat_mul(r, total)
        ctx._cache["norm"] = total
    return ctx._cache["norm"]


def _norm_cone(ctx: ZipContext, deltas, pre) -> RationalCone:
    """I-dominance plus, for each a in `deltas`, the norm inequality
    sum_{w in W_{L0}(F_q)} sum_{i<r_a} q^{i+l(w)} <w pre lam, sigma^i a^vee> <= 0."""
    covectors = linalg.mat_mul(linalg.transpose(pre), norm_matrix(ctx))
    ineqs = [ctx.rd.simple_coroots[i] for i in ctx.I]
    for a in deltas:
        orbit_part, _ = _orbit_coroot_sum(ctx, ctx.rd.simple_coroots[a])
        ineqs.append(linalg.vec_neg(linalg.mat_vec(covectors, orbit_part)))
    return cone_from_inequalities(ctx.n, ineqs)


def hw_cone(ctx: ZipContext) -> RationalCone:
    """Highest weight cone: the norm inequalities over Delta^P."""
    return _norm_cone(ctx, ctx.delta_p, linalg.mat_identity(ctx.n))


def check_cond_commute(ctx: ZipContext, alpha_index: int) -> bool:
    """The commutation condition on sigma^{-i}(alpha), 1 <= i < m_alpha:
    the pairings between two distinct ones vanish both ways, and no positive
    combination of two of them is a root.

    sigma permutes the base, so each sigma^{-i}(alpha) is a simple root and
    each pairing is a Cartan entry; sigma preserves the Cartan matrix C, so
    the pair i < j pairs like alpha and sigma^{j-i}(alpha); and two
    orthogonal simple roots have no positive combination that is a root,
    since the support of a root is connected.  So the condition is
    C[alpha][sigma^d(alpha)] = 0 for 1 <= d <= m_alpha - 2.  Walking sigma
    or sigma^{-1} here gives the same answer, again because sigma
    preserves C (and C has a symmetric zero pattern).
    """
    cartan = ctx.rd.cartan()
    perm = ctx.frob.sigma_perm
    j = alpha_index
    for _ in range(ctx.m_alpha[alpha_index] - 2):
        j = perm[j]
        if cartan[alpha_index][j]:
            return False
    return True


def lw_cone(ctx: ZipContext) -> RationalCone:
    """Lowest weight cone: the norm inequalities over Delta^{P0}, evaluated at
    lam_0 = w_{0,I0} w_{0,I} lam.  It lies in the zip cone when
    `certified_lw` holds."""
    return _norm_cone(ctx, ctx.delta_p0, linalg.mat_mul(ctx.w0I0.matrix, ctx.w0I.matrix))


def certified_lw(ctx: ZipContext) -> bool:
    """Whether every alpha in Delta^P passes the commutation condition, so
    that the lw cone lies in the zip cone; cached on the context."""
    if "certified_lw" not in ctx._cache:
        ctx._cache["certified_lw"] = all(check_cond_commute(ctx, a) for a in ctx.delta_p)
    return ctx._cache["certified_lw"]


# -- Weil restriction transport -------------------------------------------


def weil_transport(ctx: ZipContext, r: int, inner: RationalCone) -> RationalCone:
    """X*_{+,I} intersected with w_{0,I} w_{0,I0} applied to an inner bound of
    the split-context zip cone."""
    perm = ctx.frob.perm_power(r % ctx.frob.sigma_order)
    if any(perm[i] != i for i in ctx.I):
        raise InvalidR(f"sigma^{r} does not fix I pointwise")
    mat = linalg.mat_mul(ctx.w0I.matrix, ctx.w0I0.matrix)
    moved = inner.image_under(mat)
    return report_cone(ctx, "idominant").intersect(moved)


# -- hasse-type test (lattice level) ---------------------------------------


def is_hasse_type(ctx: ZipContext) -> bool:
    """sigma(I) = I as a set and sigma acts on I by -w_{0,I}."""
    return hasse_criteria(ctx)["hasse_type"]


def hasse_criteria(ctx: ZipContext) -> dict:
    """Which parts of the root-data criterion hold (for reporting)."""
    perm = ctx.frob.sigma_perm
    stable = {perm[i] for i in ctx.I} == set(ctx.I)
    acts_by_opposition = stable and all(
        ctx.w0I.act(ctx.rd.simple_roots[i]) == linalg.vec_neg(ctx.rd.simple_roots[perm[i]])
        for i in ctx.I
    )
    return {
        "levi_defined_over_Fq": stable,
        "sigma_acts_by_opposition": acts_by_opposition,
        "hasse_type": stable and acts_by_opposition,
    }


# -- the report -------------------------------------------------------------


CONE_BUILDERS = ("gs", "pha", "hw", "lw", "dominant", "idominant", "neglevi")
REPORT_CONES = ("idominant", "neglevi", "gs", "pha", "hw", "lw", "weil_hw")


def report_cone(ctx: ZipContext, which: str) -> RationalCone:
    """The completed cone `which` (a name in CONE_BUILDERS or REPORT_CONES).

    Each is built once per context and kept in ctx._cache, so `zip_report`,
    the CLI and `catalog.reproduce` share one copy.  A completed cone is
    never changed: every RationalCone method that makes another cone returns
    a new object.
    """
    key = ("cone", which)
    if key not in ctx._cache:
        check_dim(ctx.n)
        ctx._cache[key] = _build(ctx, which).complete()
    return ctx._cache[key]


def _build(ctx: ZipContext, which: str) -> RationalCone:
    if which == "dominant":
        return dominant_cone(ctx)
    if which == "idominant":
        return i_dominant_cone(ctx)
    if which == "neglevi":
        return neg_levi_cone(ctx)
    if which == "gs":
        return gs_cone(ctx)
    if which == "pha":
        return pha_cone(ctx)
    if which == "hw":
        return hw_cone(ctx)
    if which == "lw":
        return lw_cone(ctx)
    if which == "weil_hw":
        hw = report_cone(split_context(ctx), "hw")
        return weil_transport(ctx, ctx.split_degree, hw)
    raise DimensionMismatch(f"unknown cone name {which!r}")


def zip_report(ctx: ZipContext) -> dict:
    """All computed cones, the inner/outer bounds on the zip cone, the
    Hasse-type flags and the inclusion matrix."""
    cones = {name: report_cone(ctx, name) for name in REPORT_CONES}
    certified = certified_lw(ctx)
    hasse = is_hasse_type(ctx)
    inner = ["pha", "hw", "gs", "neglevi", "weil_hw"]
    if certified:
        inner.append("lw")
    inclusions = []
    names = sorted(cones)
    for a in names:
        for b in names:
            if a != b and cones[b].contains(cones[a]):
                inclusions.append([a, b])
    return {
        "cones": {name: cones[name].to_json() for name in names},
        "inner_bounds": sorted(inner),
        "outer_bound": "idominant",
        "hasse_type": hasse,
        "exact_zip": hasse,
        "zip_cone": "pha" if hasse else None,
        "certified_lw": certified,
        "inclusions": sorted(inclusions),
    }
