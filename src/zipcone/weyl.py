"""Weyl group elements as lattice automorphisms.

Elements are canonically identified by their matrices on X*(T) and carry
their length.  Enumeration is breadth-first and returns a deterministic
order (length, then lex of the matrix).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from . import linalg
from .errors import BadParams, CapExceeded, InternalError
from .rootdata import FrobeniusDatum, RootDatum

DEFAULT_ENUM_CAP = 5_000_000


def enum_cap() -> int:
    text = os.environ.get("ZIPCONE_ENUM_CAP", str(DEFAULT_ENUM_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadParams(f"ZIPCONE_ENUM_CAP must be a positive integer, not {text!r}")
    return cap


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple
    length: int

    def act(self, lam):
        return linalg.mat_vec(self.matrix, lam)

    def key(self):
        return (self.length, self.matrix)


def identity_element(rd: RootDatum) -> WeylElement:
    return WeylElement(linalg.mat_identity(rd.n), 0)


def reflect(rd: RootDatum, alpha_index: int, lam):
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    return linalg.mat_vec(rd.reflection_matrix(alpha_index), lam)


def longest_element(rd: RootDatum, indices) -> WeylElement:
    """w_{0,K} by the antidominance walk from 2*rho_K."""
    idx = tuple(sorted(indices))
    if not idx:
        return identity_element(rd)
    roots = rd.positive_roots(idx)
    v = tuple(0 for _ in range(rd.n))
    for root in roots:
        v = linalg.vec_add(v, root)
    mat = linalg.mat_identity(rd.n)
    steps = 0
    while True:
        k = next((i for i in idx if linalg.dot(v, rd.simple_coroots[i]) > 0), None)
        if k is None:
            break
        v = reflect(rd, k, v)
        mat = linalg.mat_mul(rd.reflection_matrix(k), mat)
        steps += 1
        if steps > len(roots) + 1:
            raise InternalError("antidominance walk failed to terminate")
    return WeylElement(mat, steps)


def enumerate_parabolic(rd: RootDatum, indices, cap: int | None = None):
    """All of W_K by BFS on right multiplication, deduped by matrix.

    Deterministic order: (length, lex of matrix rows).
    """
    idx = tuple(sorted(indices))
    cap = enum_cap() if cap is None else cap
    ident = identity_element(rd)
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for w in frontier:
            for k in idx:
                if not rd.is_positive_root_vector(
                    linalg.mat_vec(w.matrix, rd.simple_roots[k])
                ):
                    continue  # ell(w s_k) = ell(w) - 1, already seen
                mat = linalg.mat_mul(w.matrix, rd.reflection_matrix(k))
                if mat in seen:
                    continue
                nw = WeylElement(mat, w.length + 1)
                seen[mat] = nw
                new_frontier.append(nw)
                if len(seen) > cap:
                    raise CapExceeded(
                        f"W_K enumeration exceeded cap {cap}", partial_count=len(seen)
                    )
        frontier = new_frontier
    return sorted(seen.values(), key=WeylElement.key)


def commutes(frob: FrobeniusDatum, w: WeylElement) -> bool:
    """sigma w = w sigma as lattice maps."""
    return linalg.mat_mul(frob.sigma, w.matrix) == linalg.mat_mul(w.matrix, frob.sigma)


def sigma_fixed(elements, frob: FrobeniusDatum):
    """Elements commuting with sigma as lattice maps (W_{L_0}(F_q))."""
    return [w for w in elements if commutes(frob, w)]


def opposition_involution(rd: RootDatum, indices):
    """The permutation tau of K with -w_{0,K}(alpha) = tau(alpha)."""
    idx = tuple(sorted(indices))
    w0 = longest_element(rd, idx)
    tau = {}
    root_index = {rd.simple_roots[i]: i for i in idx}
    for i in idx:
        img = linalg.vec_neg(w0.act(rd.simple_roots[i]))
        if img not in root_index:
            raise InternalError(f"-w_0,K(alpha_{i}) is not a simple root of K")
        tau[i] = root_index[img]
    return tau


def min_coset_reps(rd: RootDatum, indices, ambient=None, cap: int | None = None):
    """Minimal-length representatives ^K W_ambient of W_K \\ W_ambient.

    They are walked as one orbit.  v = 2 rho^vee_ambient - 2 rho^vee_K, the
    sum of the coroots of Phi+_ambient \\ Phi+_K, pairs to 0 with alpha_k for
    k in K and to at least 2 with every other ambient simple root, so its
    stabilizer in W_ambient is the parabolic subgroup of K (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12) and w -> w^{-1}(v) is a
    bijection from ^K W_ambient onto the orbit of v.  A BFS by right
    multiplication carries mu = w^{-1}(v) as the key: w s_j is again a
    representative, one longer, exactly when <alpha_j, mu> > 0, and then
    its key is the coreflection s_j(mu).  A matrix is built only for a new
    key.  The result is cached on the root datum, and the cap bounds the
    number of representatives.  Deterministic order: (length, lex of
    matrix rows).
    """
    idx = tuple(sorted(indices))
    amb = tuple(range(rd.r)) if ambient is None else tuple(sorted(ambient))
    cap = enum_cap() if cap is None else cap
    key = ("coset_reps", idx, amb)
    if key not in rd._cache:
        rd._cache[key] = _coset_bfs(rd, idx, amb, cap)
    reps = rd._cache[key]
    if len(reps) > cap:
        raise CapExceeded(f"coset enumeration exceeded cap {cap}", partial_count=len(reps))
    return list(reps)


def _coset_bfs(rd: RootDatum, idx, amb, cap: int):
    inside = set(rd.positive_roots(idx))
    v = tuple(0 for _ in range(rd.n))
    for root, coroot in rd.positive_roots_with_coroots(amb):
        if root not in inside:
            v = linalg.vec_add(v, coroot)
    ident = identity_element(rd)
    seen = {v: ident}
    frontier = [v]
    while frontier:
        new_frontier = []
        for mu in frontier:
            w = seen[mu]
            for j in amb:
                c = linalg.dot(rd.simple_roots[j], mu)
                if c <= 0:
                    continue  # w s_j is shorter, or in the same coset as w
                nmu = linalg.vec_sub(mu, linalg.vec_scale(c, rd.simple_coroots[j]))
                if nmu in seen:
                    continue
                mat = linalg.mat_mul(w.matrix, rd.reflection_matrix(j))
                seen[nmu] = WeylElement(mat, w.length + 1)
                new_frontier.append(nmu)
                if len(seen) > cap:
                    raise CapExceeded(
                        f"coset enumeration exceeded cap {cap}", partial_count=len(seen)
                    )
        frontier = new_frontier
    return tuple(sorted(seen.values(), key=WeylElement.key))
