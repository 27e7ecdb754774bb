"""Based root data over Z in the sign conventions of the worked examples, plus Frobenius data.

A root datum stores the character lattice X*(T) = Z^n together with simple
roots and simple coroots in dual bases, so that the pairing is the standard
bilinear form.  Dominance always means nonnegative pairing against simple
coroots.  Borel subgroups are never modeled; only this combinatorial shadow.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    DimensionMismatch,
    DoesNotPreserveBase,
    InvalidCartan,
    NonFiniteSystem,
    NotAnAutomorphism,
    SingularMap,
)

ROOT_CLOSURE_CAP = 10_000
SIGMA_ORDER_CAP = 48


@dataclass(frozen=True)
class RootDatum:
    """X*(T) = Z^n with simple roots and coroots (r of each, r <= n)."""

    n: int
    simple_roots: tuple
    simple_coroots: tuple
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.simple_roots)

    def cartan(self):
        """Cartan matrix C[i][j] = <alpha_j, alpha_i^vee>."""
        return tuple(
            tuple(linalg.dot(a, av) for a in self.simple_roots)
            for av in self.simple_coroots
        )

    def reflection_matrix(self, i: int):
        """Matrix of s_i on X*(T): lam -> lam - <lam, a_i^vee> a_i."""
        key = ("refl", i)
        if key not in self._cache:
            a, av = self.simple_roots[i], self.simple_coroots[i]
            self._cache[key] = tuple(
                tuple((1 if rr == cc else 0) - a[rr] * av[cc] for cc in range(self.n))
                for rr in range(self.n)
            )
        return self._cache[key]

    def coreflection_matrix(self, i: int):
        """Matrix of s_i on X_*(T): delta -> delta - <alpha_i, delta> alpha_i^vee."""
        key = ("corefl", i)
        if key not in self._cache:
            a, av = self.simple_roots[i], self.simple_coroots[i]
            self._cache[key] = tuple(
                tuple((1 if rr == cc else 0) - av[rr] * a[cc] for cc in range(self.n))
                for rr in range(self.n)
            )
        return self._cache[key]

    def root_coefficients(self, root):
        """Expansion of a root in the simple-root basis (integers), read off
        the record kept by the reflection closure; DimensionMismatch for a
        vector that is not a root."""
        self.positive_roots_with_coroots()
        record = self._cache[("coeffs", tuple(range(self.r)))]
        root = tuple(root)
        if root in record:
            return record[root]
        neg = linalg.vec_neg(root)
        if neg in record:
            return linalg.vec_neg(record[neg])
        raise DimensionMismatch(f"{root} is not a root")

    def is_positive_root_vector(self, root) -> bool:
        return all(c >= 0 for c in self.root_coefficients(root))

    def positive_roots_with_coroots(self, indices=None):
        """All positive roots of the sub-system generated by the given simple
        indices (default: all), paired with their coroots.

        The closure starts from the simple roots, and s_i permutes the
        positive roots other than alpha_i, so it only ever reaches positive
        roots.  s_i changes only the i-th simple coefficient, by
        -<beta, alpha_i^vee>, which records every root's coefficients.

        Deterministic order: by height (sum of simple coefficients), then lex.
        """
        idx = tuple(range(self.r)) if indices is None else tuple(sorted(indices))
        key = ("posroots", idx)
        if key in self._cache:
            return self._cache[key]
        pairs, coeffs = {}, {}
        work = []
        for i in idx:
            root, coroot = self.simple_roots[i], self.simple_coroots[i]
            pairs[root] = coroot
            coeffs[root] = tuple(1 if k == i else 0 for k in range(self.r))
            work.append(root)
        while work:
            root = work.pop()
            for i in idx:
                nr = linalg.mat_vec(self.reflection_matrix(i), root)
                if nr in pairs or linalg.vec_neg(nr) in pairs:
                    continue
                c = list(coeffs[root])
                c[i] -= linalg.dot(root, self.simple_coroots[i])
                pairs[nr] = linalg.mat_vec(self.coreflection_matrix(i), pairs[root])
                coeffs[nr] = tuple(c)
                work.append(nr)
                if len(pairs) > 2 * ROOT_CLOSURE_CAP:
                    raise NonFiniteSystem(
                        f"root closure exceeded cap {ROOT_CLOSURE_CAP}"
                    )
        order = sorted(pairs, key=lambda root: (sum(coeffs[root]), root))
        out = tuple((root, pairs[root]) for root in order)
        self._cache[key] = out
        self._cache[("coeffs", idx)] = coeffs
        return out

    def positive_roots(self, indices=None):
        return tuple(r for r, _ in self.positive_roots_with_coroots(indices))

    def coroot_of(self, root):
        """Coroot of any root (positive or negative)."""
        for r, c in self.positive_roots_with_coroots():
            if r == root:
                return c
            if linalg.vec_neg(r) == root:
                return linalg.vec_neg(c)
        raise DimensionMismatch(f"{root} is not a root")


def _validate(rd: RootDatum) -> RootDatum:
    n, r = rd.n, rd.r
    if len(rd.simple_coroots) != r:
        raise DimensionMismatch("roots/coroots count mismatch")
    for v in rd.simple_roots + rd.simple_coroots:
        if len(v) != n:
            raise DimensionMismatch("vector length != lattice rank")
    cartan = rd.cartan()
    for i in range(r):
        if cartan[i][i] != 2:
            raise InvalidCartan(f"<alpha_{i}, alpha_{i}^vee> = {cartan[i][i]} != 2")
        for j in range(r):
            if i == j:
                continue
            if cartan[i][j] > 0:
                raise InvalidCartan(f"positive off-diagonal entry C[{i}][{j}]")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise InvalidCartan(f"zero-pattern asymmetry at ({i},{j})")
            if cartan[i][j] * cartan[j][i] > 3:
                raise InvalidCartan(f"C[{i}][{j}]*C[{j}][{i}] > 3: not finite type")
    if linalg.rank(rd.simple_roots) != r:
        raise InvalidCartan("simple roots are linearly dependent")
    if linalg.rank(rd.simple_coroots) != r:
        raise InvalidCartan("simple coroots are linearly dependent")
    try:
        rd.positive_roots_with_coroots()
    except NonFiniteSystem as exc:
        raise InvalidCartan(f"root system is not finite: {exc}") from exc
    return rd


def _gl_datum(n: int, label: str) -> RootDatum:
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    roots = tuple(roots)
    return RootDatum(n, roots, roots, label)


def _type_bcd(letter: str, n: int) -> RootDatum:
    roots, coroots = [], []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
        coroots.append(tuple(v))
    if letter == "B":
        e = [0] * n
        e[n - 1] = 1
        roots.append(tuple(e))
        coroots.append(tuple(2 * x for x in e))
    elif letter == "C":
        e = [0] * n
        e[n - 1] = 2
        roots.append(tuple(e))
        coroots.append(tuple(x // 2 for x in e))
    elif letter == "D":
        v = [0] * n
        v[n - 2], v[n - 1] = 1, 1
        roots.append(tuple(v))
        coroots.append(tuple(v))
    return RootDatum(n, tuple(roots), tuple(coroots), f"{letter}{n}")


def datum_from_cartan(cartan, label: str = "") -> RootDatum:
    """Simply-connected style realization: coroots are the standard basis of
    Z^r and the simple roots are the columns of the Cartan matrix."""
    r = len(cartan)
    roots = tuple(tuple(cartan[i][j] for i in range(r)) for j in range(r))
    coroots = tuple(tuple(1 if i == j else 0 for i in range(r)) for j in range(r))
    return _validate(RootDatum(r, roots, coroots, label))


def exceptional_cartan(letter: str, n: int):
    """Cartan matrices for G2/F4/E6/E7/E8 in Bourbaki numbering."""
    def path_edges(pairs, size):
        c = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
        for i, j, dij, dji in pairs:
            c[i][j], c[j][i] = dij, dji
        return tuple(tuple(row) for row in c)

    if letter == "G" and n == 2:
        # alpha_1 short, alpha_2 long: <a1, a2^vee> = -1, <a2, a1^vee> = -3
        return path_edges([(0, 1, -3, -1)], 2)
    if letter == "F" and n == 4:
        # 1-2=>3-4 with alpha_1, alpha_2 long: <a3, a2^vee> = -1, <a2, a3^vee> = -2
        return path_edges([(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)], 4)
    if letter == "E" and n in (6, 7, 8):
        # chain 1,3,4,5,6(,7,8) with vertex 2 attached to 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        pairs = [(chain[i], chain[i + 1], -1, -1) for i in range(len(chain) - 1)]
        pairs.append((1, 3, -1, -1))
        return path_edges(pairs, n)
    raise InvalidCartan(f"unknown exceptional type {letter}{n}")


_LABEL_RE = re.compile(r"^(GL|SO|[ABCDEFG])(\d+)$")


def build_root_datum(spec) -> RootDatum:
    """Build a root datum from a type label or explicit (roots, coroots).

    Labels: "An"/"Bn"/"Cn"/"Dn"/"E6".."E8"/"F4"/"G2", "GLn", "SO<2n+1>".
    A-type labels use the GL(n+1) lattice Z^(n+1); B/C/D use Z^n in the
    coordinates of the worked examples; exceptional types use a
    simply-connected realization off the Cartan matrix.
    """
    if isinstance(spec, str):
        m = _LABEL_RE.match(spec)
        if not m:
            raise InvalidCartan(f"unrecognized type label {spec!r}")
        letter, n = m.group(1), int(m.group(2))
        if letter == "GL":
            if n < 1:
                raise InvalidCartan("GL rank must be >= 1")
            return _validate(_gl_datum(n, spec))
        if letter == "SO":
            if n < 3 or n % 2 == 0:
                raise InvalidCartan("SO label must be odd and >= 3")
            return _validate(_type_bcd("B", (n - 1) // 2))
        if letter == "A":
            if n < 1:
                raise InvalidCartan("A rank must be >= 1")
            return _validate(_gl_datum(n + 1, spec))
        if letter in "BCD":
            minimum = {"B": 2, "C": 2, "D": 3}[letter]
            if n < minimum:
                raise InvalidCartan(f"{letter} rank must be >= {minimum}")
            return _validate(_type_bcd(letter, n))
        return datum_from_cartan(exceptional_cartan(letter, n), spec)
    roots, coroots = spec
    roots = tuple(tuple(v) for v in roots)
    coroots = tuple(tuple(v) for v in coroots)
    if not roots:
        raise InvalidCartan("need at least one simple root")
    return _validate(RootDatum(len(roots[0]), roots, coroots, ""))


def pair(lam, cochar):
    """<lam, delta> for a character and a (rational) cocharacter."""
    return linalg.dot(lam, cochar)


def perm_orbits(perm):
    """Orbits of a permutation of range(len(perm)), each walked i, perm[i],
    perm[perm[i]], ... from the smallest index not yet visited (so from its
    own minimum); the orbits come in the order of those minima."""
    seen = set()
    orbits = []
    for i in range(len(perm)):
        if i in seen:
            continue
        orbit = [i]
        j = perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


@dataclass(frozen=True)
class FrobeniusDatum:
    """q-power Frobenius acting on X*(T) by a finite-order lattice map."""

    q: int
    sigma: tuple
    sigma_order: int
    sigma_perm: tuple  # sigma_perm[i] = j with sigma(alpha_i) = alpha_j
    sigma_costar: tuple  # inverse-transpose: action on X_*(T)

    def perm_power(self, k: int):
        """sigma^k as a permutation of the simple-root indices."""
        r = len(self.sigma_perm)
        k %= self.sigma_order
        out = list(range(r))
        for _ in range(k):
            out = [self.sigma_perm[i] for i in out]
        return tuple(out)


def validate_frobenius(rd: RootDatum, q: int, sigma) -> FrobeniusDatum:
    """Check sigma is a finite-order lattice automorphism permuting the base."""
    if q < 2:
        raise NotAnAutomorphism("q must be >= 2")
    sigma = tuple(tuple(int(x) for x in row) for row in sigma)
    if len(sigma) != rd.n or any(len(row) != rd.n for row in sigma):
        raise DimensionMismatch("sigma must be n x n")
    # a sigma of finite order has determinant +-1, so this also rejects
    # every sigma that is singular or not invertible over Z
    try:
        order = linalg.mat_order(sigma, cap=SIGMA_ORDER_CAP)
    except SingularMap as exc:
        raise NotAnAutomorphism(f"sigma has no finite order up to {SIGMA_ORDER_CAP}") from exc
    perm = []
    root_index = {root: i for i, root in enumerate(rd.simple_roots)}
    for i, root in enumerate(rd.simple_roots):
        img = linalg.mat_vec(sigma, root)
        if img not in root_index:
            raise DoesNotPreserveBase(f"sigma(alpha_{i}) is not a simple root")
        perm.append(root_index[img])
    if sorted(perm) != list(range(rd.r)):
        raise DoesNotPreserveBase("sigma does not permute the base bijectively")
    costar = linalg.transpose(linalg.mat_inverse(sigma))  # int: sigma is unimodular
    for i in range(rd.r):
        img = linalg.mat_vec(costar, rd.simple_coroots[i])
        if img != rd.simple_coroots[perm[i]]:
            raise DoesNotPreserveBase(
                f"dual action does not send alpha_{i}^vee to alpha_{perm[i]}^vee"
            )
    return FrobeniusDatum(q, sigma, order, tuple(perm), costar)


def split_frobenius(rd: RootDatum, q: int) -> FrobeniusDatum:
    """The split case: sigma = identity."""
    return validate_frobenius(rd, q, linalg.mat_identity(rd.n))
