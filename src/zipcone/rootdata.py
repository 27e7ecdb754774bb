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
    json_integer,
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
        """Matrix of s_i on X_*(T): delta -> delta - <alpha_i, delta> alpha_i^vee,
        the transpose of `reflection_matrix(i)` since s_i is an involution."""
        key = ("corefl", i)
        if key not in self._cache:
            self._cache[key] = linalg.transpose(self.reflection_matrix(i))
        return self._cache[key]

    def root_record(self):
        """Every positive root -> (its coroot, its simple-root coefficients),
        ordered by height (sum of the coefficients), then lex.

        One reflection closure over all simple roots builds it, once per
        datum.  The closure starts from the simple roots, and s_i permutes
        the positive roots other than alpha_i, so it only ever reaches
        positive roots.  s_i changes only the i-th simple coefficient, by
        -<beta, alpha_i^vee>, which records every root's coefficients.
        """
        if "record" in self._cache:
            return self._cache["record"]
        record = {
            root: (coroot, tuple(int(k == i) for k in range(self.r)))
            for i, (root, coroot) in enumerate(zip(self.simple_roots, self.simple_coroots))
        }
        work = list(record)
        while work:
            root = work.pop()
            coroot, coeffs = record[root]
            for i in range(self.r):
                nr = linalg.mat_vec(self.reflection_matrix(i), root)
                if nr in record or linalg.vec_neg(nr) in record:
                    continue
                c = list(coeffs)
                c[i] -= linalg.dot(root, self.simple_coroots[i])
                record[nr] = (linalg.mat_vec(self.coreflection_matrix(i), coroot), tuple(c))
                work.append(nr)
                if len(record) > 2 * ROOT_CLOSURE_CAP:
                    raise NonFiniteSystem(
                        f"root closure exceeded cap {ROOT_CLOSURE_CAP}"
                    )
        order = sorted(record, key=lambda root: (sum(record[root][1]), root))
        self._cache["record"] = {root: record[root] for root in order}
        return self._cache["record"]

    def root_coefficients(self, root):
        """Expansion of a root in the simple-root basis (integers), read off
        the root record; DimensionMismatch for a vector that is not a root."""
        return self._lookup(tuple(root))[1]

    def is_positive_root_vector(self, root) -> bool:
        return all(c >= 0 for c in self.root_coefficients(root))

    def positive_roots_with_coroots(self, indices=None):
        """All positive roots of the sub-system generated by the given simple
        indices (default: all), paired with their coroots: the roots of the
        record supported on those indices, in the record's order."""
        idx = tuple(range(self.r)) if indices is None else tuple(sorted(indices))
        key = ("posroots", idx)
        if key not in self._cache:
            outside = [k for k in range(self.r) if k not in idx]
            self._cache[key] = tuple(
                (root, coroot)
                for root, (coroot, coeffs) in self.root_record().items()
                if not any(coeffs[k] for k in outside)
            )
        return self._cache[key]

    def positive_roots(self, indices=None):
        return tuple(r for r, _ in self.positive_roots_with_coroots(indices))

    def coroot_of(self, root):
        """Coroot of any root (positive or negative)."""
        return self._lookup(tuple(root))[0]

    def _lookup(self, root):
        """(coroot, coefficients) of a positive or negative root."""
        record = self.root_record()
        if root in record:
            return record[root]
        neg = linalg.vec_neg(root)
        if neg in record:
            return tuple(linalg.vec_neg(v) for v in record[neg])
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
        rd.root_record()
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
    """B_n/C_n/D_n on Z^n: the roots e_i - e_{i+1} of GL_n and one more."""
    roots = _gl_datum(n, "").simple_roots
    e = tuple(int(k == n - 1) for k in range(n))
    if letter == "B":
        last, last_coroot = e, linalg.vec_scale(2, e)
    elif letter == "C":
        last, last_coroot = linalg.vec_scale(2, e), e
    else:
        last = last_coroot = tuple(int(k >= n - 2) for k in range(n))
    return RootDatum(n, roots + (last,), roots + (last_coroot,), f"{letter}{n}")


def datum_from_cartan(cartan, label: str = "") -> RootDatum:
    """Simply-connected style realization: coroots are the standard basis of
    Z^r and the simple roots are the columns of the Cartan matrix."""
    r = len(cartan)
    roots = tuple(tuple(cartan[i][j] for i in range(r)) for j in range(r))
    coroots = tuple(tuple(1 if i == j else 0 for i in range(r)) for j in range(r))
    return _validate(RootDatum(r, roots, coroots, label))


def cartan_matrix(letter: str, rank: int):
    """Cartan matrix C[i][j] = <alpha_j, alpha_i^vee> of the connected type
    letter+rank, in the one vertex numbering every module uses.

    A_n: path 1..n.  B_n/C_n: path with the double edge at (n-1, n), short
    (resp. long) terminal vertex.  D_n (n >= 3): tail 1..n-2, fork tips n-1,
    n on vertex n-2.  E/F/G: Bourbaki (E chain 1,3,4,..., vertex 2 on 4; F4
    with alpha_1, alpha_2 long; G2 with alpha_1 short).  InvalidCartan for a
    (letter, rank) that names no type.
    """
    n = rank
    if letter == "A" and n >= 1:
        edges = [(i, i + 1, -1, -1) for i in range(n - 1)]
    elif letter in ("B", "C") and n >= 2:
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        # <alpha_n, alpha_{n-1}^vee> is -1 when alpha_n is short (B), -2 when long (C)
        edges.append((n - 2, n - 1, -1, -2) if letter == "B" else (n - 2, n - 1, -2, -1))
    elif letter == "D" and n >= 3:
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)] + [(n - 3, n - 1, -1, -1)]
    elif letter == "E" and n in (6, 7, 8):
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        edges = [(i, j, -1, -1) for i, j in zip(chain, chain[1:])] + [(1, 3, -1, -1)]
    elif letter == "F" and n == 4:
        edges = [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    elif letter == "G" and n == 2:
        edges = [(0, 1, -3, -1)]
    else:
        raise InvalidCartan(f"no Dynkin type {letter}{rank}")
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in edges:
        c[i][j], c[j][i] = cij, cji
    return tuple(tuple(row) for row in c)


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
        cartan = cartan_matrix(letter, n)  # InvalidCartan if the label names no type
        if letter == "A":
            return _validate(_gl_datum(n + 1, spec))
        if letter in "BCD":
            return _validate(_type_bcd(letter, n))
        return datum_from_cartan(cartan, spec)
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
    if json_integer(q, "q") < 2:
        raise NotAnAutomorphism("q must be >= 2")
    sigma = tuple(
        tuple(json_integer(x, f"sigma[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(sigma)
    )
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
