"""Hasse-type detection and the brute-force classification of Dynkin triples.

A Dynkin triple is (diagram, I, sigma): a finite-type diagram (as a Cartan
matrix), a sigma-stable vertex subset I and a diagram automorphism sigma.
The ground truth for everything here is the literal opposition condition:
sigma restricted to I equals the opposition involution alpha -> -w_{0,I}(alpha)
computed component by component.  The expected tables shipped under data/
are an independent transcription, never derived from this engine.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import weyl
from .errors import BadParams, InvalidCartan, RankTooLarge
from .rootdata import datum_from_cartan, exceptional_cartan, perm_orbits
from .zipcones import ZipContext


# -- diagrams ---------------------------------------------------------------


def cartan_matrix(letter: str, rank: int):
    """Cartan matrix in the fixed vertex numbering.

    A_n: path 1..n.  B_n/C_n: path with the double edge at (n-1, n), short
    (resp. long) terminal vertex.  D_n: tail 1..n-2, fork tips n-1, n on
    vertex n-2.  E/F/G: Bourbaki (E chain 1,3,4,..., vertex 2 on 4).
    """
    n = rank

    def base(size):
        return [[2 if i == j else 0 for j in range(size)] for i in range(size)]

    if letter == "A":
        c = base(n)
        for i in range(n - 1):
            c[i][i + 1] = c[i + 1][i] = -1
    elif letter in ("B", "C"):
        if n < 2:
            raise InvalidCartan(f"{letter} rank must be >= 2")
        c = base(n)
        for i in range(n - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        if letter == "B":
            c[n - 2][n - 1] = -1  # <alpha_n (short), alpha_{n-1}^vee> = -1
            c[n - 1][n - 2] = -2
        else:
            c[n - 2][n - 1] = -2
            c[n - 1][n - 2] = -1
    elif letter == "D":
        if n < 3:
            raise InvalidCartan("D rank must be >= 3")
        c = base(n)
        for i in range(n - 3):
            c[i][i + 1] = c[i + 1][i] = -1
        c[n - 3][n - 2] = c[n - 2][n - 3] = -1
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    elif letter in ("E", "F", "G"):
        return exceptional_cartan(letter, n)
    else:
        raise InvalidCartan(f"unknown type letter {letter}")
    return tuple(tuple(row) for row in c)


CONNECTED_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def connected_diagrams(max_rank: int):
    if max_rank > 8:
        raise RankTooLarge("max_rank must be <= 8")
    if max_rank < 1:
        raise BadParams(f"max_rank must be >= 1, not {max_rank}")
    out = []
    for letter, n in CONNECTED_TYPES:
        if n <= max_rank:
            out.append((f"{letter}{n}", n, cartan_matrix(letter, n)))
    return out


def _components(cartan, vertices=None):
    verts = sorted(range(len(cartan))) if vertices is None else sorted(vertices)
    remaining = set(verts)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in remaining - comp:
                if cartan[v][w] != 0:
                    comp.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return comps


def _induced(cartan, vertices):
    vs = tuple(sorted(vertices))
    return tuple(tuple(cartan[i][j] for j in vs) for i in vs), vs


def component_type(cartan, vertices) -> str:
    """Recognize the finite type of one connected induced sub-diagram."""
    sub, vs = _induced(cartan, vertices)
    r = len(vs)
    if r == 1:
        return "A1"
    edges = [
        (i, j)
        for i in range(r)
        for j in range(i + 1, r)
        if sub[i][j] != 0
    ]
    degree = [sum(1 for i, j in edges if v in (i, j)) for v in range(r)]
    multi = [(i, j, sub[i][j] * sub[j][i]) for i, j in edges if sub[i][j] * sub[j][i] > 1]
    if any(m == 3 for *_, m in multi):
        return "G2"
    if multi:
        i, j, _ = multi[0]
        if r == 2:
            return "B2"
        if max(degree) > 2:
            raise InvalidCartan("branch vertex with a multiple edge")
        if degree[i] == 2 and degree[j] == 2:
            return "F4" if r == 4 else _fail(sub)
        t = i if degree[i] == 1 else j
        other = j if t == i else i
        # sub[t][other] = <alpha_other, alpha_t^vee> = -2 iff alpha_other long,
        # i.e. the terminal vertex t is short: type B.
        return f"B{r}" if sub[t][other] == -2 else f"C{r}"
    if max(degree) == 3:
        branch = degree.index(3)
        arms = []
        for start in [v for v in range(r) if sub[branch][v] != 0 and v != branch]:
            ln, prev, cur = 1, branch, start
            while True:
                nxt = [w for w in range(r) if sub[cur][w] != 0 and w not in (prev, cur)]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            arms.append(ln)
        arms.sort()
        if arms[:2] == [1, 1]:
            return f"D{r}"
        if arms == [1, 2, r - 4] and r in (6, 7, 8):
            return f"E{r}"
        _fail(sub)
    if max(degree) > 3:
        _fail(sub)
    return f"A{r}"


def _fail(sub):
    raise InvalidCartan(f"not a finite-type diagram: {sub}")


def diagram_automorphisms(cartan):
    """All vertex permutations preserving the Cartan matrix (backtracking)."""
    r = len(cartan)
    sig = [
        tuple(
            sorted(
                (cartan[i][j], cartan[j][i])
                for j in range(r)
                if j != i and cartan[i][j] != 0
            )
        )
        for i in range(r)
    ]
    perms = []
    assignment = [None] * r
    used = [False] * r

    def extend(i):
        if i == r:
            perms.append(tuple(assignment))
            return
        for cand in range(r):
            if used[cand] or sig[cand] != sig[i]:
                continue
            if any(
                cartan[i][j] != cartan[cand][assignment[j]]
                or cartan[j][i] != cartan[assignment[j]][cand]
                for j in range(i)
            ):
                continue
            assignment[i] = cand
            used[cand] = True
            extend(i + 1)
            used[cand] = False
            assignment[i] = None

    extend(0)
    return sorted(perms)


# -- triples ----------------------------------------------------------------


@dataclass(frozen=True)
class DynkinTriple:
    label: str  # ambient type, e.g. "D4" or "A1+A1"
    cartan: tuple
    I: tuple  # sorted vertex indices (0-based)
    sigma: tuple  # vertex permutation

    def __post_init__(self):
        r = len(self.cartan)
        if sorted(self.sigma) != list(range(r)):
            raise InvalidCartan("sigma is not a permutation")
        for i in range(r):
            for j in range(r):
                if self.cartan[self.sigma[i]][self.sigma[j]] != self.cartan[i][j]:
                    raise InvalidCartan("sigma is not a diagram automorphism")
        if {self.sigma[i] for i in self.I} != set(self.I):
            raise InvalidCartan("I is not sigma-stable")
        for comp in _components(self.cartan):
            component_type(self.cartan, comp)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def i_components(self):
        return _components(self.cartan, self.I)

    def i_geq2(self):
        """Vertices of I lying in components with at least two vertices."""
        out = []
        for comp in self.i_components():
            if len(comp) >= 2:
                out.extend(comp)
        return tuple(sorted(out))

    def isolated_i_vertices(self):
        return tuple(
            comp[0] for comp in self.i_components() if len(comp) == 1
        )

    def i_type_desc(self) -> str:
        comps = self.i_components()
        if not comps:
            return "empty"
        return "+".join(sorted(component_type(self.cartan, c) for c in comps))

    def sigma_desc(self) -> str:
        """Cycle notation on 1-based vertices; '()' for the identity."""
        cycles = [c for c in perm_orbits(self.sigma) if len(c) > 1]
        text = "".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles)
        return text or "()"

    def descriptor(self):
        return (
            self.label,
            self.rank,
            self.sigma_desc(),
            tuple(v + 1 for v in self.I),
        )


def opposition_condition(t: DynkinTriple, memo: dict | None = None) -> bool:
    """Literal condition: sigma acts on I exactly as -w_{0,I} does.

    `memo` maps an induced sub-Cartan to its opposition involution and is
    filled as it goes; `classify` shares one dict across the triples of a
    call.  Without it the involutions are computed afresh.  The answer
    never depends on it.
    """
    if memo is None:
        memo = {}
    opposition = {}
    for comp in t.i_components():
        sub, vs = _induced(t.cartan, comp)
        if sub not in memo:
            memo[sub] = weyl.opposition_involution(datum_from_cartan(sub), range(len(vs)))
        for local_i, local_j in memo[sub].items():
            opposition[vs[local_i]] = vs[local_j]
    return all(t.sigma[v] == opposition[v] for v in t.I)


def is_maximal(t: DynkinTriple) -> bool:
    """Component-wise: |D_i ∩ I| is |D_i| or |D_i| - 1."""
    for comp in _components(t.cartan):
        k = len(set(comp) & set(t.I))
        if k not in (len(comp), len(comp) - 1):
            return False
    return True


def _sigma_component_orbits(t: DynkinTriple):
    comps = _components(t.cartan)
    find = {v: ci for ci, comp in enumerate(comps) for v in comp}
    comp_perm = [find[t.sigma[comp[0]]] for comp in comps]
    return [[comps[k] for k in orbit] for orbit in perm_orbits(comp_perm)]


def hodge_filter(t: DynkinTriple) -> bool:
    """Literal allow-list: A1^m with I = empty (sigma one cycle), A2 with A1,
    B_n with B_{n-1}, D_{2m+1} (m >= 2) with D_{2m}."""
    for orbit in _sigma_component_orbits(t):
        verts = sorted(v for comp in orbit for v in comp)
        iverts = sorted(set(verts) & set(t.I))
        types = [component_type(t.cartan, comp) for comp in orbit]
        if all(tp == "A1" for tp in types):
            if iverts:
                return False
            continue
        if len(orbit) != 1:
            return False
        tp = types[0]
        comp = orbit[0]
        if tp == "A2":
            if len(iverts) != 1:
                return False
            continue
        letter, n = tp[0], int(tp[1:])
        if letter == "B":
            want = [v for v in comp if _terminal_long(t.cartan, comp, v)]
            if len(iverts) != n - 1 or set(iverts) != set(comp) - set(want):
                return False
            continue
        if letter == "D" and n % 2 == 1 and n >= 5:
            sub_i = set(iverts)
            if any(t.sigma[v] != v for v in comp):
                return False
            if len(sub_i) != n - 1:
                return False
            if component_type(t.cartan, sub_i) != f"D{n-1}":
                return False
            continue
        return False
    return True


def _terminal_long(cartan, comp, v) -> bool:
    """Is v the long-root end of a type-B component (the vertex removed to
    leave B_{n-1})?  In B_n this is the end away from the double edge."""
    neighbors = [w for w in comp if w != v and cartan[v][w] != 0]
    if len(neighbors) != 1:
        return False
    w = neighbors[0]
    if cartan[v][w] * cartan[w][v] != 1:
        if len(comp) == 2:
            # B2: the long vertex is the one whose coroot pairs to -1
            return cartan[v][w] == -1 and cartan[w][v] == -2
        return False
    sub = set(comp) - {v}
    return component_type(cartan, sub) == f"B{len(comp) - 1}"


# -- enumeration -------------------------------------------------------------


def _sigma_stable_subsets(sigma):
    subsets = [()]
    for orb in perm_orbits(sigma):
        subsets = [s for s in subsets] + [tuple(sorted(s + orb)) for s in subsets]
    return sorted(set(subsets))


def _disconnected_diagrams(max_rank: int):
    """All multisets of connected diagrams with total rank <= max_rank."""
    singles = connected_diagrams(max_rank)
    results = []

    def rec(start, remaining, parts):
        if parts:
            results.append(list(parts))
        for k in range(start, len(singles)):
            label, n, _ = singles[k]
            if n <= remaining:
                parts.append(singles[k])
                rec(k, remaining - n, parts)
                parts.pop()

    rec(0, max_rank, [])
    out = []
    for parts in results:
        if len(parts) == 1:
            continue  # connected ones are produced separately
        label = "+".join(p[0] for p in parts)
        total = sum(p[1] for p in parts)
        cart = [[0] * total for _ in range(total)]
        off = 0
        for _, n, c in parts:
            for i in range(n):
                for j in range(n):
                    cart[off + i][off + j] = c[i][j]
            off += n
        out.append((label, total, tuple(tuple(row) for row in cart)))
    return out


def classify(
    max_rank: int,
    require_no_isolated: bool = False,
    maximal_only: bool = False,
    connected_only: bool = True,
):
    """Brute-force enumeration of triples passing the opposition condition.

    Every sigma-stable I is tried.  An isolated I-vertex is its own
    opposition image, so the condition keeps only triples whose isolated
    I-vertices sigma fixes.  `require_no_isolated` additionally demands
    I = I^(>=2); `maximal_only` keeps the triples passing `is_maximal`.
    """
    diagrams = connected_diagrams(max_rank)
    if not connected_only:
        diagrams = diagrams + _disconnected_diagrams(max_rank)
    memo = {}
    out = []
    for label, _, cart in diagrams:
        for sigma in diagram_automorphisms(cart):
            for subset in _sigma_stable_subsets(sigma):
                t = DynkinTriple(label, cart, subset, sigma)
                if require_no_isolated and t.isolated_i_vertices():
                    continue
                if not opposition_condition(t, memo):
                    continue
                if maximal_only and not is_maximal(t):
                    continue
                out.append(t)
    return sorted(out, key=DynkinTriple.descriptor)


def triple_from_context(ctx: ZipContext) -> DynkinTriple:
    """The Dynkin triple induced by a zip context (bridge to the appendix)."""
    cart = ctx.rd.cartan()
    return DynkinTriple(
        ctx.rd.label or "custom", cart, tuple(ctx.I), ctx.frob.sigma_perm
    )


def classification_entry(t: DynkinTriple) -> dict:
    return {
        "diagram_type": t.label,
        "rank": t.rank,
        "sigma_desc": t.sigma_desc(),
        "I_desc": list(v + 1 for v in t.I),
        "I_type": t.i_type_desc(),
        "maximal": is_maximal(t),
        "hodge": hodge_filter(t),
    }


def load_expected_tables() -> dict:
    with resources.files("zipcone.data").joinpath("hasse_expected.json").open() as fh:
        return json.load(fh)


def compare_with_expected(max_rank: int = 8):
    """Compare brute force against the transcribed tables.

    Returns a dict of per-table diffs; empty diffs mean exact agreement.
    The sigma=1 / sigma!=1 tables are compared on the I^(>=2) projections of
    triples without isolated I-vertices; the maximal table includes the
    documented degenerate families; the hodge table is the literal allow-list.
    """
    expected = load_expected_tables()
    triples = classify(max_rank, connected_only=True)

    def key(label, rank, sigma_desc, iverts):
        return (label, rank, sigma_desc, tuple(sorted(iverts)))

    got_core = set()
    for t in triples:
        if t.isolated_i_vertices():
            continue
        if not t.I:
            continue
        got_core.add(key(t.label, t.rank, t.sigma_desc(), (v + 1 for v in t.I)))
    want_triv = {
        key(e["type"], e["rank"], "()", e["I"])
        for e in expected["sigma_trivial"]
        if e["rank"] <= max_rank
    }
    want_nontriv = {
        key(e["type"], e["rank"], e["sigma"], e["I"])
        for e in expected["sigma_nontrivial"]
        if e["rank"] <= max_rank
    }
    got_triv = {k for k in got_core if k[2] == "()"}
    got_nontriv = got_core - got_triv

    maximal = {t.descriptor() for t in triples if is_maximal(t)}
    want_max = {
        key(e["type"], e["rank"], e["sigma"], e["I"])
        for e in expected["maximal"]
        if e["rank"] <= max_rank
    }
    hodge = {t.descriptor() for t in triples if is_maximal(t) and hodge_filter(t)}
    want_hodge = {
        key(e["type"], e["rank"], e["sigma"], e["I"])
        for e in expected["hodge"]
        if e["rank"] <= max_rank
    }
    return {
        "sigma_trivial": _diff(got_triv, want_triv),
        "sigma_nontrivial": _diff(got_nontriv, want_nontriv),
        "maximal": _diff(maximal, want_max),
        "hodge": _diff(hodge, want_hodge),
    }


def _diff(got, want):
    return {
        "missing": sorted(want - got),
        "unexpected": sorted(got - want),
        "count": len(got),
    }
