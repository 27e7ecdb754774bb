"""Hasse-type detection and the brute-force classification of Dynkin triples.

A Dynkin triple is (diagram, I, sigma): a finite-type diagram (as a Cartan
matrix), a sigma-stable vertex subset I and a diagram automorphism sigma.
It passes the opposition condition when sigma restricted to I equals the
opposition involution alpha -> -w_{0,I}(alpha), component by component.

The engine reads that involution off each component's type: it is the
identity except on A_n (n >= 2), D_{2k+1} and E6, where it is the unique
non-trivial diagram automorphism (Bourbaki, Lie groups, ch. VI, Plates).
The literal -w_{0,I}, computed in a root datum by `weyl.opposition_involution`,
is the test oracle.  Each fact is computed once, at the level where it
varies: per diagram (validation, components and their types), per sigma
(the automorphism check, the sigma-orbits of components, the cycle text),
per vertex subset I of a diagram, and per induced connected sub-Cartan
(its type and involution).  The triples of one `classify` call share them;
no cache outlives those triples.  The expected tables shipped under data/
are an independent transcription, never derived from this engine.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import BadParams, InternalError, InvalidCartan, RankTooLarge
from .rootdata import cartan_matrix, perm_orbits
from .zipcones import ZipContext


# -- diagrams ---------------------------------------------------------------


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
    """The finite type of one connected induced sub-diagram: the first type,
    in the letter order A..G, whose standard Cartan matrix it matches vertex
    for vertex (so A3 before D3 and B2 before C2).  Anything that matches
    none (a cycle, a triple edge in rank 3, a disconnected set) is
    InvalidCartan."""
    sub, vs = _induced(cartan, vertices)
    r = len(vs)
    for letter in "ABCDEFG":
        try:
            standard = cartan_matrix(letter, r)
        except InvalidCartan:
            continue  # no type letter+r
        if next(_isomorphisms(sub, standard), None) is not None:
            return f"{letter}{r}"
    raise InvalidCartan(f"not a finite-type diagram: {sub}")


def diagram_automorphisms(cartan):
    """All vertex permutations preserving the Cartan matrix (backtracking)."""
    return sorted(_isomorphisms(cartan, cartan))


def _isomorphisms(a, b):
    """Vertex bijections p with b[p(i)][p(j)] = a[i][j], found by
    backtracking over the vertices of a; a and b have the same size."""
    r = len(a)

    def signature(c, i):
        return c[i][i], sorted(
            (c[i][j], c[j][i]) for j in range(r) if j != i and c[i][j] != 0
        )

    sig_a = [signature(a, i) for i in range(r)]
    sig_b = [signature(b, i) for i in range(r)]
    assignment = [None] * r
    used = [False] * r

    def extend(i):
        if i == r:
            yield tuple(assignment)
            return
        for cand in range(r):
            if used[cand] or sig_b[cand] != sig_a[i]:
                continue
            if any(
                a[i][j] != b[cand][assignment[j]] or a[j][i] != b[assignment[j]][cand]
                for j in range(i)
            ):
                continue
            assignment[i] = cand
            used[cand] = True
            yield from extend(i + 1)
            used[cand] = False
            assignment[i] = None

    return extend(0)


def _connected_facts(sub):
    """Type and opposition involution of a connected Cartan matrix.  -w_0 is
    the identity except on A_n (n >= 2), D_{2k+1} and E6, whose diagrams
    have exactly one non-trivial automorphism."""
    r = len(sub)
    tp = component_type(sub, range(r))
    if (tp[0] == "A" and r >= 2) or (tp[0] == "D" and r % 2 == 1) or tp == "E6":
        _, flip = diagram_automorphisms(sub)
        return tp, flip
    return tp, tuple(range(r))


# -- per-call facts -----------------------------------------------------------


class _Diagram:
    """One Cartan matrix, validated and split into typed components once.

    `subs` maps an induced connected sub-Cartan to its type and opposition
    involution; `classify` shares one dict across all its diagrams."""

    def __init__(self, cartan, subs: dict):
        r = len(cartan)
        if any(len(row) != r for row in cartan) or any(
            (cartan[i][j] == 0) != (cartan[j][i] == 0) for i in range(r) for j in range(i)
        ):
            raise InvalidCartan(f"not a square matrix with a symmetric zero pattern: {cartan}")
        self.cartan = cartan
        self.subs = subs
        self.components = _components(cartan)
        self.types = tuple(self.connected(comp)[1] for comp in self.components)
        self.component_of = {v: k for k, comp in enumerate(self.components) for v in comp}

    def connected(self, vertices):
        """(sorted vertices, type, opposition involution on local indices) of
        a connected vertex set."""
        sub, vs = _induced(self.cartan, vertices)
        if sub not in self.subs:
            self.subs[sub] = _connected_facts(sub)
        return (vs, *self.subs[sub])


class _Levi:
    """The facts of a vertex subset I of one diagram; none depends on sigma."""

    __slots__ = ("components", "types", "type_desc", "opposition", "isolated", "maximal")

    def __init__(self, diagram: _Diagram, I):
        self.components = _components(diagram.cartan, I)
        types, opposition = [], []
        for comp in self.components:
            vs, tp, tau = diagram.connected(comp)
            types.append(tp)
            opposition.extend((vs[i], vs[j]) for i, j in enumerate(tau))
        self.types = tuple(types)
        self.type_desc = "+".join(sorted(types)) or "empty"
        self.opposition = tuple(opposition)  # (v, -w_{0,I}(v)) for v in I
        self.isolated = tuple(comp[0] for comp in self.components if len(comp) == 1)
        # maximal: each component of the diagram misses at most one vertex of I
        missing = [k for v, k in diagram.component_of.items() if v not in I]
        self.maximal = len(missing) == len(set(missing))

    def opposed_by(self, sigma) -> bool:
        return all(sigma[v] == w for v, w in self.opposition)


class _Sigma:
    """A diagram automorphism sigma, checked once, with the sigma-orbits of
    the diagram's components (as component indices) and its cycle text."""

    def __init__(self, diagram: _Diagram, sigma):
        c, r = diagram.cartan, len(diagram.cartan)
        if sorted(sigma) != list(range(r)):
            raise InvalidCartan("sigma is not a permutation")
        if any(c[sigma[i]][sigma[j]] != c[i][j] for i in range(r) for j in range(r)):
            raise InvalidCartan("sigma is not a diagram automorphism")
        self.diagram = diagram
        comp_perm = [diagram.component_of[sigma[comp[0]]] for comp in diagram.components]
        self.component_orbits = perm_orbits(comp_perm)
        cycles = [cy for cy in perm_orbits(sigma) if len(cy) > 1]
        self.desc = "".join("(" + " ".join(str(v + 1) for v in cy) + ")" for cy in cycles) or "()"


# -- triples ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DynkinTriple:
    label: str  # ambient type, e.g. "D4" or "A1+A1"
    cartan: tuple
    I: tuple  # sorted vertex indices (0-based)
    sigma: tuple  # vertex permutation
    # the facts of the diagram and sigma, shared by the triples of one
    # classification, and those of I; when left out they are computed here,
    # which validates the diagram and sigma
    facts: _Sigma | None = field(default=None, repr=False, compare=False)
    levi: _Levi | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.facts is None:
            object.__setattr__(self, "facts", _Sigma(_Diagram(self.cartan, {}), self.sigma))
        if {self.sigma[i] for i in self.I} != set(self.I):
            raise InvalidCartan("I is not sigma-stable")
        if self.levi is None:
            object.__setattr__(self, "levi", _Levi(self.facts.diagram, self.I))

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def isolated_i_vertices(self):
        return self.levi.isolated

    def i_type_desc(self) -> str:
        return self.levi.type_desc

    def sigma_desc(self) -> str:
        """Cycle notation on 1-based vertices; '()' for the identity."""
        return self.facts.desc

    def descriptor(self):
        return (
            self.label,
            self.rank,
            self.sigma_desc(),
            tuple(v + 1 for v in self.I),
        )


def opposition_condition(t: DynkinTriple) -> bool:
    """sigma acts on I exactly as -w_{0,I} does, with -w_{0,I} read off the
    types of the I-components."""
    return t.levi.opposed_by(t.sigma)


def is_maximal(t: DynkinTriple) -> bool:
    """Component-wise: |D_i ∩ I| is |D_i| or |D_i| - 1."""
    return t.levi.maximal


def hodge_filter(t: DynkinTriple) -> bool:
    """Literal allow-list: A1^m with I = empty (sigma one cycle), A2 with A1,
    B_n with B_{n-1}, D_{2m+1} (m >= 2) with D_{2m}."""
    d = t.facts.diagram
    for orbit in t.facts.component_orbits:
        comps = [d.components[k] for k in orbit]
        types = [d.types[k] for k in orbit]
        iverts = sorted(v for comp in comps for v in comp if v in t.I)
        if all(tp == "A1" for tp in types):
            if iverts:
                return False
            continue
        if len(orbit) != 1:
            return False
        tp = types[0]
        comp = comps[0]
        if tp == "A2":
            if len(iverts) != 1:
                return False
            continue
        letter, n = tp[0], int(tp[1:])
        if letter == "B":
            if iverts != sorted(set(comp) - {_long_end(d.cartan, comp)}):
                return False
            continue
        if letter == "D" and n % 2 == 1 and n >= 5:
            if any(t.sigma[v] != v for v in comp):
                return False
            levi = t.levi
            inside = [ctp for c, ctp in zip(levi.components, levi.types) if c[0] in comp]
            if inside != [f"D{n-1}"]:
                return False
            continue
        return False
    return True


def _long_end(cartan, comp):
    """The long-root end of a type-B component, the vertex whose removal
    leaves B_{n-1}: the end whose neighbour w has <alpha_w, alpha_v^vee> = -1.
    At the other end that pairing is -2 (B_n, n >= 3: the double edge; B2:
    the short root)."""
    for v in comp:
        neighbors = [w for w in comp if w != v and cartan[v][w] != 0]
        if len(neighbors) == 1 and cartan[v][neighbors[0]] == -1:
            return v
    raise InternalError(f"no long end in the B component {comp}")


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
    maximal_only: bool = False,
    connected_only: bool = True,
):
    """Brute-force enumeration of triples passing the opposition condition.

    Every sigma-stable I is tried.  An isolated I-vertex is its own
    opposition image, so the condition keeps only triples whose isolated
    I-vertices sigma fixes.  `maximal_only` keeps the triples passing
    `is_maximal`.
    """
    diagrams = connected_diagrams(max_rank)
    if not connected_only:
        diagrams = diagrams + _disconnected_diagrams(max_rank)
    subs = {}
    out = []
    for label, _, cart in diagrams:
        diagram = _Diagram(cart, subs)
        levis = {}  # the facts of each subset, kept only by the triples that pass
        for sigma in diagram_automorphisms(cart):
            facts = _Sigma(diagram, sigma)
            for subset in _sigma_stable_subsets(sigma):
                if subset not in levis:
                    levis[subset] = _Levi(diagram, subset)
                levi = levis[subset]
                if not levi.opposed_by(sigma):
                    continue
                if maximal_only and not levi.maximal:
                    continue
                out.append(DynkinTriple(label, cart, subset, sigma, facts, levi))
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
