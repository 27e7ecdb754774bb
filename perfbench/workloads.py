"""Seeded request streams for the zipcone benchmark, with their output checks.

A workload is a stream of rounds.  Every round holds the same strata of
requests (the same mix of request kinds and sizes); the seed chooses the
random content inside each stratum and the order of the round.  Runs stop
only at round boundaries, so every run measures the same mix and its
medians and percentiles do not drift with where the clock ran out.

Each request rebuilds its objects from serialized input (a `zipcontext.v1`
file read through `cli.load_context`, CLI arguments, or plain integer
lists), so the per-object caches of the program start cold, as in a CLI
invocation.  The checks use only the request, the output text and the
transcribed tables; they never call the code path that produced the output.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from zipcone import cli, cones, fm, rootdata, zipcones

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Request:
    kind: str
    params: dict

    @property
    def key(self) -> str:
        """Digest of the input, used to look up recorded output digests."""
        return digest(json.dumps([self.kind, self.params], sort_keys=True))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed: int, round_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_index)


def _cli(argv):
    """Run the CLI in-process; returns (stdout text, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), code


# -- exact helpers for the checks -------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _rank(rows) -> int:
    """Rank over Q by fraction-free integer elimination."""
    mat = [tuple(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank]
        for i in range(rank + 1, len(mat)):
            a = mat[i][col]
            if a:
                mat[i] = _primitive([x * p[col] - y * a for x, y in zip(mat[i], p)])
        rank += 1
    return rank


def _inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def fm_facets(dim: int, vectors):
    """Facet normals of the full-dimensional pointed cone(vectors), by
    Fourier-Motzkin elimination (`fm.eliminate_tail`, the engine of
    `fm.h_from_v`).

    `fm.h_from_v` eliminates one multiplier per generator from a system with
    2*dim + k rows, which takes seconds per cone at dim 6.  Solving a basis of
    generators out of x = sum t_i g_i first leaves k - dim multipliers to
    eliminate from k rows; the projection is the same cone.  Redundant rows
    are then dropped by the incidence test (a normal is a facet iff the
    generators it is tight on have rank dim - 1), so the result is the
    canonical H-description: primitive, irredundant, sorted.
    """
    gens = sorted({_primitive(v) for v in vectors})
    basis, rest = [], []
    for g in gens:
        if len(basis) < dim and _rank(basis + [g]) > len(basis):
            basis.append(g)
        else:
            rest.append(g)
    if len(basis) != dim:
        raise ValueError("fm_facets needs a full-dimensional cone")
    # x = B^T t + R^T u  gives  t = M (x - R^T u) >= 0  with  M = (B^T)^{-1}
    m = _inverse([list(col) for col in zip(*basis)])
    k = len(rest)
    rows = []
    for i in range(dim):
        row = list(m[i]) + [-sum(m[i][j] * r[j] for j in range(dim)) for r in rest]
        den = 1
        for c in row:
            den = den * c.denominator // gcd(den, c.denominator)
        rows.append(tuple(int(c * den) for c in row))
    for j in range(k):
        rows.append(tuple(int(c == dim + j) for c in range(dim + k)))
    normals = {_primitive(h) for h in fm.eliminate_tail(rows, dim) if any(h)}
    return sorted(
        h for h in normals
        if _rank([g for g in gens if _dot(g, h) == 0]) == dim - 1
    )


def _extreme(dim: int, vectors, facets):
    """The vectors that are extreme rays of the pointed cone with these facets."""
    return sorted({
        _primitive(v) for v in vectors
        if _rank([h for h in facets if _dot(v, h) == 0]) == dim - 1
    })


# -- workload: classify -------------------------------------------------------


CLASSIFY_FLAGS = (None, "--maximal", "--hodge", "--compare-expected")
NON_COMPARE_FLAGS = CLASSIFY_FLAGS[:3]


class Classify:
    """`zipcone classify` through `cli.main`, stdout captured.

    Strata per round (85 requests), cheapest first:
      24  rank 3, connected, no flag / --maximal / --hodge (8 copies each)
      36  rank 3, --disconnected with those flags (12 copies each)
      15  rank 3 --compare-expected (6 copies); rank 4, connected, no flag
          / --maximal / --hodge (3 copies each)
       3  rank 4 --disconnected, no flag / --maximal / --hodge
       7  rank 4 --compare-expected; rank 5 connected, no flag / --maximal /
          --hodge; rank 5 --compare-expected; rank 5 --disconnected
          --maximal; rank 6 --hodge
    The copy counts put the median in the middle of the 36-request block
    (24 cheaper, 25 costlier) and the 90th percentile in the middle of the
    3-request block of rank 4 --disconnected, which cost alike (76.5 of 85),
    so neither sits on the edge between two strata of different cost.
    Every round holds the same requests, so a run's figures do not depend
    on how many rounds it made.  `--compare-expected` ignores
    `--disconnected`, so the two are never combined.
    """

    name = "classify"

    def __init__(self, expected_tables: dict):
        self.expected = expected_tables

    def round(self, seed: int, k: int):
        specs = [(3, f, False) for f in NON_COMPARE_FLAGS] * 8
        specs += [(3, f, True) for f in NON_COMPARE_FLAGS] * 12
        specs += [(3, "--compare-expected", False)] * 6
        specs += [(4, f, False) for f in NON_COMPARE_FLAGS] * 3
        specs += [(4, f, True) for f in NON_COMPARE_FLAGS]
        specs.append((4, "--compare-expected", False))
        specs += [(5, f, False) for f in CLASSIFY_FLAGS]
        specs.append((5, "--maximal", True))
        specs.append((6, "--hodge", False))
        _rng(seed, k).shuffle(specs)
        return [
            Request("classify", {"max_rank": r, "flag": f, "disconnected": d})
            for r, f, d in specs
        ]

    def prepare(self, requests, workdir):
        pass

    def execute(self, req):
        p = req.params
        argv = ["--format", "json", "classify", "--max-rank", str(p["max_rank"])]
        if p["flag"]:
            argv.append(p["flag"])
        if p["disconnected"]:
            argv.append("--disconnected")
        return _cli(argv)

    def _want(self, table, rank):
        return {
            (e["type"], e["rank"], e.get("sigma", "()"), tuple(e["I"]))
            for e in self.expected[table]
            if e["rank"] <= rank
        }

    def check(self, req, text, code):
        p = req.params
        if code != 0:
            return [f"exit code {code}"]
        out = json.loads(text)
        rank = p["max_rank"]
        if p["flag"] == "--compare-expected":
            bad = [t for t, d in out["diffs"].items() if d["missing"] or d["unexpected"]]
            return [] if out["match"] and not bad else [f"table mismatch in {bad}"]
        entries = [e for e in out["classification"] if "+" not in e["diagram_type"]]
        got = {
            (e["diagram_type"], e["rank"], e["sigma_desc"], tuple(e["I_desc"])): e
            for e in entries
        }
        problems = []
        if p["flag"] is None:
            core = {
                k for k, e in got.items()
                if e["I_desc"] and "A1" not in e["I_type"].split("+")
            }
            if {k for k in core if k[2] == "()"} != self._want("sigma_trivial", rank):
                problems.append("sigma-trivial triples differ from the table")
            if {k for k in core if k[2] != "()"} != self._want("sigma_nontrivial", rank):
                problems.append("sigma-nontrivial triples differ from the table")
        elif p["flag"] == "--maximal":
            if set(got) != self._want("maximal", rank):
                problems.append("maximal triples differ from the table")
        elif p["flag"] == "--hodge":
            if not all(e["hodge"] for e in out["classification"]):
                problems.append("--hodge output holds a non-Hodge entry")
            maximal = {k for k, e in got.items() if e["maximal"]}
            if maximal != self._want("hodge", rank):
                problems.append("maximal Hodge triples differ from the table")
        return problems


# -- workload: zipreport -------------------------------------------------------


ZIP_TYPES = ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
             "D4", "D5", "G2", "F4", "E6")
# A second context of each of these cheap types per round balances the
# costlier ones around the median.
ZIP_CHEAP = ("A2", "B2", "B3", "C3", "G2")
# The tail: split contexts whose Levi Weyl group W_{I0} = W(B4) or W(C4) has
# 384 elements, with a fixed q; both run in every round, so every round has
# the same tail.
ZIP_TAIL = (("B5", (1, 2, 3, 4), 2), ("C5", (1, 2, 3, 4), 3))
SO_ODD_Q = (2, 3)
U21_Q = (2, 3, 5)
ZIP_CONES = ("gs", "hw", "idominant", "lw", "neglevi", "pha", "weil_hw")
# (inner, outer) pairs of acceptance criterion 04, valid for every context
ZIP_INCLUSIONS = (("pha", "idominant"), ("hw", "idominant"), ("neglevi", "hw"),
                  ("gs", "lw"))


def _sigmas(label: str, n: int):
    """Lattice automorphisms of X*(T) inducing the diagram automorphisms
    (identity first) in the coordinates of `rootdata.build_root_datum`."""
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    out = [ident]
    if label[0] == "A":  # GL(n) coordinates: e_i -> -e_{n-1-i}
        out.append(tuple(tuple(-int(j == n - 1 - i) for j in range(n)) for i in range(n)))
    elif label[0] == "D":  # e_n -> -e_n swaps the fork tips
        out.append(tuple(tuple((-1 if i == n - 1 else 1) * int(i == j) for j in range(n))
                         for i in range(n)))
    elif label == "E6":  # coroot basis permuted by 1<->6, 3<->5
        perm = (5, 1, 4, 3, 2, 0)
        out.append(tuple(tuple(int(i == perm[j]) for j in range(n)) for i in range(n)))
    return out


class ZipReport:
    """`cli.load_context` -> `zipcones.zip_report` -> `json.dumps`, plus the
    worked examples through `cli.main(["reproduce", ...])`.

    Strata per round (34 requests): one small context of every type in
    ZIP_TYPES and a second one of every type in ZIP_CHEAP (a random diagram
    automorphism as sigma, a random Levi of at most three nodes, q in
    {2, 3, 5}); six U21-inert reproductions, each with a random q in
    {2, 3, 5}; SOodd reproductions at n = 2, 3 and 4, each with a random q in
    {2, 3}; and the tail: the two ZIP_TAIL contexts and SOodd at n = 5
    (|W(B4)| = 384 too) with q = 2 and q = 3.  Every round holds the same
    types and sizes, so a run's figures do not depend on how many rounds it
    made.  About as many requests cost less than a U21 reproduction (18 ms)
    as cost more, so the median falls inside the U21 block; the tail is the
    top four, so the 90th percentile falls inside it.
    """

    name = "zipreport"

    def __init__(self):
        self._data = {}

    def _datum(self, label):
        if label not in self._data:
            rd = rootdata.build_root_datum(label)
            self._data[label] = {
                "rank": rd.n,
                "simple_roots": [list(v) for v in rd.simple_roots],
                "simple_coroots": [list(v) for v in rd.simple_coroots],
                "label": label,
            }
        return self._data[label]

    def _context(self, label, sigma, levi, q):
        return {
            "rootdatum": self._datum(label),
            "frobenius": {"q": q, "sigma": [list(row) for row in sigma]},
            "levi_indices": list(levi),
        }

    def round(self, seed: int, k: int):
        rnd = _rng(seed, k)
        reqs = []
        for label in ZIP_TYPES + ZIP_CHEAP:
            datum = self._datum(label)
            r = len(datum["simple_roots"])
            size = rnd.randint(0, min(3, r - 1))
            levi = sorted(rnd.sample(range(r), size))
            sigma = rnd.choice(_sigmas(label, datum["rank"]))
            reqs.append(Request("zipreport", self._context(label, sigma, levi,
                                                           rnd.choice(U21_Q))))
        for label, levi, q in ZIP_TAIL:
            ident = _sigmas(label, self._datum(label)["rank"])[0]
            reqs.append(Request("zipreport", self._context(label, ident, levi, q)))
        for _ in range(6):
            reqs.append(Request("reproduce", {"example": "U21-inert", "q": rnd.choice(U21_Q)}))
        for n in (2, 3, 4):
            reqs.append(Request("reproduce", {"example": "SOodd", "n": n,
                                              "q": rnd.choice(SO_ODD_Q)}))
        for q in SO_ODD_Q:
            reqs.append(Request("reproduce", {"example": "SOodd", "n": 5, "q": q}))
        rnd.shuffle(reqs)
        return reqs

    def prepare(self, requests, workdir: Path):
        """Write each context to its own `zipcontext.v1` file."""
        self._paths = {}
        for i, req in enumerate(requests):
            if req.kind == "zipreport":
                path = workdir / f"ctx-{i}.json"
                path.write_text(json.dumps(req.params, sort_keys=True))
                self._paths[id(req)] = str(path)

    def execute(self, req):
        if req.kind == "reproduce":
            argv = ["--format", "json", "reproduce"]
            for key in ("example", "n", "q"):
                if key in req.params:
                    argv += [f"--{key}", str(req.params[key])]
            return _cli(argv)
        ctx = cli.load_context(self._paths[id(req)])
        return json.dumps(zipcones.zip_report(ctx), sort_keys=True), 0

    def check(self, req, text, code):
        if code != 0:
            return [f"exit code {code}"]
        out = json.loads(text)
        if req.kind == "reproduce":
            problems = [] if out["passed"] else ["reproduction reported a failed row"]
            return problems + _check_zip_report(out["zip_report"])
        return _check_zip_report(out)


def _check_zip_report(rep):
    problems = []
    cones_json = rep["cones"]
    if sorted(cones_json) != list(ZIP_CONES):
        return [f"unexpected cone set {sorted(cones_json)}"]
    for name, c in cones_json.items():
        if any(_dot(g, h) < 0 for g in c["generators"] for h in c["inequalities"]):
            problems.append(f"{name}: a generator violates an inequality")
    for inner, outer in ZIP_INCLUSIONS:
        ok = all(_dot(g, h) >= 0 for g in cones_json[inner]["generators"]
                 for h in cones_json[outer]["inequalities"])
        if not ok or [inner, outer] not in rep["inclusions"]:
            problems.append(f"{outer} does not contain {inner}")
    return problems


# -- workload: cones ------------------------------------------------------------


# Row counts per dimension, between dim + 2 and min(2*dim, 11), with copies,
# cheapest first.  Per side and round: 7 cheap cones (2-10 ms); 6 cones of
# dim 6-7 with 9 rows (5-16 ms), which hold the median; one of dim 6 with 10
# rows; 3 of dim 6 with 11 rows (35-65 ms), which hold the 90th percentile;
# and one of dim 7 with 11 rows (0.03-0.3 s), the costliest and most
# variable stratum.  Each percentile thus falls inside a block of one
# narrow cost instead of on the edge between strata.  Dim 7 with 12-14 rows
# takes 0.3-6 s.
CONE_ROWS = {4: (7, 8), 5: (7, 8, 9, 10), 6: (8, 9, 9, 9, 10, 11, 11, 11), 7: (9, 9, 9, 11)}
CONE_MEMBER_POINTS = 12


class Cones:
    """Seeded pointed cones completed by `cones.RationalCone.complete`, then
    queried with `member` and `contains`.

    Strata per round (36 requests): one cone for every (dim, rows, side)
    with dim and rows from CONE_ROWS, given either as generators (V -> H) or
    as inequalities (H -> V).  The first coordinate of
    every row is in [1, 3], so the generator cones are pointed and the
    inequality cones full-dimensional; the other entries are in [-3, 3].
    Rows are redrawn until they have full rank, so both sides are pointed
    and full-dimensional.
    """

    name = "cones"

    def round(self, seed: int, k: int):
        rnd = _rng(seed, k)
        reqs = []
        for dim, row_counts in CONE_ROWS.items():
            for nrows in row_counts:
                for side in ("generators", "inequalities"):
                    while True:
                        rows = [[rnd.randint(1, 3)] + [rnd.randint(-3, 3) for _ in range(dim - 1)]
                                for _ in range(nrows)]
                        if _rank(rows) == dim:
                            break
                    points = [[rnd.randint(-4, 4) for _ in range(dim)]
                              for _ in range(CONE_MEMBER_POINTS)]
                    if side == "generators":  # sums of given generators lie inside
                        inner = [[a + b for a, b in zip(rows[i], rows[i + 1])] for i in range(3)]
                    else:
                        inner = points[:3]
                    reqs.append(Request("cone", {"dim": dim, "side": side, "rows": rows,
                                                 "points": points, "inner": inner}))
        rnd.shuffle(reqs)
        return reqs

    def prepare(self, requests, workdir):
        pass

    def execute(self, req):
        p = req.params
        dim = p["dim"]
        rows = [tuple(r) for r in p["rows"]]
        if p["side"] == "generators":
            cone = cones.cone_from_generators(dim, rows)
        else:
            cone = cones.cone_from_inequalities(dim, rows)
        cone.complete()
        out = {
            "cone": cone.to_json(),
            "member": [cone.member(tuple(pt)) for pt in p["points"]],
            "contains": cone.contains(
                cones.cone_from_generators(dim, [tuple(v) for v in p["inner"]])
            ),
        }
        return json.dumps(out, sort_keys=True), 0

    def check(self, req, text, code):
        p = req.params
        dim, rows = p["dim"], [tuple(r) for r in p["rows"]]
        out = json.loads(text)
        got_gens = [tuple(g) for g in out["cone"]["generators"]]
        got_ineqs = [tuple(h) for h in out["cone"]["inequalities"]]
        if p["side"] == "generators":
            ineqs = fm_facets(dim, rows)
            gens = _extreme(dim, rows, ineqs)
        else:  # by polarity the facets of cone(rows) generate {x : rows x >= 0}
            gens = fm_facets(dim, rows)
            ineqs = _extreme(dim, rows, gens)
        problems = []
        if out["cone"]["dim"] != dim:
            problems.append("wrong dimension")
        if got_gens != gens:
            problems.append("generators differ from the Fourier-Motzkin oracle")
        if got_ineqs != ineqs:
            problems.append("inequalities differ from the Fourier-Motzkin oracle")
        member = [all(_dot(pt, h) >= 0 for h in ineqs) for pt in p["points"]]
        if out["member"] != member:
            problems.append("member answers differ from the oracle")
        contains = all(_dot(v, h) >= 0 for v in p["inner"] for h in ineqs)
        if out["contains"] != contains:
            problems.append("contains answer differs from the oracle")
        return problems


def make(name: str):
    if name == "classify":
        return Classify(json.loads(Path(cli.__file__).with_name("data")
                                   .joinpath("hasse_expected.json").read_text()))
    if name == "zipreport":
        return ZipReport()
    if name == "cones":
        return Cones()
    raise KeyError(name)

