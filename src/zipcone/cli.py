"""Batch front door: describe, cone, member, include, hasse, classify, reproduce.

Exit codes: 0 success, 1 user error, 2 failed check or table mismatch,
3 internal cap exceeded.  With --format json, errors are emitted as JSON on
stderr.  Identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog, hasse, zipcones
from .errors import BadParams, CapExceeded, ZipconeError, json_integer, json_integers, json_vectors
from .rootdata import RootDatum, build_root_datum, perm_orbits, validate_frobenius
from .zipcones import ZipContext, make_context

CONE_NAMES = zipcones.CONE_BUILDERS


def load_context(path: str) -> ZipContext:
    """Read a zipcontext.v1 file.  Every number must be a JSON integer (not a
    float or a bool), every container a list, and every vector as long as
    rootdatum.rank; anything else is BadParams."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            rdj, fj = data["rootdatum"], data["frobenius"]
            rank = json_integer(rdj["rank"], "rootdatum.rank")
            roots = _vectors(rdj["simple_roots"], "rootdatum.simple_roots", rank)
            coroots = _vectors(rdj["simple_coroots"], "rootdatum.simple_coroots", rank)
            label = rdj.get("label")
            q = json_integer(fj["q"], "frobenius.q")
            sigma = _vectors(fj["sigma"], "frobenius.sigma", rank)
            levi = json_integers(data["levi_indices"], "levi_indices")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise BadParams(
                f"malformed context file {path}: {type(exc).__name__}: {exc}"
            ) from exc
    if label is not None and not isinstance(label, str):
        raise BadParams("rootdatum.label must be a string")
    rd = build_root_datum((roots, coroots))
    if label:
        rd = RootDatum(rd.n, rd.simple_roots, rd.simple_coroots, label)
    frob = validate_frobenius(rd, q, sigma)
    return make_context(rd, frob, levi)


def _vectors(value, where: str, rank: int) -> list:
    vecs = json_vectors(value, where)
    for i, v in enumerate(vecs):
        if len(v) != rank:
            raise BadParams(f"{where}[{i}] has {len(v)} entries, rootdatum.rank is {rank}")
    return vecs


def context_json(ctx: ZipContext) -> dict:
    return {
        "rootdatum": {
            "rank": ctx.rd.n,
            "simple_roots": [list(v) for v in ctx.rd.simple_roots],
            "simple_coroots": [list(v) for v in ctx.rd.simple_coroots],
            "label": ctx.rd.label,
        },
        "frobenius": {"q": ctx.q, "sigma": [list(r) for r in ctx.frob.sigma]},
        "levi_indices": list(ctx.I),
    }


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _emit(obj, args, as_text):
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        as_text(obj)


def cmd_describe(args) -> int:
    ctx = load_context(args.context)
    orbits = [list(orbit) for orbit in perm_orbits(ctx.frob.sigma_perm)]
    delta_table = {}
    for i in range(ctx.rd.r):
        delta_table[str(i)] = [_frac_str(x) for x in zipcones.delta_alpha(ctx, ctx.rd.simple_roots[i])]
    out = {
        "context": context_json(ctx),
        "sigma_order": ctx.frob.sigma_order,
        "sigma_orbits_on_base": orbits,
        "I": list(ctx.I),
        "I0": list(ctx.I0),
        "delta_P": list(ctx.delta_p),
        "delta_P0": list(ctx.delta_p0),
        "split_degree": ctx.split_degree,
        "r_alpha": {str(i): ctx.r_alpha[i] for i in range(ctx.rd.r)},
        "m_alpha": {str(a): m for a, m in sorted(ctx.m_alpha.items())},
        "delta_alpha": delta_table,
    }

    def as_text(o):
        print(f"root datum: rank {ctx.rd.n}, {ctx.rd.r} simple roots, label {ctx.rd.label!r}")
        print(f"q = {ctx.q}, sigma order {o['sigma_order']}, split degree {o['split_degree']}")
        print(f"sigma orbits on the base: {o['sigma_orbits_on_base']}")
        print(f"I = {o['I']}, I0 = {o['I0']}, Delta^P = {o['delta_P']}, Delta^P0 = {o['delta_P0']}")
        print("alpha : r_alpha  m_alpha  delta_alpha")
        for i in range(ctx.rd.r):
            m = ctx.m_alpha.get(i, "-")
            print(f"  {i}   : {ctx.r_alpha[i]}        {m}        ({', '.join(o['delta_alpha'][str(i)])})")

    _emit(out, args, as_text)
    return 0


def cmd_cone(args) -> int:
    ctx = load_context(args.context)
    cone = zipcones.report_cone(ctx, args.which)
    out = cone.to_json()

    def as_text(o):
        print(f"cone {args.which} in dimension {o['dim']}")
        print("generators:")
        for g in o["generators"]:
            print(f"  {tuple(g)}")
        print("inequalities (<lam, v> >= 0):")
        for h in o["inequalities"]:
            print(f"  {tuple(h)}")

    _emit(out, args, as_text)
    return 0


def _parse_lambda(text: str, n: int):
    try:
        vec = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise BadParams(f"lambda must be comma-separated integers, not {text!r}") from exc
    if len(vec) != n:
        raise BadParams(f"lambda has {len(vec)} entries, expected {n}")
    return vec


def cmd_member(args) -> int:
    ctx = load_context(args.context)
    lam = _parse_lambda(args.lam, ctx.rd.n)
    cone = zipcones.report_cone(ctx, args.which)
    inside = cone.member(lam)
    out = {
        "which": args.which,
        "lambda": list(lam),
        "member": inside,
        "binding" if inside else "violated": [list(h) for h in cone.binding(lam)],
    }

    def as_text(o):
        print("yes" if inside else "no")
        label = "binding inequalities" if inside else "violated inequalities"
        for h in cone.binding(lam):
            print(f"  {label}: {tuple(h)}")

    _emit(out, args, as_text)
    return 0


def cmd_include(args) -> int:
    ctx = load_context(args.context)
    outer = zipcones.report_cone(ctx, args.outer)
    inner = zipcones.report_cone(ctx, args.inner)
    ok = outer.contains(inner)
    witness = None if ok else outer.witness_outside(inner)
    out = {
        "outer": args.outer,
        "inner": args.inner,
        "included": ok,
        "witness": None if witness is None else list(witness),
    }

    def as_text(o):
        print("yes" if ok else "no")
        if witness is not None:
            print(f"witness ray of {args.inner} outside {args.outer}: {tuple(witness)}")

    _emit(out, args, as_text)
    return 0


def cmd_hasse(args) -> int:
    ctx = load_context(args.context)
    out = zipcones.hasse_criteria(ctx)

    def as_text(o):
        print("Hasse-type" if o["hasse_type"] else "not of Hasse-type")
        print(f"  Levi type sigma-stable (P defined over F_q): {o['levi_defined_over_Fq']}")
        print(f"  sigma acts on I by -w_0,I: {o['sigma_acts_by_opposition']}")

    _emit(out, args, as_text)
    return 0


def cmd_classify(args) -> int:
    if args.compare_expected:
        diffs = hasse.compare_with_expected(args.max_rank)
        bad = any(d["missing"] or d["unexpected"] for d in diffs.values())
        out = {"diffs": diffs, "match": not bad}

        def as_text(o):
            for table, d in sorted(o["diffs"].items()):
                status = "ok" if not (d["missing"] or d["unexpected"]) else "MISMATCH"
                print(f"{table}: {d['count']} entries, {status}")
                for m in d["missing"]:
                    print(f"  missing   {m}")
                for u in d["unexpected"]:
                    print(f"  unexpected {u}")

        _emit(out, args, as_text)
        return 2 if bad else 0
    triples = hasse.classify(
        args.max_rank,
        maximal_only=args.maximal,
        connected_only=not args.disconnected,
    )
    entries = [hasse.classification_entry(t) for t in triples]
    if args.hodge:
        entries = [e for e in entries if e["hodge"]]
    out = {"classification": entries}

    def as_text(o):
        for e in o["classification"]:
            print(
                f"{e['diagram_type']:<6} sigma {e['sigma_desc']:<12} I {e['I_desc']} "
                f"({e['I_type']}) maximal={e['maximal']} hodge={e['hodge']}"
            )

    _emit(out, args, as_text)
    return 0


def cmd_reproduce(args) -> int:
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if args.n is not None:
        params["n"] = args.n
    report = catalog.reproduce(args.example, **params)

    def as_text(rep):
        print(f"reproduction report for {rep['example']} {rep['params']}")
        for row in rep["rows"]:
            print(f"  {row['name']:<10} {'PASS' if row['passed'] else 'FAIL'}")
            if not row["passed"]:
                print(f"    expected ineqs: {row['expected']['inequalities']}")
                print(f"    computed ineqs: {row['computed']['inequalities']}")
        for name, ok in rep["flag_checks"].items():
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        print("PASS" if rep["passed"] else "FAIL")

    _emit(report, args, as_text)
    return 0 if report["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipcone",
        description="Exact weight cones for reductive groups with Frobenius action.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="derived data of a zip context")
    p.add_argument("--context", required=True)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("cone", help="emit one cone in cone.v1 form")
    p.add_argument("--context", required=True)
    p.add_argument("--which", required=True, choices=CONE_NAMES)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("member", help="membership of a character in a cone")
    p.add_argument("--context", required=True)
    p.add_argument("--which", required=True, choices=CONE_NAMES)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated integers in the X*(T) basis")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("include", help="test inclusion of one cone in another")
    p.add_argument("--context", required=True)
    p.add_argument("--outer", required=True, choices=CONE_NAMES)
    p.add_argument("--inner", required=True, choices=CONE_NAMES)
    p.set_defaults(func=cmd_include)

    p = sub.add_parser("hasse", help="Hasse-type criteria for a context")
    p.add_argument("--context", required=True)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("classify", help="classify Hasse-type Dynkin triples")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--hodge", action="store_true")
    p.add_argument("--compare-expected", action="store_true")
    p.add_argument("--disconnected", action="store_true",
                   help="also enumerate disconnected diagrams")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reproduce", help="reproduce a worked-example reference table")
    p.add_argument("--example", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # allow "--lambda -1,2,0": argparse would read the value as an option
    for i, a in enumerate(argv[:-1]):
        if a == "--lambda":
            argv[i : i + 2] = [f"--lambda={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        _error(args, exc, code=3)
        return 3
    except ZipconeError as exc:
        _error(args, exc, code=1)
        return 1
    except OSError as exc:
        _error(args, exc, code=1)
        return 1


def _error(args, exc, code: int):
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc), "exit": code},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
