"""Preset zip contexts and bit-exact reproduction of the worked examples.

Expected cones are integer-polynomial-in-q inequality templates evaluated at
the given q; comparisons are exact cone equalities (mutual containment), so
redundant rows in either description are harmless.
"""
from __future__ import annotations

from . import zipcones
from .cones import check_dim, cone_from_generators, cone_from_inequalities
from .errors import BadParams, UnknownPreset, json_integer
from .rootdata import SIGMA_ORDER_CAP, build_root_datum, split_frobenius, validate_frobenius
from .zipcones import ZipContext, make_context


# -- presets ----------------------------------------------------------------


def _u21_inert(q: int):
    rd = build_root_datum("GL3")
    sigma = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
    ctx = make_context(rd, validate_frobenius(rd, q, sigma), [0])
    meta = {
        "quotient_map": ((1, 0, -1), (0, 1, -1)),
        "lineality": ((1, 1, 1),),
    }
    return ctx, meta


def _gl3_split(q: int):
    rd = build_root_datum("GL3")
    ctx = make_context(rd, split_frobenius(rd, q), [0])
    return ctx, {"lineality": ((1, 1, 1),)}


def _so_odd(n: int, q: int):
    if n < 1:
        raise BadParams("n must be >= 1")
    rd = build_root_datum(f"SO{2 * n + 1}")
    ctx = make_context(rd, split_frobenius(rd, q), range(1, rd.r))
    return ctx, {}


def _sp4(q: int):
    rd = build_root_datum("C2")
    ctx = make_context(rd, split_frobenius(rd, q), [0])
    return ctx, {}


def _restriction(b, r: int, q: int):
    """The Weil restriction of the split datum b: r block copies of b on
    Z^(r n_b), sigma shifting the blocks cyclically (block f + 1 onto block
    f).  Returns the datum, the Frobenius and each block's simple-root
    indices."""
    n = b.n * r

    def placed(v, f):
        return (0,) * (f * b.n) + tuple(v) + (0,) * (n - (f + 1) * b.n)

    roots = [placed(v, f) for f in range(r) for v in b.simple_roots]
    coroots = [placed(v, f) for f in range(r) for v in b.simple_coroots]
    rd = build_root_datum((roots, coroots))
    shift = tuple(tuple(int(j == (i + b.n) % n) for j in range(n)) for i in range(n))
    blocks = [list(range(f * b.r, (f + 1) * b.r)) for f in range(r)]
    return rd, validate_frobenius(rd, q, shift), blocks


def _hilbert_a1m(m: int, q: int):
    """A1^m in GL2^m coordinates with sigma cycling the factors; I is empty."""
    if not 1 <= m <= SIGMA_ORDER_CAP:
        raise BadParams(f"m must be >= 1 and at most SIGMA_ORDER_CAP = {SIGMA_ORDER_CAP}")
    rd, frob, blocks = _restriction(build_root_datum("GL2"), m, q)
    return make_context(rd, frob, []), {"blocks": blocks}


def _res_split(base: str, r: int, q: int):
    """Weil restriction of a split group; the Levi drops the first simple
    root on block 0 and is full on the other blocks."""
    if not 1 <= r <= SIGMA_ORDER_CAP:
        raise BadParams(f"r must be >= 1 and at most SIGMA_ORDER_CAP = {SIGMA_ORDER_CAP}")
    rd, frob, blocks = _restriction(build_root_datum(base), r, q)
    levi = blocks[0][1:] + [i for block in blocks[1:] for i in block]
    return make_context(rd, frob, levi), {"blocks": blocks}


_PRESETS = {
    "U21-inert": (_u21_inert, ("q",)),
    "GL3-split": (_gl3_split, ("q",)),
    "SOodd": (_so_odd, ("n", "q")),
    "Sp4": (_sp4, ("q",)),
    "HilbertA1m": (_hilbert_a1m, ("m", "q")),
    "ResSplit": (_res_split, ("base", "r", "q")),
}


def _check_params(what: str, wanted, params) -> None:
    """BadParams unless params names exactly `wanted`, `base` is a type label
    string and every other parameter is an integer (not a bool or float)."""
    missing = [k for k in wanted if params.get(k) is None]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise BadParams(f"{what} takes {wanted}; missing {missing}, extra {extra}")
    for k, v in params.items():
        if k != "base":
            json_integer(v, f"{what} parameter {k}")
        elif not isinstance(v, str):
            raise BadParams(f"{what} parameter base must be a type label, not {v!r}")


def preset_with_meta(name: str, **params):
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; know {sorted(_PRESETS)}")
    builder, wanted = _PRESETS[name]
    _check_params(f"preset {name}", wanted, params)
    if params.get("q", 2) < 2:
        raise BadParams("q must be >= 2")
    return builder(**params)


def preset(name: str, **params) -> ZipContext:
    return preset_with_meta(name, **params)[0]


def standard_catalog(q: int = 2):
    """The ten-context catalog used by the property suites."""
    return [
        ("U21-inert", preset("U21-inert", q=q)),
        ("SOodd-n2", preset("SOodd", n=2, q=q)),
        ("SOodd-n3", preset("SOodd", n=3, q=q)),
        ("SOodd-n4", preset("SOodd", n=4, q=q)),
        ("GL3-split", preset("GL3-split", q=q)),
        ("Sp4", preset("Sp4", q=q)),
        ("HilbertA1m-m1", preset("HilbertA1m", m=1, q=q)),
        ("HilbertA1m-m2", preset("HilbertA1m", m=2, q=q)),
        ("HilbertA1m-m3", preset("HilbertA1m", m=3, q=q)),
        ("ResSplit-B2-r2", preset("ResSplit", base="B2", r=2, q=q)),
    ]


# -- expected tables for the worked examples --------------------------------


def _u21_expected(q: int):
    """Quotient-plane (x, y) = (a1 - a3, a2 - a3) cones of the unitary example."""
    idom = [(1, -1)]
    return {
        "idominant": cone_from_inequalities(2, idom),
        "neglevi": cone_from_generators(2, [(-1, -1)]),
        "gs": cone_from_inequalities(2, idom + [(-1, 0)]),
        "pha": cone_from_inequalities(2, idom + [(q, -(q - 1)), (-(q - 1), -1)]),
        "hw": cone_from_inequalities(2, idom + [(-q, q - 1)]),
        "lw": cone_from_inequalities(2, idom + [(-(q - 1), -1)]),
        "zip": cone_from_inequalities(2, idom + [(-(q - 1), -1)]),
    }


def _so_odd_expected(n: int, q: int):
    if n < 2:
        raise BadParams("SOodd reproduction needs n >= 2")
    rd = build_root_datum(f"B{n}")
    idom = [tuple(rd.simple_coroots[i]) for i in range(1, rd.r)]
    pha_row = tuple([-(q + 1), -(q - 1)] + [0] * (n - 2))
    hw_row = tuple(
        [-(q ** (2 * n - 2) - 1)]
        + [(q - 1) * (q ** (i - 2) - q ** (2 * n - 1 - i)) for i in range(2, n + 1)]
    )
    neg_levi = cone_from_generators(n, [tuple([-1] + [0] * (n - 1))])
    return {
        "idominant": cone_from_inequalities(n, idom),
        "neglevi": neg_levi,
        "gs": cone_from_inequalities(n, idom + [tuple([-1, -1] + [0] * (n - 2))]),
        "pha": cone_from_inequalities(n, idom + [pha_row]),
        "hw": cone_from_inequalities(n, idom + [hw_row]),
        "lw": cone_from_inequalities(n, idom + [hw_row]),
        "zip": cone_from_inequalities(n, idom + [pha_row]),
    }


_TABLE_CONES = ("idominant", "neglevi", "gs", "pha", "hw", "lw")


def _computed_cones(ctx: ZipContext, quotient=None):
    """The context's cached report cones under the table's names, pushed
    along `quotient` when given, with the zip cone where the flags name it."""
    certified = zipcones.certified_lw(ctx)
    hasse = zipcones.is_hasse_type(ctx)
    cones = {name: zipcones.report_cone(ctx, name) for name in _TABLE_CONES}
    if quotient is not None:
        cones = {k: c.image_under(quotient) for k, c in cones.items()}
    zip_route = None
    if hasse:
        cones["zip"] = cones["pha"]
        zip_route = "pha (Hasse-type, exact)"
    elif certified:
        cones["zip"] = cones["lw"]
        zip_route = "lw (certified lower bound; equality per the unitary example)"
    return cones, {"hasse_type": hasse, "certified_lw": certified, "zip_route": zip_route}


_REPRODUCIBLE = ("U21-inert", "SOodd")


def reproduce(name: str, **params) -> dict:
    """Compare computed cones against the reference table of a worked example.

    Returns a structured report; `passed` is the conjunction of all rows and
    flag checks.  Raises UnknownPreset for presets without expected data and
    BadParams for a missing parameter or one the example does not take.
    """
    if name not in _REPRODUCIBLE:
        raise UnknownPreset(f"no reproduction data for preset {name!r}")
    _check_params(f"{name} reproduction", _PRESETS[name][1], params)
    if name == "U21-inert":
        q = params["q"]
        ctx, meta = preset_with_meta(name, q=q)
        expected = _u21_expected(q)
        computed, flags = _computed_cones(ctx, quotient=meta["quotient_map"])
        lifted = [zipcones.report_cone(ctx, k) for k in _TABLE_CONES]
        flag_checks = {
            "hasse_type is False": flags["hasse_type"] is False,
            "lw certified": flags["certified_lw"] is True,
            "lineality direction (1,1,1) in every cone": all(
                c.member((1, 1, 1)) and c.member((-1, -1, -1)) for c in lifted
            ),
        }
    else:
        n, q = params["n"], params["q"]
        check_dim(n)  # the lattice rank of B_n, checked before the datum is built
        ctx, _ = preset_with_meta(name, n=n, q=q)
        expected = _so_odd_expected(n, q)
        computed, flags = _computed_cones(ctx)
        strict = computed["pha"].contains(computed["hw"]) and not computed[
            "hw"
        ].contains(computed["pha"])
        flag_checks = {
            "hasse_type is True": flags["hasse_type"] is True,
            "exact zip equals pha": flags["zip_route"] == "pha (Hasse-type, exact)",
            "hw equals lw": computed["hw"].equal(computed["lw"]),
        }
        if n == 2:
            flag_checks["hw equals pha at n=2"] = computed["hw"].equal(computed["pha"])
        else:
            flag_checks[f"hw strictly inside pha at n={n}"] = strict

    rows = []
    for cone_name in sorted(expected):
        exp = expected[cone_name]
        got = computed[cone_name]
        ok = got.equal(exp)
        rows.append(
            {
                "name": cone_name,
                "passed": ok,
                "expected": exp.to_json(),
                "computed": got.to_json(),
            }
        )
    passed = all(r["passed"] for r in rows) and all(flag_checks.values())
    return {
        "example": name,
        "params": dict(sorted(params.items())),
        "rows": rows,
        "flag_checks": flag_checks,
        "zip_route": flags["zip_route"],
        "zip_report": zipcones.zip_report(ctx),
        "passed": passed,
    }
