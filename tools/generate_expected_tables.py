#!/usr/bin/env python3
"""Write src/zipcone/data/hasse_expected.json.

Direct transcription of the classification tables (sigma trivial / sigma
nontrivial / maximal / Hodge allow-list) in the fixed vertex numbering of
zipcone.rootdata.cartan_matrix:

  A_n: path 1..n.  B_n, C_n: path with the double edge at (n-1, n); the
  terminal vertex n is the short (resp. long) root.  D_n: tail 1..n-2,
  fork tips n-1 and n attached to n-2.  E_n: chain 1,3,4,5,6(,7,8) with
  vertex 2 attached to 4.  F4: 1-2=>3-4.  G2: 1,2.

The "maximal" table carries a source tag per entry: the ten headline cases,
plus two documented degenerate families (full-diagram triples whose
opposition involution equals sigma, and star/second-vertex removals whose I
is sigma-fixed isolated vertices plus a trivial-opposition tail) that the
headline list omits but that satisfy the literal opposition condition and
the cardinality definition of maximality.  This script never imports the
classification engine.
"""
import json
import os

MAX_RANK = 8


def flip_an(n):
    return "()" if n == 1 else _cycles([(i, n - 1 - i) for i in range(n // 2)])


def _cycles(pairs):
    pairs = [p for p in pairs if p[0] != p[1]]
    if not pairs:
        return "()"
    return "".join(f"({a + 1} {b + 1})" for a, b in sorted(pairs))


def swap_dn(n):
    return _cycles([(n - 2, n - 1)])


def flip_e6():
    return _cycles([(0, 5), (2, 4)])


def sigma_trivial():
    rows = []
    for n in range(2, MAX_RANK + 1):  # B_n: I = B_m containing the double edge
        for m in range(2, n + 1):
            rows.append({"type": f"B{n}", "rank": n, "I": list(range(n - m + 1, n + 1))})
    for n in range(3, MAX_RANK + 1):  # C_n: I = C_m containing the double edge
        for m in range(2, n + 1):
            rows.append({"type": f"C{n}", "rank": n, "I": list(range(n - m + 1, n + 1))})
    rows.append({"type": "D4", "rank": 4, "I": [1, 2, 3, 4]})
    rows.append({"type": "G2", "rank": 2, "I": [1, 2]})
    for n in range(5, MAX_RANK + 1):  # D_n: I = D_{2m} containing both tips
        for m in range(2, n // 2 + 1):
            rows.append({"type": f"D{n}", "rank": n, "I": list(range(n - 2 * m + 1, n + 1))})
    for iset in ([2, 3], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]):  # F4: B2, B3, C3, F4
        rows.append({"type": "F4", "rank": 4, "I": iset})
    rows.append({"type": "E6", "rank": 6, "I": [2, 3, 4, 5]})  # D4
    for iset in ([2, 3, 4, 5], [2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7]):  # E7: D4, D6, E7
        rows.append({"type": "E7", "rank": 7, "I": iset})
    for iset in (  # E8: D4, D6, E7, E8
        [2, 3, 4, 5],
        [2, 3, 4, 5, 6, 7],
        [1, 2, 3, 4, 5, 6, 7],
        [1, 2, 3, 4, 5, 6, 7, 8],
    ):
        rows.append({"type": "E8", "rank": 8, "I": iset})
    return rows


def sigma_nontrivial():
    rows = []
    for n in range(2, MAX_RANK + 1):  # A_n flip: middle A_m, m = n mod 2
        for m in range(2, n + 1):
            if m % 2 != n % 2:
                continue
            lo = (n - m) // 2 + 1
            rows.append(
                {"type": f"A{n}", "rank": n, "sigma": flip_an(n), "I": list(range(lo, lo + m))}
            )
    # D4: each transposition of the extremal vertices 1, 3, 4 pairs with the
    # A3 through the two swapped vertices (remove the fixed extremal vertex)
    rows.append({"type": "D4", "rank": 4, "sigma": "(3 4)", "I": [2, 3, 4]})
    rows.append({"type": "D4", "rank": 4, "sigma": "(1 3)", "I": [1, 2, 3]})
    rows.append({"type": "D4", "rank": 4, "sigma": "(1 4)", "I": [1, 2, 4]})
    for n in range(5, MAX_RANK + 1):  # D_n swap: I = D_{2m+1} containing both tips
        for m in range(1, (n - 1) // 2 + 1):
            rows.append(
                {
                    "type": f"D{n}",
                    "rank": n,
                    "sigma": swap_dn(n),
                    "I": list(range(n - 2 * m, n + 1)),
                }
            )
    for iset in ([3, 4, 5], [1, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]):  # E6 flip: A3, A5, E6
        rows.append({"type": "E6", "rank": 6, "sigma": flip_e6(), "I": iset})
    return rows


def maximal():
    rows = []

    def add(tp, rank, sigma, iverts, source):
        rows.append(
            {"type": tp, "rank": rank, "sigma": sigma, "I": sorted(iverts), "source": source}
        )

    # -- the ten headline cases (connected instances, rank <= MAX_RANK) ----
    add("A1", 1, "()", [], "case-1 (A1^m, m=1)")
    add("A2", 2, "()", [1], "case-2")
    add("A2", 2, "()", [2], "case-2")
    for n in range(2, MAX_RANK + 1):
        add(f"B{n}", n, "()", list(range(2, n + 1)), "case-3")
    for n in range(3, MAX_RANK + 1):
        add(f"C{n}", n, "()", list(range(2, n + 1)), "case-3")
    add("D4", 4, "(3 4)", [2, 3, 4], "case-4")
    add("D4", 4, "(1 3)", [1, 2, 3], "case-4")
    add("D4", 4, "(1 4)", [1, 2, 4], "case-4")
    for n in (6, 8):
        add(f"D{n}", n, swap_dn(n), list(range(2, n + 1)), "case-5")
    for n in (5, 7):
        add(f"D{n}", n, "()", list(range(2, n + 1)), "case-6")
    add("G2", 2, "()", [1], "case-7")
    add("G2", 2, "()", [2], "case-7")
    add("F4", 4, "()", [1, 2, 3], "case-7 (B3)")
    add("F4", 4, "()", [2, 3, 4], "case-7 (C3)")
    add("E6", 6, flip_e6(), [1, 3, 4, 5, 6], "case-8")
    add("E7", 7, "()", [2, 3, 4, 5, 6, 7], "case-9")
    add("E8", 8, "()", [1, 2, 3, 4, 5, 6, 7], "case-10")

    # -- degenerate family 1: I = D with sigma the opposition involution ----
    add("A1", 1, "()", [1], "degenerate-full")
    for n in range(2, MAX_RANK + 1):
        add(f"A{n}", n, flip_an(n), list(range(1, n + 1)), "degenerate-full")
    for n in range(2, MAX_RANK + 1):
        add(f"B{n}", n, "()", list(range(1, n + 1)), "degenerate-full")
    for n in range(3, MAX_RANK + 1):
        add(f"C{n}", n, "()", list(range(1, n + 1)), "degenerate-full")
    for n in (4, 6, 8):
        add(f"D{n}", n, "()", list(range(1, n + 1)), "degenerate-full")
    for n in (5, 7):
        add(f"D{n}", n, swap_dn(n), list(range(1, n + 1)), "degenerate-full")
    add("G2", 2, "()", [1, 2], "degenerate-full")
    add("F4", 4, "()", [1, 2, 3, 4], "degenerate-full")
    add("E6", 6, flip_e6(), [1, 2, 3, 4, 5, 6], "degenerate-full")
    add("E7", 7, "()", list(range(1, 8)), "degenerate-full")
    add("E8", 8, "()", list(range(1, 9)), "degenerate-full")

    # -- degenerate family 2: removing a second/star vertex leaves sigma-fixed
    # isolated vertices plus (possibly) a trivial-opposition tail ------------
    add("A3", 3, "()", [1, 3], "degenerate-star")
    add("B2", 2, "()", [1], "degenerate-star")
    for n in range(3, MAX_RANK + 1):
        add(f"B{n}", n, "()", [1] + list(range(3, n + 1)), "degenerate-star")
    for n in range(3, MAX_RANK + 1):
        add(f"C{n}", n, "()", [1] + list(range(3, n + 1)), "degenerate-star")
    add("D4", 4, "()", [1, 3, 4], "degenerate-star")
    for n in (6, 8):  # tail A1 + D_{n-2}, opposition trivial needs n-2 even
        add(f"D{n}", n, "()", [1] + list(range(3, n + 1)), "degenerate-star")
    for n in (5, 7):  # tail A1 + D_{n-2} with n-2 odd: opposition = the swap
        add(f"D{n}", n, swap_dn(n), [1] + list(range(3, n + 1)), "degenerate-star")
    return rows


def hodge():
    rows = [
        {"type": "A1", "rank": 1, "sigma": "()", "I": []},
        {"type": "A2", "rank": 2, "sigma": "()", "I": [1]},
        {"type": "A2", "rank": 2, "sigma": "()", "I": [2]},
    ]
    for n in range(2, MAX_RANK + 1):
        rows.append({"type": f"B{n}", "rank": n, "sigma": "()", "I": list(range(2, n + 1))})
    for n in (5, 7):
        rows.append({"type": f"D{n}", "rank": n, "sigma": "()", "I": list(range(2, n + 1))})
    return rows


def main():
    data = {
        "comment": "Transcribed classification tables; vertex numbering per zipcone.hasse.cartan_matrix.",
        "sigma_trivial": sigma_trivial(),
        "sigma_nontrivial": sigma_nontrivial(),
        "maximal": maximal(),
        "hodge": hodge(),
    }
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(here, "..", "src", "zipcone", "data", "hasse_expected.json")
    with open(target, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(target)}")
    for k in ("sigma_trivial", "sigma_nontrivial", "maximal", "hodge"):
        print(f"  {k}: {len(data[k])} entries")


if __name__ == "__main__":
    main()
