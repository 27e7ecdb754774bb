"""Fourier-Motzkin elimination in exact integers.

Independent conversion oracle for the double description method in `cones`:
H-representations of V-cones are obtained by eliminating the coefficient
variables from { x = sum_i t_i g_i, t >= 0 }; by duality, the same
primitive applied to the inequalities gives V-representations.

Row growth is controlled by Chernikov's ancestor rule: every derived row
carries the set of original rows it was combined from, and a row combined
from more than k+1 ancestors after k elimination steps is redundant and
dropped.  Columns are eliminated greedily (fewest positive*negative pairs
first).  Both devices only remove redundant rows, so the computed system
describes exactly the projected cone.
"""
from __future__ import annotations

from . import linalg


def _eliminate_column(rows, col, step):
    """One elimination step on (vector, ancestors) pairs."""
    plus, zero, minus = [], [], []
    for vec, anc in rows:
        c = vec[col]
        if c > 0:
            plus.append((vec, anc))
        elif c < 0:
            minus.append((vec, anc))
        else:
            zero.append((vec, anc))
    out = {}
    for vec, anc in zero:
        reduced = vec[:col] + vec[col + 1 :]
        key = linalg.primitive(reduced)
        if not linalg.is_zero(key) and (key not in out or len(out[key]) > len(anc)):
            out[key] = anc
    cap = step + 2  # Chernikov: at most (steps done)+1 ancestors stay relevant
    for pvec, panc in plus:
        for mvec, manc in minus:
            anc = panc | manc
            if len(anc) > cap:
                continue
            combo = linalg.vec_sub(
                linalg.vec_scale(pvec[col], mvec), linalg.vec_scale(mvec[col], pvec)
            )
            combo = combo[:col] + combo[col + 1 :]
            key = linalg.primitive(combo)
            if linalg.is_zero(key):
                continue
            if key not in out or len(out[key]) > len(anc):
                out[key] = anc
    return [(k, v) for k, v in sorted(out.items())]


def eliminate_tail(rows, keep: int):
    """Eliminate all coordinates beyond index `keep` (0-based count kept)."""
    tagged = []
    seen = set()
    for i, r in enumerate(rows):
        key = linalg.primitive(r)
        if linalg.is_zero(key) or key in seen:
            continue
        seen.add(key)
        tagged.append((key, frozenset([i])))
    width = len(rows[0]) if rows else keep
    step = 0
    while width > keep:
        # greedy: pick the tail column with the fewest pos*neg combinations
        best_col, best_cost = None, None
        for col in range(keep, width):
            p = sum(1 for vec, _ in tagged if vec[col] > 0)
            m = sum(1 for vec, _ in tagged if vec[col] < 0)
            cost = p * m - (p + m)
            if best_cost is None or cost < best_cost:
                best_col, best_cost = col, cost
        tagged = _eliminate_column(tagged, best_col, step)
        width -= 1
        step += 1
    return [vec for vec, _ in tagged]


def h_from_v(dim: int, gens):
    """H-representation of cone(gens) by eliminating the t-variables from
    { (x, t) : x - sum t_i g_i = 0 (two inequalities each), t >= 0 }."""
    gens = [linalg.primitive(g) for g in gens]
    gens = [g for g in gens if not linalg.is_zero(g)]
    k = len(gens)
    rows = []
    for j in range(dim):
        row = [0] * (dim + k)
        row[j] = 1
        for i, g in enumerate(gens):
            row[dim + i] = -g[j]
        rows.append(tuple(row))
        rows.append(linalg.vec_neg(tuple(row)))
    for i in range(k):
        row = [0] * (dim + k)
        row[dim + i] = 1
        rows.append(tuple(row))
    ineqs = eliminate_tail(rows, dim)
    return [h for h in ineqs if not linalg.is_zero(h)]

