"""Exact linear algebra over Z and Q on tuple-based vectors and matrices.

Vectors are tuples of ints or Fractions; matrices are tuples of row tuples.
Everything here is exact; no floats anywhere.  All elimination goes
through one fraction-free integer `rref`.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from operator import mul

from .errors import DimensionMismatch, SingularMap

Vec = tuple
Mat = tuple


def dot(x: Vec, y: Vec):
    """Exact inner product; the two bases are dual by construction."""
    if len(x) != len(y):
        raise DimensionMismatch(f"length {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def vec_neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def primitive(x: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers.

    Does not flip sign: (2,-4) -> (1,-2), (-2,4) -> (-1,2).  Integer input
    is divided by its gcd directly; anything else goes through Fraction.
    """
    if all(type(a) is int for a in x):
        g = gcd(*x)
        if g <= 1:  # 0: the zero vector; 1: already primitive
            return tuple(x)
        return tuple(a // g for a in x)
    fr = [Q(a) for a in x]
    den = 1
    for a in fr:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    if g == 0:
        return tuple(0 for _ in x)
    return tuple(a // g for a in ints)


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Mat, x: Vec) -> Vec:
    if len(m[0]) != len(x):
        raise DimensionMismatch(f"matrix width {len(m[0])} vs vector {len(x)}")
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_pow(m: Mat, k: int) -> Mat:
    n = len(m)
    out = mat_identity(n)
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def mat_order(m: Mat, cap: int = 10000) -> int:
    """Multiplicative order of m, or raise if it exceeds cap."""
    n = len(m)
    ident = mat_identity(n)
    cur = m
    for k in range(1, cap + 1):
        if cur == ident:
            return k
        cur = mat_mul(cur, m)
    raise SingularMap(f"matrix order exceeds cap {cap}")


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse: the RREF of [m | I] is [I | m^-1].

    Entries are ints when m is unimodular and Fractions otherwise; a singular
    m raises SingularMap.
    """
    n = len(m)
    red, pivots = rref([tuple(row) + tuple(1 if i == j else 0 for j in range(n))
                        for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise SingularMap("matrix is singular")
    # row i is d * (e_i | row i of m^-1) with d > 0 its pivot entry
    if all(row[i] == 1 for i, row in enumerate(red)):
        return tuple(row[n:] for row in red)
    return tuple(tuple(Q(a, row[i]) for a in row[n:]) for i, row in enumerate(red))


def rank(rows) -> int:
    return len(rref(rows)[0])


def rref(rows):
    """Reduced row echelon form over Q, computed in integers.

    Returns (rows, pivot_columns) without zero rows.  Each returned row is the
    primitive integer multiple of the matching RREF row, with a positive
    pivot entry, so the rows are a canonical basis of the row space.  The
    elimination is fraction-free: each row operation cross-multiplies by the
    pivot and makes the row primitive again.  Rational input rows are scaled
    to integer rows first, which leaves the row space unchanged.
    """
    mat = [primitive(row) for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        row = mat[piv] if mat[piv][col] > 0 else vec_neg(mat[piv])
        mat[piv], mat[r] = mat[r], row
        p = row[col]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f != 0:
                mat[i] = primitive(tuple(p * a - f * b for a, b in zip(mat[i], row)))
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def solve_in_span(basis, target):
    """Coefficients c with sum(c_i * basis_i) == target, or None if not in span.

    Row-reduces [B^T | target]: target is in the span iff its column holds no
    pivot; the coefficients of the columns without a pivot are 0.
    """
    m = len(basis)
    red, pivots = rref([tuple(b[j] for b in basis) + (target[j],) for j in range(len(target))])
    if m in pivots:
        return None
    coeffs = [Q(0)] * m
    for row, col in zip(red, pivots):
        coeffs[col] = Q(row[m], row[col])
    return tuple(coeffs)


def reduce_mod_subspace(vec, rows, pivots):
    """A positive multiple of the unique representative of vec modulo the row
    space of an `rref` basis: each pivot entry is cleared by cross-multiplying
    with the positive pivot of its row."""
    v = tuple(vec)
    for row, col in zip(rows, pivots):
        f = v[col]
        if f != 0:
            p = row[col]
            v = tuple(p * a - f * b for a, b in zip(v, row))
    return v
