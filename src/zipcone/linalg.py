"""Exact linear algebra over Z and Q on tuple-based vectors and matrices.

Vectors are tuples of ints or Fractions; matrices are tuples of row tuples.
Everything here is exact; no floats anywhere.
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


def mat_eq(a: Mat, b: Mat) -> bool:
    return all(tuple(r1) == tuple(r2) for r1, r2 in zip(a, b))


def mat_order(m: Mat, cap: int = 10000) -> int:
    """Multiplicative order of m, or raise if it exceeds cap."""
    n = len(m)
    ident = mat_identity(n)
    cur = m
    for k in range(1, cap + 1):
        if mat_eq(cur, ident):
            return k
        cur = mat_mul(cur, m)
    raise SingularMap(f"matrix order exceeds cap {cap}")


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse with Fraction entries (entries stay int when unimodular)."""
    n = len(m)
    aug = [[Q(m[i][j]) for j in range(n)] + [Q(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMap("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))
    if all(x.denominator == 1 for row in inv for x in row):
        inv = tuple(tuple(int(x) for x in row) for row in inv)
    return inv


def rank(rows) -> int:
    return len(rref(rows)[0])


def rref(rows):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_columns); rref_rows contains no zero rows.
    The RREF is the canonical basis of the row space.
    """
    mat = [[Q(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def solve_in_span(basis, target):
    """Coefficients c with sum(c_i * basis_i) == target, or None if not in span."""
    if not basis:
        return None if not is_zero(target) else ()
    ncols = len(basis[0])
    rows = [[Q(b[j]) for b in basis] + [Q(target[j])] for j in range(ncols)]
    m = len(basis)
    r = 0
    pivots = []
    for col in range(m):
        piv = next((i for i in range(r, ncols) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(ncols):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, ncols):
        if rows[i][m] != 0:
            return None
    coeffs = [Q(0)] * m
    for i, col in enumerate(pivots):
        coeffs[col] = rows[i][m]
    return tuple(coeffs)


def canonical_subspace_basis(rows):
    """Canonical primitive-integer basis of the Q-span of the given rows.

    RREF rows are unique for a given row space; scaling each to a primitive
    integer vector keeps that uniqueness.
    """
    red, _ = rref(rows)
    return tuple(primitive(row) for row in red)


def reduce_mod_subspace(vec, rref_rows, pivots):
    """Unique representative of vec modulo the row space of an RREF basis."""
    v = [Q(x) for x in vec]
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            f = v[col]  # rref pivot entry is 1
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)
