"""Exact linear algebra: the integer path of `primitive` and the integer
elimination of `rref` and the routines built on it, each against a Fraction
reference, and the length check of `dot`."""
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import linalg
from zipcone.errors import DimensionMismatch, SingularMap


def primitive_reference(x):
    """Clear denominators over Q, then divide by the gcd of the numerators."""
    fr = [Fraction(a) for a in x]
    den = lcm(*(a.denominator for a in fr))
    ints = [int(a * den) for a in fr]
    g = gcd(*ints)
    return tuple(ints) if g == 0 else tuple(a // g for a in ints)


BIG = st.integers(-(10 ** 40), 10 ** 40)
SMALL = st.integers(-6, 6)
INT_VECTORS = (
    st.lists(BIG | SMALL, max_size=8)
    | st.lists(st.just(0), max_size=8)
    | st.lists(BIG, min_size=1, max_size=1)
    | st.lists(SMALL, max_size=8).map(lambda v: [-60 * a for a in v])
)
FRACTIONS = st.fractions(max_denominator=10 ** 6).map(lambda f: f * 10 ** 30)
MIXED_VECTORS = st.lists(FRACTIONS | BIG | SMALL, min_size=1, max_size=8)


@given(INT_VECTORS.map(tuple))
def test_primitive_on_int_vectors_matches_fraction_reference(x):
    out = linalg.primitive(x)
    assert out == primitive_reference(x)
    assert all(type(a) is int for a in out)


@given(MIXED_VECTORS)
def test_primitive_on_fraction_and_mixed_vectors_matches_reference(x):
    out = linalg.primitive(x)
    assert out == primitive_reference(x)
    assert all(type(a) is int for a in out)


def test_primitive_examples():
    assert linalg.primitive((2, -4)) == (1, -2)
    assert linalg.primitive((-2, 4)) == (-1, 2)
    assert linalg.primitive([0, 0, 0]) == (0, 0, 0)
    assert linalg.primitive((-7,)) == (-1,)
    assert linalg.primitive(()) == ()
    assert linalg.primitive((Fraction(1, 2), 3)) == (1, 6)


@pytest.mark.parametrize("x,y", [((1, 2), (3,)), ((), (1,)), ((1, 2, 3), (1, 2))])
def test_dot_rejects_length_mismatch(x, y):
    with pytest.raises(DimensionMismatch):
        linalg.dot(x, y)


def test_dot_values():
    assert linalg.dot((1, -2, 3), (4, 5, -6)) == -24
    assert linalg.dot((), ()) == 0
    assert linalg.dot((Fraction(1, 2), 2), (2, Fraction(1, 4))) == Fraction(3, 2)


# -- integer elimination ------------------------------------------------------


def rref_reference(rows):
    """Gauss-Jordan over Fraction: pivot entries 1, every pivot column
    cleared above and below."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [a / mat[r][col] for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def reduce_reference(vec, rows, pivots):
    v = [Fraction(a) for a in vec]
    for row, col in zip(rows, pivots):
        f = v[col]
        v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


KINDS = ("new",) * 6 + ("zero", "copy")  # mostly fresh rows, so most square draws invert


@st.composite
def int_matrices(draw, square=False):
    """Up to 6 rows of length up to 7 (n x n for square, n <= 6), entries up
    to +-20; rows may be zero or scaled copies of earlier ones."""
    ncols = draw(st.integers(1, 6 if square else 7))
    nrows = ncols if square else draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(KINDS if rows else KINDS[:-1]))
        if kind == "copy":
            k = draw(st.integers(-3, 3))
            rows.append(tuple(k * a for a in draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append((0,) * ncols)
        else:
            rows.append(tuple(draw(st.lists(st.integers(-20, 20), min_size=ncols, max_size=ncols))))
    return rows


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rref_is_primitive_fraction_rref_with_positive_pivots(rows):
    red, pivots = linalg.rref(rows)
    ref, ref_pivots = rref_reference(rows)
    assert pivots == ref_pivots
    assert red == [linalg.primitive(row) for row in ref]
    assert all(row[col] > 0 for row, col in zip(red, pivots))
    assert all(type(a) is int for row in red for a in row)
    assert linalg.rank(rows) == len(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_mod_subspace_is_positive_multiple_of_reference(data):
    rows = data.draw(int_matrices())
    n = len(rows[0]) if rows else data.draw(st.integers(1, 7))
    vec = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    red, pivots = linalg.rref(rows)
    ref, ref_pivots = rref_reference(rows)
    out = linalg.reduce_mod_subspace(vec, red, pivots)
    assert all(type(a) is int for a in out)
    # primitive scales by a positive rational only, so equal primitive forms
    # mean out is a positive multiple of the reference
    assert linalg.primitive(out) == linalg.primitive(reduce_reference(vec, ref, ref_pivots))


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_mat_inverse_inverts_or_raises_singular(m):
    n = len(m)
    if len(rref_reference(m)[0]) < n:
        with pytest.raises(SingularMap):
            linalg.mat_inverse(m)
        return
    inv = linalg.mat_inverse(m)
    assert linalg.mat_mul(inv, m) == linalg.mat_identity(n)
    assert linalg.mat_mul(m, inv) == linalg.mat_identity(n)
    integral = all(Fraction(a).denominator == 1 for row in inv for a in row)
    assert all(type(a) is int for row in inv for a in row) == integral


def test_mat_inverse_of_unimodular_is_int():
    m = ((1, 2, 0), (0, 1, 0), (1, 1, 1))
    inv = linalg.mat_inverse(m)
    assert inv == ((1, -2, 0), (0, 1, 0), (-1, 1, 1))
    assert linalg.mat_inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    assert linalg.mat_inverse(((2, 0), (0, 1))) == ((Fraction(1, 2), 0), (0, 1))
    with pytest.raises(SingularMap):
        linalg.mat_inverse(((1, 1), (1, 1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_in_span_reconstructs_or_rank_rises(data):
    basis = data.draw(int_matrices())
    n = len(basis[0]) if basis else data.draw(st.integers(1, 7))
    if basis and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
        target = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
    else:
        target = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    coeffs = linalg.solve_in_span(basis, target)
    rank = len(rref_reference(basis)[0])
    rises = len(rref_reference(basis + [target])[0]) > rank
    assert (coeffs is None) == rises
    if coeffs is not None:
        assert len(coeffs) == len(basis)
        assert tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)) == target
