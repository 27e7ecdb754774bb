"""Exact linear algebra: the integer path of `primitive` against a Fraction
reference, and the length check of `dot`."""
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipcone import linalg
from zipcone.errors import DimensionMismatch


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
