from fractions import Fraction
from itertools import combinations

import pytest

from zipcone import hasse, linalg
from zipcone.errors import (
    BadParams,
    DimensionMismatch,
    DoesNotPreserveBase,
    InvalidCartan,
    NotAnAutomorphism,
)
from zipcone.rootdata import (
    build_root_datum,
    cartan_matrix,
    datum_from_cartan,
    pair,
    perm_orbits,
    split_frobenius,
    validate_frobenius,
)

U21_SIGMA = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


def test_b2_preset_matches_coordinates():
    rd = build_root_datum("B2")
    assert rd.simple_roots == ((1, -1), (0, 1))
    assert rd.simple_coroots == ((1, -1), (0, 2))


def test_gl3_preset():
    rd = build_root_datum("GL3")
    assert rd.simple_roots == ((1, -1, 0), (0, 1, -1))
    assert rd.simple_coroots == rd.simple_roots


def test_explicit_a1_in_gl2_form():
    rd = build_root_datum(([(1, -1)], [(1, -1)]))
    assert rd.n == 2 and rd.r == 1
    assert rd.cartan() == ((2,),)


def test_so7_alias_is_b3():
    assert build_root_datum("SO7").simple_roots == build_root_datum("B3").simple_roots


@pytest.mark.parametrize(
    "label", ["GLx", "GL", "SOx", "SO", "Ax", "A", "GL0", "GL-1", "GL 3", "SO8", "SO1", "E9", "X3"]
)
def test_bad_type_label_raises_invalid_cartan(label):
    with pytest.raises(InvalidCartan):
        build_root_datum(label)


TABLE_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"{letter}{n}" for letter in "BC" for n in range(2, 13)]
    + [f"D{n}" for n in range(3, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_cartan_table_is_the_datum_cartan(label):
    assert build_root_datum(label).cartan() == cartan_matrix(label[0], int(label[1:]))


@pytest.mark.parametrize("label", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2"])
def test_cartan_table_and_datum_reject_the_same_labels(label):
    with pytest.raises(InvalidCartan):
        cartan_matrix(label[0], int(label[1:]))
    with pytest.raises(InvalidCartan):
        build_root_datum(label)


def test_invalid_cartan_rejected():
    # <a1, a2^vee> * <a2, a1^vee> = 4: affine A1~, not finite type
    with pytest.raises(InvalidCartan):
        build_root_datum(([(2, 0), (-2, 0)], [(1, 0), (-1, 0)]))
    with pytest.raises(InvalidCartan):
        build_root_datum(([(1, -1, 0), (2, -2, 0)], [(1, -1, 0), (1, -1, 0)]))


def test_positive_roots_a2_and_b2():
    a2 = build_root_datum("A2")
    assert set(a2.positive_roots()) == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}
    b2 = build_root_datum("B2")
    assert set(b2.positive_roots()) == {(1, -1), (0, 1), (1, 0), (1, 1)}


def _closure_by_hand(simple_roots, simple_coroots, height_cap):
    """Independent oracle: raw reflection closure up to a height cap."""
    n = len(simple_roots[0])

    def refl(k, v):
        coeff = sum(a * b for a, b in zip(v, simple_coroots[k]))
        return tuple(x - coeff * a for x, a in zip(v, simple_roots[k]))

    roots = set(simple_roots)
    changed = True
    while changed:
        changed = False
        for v in list(roots):
            for k in range(len(simple_roots)):
                w = refl(k, v)
                if w not in roots and linalg.vec_neg(w) not in roots:
                    roots.add(w)
                    changed = True
    return roots


def _sub_closure_with_coroots(rd, indices):
    """Independent oracle: the reflection closure over the simple roots of
    `indices` alone, carrying coroots and coefficients, in the order by
    height, then lex."""
    pairs, coeffs, work = {}, {}, []
    for i in indices:
        pairs[rd.simple_roots[i]] = rd.simple_coroots[i]
        coeffs[rd.simple_roots[i]] = tuple(int(k == i) for k in range(rd.r))
        work.append(rd.simple_roots[i])
    while work:
        root = work.pop()
        for i in indices:
            a, av = rd.simple_roots[i], rd.simple_coroots[i]
            p = linalg.dot(root, av)
            image = tuple(x - p * y for x, y in zip(root, a))
            if image in pairs or linalg.vec_neg(image) in pairs:
                continue
            c = list(coeffs[root])
            c[i] -= p
            coroot = pairs[root]
            pairs[image] = tuple(x - linalg.dot(a, coroot) * y for x, y in zip(coroot, av))
            coeffs[image] = tuple(c)
            work.append(image)
    order = sorted(pairs, key=lambda root: (sum(coeffs[root]), root))
    return tuple((root, pairs[root]) for root in order)


@pytest.mark.parametrize(
    "label", [t for t in TABLE_TYPES if int(t[1:]) <= 6] + ["SO3", "GL4"]
)
def test_sub_system_roots_match_a_closure_over_the_subset(label):
    rd = build_root_datum(label)
    for size in range(rd.r + 1):
        for indices in combinations(range(rd.r), size):
            got = rd.positive_roots_with_coroots(indices)
            assert got == _sub_closure_with_coroots(rd, indices), (label, indices)
            for root, coroot in got:
                assert rd.coroot_of(root) == coroot
                assert rd.coroot_of(linalg.vec_neg(root)) == linalg.vec_neg(coroot)


def test_g2_has_six_positive_roots():
    g2 = build_root_datum("G2")
    closure = _closure_by_hand(g2.simple_roots, g2.simple_coroots, 6)
    positive = {r for r in closure if g2.is_positive_root_vector(r)}
    assert len(positive) == 6
    assert set(g2.positive_roots()) == positive


@pytest.mark.parametrize(
    "source,name",
    [("cartan", f"{letter}{n}") for letter, n in hasse.CONNECTED_TYPES]
    + [("label", label) for label in
       ("GL2", "GL5", "A3", "B2", "B5", "C2", "C4", "D3", "D5", "SO3", "SO9")],
)
def test_closure_coefficients_match_linear_solve(source, name):
    if source == "cartan":
        rd = datum_from_cartan(hasse.cartan_matrix(name[0], int(name[1:])))
    else:
        rd = build_root_datum(name)
    for root in rd.positive_roots():
        want = linalg.solve_in_span(rd.simple_roots, root)
        assert rd.root_coefficients(root) == want, (name, root)
        assert rd.root_coefficients(linalg.vec_neg(root)) == linalg.vec_neg(want)
        assert rd.is_positive_root_vector(root)
        assert not rd.is_positive_root_vector(linalg.vec_neg(root))


def test_root_coefficients_reject_non_roots():
    rd = build_root_datum("B3")
    for vec in ((0, 0, 0), (2, -2, 0), (1, 1, 1)):
        with pytest.raises(DimensionMismatch):
            rd.root_coefficients(vec)


def test_perm_orbits_walk_from_smallest_unvisited_index():
    assert perm_orbits((0, 1, 2)) == [(0,), (1,), (2,)]
    assert perm_orbits((2, 3, 1, 0)) == [(0, 2, 1, 3)]
    assert perm_orbits((1, 0, 4, 3, 2)) == [(0, 1), (2, 4), (3,)]
    assert perm_orbits(()) == []


@pytest.mark.parametrize(
    "label,count",
    [("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9),
     ("B4", 16), ("C3", 9), ("D4", 12), ("G2", 6)],
)
def test_positive_root_counts_match_closed_forms(label, count):
    rd = build_root_datum(label)
    assert len(rd.positive_roots()) == count


def test_pairing_examples():
    assert pair((1, 0, 0), (1, -1, 0)) == 1
    b2 = build_root_datum("B2")
    assert pair((3, 1), b2.simple_coroots[1]) == 2
    assert pair((0, 0), (5, -7)) == 0


def test_simple_pairings_are_two():
    for label in ("A3", "B4", "C3", "D4", "G2", "F4", "E6"):
        rd = build_root_datum(label)
        for a, av in zip(rd.simple_roots, rd.simple_coroots):
            assert pair(a, av) == 2


def test_frobenius_gl3_inert():
    rd = build_root_datum("GL3")
    frob = validate_frobenius(rd, 2, U21_SIGMA)
    assert frob.sigma_order == 2
    assert frob.sigma_perm == (1, 0)


def test_frobenius_identity():
    rd = build_root_datum("B3")
    frob = split_frobenius(rd, 5)
    assert frob.sigma_order == 1
    assert frob.sigma_perm == (0, 1, 2)


def test_frobenius_minus_identity_rejected():
    rd = build_root_datum("GL3")
    minus = tuple(tuple(-1 if i == j else 0 for j in range(3)) for i in range(3))
    with pytest.raises(DoesNotPreserveBase):
        validate_frobenius(rd, 2, minus)


@pytest.mark.parametrize(
    "sigma",
    [
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((1, 1, 0), (-1, 1, 0), (0, 0, 1)),
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ],
    ids=["singular", "det-2", "shear"],
)
def test_frobenius_without_finite_order_rejected(sigma):
    with pytest.raises(NotAnAutomorphism):
        validate_frobenius(build_root_datum("GL3"), 2, sigma)


@pytest.mark.parametrize(
    "q,sigma",
    [
        (2, [[1.7, 0], [0, 1.2]]),
        (2, [[1.0, 0], [0, 1]]),
        (2, [[True, 0], [0, 1]]),
        (2, [[Fraction(1), 0], [0, 1]]),
        (2.5, [[1, 0], [0, 1]]),
        (2.0, [[1, 0], [0, 1]]),
        (True, [[1, 0], [0, 1]]),
    ],
    ids=["float-sigma", "integral-float-sigma", "bool-sigma", "fraction-sigma", "float-q",
         "integral-float-q", "bool-q"],
)
def test_frobenius_requires_integers(q, sigma):
    with pytest.raises(BadParams):
        validate_frobenius(build_root_datum("GL2"), q, sigma)


def test_frobenius_q_too_small():
    rd = build_root_datum("GL3")
    with pytest.raises(NotAnAutomorphism):
        validate_frobenius(rd, 1, linalg.mat_identity(3))


def test_sigma_permutes_positive_roots():
    rd = build_root_datum("GL3")
    frob = validate_frobenius(rd, 2, U21_SIGMA)
    pos = set(rd.positive_roots())
    assert {linalg.mat_vec(frob.sigma, r) for r in pos} == pos


def test_dual_action_preserves_pairing():
    import random

    rd = build_root_datum("GL3")
    frob = validate_frobenius(rd, 3, U21_SIGMA)
    rnd = random.Random(7)
    for _ in range(50):
        lam = tuple(rnd.randint(-9, 9) for _ in range(3))
        delta = tuple(rnd.randint(-9, 9) for _ in range(3))
        lhs = pair(linalg.mat_vec(frob.sigma, lam), linalg.mat_vec(frob.sigma_costar, delta))
        assert lhs == pair(lam, delta)
