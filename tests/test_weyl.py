import itertools

import pytest

from zipcone import linalg, weyl
from zipcone.rootdata import build_root_datum, validate_frobenius

from oracles import inversion_length

U21_SIGMA = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
A3_FLIP = tuple(tuple(-1 if j == 3 - i else 0 for j in range(4)) for i in range(4))


def test_reflect_examples():
    gl2 = build_root_datum(([(1, -1)], [(1, -1)]))
    assert weyl.reflect(gl2, 0, (1, 0)) == (0, 1)
    b2 = build_root_datum("B2")
    assert weyl.reflect(b2, 1, (5, 3)) == (5, -3)  # s_{e2} flips the last sign
    a2 = build_root_datum("A2")
    lam = (1, 1, 0)
    assert linalg.dot(lam, a2.simple_coroots[0]) == 0
    assert weyl.reflect(a2, 0, lam) == lam


def test_longest_element_empty_is_identity():
    rd = build_root_datum("B2")
    w = weyl.longest_element(rd, [])
    assert w.length == 0 and w.matrix == linalg.mat_identity(2)


def test_longest_element_b2_is_minus_one():
    rd = build_root_datum("B2")
    w = weyl.longest_element(rd, [0, 1])
    assert w.length == 4
    assert w.matrix == ((-1, 0), (0, -1))
    assert w.act((3, 4)) == (-3, -4)


def test_longest_element_gl3_single_root():
    rd = build_root_datum("GL3")
    w = weyl.longest_element(rd, [0])
    assert w.length == 1
    assert w.act((1, 2, 3)) == (2, 1, 3)


def test_act_identity_and_composition():
    a2 = build_root_datum("A2")
    e = weyl.identity_element(a2)
    assert e.act((4, -1, 2)) == (4, -1, 2)
    mat = linalg.mat_mul(a2.reflection_matrix(0), a2.reflection_matrix(1))  # s1 o s2
    w = weyl.WeylElement(mat, inversion_length(a2, mat))
    alpha1 = a2.simple_roots[0]
    stepwise = weyl.reflect(a2, 0, weyl.reflect(a2, 1, alpha1))
    assert w.act(alpha1) == stepwise
    assert w.length == 2


def _signed_permutation_matrices():
    """Brute-force oracle for W(B2): all signed 2x2 permutation matrices."""
    out = set()
    for perm in itertools.permutations(range(2)):
        for signs in itertools.product((1, -1), repeat=2):
            out.add(
                tuple(
                    tuple(signs[i] if j == perm[i] else 0 for j in range(2))
                    for i in range(2)
                )
            )
    return out


def test_enumerate_b2_against_signed_permutations():
    rd = build_root_datum("B2")
    els = weyl.enumerate_parabolic(rd, [0, 1])
    assert {w.matrix for w in els} == _signed_permutation_matrices()
    assert sorted(w.length for w in els) == [0, 1, 1, 2, 2, 3, 3, 4]


def test_enumerate_empty_and_a2():
    rd = build_root_datum("A2")
    assert len(weyl.enumerate_parabolic(rd, [])) == 1
    assert len(weyl.enumerate_parabolic(rd, [0, 1])) == 6


@pytest.mark.parametrize(
    "label,order",
    [("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("D4", 192), ("G2", 12)],
)
def test_weyl_group_orders(label, order):
    rd = build_root_datum(label)
    assert len(weyl.enumerate_parabolic(rd, range(rd.r))) == order


def test_lengths_equal_inversion_counts_on_b3():
    rd = build_root_datum("B3")
    for w in weyl.enumerate_parabolic(rd, range(3)):
        assert w.length == inversion_length(rd, w.matrix)


def test_w0_squares_to_identity_and_flips_positives():
    for label, K in (("B3", (0, 1, 2)), ("A3", (0, 2)), ("G2", (0, 1))):
        rd = build_root_datum(label)
        w0 = weyl.longest_element(rd, K)
        assert linalg.mat_mul(w0.matrix, w0.matrix) == linalg.mat_identity(rd.n)
        posK = set(rd.positive_roots(K))
        assert {linalg.vec_neg(w0.act(r)) for r in posK} == posK


def test_sigma_fixed_identity_frobenius_keeps_everything():
    rd = build_root_datum("A2")
    from zipcone.rootdata import split_frobenius

    els = weyl.enumerate_parabolic(rd, range(2))
    assert weyl.sigma_fixed(els, split_frobenius(rd, 2)) == list(els)


def test_sigma_fixed_gl3_inert_trivial_levi():
    rd = build_root_datum("GL3")
    frob = validate_frobenius(rd, 2, U21_SIGMA)
    els = weyl.enumerate_parabolic(rd, [])
    assert [w.length for w in weyl.sigma_fixed(els, frob)] == [0]


def test_sigma_fixed_a3_flip_centralizer():
    # Oracle: brute force over all 24 elements. The centralizer of the flip
    # is the dihedral group of order 8 (the F_q-Weyl group of quasi-split U(4)).
    rd = build_root_datum("A3")
    frob = validate_frobenius(rd, 2, A3_FLIP)
    els = weyl.enumerate_parabolic(rd, range(3))
    brute = [
        w
        for w in els
        if linalg.mat_mul(frob.sigma, w.matrix) == linalg.mat_mul(w.matrix, frob.sigma)
    ]
    fixed = weyl.sigma_fixed(els, frob)
    assert fixed == brute
    assert len(fixed) == 8


def test_opposition_involution_b2_identity_a2_swap_single_trivial():
    b3 = build_root_datum("B3")
    assert weyl.opposition_involution(b3, [1, 2]) == {1: 1, 2: 2}  # type B2
    a2 = build_root_datum("A2")
    assert weyl.opposition_involution(a2, [0, 1]) == {0: 1, 1: 0}
    assert weyl.opposition_involution(a2, [0]) == {0: 0}


def test_min_coset_reps_degenerate_cases():
    rd = build_root_datum("A2")
    assert [w.length for w in weyl.min_coset_reps(rd, range(2))] == [0]
    assert len(weyl.min_coset_reps(rd, [])) == 6


def test_min_coset_reps_b3_centralizer_count():
    # ^{I_alpha} W_I for alpha = e1-e2, I = {e2-e3, e3}, I_alpha = {e3}:
    # cardinality 2(n-1) = 4 for n = 3.
    rd = build_root_datum("B3")
    reps = weyl.min_coset_reps(rd, [2], ambient=[1, 2])
    assert len(reps) == 4


def _filtered_ambient(rd, indices, ambient):
    """Oracle: enumerate all of W_ambient and keep the w with w^{-1}(alpha_k)
    positive for every k in K."""
    out = []
    for w in weyl.enumerate_parabolic(rd, ambient):
        inv = linalg.mat_inverse(w.matrix)
        if all(
            rd.is_positive_root_vector(linalg.mat_vec(inv, rd.simple_roots[k]))
            for k in indices
        ):
            out.append(w)
    return out


@pytest.mark.parametrize(
    "label,K,ambient",
    [
        ("A2", (0, 1), (0, 1)),
        ("A2", (), (0, 1)),
        ("B3", (2,), (1, 2)),
        ("B2", (0,), (0, 1)),
        ("B3", (1, 2), (0, 1, 2)),
        ("A3", (0, 2), (0, 1, 2)),
        ("D4", (0, 2, 3), (0, 1, 2, 3)),
        ("G2", (0,), (0, 1)),
        ("B3", (0,), (1, 2)),  # K outside the ambient: all of W_ambient
    ],
)
def test_min_coset_reps_equals_filtered_ambient_enumeration(label, K, ambient):
    rd = build_root_datum(label)
    assert weyl.min_coset_reps(rd, K, ambient=ambient) == _filtered_ambient(rd, K, ambient)


def test_min_coset_reps_cap_holds_for_cached_results():
    from zipcone.errors import CapExceeded

    rd = build_root_datum("B3")
    assert len(weyl.min_coset_reps(rd, (1, 2))) == 6  # 48 / 8
    with pytest.raises(CapExceeded):
        weyl.min_coset_reps(rd, (1, 2), cap=5)


@pytest.mark.parametrize("label,K,Kp", [("B2", (0, 1), (0,)), ("B3", (0, 1, 2), (1, 2)), ("A3", (0, 1, 2), (0, 2))])
def test_coset_factorization_is_unique_and_length_additive(label, K, Kp):
    rd = build_root_datum(label)
    wk = weyl.enumerate_parabolic(rd, K)
    wkp = weyl.enumerate_parabolic(rd, Kp)
    reps = weyl.min_coset_reps(rd, Kp, ambient=K)
    seen = {}
    for u in wkp:
        for v in reps:
            w = linalg.mat_mul(u.matrix, v.matrix)
            assert w not in seen, "factorization not unique"
            seen[w] = u.length + v.length
    assert len(seen) == len(wk)
    for w in wk:
        assert seen[w.matrix] == w.length


def test_enumeration_cap_via_env(monkeypatch):
    from zipcone.errors import CapExceeded

    monkeypatch.setenv("ZIPCONE_ENUM_CAP", "3")
    rd = build_root_datum("B2")
    with pytest.raises(CapExceeded) as exc:
        weyl.enumerate_parabolic(rd, [0, 1])
    assert exc.value.partial_count is not None


def test_parabolic_lengths_agree_with_ambient_inversions():
    # ell in W_K equals ell in W for elements of a parabolic subgroup
    rd = build_root_datum("B3")
    for w in weyl.enumerate_parabolic(rd, [1, 2]):
        assert w.length == inversion_length(rd, w.matrix)
