"""Dynkin-triple machinery: opposition condition, classification, filters."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import catalog, hasse, rootdata, weyl, zipcones
from zipcone.errors import InvalidCartan, RankTooLarge
from zipcone.rootdata import datum_from_cartan


def triple(label, I, sigma=None):
    letter, rank = label[0], int(label[1:])
    cart = hasse.cartan_matrix(letter, rank)
    sigma = tuple(range(rank)) if sigma is None else tuple(sigma)
    return hasse.DynkinTriple(label, cart, tuple(sorted(v - 1 for v in I)), sigma)


def test_component_type_recognition():
    b4 = hasse.cartan_matrix("B", 4)
    assert hasse.component_type(b4, [0, 1, 2, 3]) == "B4"
    assert hasse.component_type(b4, [1, 2, 3]) == "B3"
    assert hasse.component_type(b4, [2, 3]) == "B2"
    assert hasse.component_type(b4, [0, 1]) == "A2"
    c3 = hasse.cartan_matrix("C", 3)
    assert hasse.component_type(c3, [0, 1, 2]) == "C3"
    assert hasse.component_type(c3, [1, 2]) == "B2"
    e7 = hasse.cartan_matrix("E", 7)
    assert hasse.component_type(e7, range(7)) == "E7"
    assert hasse.component_type(e7, [1, 2, 3, 4]) == "D4"
    assert hasse.component_type(e7, [1, 2, 3, 4, 5, 6]) == "D6"
    d5 = hasse.cartan_matrix("D", 5)
    assert hasse.component_type(d5, range(5)) == "D5"
    assert hasse.component_type(d5, [2, 3, 4]) == "A3"
    # not of finite type: a cycle (affine A2) and a triple edge in rank 3
    for bad in (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), ((2, -3, 0), (-1, 2, -1), (0, -1, 2))):
        with pytest.raises(InvalidCartan):
            hasse.component_type(bad, range(3))


def test_diagram_automorphisms():
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("A", 3))) == 2
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("B", 3))) == 1
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("D", 4))) == 6
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("D", 5))) == 2
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("E", 6))) == 2
    assert len(hasse.diagram_automorphisms(hasse.cartan_matrix("E", 7))) == 1


def test_opposition_condition_examples():
    # B2 inside B3 with sigma = 1: opposition involution is trivial
    assert hasse.opposition_condition(triple("B3", [2, 3]))
    # A2 inside A3 with sigma = 1: fails (nontrivial opposition)
    assert not hasse.opposition_condition(triple("A3", [1, 2]))
    # full A3 with the flip: passes
    assert hasse.opposition_condition(triple("A3", [1, 2, 3], sigma=(2, 1, 0)))


def test_sigma_moving_isolated_vertex_fails_literal_condition():
    # A1 x A1 with the swap and I = both vertices
    cart = ((2, 0), (0, 2))
    t = hasse.DynkinTriple("A1+A1", cart, (0, 1), (1, 0))
    assert not hasse.opposition_condition(t)
    # with I empty it passes vacuously
    t0 = hasse.DynkinTriple("A1+A1", cart, (), (1, 0))
    assert hasse.opposition_condition(t0)


def test_adding_sigma_fixed_isolated_vertex_preserves_condition():
    # (B4, B2, 1) passes; adding the isolated sigma-fixed vertex 1 keeps it
    assert hasse.opposition_condition(triple("B4", [3, 4]))
    assert hasse.opposition_condition(triple("B4", [1, 3, 4]))
    # (B4, A2, 1) fails; adding vertex 1 cannot fix it
    assert not hasse.opposition_condition(triple("B4", [2, 3]))
    assert not hasse.opposition_condition(triple("B4", [2, 3, 1]))


def test_triple_validation():
    with pytest.raises(InvalidCartan):
        triple("A3", [1, 2], sigma=(2, 1, 0))  # I not sigma-stable
    with pytest.raises(InvalidCartan):
        hasse.DynkinTriple("A2", hasse.cartan_matrix("A", 2), (), (1, 0, 2))
    with pytest.raises(InvalidCartan):  # affine A2, a cycle
        hasse.DynkinTriple("A2~", ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (), (0, 1, 2))


def test_trivial_opposition_list_matches_lemma():
    # connected diagrams with -w0 = 1: A1, B_n, C_n, D_even, G2, F4, E7, E8
    trivial = {"A1", "B2", "B3", "B4", "B5", "B6", "C3", "C4", "C5", "C6",
               "D4", "D6", "G2", "F4"}
    for label, rank, cart in hasse.connected_diagrams(6):
        t = hasse.DynkinTriple(label, cart, tuple(range(rank)), tuple(range(rank)))
        assert hasse.opposition_condition(t) == (label in trivial), label


def test_classify_rank_four_sigma_trivial_list():
    # the spec's worked list: B2/B3/B4 and C3/C4 multi-laced-end sub-diagrams,
    # D4 full, G2 full, F4's B2/B3/C3/F4
    triples = hasse.classify(4, connected_only=True)
    got = {
        (t.label, t.i_type_desc())
        for t in triples
        if t.sigma_desc() == "()" and t.I and not t.isolated_i_vertices()
    }
    expect = {
        ("B2", "B2"), ("B3", "B2"), ("B3", "B3"), ("B4", "B2"), ("B4", "B3"),
        ("B4", "B4"), ("C3", "B2"), ("C3", "C3"), ("C4", "B2"), ("C4", "C3"),
        ("C4", "C4"), ("D4", "D4"), ("G2", "G2"), ("F4", "B2"), ("F4", "B3"),
        ("F4", "C3"), ("F4", "F4"),
    }
    assert got == expect


def test_classify_d4_transpositions_and_e6():
    triples = [t for t in hasse.classify(6, connected_only=True) if not t.isolated_i_vertices()]
    d4 = {(t.sigma_desc(), tuple(v + 1 for v in t.I)) for t in triples if t.label == "D4" and t.sigma_desc() != "()" and t.I}
    assert d4 == {("(3 4)", (2, 3, 4)), ("(1 3)", (1, 2, 3)), ("(1 4)", (1, 2, 4))}
    e6 = {tuple(v + 1 for v in t.I) for t in triples if t.label == "E6" and t.sigma_desc() != "()" and t.I}
    assert e6 == {(3, 4, 5), (1, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)}


def test_classify_rank_cap():
    with pytest.raises(RankTooLarge):
        hasse.classify(9)


def test_is_maximal_and_hodge_examples():
    for n in (2, 4, 6):
        t = triple(f"B{n}", range(2, n + 1))
        assert hasse.is_maximal(t) and hasse.hodge_filter(t)
    t = triple("C4", range(2, 5))
    assert hasse.is_maximal(t) and not hasse.hodge_filter(t)
    e8 = triple("E8", range(1, 8))
    assert hasse.is_maximal(e8) and not hasse.hodge_filter(e8)
    assert not hasse.is_maximal(triple("B4", [3, 4]))
    d5 = triple("D5", range(2, 6))
    assert hasse.is_maximal(d5) and hasse.hodge_filter(d5)
    d5_swapped = triple("D5", range(2, 6), sigma=(0, 1, 2, 4, 3))
    assert not hasse.hodge_filter(d5_swapped)


def test_hilbert_pattern_hodge():
    cart = ((2, 0), (0, 2))
    swap = hasse.DynkinTriple("A1+A1", cart, (), (1, 0))
    assert hasse.is_maximal(swap) and hasse.hodge_filter(swap)


def test_bridge_between_context_and_triple():
    # the induced triple exists whenever sigma stabilizes I as a set, and
    # then the lattice-level and diagram-level tests agree
    checked = 0
    for name, ctx in catalog.standard_catalog(2):
        perm = ctx.frob.sigma_perm
        if {perm[i] for i in ctx.I} != set(ctx.I):
            assert not zipcones.is_hasse_type(ctx), name
            continue
        t = hasse.triple_from_context(ctx)
        assert zipcones.is_hasse_type(ctx) == hasse.opposition_condition(t), name
        checked += 1
    assert checked >= 6


def test_compare_with_expected_small_rank():
    diffs = hasse.compare_with_expected(5)
    for table, d in diffs.items():
        assert not d["missing"] and not d["unexpected"], (table, d)


def test_classification_entry_shape():
    t = triple("B3", [2, 3])
    entry = hasse.classification_entry(t)
    assert entry == {
        "diagram_type": "B3",
        "rank": 3,
        "sigma_desc": "()",
        "I_desc": [2, 3],
        "I_type": "B2",
        "maximal": True,
        "hodge": True,
    }


def test_disconnected_enumeration_small():
    triples = hasse.classify(2, connected_only=False)
    labels = {t.label for t in triples}
    assert "A1+A1" in labels
    # the swap on A1+A1 appears only with I empty
    swapped = [t for t in triples if t.label == "A1+A1" and t.sigma_desc() != "()"]
    assert swapped and all(not t.I for t in swapped)


def test_disconnected_condition_decomposes_over_sigma_orbits():
    # a triple passes iff each sigma-orbit of components passes, and an orbit
    # moved by sigma passes only with empty I on it
    triples = hasse.classify(4, connected_only=False)
    seen_moved_orbit = False
    for t in triples:
        # the condition itself keeps only sigma-fixed isolated I-vertices
        assert all(t.sigma[v] == v for v in t.isolated_i_vertices()), t.descriptor()
        comps = hasse._components(t.cartan)
        for comp in comps:
            img = {t.sigma[v] for v in comp}
            if img != set(comp):
                assert not (set(comp) & set(t.I)), t.descriptor()
                seen_moved_orbit = True
    assert seen_moved_orbit


def test_disconnected_sigma_trivial_componentwise():
    # with sigma = 1 a disconnected triple passes iff every component does
    cart_b2 = hasse.cartan_matrix("B", 2)
    cart = tuple(
        tuple((cart_b2[i][j] if i < 2 and j < 2 else (cart_b2[i - 2][j - 2] if i >= 2 and j >= 2 else 0)) for j in range(4))
        for i in range(4)
    )
    ident = (0, 1, 2, 3)
    good = hasse.DynkinTriple("B2+B2", cart, (0, 1, 2, 3), ident)
    assert hasse.opposition_condition(good)
    half = hasse.DynkinTriple("B2+B2", cart, (0, 1), ident)
    assert hasse.opposition_condition(half)


# -- the type rule against the literal -w_{0,I} ---------------------------------


def literal_involution(sub):
    """-w_0 of a connected Cartan matrix, from its longest Weyl element."""
    return weyl.opposition_involution(datum_from_cartan(sub), range(len(sub)))


def literal_condition(t, oracle):
    """The opposition condition with -w_{0,I} computed in a root datum;
    `oracle` keeps each sub-Cartan's involution for the test's duration."""
    opposition = {}
    for comp in hasse._components(t.cartan, t.I):
        sub, vs = hasse._induced(t.cartan, comp)
        if sub not in oracle:
            oracle[sub] = literal_involution(sub)
        opposition.update((vs[i], vs[j]) for i, j in oracle[sub].items())
    return all(t.sigma[v] == opposition[v] for v in t.I)


def type_rule(sub):
    return dict(enumerate(hasse._connected_facts(sub)[1]))


@pytest.mark.parametrize("letter,rank", hasse.CONNECTED_TYPES, ids=lambda x: str(x))
def test_type_rule_matches_literal_involution_on_connected_types(letter, rank):
    sub = hasse.cartan_matrix(letter, rank)
    assert type_rule(sub) == literal_involution(sub)


def test_type_rule_matches_literal_involution_on_met_sub_diagrams():
    triples = hasse.classify(5, connected_only=False)
    met = triples[0].facts.diagram.subs
    assert len(met) > 10
    for sub in met:
        assert type_rule(sub) == literal_involution(sub), sub


def candidate_triples(max_rank, connected_only):
    """Every (diagram, sigma, sigma-stable I) that `classify` tests."""
    diagrams = hasse.connected_diagrams(max_rank)
    if not connected_only:
        diagrams = diagrams + hasse._disconnected_diagrams(max_rank)
    for label, _, cart in diagrams:
        for sigma in hasse.diagram_automorphisms(cart):
            for subset in hasse._sigma_stable_subsets(sigma):
                yield hasse.DynkinTriple(label, cart, subset, sigma)


def test_condition_matches_literal_oracle():
    oracle = {}
    checked = 0
    for t in candidate_triples(5, connected_only=False):
        assert hasse.opposition_condition(t) == literal_condition(t, oracle), t.descriptor()
        checked += 1
    assert checked > 1000


def test_shared_facts_entry_matches_fresh_triple():
    triples = hasse.classify(5, connected_only=False)
    assert len({id(t.facts.diagram.subs) for t in triples}) == 1
    for t in triples:
        fresh = hasse.DynkinTriple(t.label, t.cartan, t.I, t.sigma)
        assert fresh.facts is not t.facts
        assert hasse.classification_entry(t) == hasse.classification_entry(fresh)


@st.composite
def drawn_triples(draw):
    """A block sum of connected types with shuffled vertices, sometimes with
    one symmetric pair of entries changed (often no longer of finite type),
    with sigma a diagram automorphism or any permutation, and I a union of
    sigma-orbits or any subset."""
    small = [t for t in hasse.CONNECTED_TYPES if t[1] <= 4] + [("E", 6)]
    parts = draw(st.lists(st.sampled_from(small), min_size=1, max_size=3))
    blocks = [hasse.cartan_matrix(letter, n) for letter, n in parts]
    r = sum(len(b) for b in blocks)
    block_sum = [[0] * r for _ in range(r)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            block_sum[off + i][off : off + len(b)] = row
        off += len(b)
    relabel = draw(st.permutations(range(r)))
    cart = [[block_sum[relabel[i]][relabel[j]] for j in range(r)] for i in range(r)]
    if r > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        cart[i][j] = draw(st.integers(-3, 0))
        cart[j][i] = draw(st.integers(-3, 0))
    cart = tuple(tuple(row) for row in cart)
    autos = hasse.diagram_automorphisms(cart)
    sigma = draw(st.sampled_from(autos) | st.permutations(range(r)).map(tuple))
    if draw(st.booleans()):
        orbits = rootdata.perm_orbits(sigma)
        chosen = draw(st.lists(st.sampled_from(orbits), unique=True))
        I = tuple(sorted(v for orbit in chosen for v in orbit))
    else:
        I = tuple(sorted(draw(st.sets(st.integers(0, r - 1)))))
    return cart, sigma, I


@settings(max_examples=150, deadline=None)
@given(drawn_triples())
def test_constructor_rejects_or_agrees_with_literal_oracle(drawn):
    cart, sigma, I = drawn
    try:
        t = hasse.DynkinTriple("drawn", cart, I, sigma)
    except InvalidCartan:
        return
    assert hasse.opposition_condition(t) == literal_condition(t, {})


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: hasse.classify(4), id="classify"),
        pytest.param(lambda: hasse.compare_with_expected(4), id="compare_with_expected"),
    ],
)
def test_no_root_datum_built(monkeypatch, run):
    def forbidden(*args, **kwargs):
        raise AssertionError("classification built a root datum or a Weyl element")

    monkeypatch.setattr(rootdata, "_validate", forbidden)
    monkeypatch.setattr(weyl, "longest_element", forbidden)
    monkeypatch.setattr(weyl, "opposition_involution", forbidden)
    assert run()
