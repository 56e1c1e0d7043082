"""Property-based tests: invariants that must hold on arbitrary inputs."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import gen
from laddermod import (
    Barcode,
    Interval,
    LadderDecomposition,
    Matrix,
    QQ,
    bottleneck_distance,
    compose_single,
    decompose,
    field_by_name,
    from_single_matrix,
    module_from_barcode,
    nestedness,
    offset_origins,
    reduce_to_barcode_basis,
    shift,
    shift_basis,
    to_single_matrix,
    validate_ladder,
    verify_decomposition,
)
from laddermod.cli import (
    MorphismDoc,
    parse_module_text,
    parse_morphism_text,
    print_module,
    print_morphism,
)
from laddermod.morphism import _check_basis

F5 = field_by_name("prime 5")
MODERATE = settings(max_examples=40, deadline=None)
LIGHT = settings(max_examples=20, deadline=None)


@st.composite
def barcodes(draw, max_len=6, max_bars=5):
    l = draw(st.integers(min_value=0, max_value=max_len))
    n = draw(st.integers(min_value=0, max_value=max_bars))
    bars = []
    for _ in range(n):
        a = draw(st.integers(min_value=0, max_value=l))
        b = draw(st.integers(min_value=a, max_value=l))
        bars.append(Interval(a, b))
    return l, bars


@MODERATE
@given(barcodes(), st.sampled_from(["rational", "prime 5"]))
def test_barcode_reduction_round_trip(lb, field_name):
    l, bars = lb
    field = field_by_name(field_name)
    m = module_from_barcode(field, l, bars)
    bb = reduce_to_barcode_basis(m)
    assert bb.barcode == Barcode(bars)
    assert bb.change.apply(m) == bb.reduced


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reduction_of_random_matrices_is_consistent(seed):
    rng = random.Random(seed)
    m = gen.random_module(rng)
    bb = reduce_to_barcode_basis(m)
    # dimensions agree pointwise with the barcode
    for t in range(m.grid_len + 1):
        assert bb.barcode.dim_at(t) == m.dims[t]
    # reducing the reduced module changes nothing
    again = reduce_to_barcode_basis(bb.reduced)
    assert again.change.is_identity()
    assert again.barcode == bb.barcode


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_counts_spanning_bars(seed):
    rng = random.Random(seed)
    m = gen.random_module(rng)
    bb = reduce_to_barcode_basis(m)
    l = m.grid_len
    s = rng.randint(0, l)
    t = rng.randint(s, l)
    r = m.inner_matrix(s, t).rank()
    assert r == sum(1 for b in bb.barcode if b.a <= s and t <= b.b)


@MODERATE
@given(barcodes(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_shift_composes_additively(lb, a, b):
    # same-sign shifts compose; mixed signs may not, since bars clipped off
    # the grid edge are gone for good
    l, bars = lb
    m = module_from_barcode(QQ, l, bars)
    assert shift(shift(m, a), b) == shift(m, a + b)
    assert shift(shift(m, -a), -b) == shift(m, -(a + b))
    assert shift(m, 0) == m


def test_mixed_sign_shifts_lose_clipped_bars():
    m = module_from_barcode(QQ, 3, [Interval(0, 0), Interval(0, 3)])
    back = shift(shift(m, 1), -1)
    bb = reduce_to_barcode_basis(back)
    assert bb.barcode == Barcode([Interval(1, 3)])


@MODERATE
@given(barcodes())
def test_nestedness_shift_invariance(lb):
    l, bars = lb
    # adding a constant to every endpoint preserves all nesting gaps
    moved = [Interval(b.a + 2, b.b + 2) for b in bars]
    assert nestedness(Barcode(bars)) == nestedness(Barcode(moved))


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_module_text_round_trip(seed):
    rng = random.Random(seed)
    m = gen.random_module(rng)
    text = print_module(m)
    assert parse_module_text(text) == m
    assert print_module(parse_module_text(text)) == text


def doc_from_pair(phi, psi, delta):
    """File document for a certified pair: the codomain is stored unshifted
    and the inverse components are reindexed onto its grid. Returns None when
    the codomain has support in the top delta slots, which the unshift cannot
    represent."""
    U = phi.cod
    l = U.grid_len
    if any(U.dims[t] != 0 for t in range(l - delta + 1, l + 1)):
        return None
    W = shift(U, -delta)
    file_psi = []
    for t in range(l + 1):
        if t >= delta:
            file_psi.append(psi.comps[t - delta])
        else:
            rows = phi.dom.dims[t + delta] if t + delta <= l else 0
            file_psi.append(Matrix.zero(U.field, rows, 0))
    return MorphismDoc(phi.dom, W, delta, phi.comps, tuple(file_psi))


@LIGHT
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_morphism_text_round_trip(seed):
    rng = random.Random(seed)
    phi, psi, delta = gen.certified_pair(rng)
    doc = doc_from_pair(phi, psi, delta)
    assume(doc is not None)
    text = print_morphism(doc)
    doc2 = parse_morphism_text(text)
    assert doc2 == doc
    assert print_morphism(doc2) == text
    assert doc.phi() == phi


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_nested_free_morphisms_decompose(seed):
    rng = random.Random(seed)
    lm, bb_dom, bb_cod, mm = gen.random_barcode_morphism(rng)
    dec = decompose(lm, bb_dom, bb_cod)
    assert isinstance(dec, LadderDecomposition)
    assert verify_decomposition(lm, dec) is None
    # every generator is accounted for exactly once
    assert len(dec.pairs) + len(dec.plus_gens) == len(bb_dom.generators)
    assert len(dec.pairs) + len(dec.minus_gens) == len(bb_cod.generators)


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pivot_rules_agree_on_pair_multiset(seed):
    rng = random.Random(seed)
    lm, bb_dom, bb_cod, mm = gen.random_barcode_morphism(rng)
    a = decompose(lm, bb_dom, bb_cod, pivot_rule="first")
    b = decompose(lm, bb_dom, bb_cod, pivot_rule="last")
    assert isinstance(a, LadderDecomposition) and isinstance(b, LadderDecomposition)
    assert a.pair_intervals() == b.pair_intervals()


@MODERATE
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_composition_is_associative(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, F5])
    grid_len = rng.randint(3, 6)
    mods = []
    for _ in range(4):
        bars = gen.random_bars(rng, grid_len, rng.randint(1, 3))
        m = module_from_barcode(field, grid_len, bars)
        mods.append(reduce_to_barcode_basis(m))
    m1 = gen.random_morphism_matrix(rng, mods[1], mods[0], field)
    m2 = gen.random_morphism_matrix(rng, mods[2], mods[1], field)
    m3 = gen.random_morphism_matrix(rng, mods[3], mods[2], field)
    assert compose_single(m3, compose_single(m2, m1)) == compose_single(
        compose_single(m3, m2), m1
    )


@LIGHT
@given(barcodes(max_len=5, max_bars=4), barcodes(max_len=5, max_bars=4))
def test_bottleneck_distance_is_a_metric_on_small_barcodes(lb1, lb2):
    b1 = Barcode(lb1[1])
    b2 = Barcode(lb2[1])
    d = bottleneck_distance(b1, b2)
    assert d == bottleneck_distance(b2, b1)
    assert d >= 0
    assert bottleneck_distance(b1, b1) == 0
    # twice the distance is an integer: endpoints live on the integer grid
    assert (2 * d).denominator == 1


@LIGHT
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_certified_pairs_decompose_and_match_within_delta(seed):
    rng = random.Random(seed)
    phi, psi, delta = gen.certified_pair(rng)
    bb_dom, bb_cod, bb_psi_cod = gen.interleaving_bundles(phi, psi, delta)
    dec = decompose(phi, bb_dom, bb_cod)
    assert isinstance(dec, LadderDecomposition)
    assert verify_decomposition(phi, dec) is None
    from laddermod import induced_matching, matching_cost

    chi = induced_matching(dec)
    assert matching_cost(chi) <= Fraction(delta)


def _rank(rows):
    """Rank by plain forward elimination on row lists."""
    rows = [list(r) for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_morphism_rank_oracle_at_scale(field_name):
    """For s <= t, rank(w_{s,t} . phi_s) counts the matched pairs (J -> K)
    with J.a <= s and t <= K.b. The left side comes from the raw components
    and structure maps, in the arbitrary coordinates of the input, with no
    barcode basis."""
    field = field_by_name(field_name)
    rng = random.Random("rank/" + field_name)
    for _ in range(4):
        n = rng.randint(16, 32)
        l = n + 16
        dom = module_from_barcode(field, l, gen.sorted_pairing_bars(rng, l, n, 8))
        cod = module_from_barcode(field, l, gen.sorted_pairing_bars(rng, l, n, 8))
        bb_dom, bb_cod = reduce_to_barcode_basis(dom), reduce_to_barcode_basis(cod)
        mm = gen.random_morphism_matrix(rng, bb_cod, bb_dom, field)
        phi, _, _ = gen.conjugate_morphism(rng, from_single_matrix(mm, dom, cod, bb_dom, bb_cod))
        dec = decompose(phi)
        assert isinstance(dec, LadderDecomposition)
        pairs = [(dg.bar, cg.bar) for cg, dg in dec.pairs]
        zero = field.zero()
        for s in range(l + 1):
            x = phi.comps[s].to_lists()
            for t in range(s, l + 1):
                if t > s:
                    w = phi.cod.map_at(t)
                    x = [
                        [sum((w.get(i, k) * x[k][j] for k in range(w.cols)), zero)
                         for j in range(phi.dom.dims[s])]
                        for i in range(w.rows)
                    ]
                want = sum(1 for j, k in pairs if j.a <= s and t <= k.b)
                assert _rank(x) == want, (s, t)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_summands_survive_coordinates_and_pivot_rule_at_scale(field_name):
    """Krull-Schmidt: conjugating both ends of a morphism leaves its summand
    multiset alone. The pivot rule leaves the matched pairs alone. Both on
    nested-free morphisms with 32 bars per side."""
    field = field_by_name(field_name)
    rng = random.Random("krull-schmidt/" + field_name)
    for _ in range(2):
        n, l = 32, 48
        dom = module_from_barcode(field, l, gen.sorted_pairing_bars(rng, l, n, 8))
        cod = module_from_barcode(field, l, gen.sorted_pairing_bars(rng, l, n, 8))
        bb_dom, bb_cod = reduce_to_barcode_basis(dom), reduce_to_barcode_basis(cod)
        mm = gen.random_morphism_matrix(rng, bb_cod, bb_dom, field)
        phi = from_single_matrix(mm, dom, cod, bb_dom, bb_cod)
        conj, _, _ = gen.conjugate_morphism(rng, phi)
        plain, first, last = decompose(phi), decompose(conj), decompose(conj, pivot_rule="last")
        for dec in (plain, first, last):
            assert isinstance(dec, LadderDecomposition)
        assert Counter(first.summands()) == Counter(plain.summands())
        assert last.pair_intervals() == first.pair_intervals()


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_library_built_bases_pass_the_entry_check(field_name):
    """Bases the library builds are trusted downstream without a second look,
    so each must pass the check a caller's basis gets where it enters, and a
    single matrix over checked bases must rebuild to commuting components."""
    field = field_by_name(field_name)
    rng = random.Random("built-bases/" + field_name)
    for _ in range(30):
        m = gen.random_module(rng, field)
        bb = reduce_to_barcode_basis(m)
        _check_basis(bb, m, "domain")
        _check_basis(offset_origins(bb, 2), m, "domain")
        # every shift from off the grid below to off it above, so that bars
        # are clipped at both ends of the grid and some leave it
        for delta in range(-m.grid_len - 1, m.grid_len + 2):
            _check_basis(shift_basis(bb, delta), shift(m, delta), "domain")
    for _ in range(20):
        lm, _, _, _ = gen.random_barcode_morphism(rng, field)
        phi, _, _ = gen.conjugate_morphism(rng, lm)
        bd, bc = reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod)
        for mm in (to_single_matrix(phi, bd, bc), gen.random_morphism_matrix(rng, bc, bd, field)):
            assert validate_ladder(from_single_matrix(mm, phi.dom, phi.cod, bd, bc)) is None
        dec = decompose(phi, bd, bc)
        assert isinstance(dec, LadderDecomposition)
        _check_basis(dec.dom_basis, phi.dom, "domain")
        _check_basis(dec.cod_basis, phi.cod, "codomain")
        rebuilt = from_single_matrix(dec.matching, phi.dom, phi.cod, dec.dom_basis, dec.cod_basis)
        assert validate_ladder(rebuilt) is None
