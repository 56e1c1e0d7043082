"""Property-based tests: invariants that must hold on arbitrary inputs."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import gen
from laddermod import (
    Barcode,
    BarcodeBasis,
    Interval,
    LadderDecomposition,
    LadderModule,
    Matrix,
    QQ,
    bottleneck_distance,
    compose_single,
    decompose,
    field_by_name,
    from_single_matrix,
    mat_inverse,
    mat_mul,
    module_from_barcode,
    nestedness,
    offset_origins,
    q_split,
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
    """Bases the library builds are marked with the module they reduce and
    trusted downstream without a second look, so each must pass the check a
    caller's basis gets where it enters, for the module it is marked for: the
    sweep's, every shift, origin offsets and the q_split bases. A single
    matrix over checked bases must rebuild to commuting components."""
    field = field_by_name(field_name)
    rng = random.Random("built-bases/" + field_name)
    for _ in range(30):
        m = gen.random_module(rng, field)
        bb = reduce_to_barcode_basis(m)
        built = [(bb, m), (offset_origins(bb, 2), m)]
        # every shift from off the grid below to off it above, so that bars
        # are clipped at both ends of the grid and some leave it
        for delta in range(-m.grid_len - 1, m.grid_len + 2):
            shifted = shift_basis(bb, delta)
            built += [(shifted, shift(m, delta)), (offset_origins(shifted, 1), shift(m, delta))]
        for q in range(m.grid_len + 2):
            sp = q_split(m, q, (None, bb)[q % 2])
            built += [(sp.source_basis, m), (sp.long_basis, sp.long), (sp.short_basis, sp.short)]
        for basis, module in built:
            assert basis._marked_for(module)
            _check_basis(basis, basis.__dict__["_reduces"], "domain")
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


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_single_matrix_refuses_exactly_the_non_commuting_ladders(field_name):
    """to_single_matrix proves commutation on the level products in barcode
    bases. It must refuse exactly the ladders whose own squares do not
    commute, and name the square validate_ladder names."""
    field = field_by_name(field_name)
    rng = random.Random("commutation-parity/" + field_name)
    seen = Counter()
    for _ in range(100):
        lm, _, _, _ = gen.random_barcode_morphism(rng, field)
        phi, _, _ = gen.conjugate_morphism(rng, lm)
        levels = [t for t, c in enumerate(phi.comps) if c.rows and c.cols]
        if levels and rng.random() < 0.6:
            comps = list(phi.comps)
            t = rng.choice(levels)
            rows = comps[t].to_lists()
            r, c = rng.randrange(comps[t].rows), rng.randrange(comps[t].cols)
            rows[r][c] += field.of(rng.choice((1, 2)))
            comps[t] = Matrix.from_rows(field, rows, cols=comps[t].cols)
            phi = LadderModule(phi.dom, phi.cod, tuple(comps))
        want = validate_ladder(phi)
        try:
            to_single_matrix(phi, reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod))
            got = None
        except ValueError as e:
            got = str(e)
        assert got == (None if want is None else "the components do not define a morphism: " + want)
        seen[want is None] += 1
    assert seen[True] >= 30 and seen[False] >= 30, seen


def _reference_single_matrix(lm, dom_basis, cod_basis):
    """The single matrix read from the full level products P_t = h_t phi_t
    g_t^-1, each g_t inverted by mat_inverse, each column J at its birth
    level J.a and zero outside the codomain bars alive there."""
    field = lm.dom.field
    g, h = dom_basis.change.mats, cod_basis.change.mats
    P = [mat_mul(mat_mul(h[t], c), mat_inverse(g[t])) for t, c in enumerate(lm.comps)]
    rows = [
        [P[dg.bar.a].get(cg.position_at(dg.bar.a), dg.positions[0])
         if cg.bar.contains_index(dg.bar.a) else field.zero()
         for dg in dom_basis.generators]
        for cg in cod_basis.generators
    ]
    return Matrix.from_rows(field, rows, cols=len(dom_basis.generators))


def _shaped_morphism(rng, field, shape):
    """A conjugated random morphism: gen's nested-free one, or one between
    random bars on one level, or with an empty domain or codomain."""
    if shape == "random":
        lm = gen.random_barcode_morphism(rng, field)[0]
    else:
        l = 0 if shape == "one-level" else rng.randint(1, 6)

        def bars(empty):
            return [] if empty else gen.random_bars(rng, l, rng.randint(1, 4))

        dom = module_from_barcode(field, l, bars(shape == "empty-dom"))
        cod = module_from_barcode(field, l, bars(shape == "empty-cod"))
        bd, bc = reduce_to_barcode_basis(dom), reduce_to_barcode_basis(cod)
        lm = from_single_matrix(gen.random_morphism_matrix(rng, bc, bd, field), dom, cod, bd, bc)
    return gen.conjugate_morphism(rng, lm)[0]


@pytest.mark.parametrize("shape", ["random", "one-level", "empty-dom", "empty-cod"])
@pytest.mark.parametrize("bases", ["built", "hand-built", "folded"])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["rational", "prime 5"]))
def test_single_matrix_matches_the_full_level_products(shape, bases, seed, field_name):
    """to_single_matrix, which solves once per birth level, gives the entries,
    and the entry types, that reading each column of the full level product
    at its birth level gives, on library-built bases (no entry check),
    hand-built copies of them and the folded bases of a decomposition (both
    checked in full)."""
    field = field_by_name(field_name)
    rng = random.Random(seed)
    phi = _shaped_morphism(rng, field, shape)
    bd, bc = reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod)
    if bases == "hand-built":
        bd, bc = (BarcodeBasis(b.change, b.barcode, b.generators, b.reduced) for b in (bd, bc))
    elif bases == "folded":
        dec = decompose(phi, bd, bc)
        assume(isinstance(dec, LadderDecomposition))
        bd, bc = dec.dom_basis, dec.cod_basis
    got = to_single_matrix(phi, bd, bc)
    want = _reference_single_matrix(phi, bd, bc)
    assert (got.row_gens, got.col_gens) == (bc.generators, bd.generators)
    assert got.entries == want
    assert [type(x) for x in got.entries.data] == [type(x) for x in want.data]
