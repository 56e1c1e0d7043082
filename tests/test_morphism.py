"""Ladder modules, single-matrix presentations, and interleaving checks."""

import dataclasses
import os
import random
from collections import Counter

import pytest

import gen
from laddermod import (
    BarGenerator,
    Barcode,
    BarcodeBasis,
    BasisChange,
    Interval,
    InterleavingCertificate,
    LadderModule,
    Matrix,
    MorphismMatrix,
    PersistenceModule,
    QQ,
    TriangleFailure,
    check_delta_invertible,
    check_interleaving,
    compose_ladder,
    compose_single,
    decompose,
    field_by_name,
    from_single_matrix,
    identity_ladder,
    inner_ladder,
    mat_inverse,
    mat_mul,
    module_from_barcode,
    q_split,
    reduce_to_barcode_basis,
    shift,
    shift_morphism,
    to_single_matrix,
    validate_ladder,
)
from laddermod import morphism, persistence
from laddermod.cli import MorphismDoc, parse_morphism_text, print_morphism
from laddermod.morphism import _check_basis

I = Interval


def test_validate_ladder_running(running):
    assert validate_ladder(running.phi) is None
    assert validate_ladder(running.psi) is None
    assert validate_ladder(running.psi_on) is None


def test_validate_ladder_catches_noncommuting_square(running):
    comps = list(running.phi.comps)
    comps[2] = Matrix.from_int_rows(QQ, [[2, 0], [0, 1]])
    bad = LadderModule(running.V, running.W1, tuple(comps))
    msg = validate_ladder(bad)
    assert msg is not None and "square" in msg


def test_component_shape_rejected_at_construction(running):
    comps = list(running.phi.comps)
    comps[0] = Matrix.zero(QQ, 1, 1)
    with pytest.raises(ValueError):
        LadderModule(running.V, running.W1, tuple(comps))


def test_identity_and_inner_ladder(running):
    ident = identity_ladder(running.V)
    assert validate_ladder(ident) is None
    assert ident.cod == running.V
    inner = inner_ladder(running.V, 2)
    assert validate_ladder(inner) is None
    assert inner.cod == shift(running.V, 2)
    # the inner component at t is the composite structure map t -> t+2
    assert inner.comps[0] == running.V.inner_matrix(0, 2)
    assert inner_ladder(running.V, 0).comps == identity_ladder(running.V).comps


def test_single_matrix_gold(running):
    mm = to_single_matrix(running.phi, running.bbV, running.bbW1)
    assert [g.bar for g in mm.row_gens] == [I(0, 4), I(0, 5)]
    assert [g.bar for g in mm.col_gens] == [I(0, 4), I(1, 7), I(4, 4)]
    assert mm.entries == Matrix.from_int_rows(QQ, [[2, 1, 1], [0, 1, 0]])


def test_single_matrix_round_trip(running):
    mm = to_single_matrix(running.phi, running.bbV, running.bbW1)
    back = from_single_matrix(mm, running.V, running.W1, running.bbV, running.bbW1)
    assert back == running.phi
    assert to_single_matrix(back, running.bbV, running.bbW1) == mm


@pytest.mark.parametrize("cod_bars, comps", [
    ([I(0, 1)], [[[1]], [[2]]]),  # an entry that changes along the overlap
    ([I(1, 1)], [[], [[1]]]),  # an entry off the support: [1,1] is born after [0,1]
])
def test_single_matrix_names_a_non_commuting_ladder(cod_bars, comps):
    V = module_from_barcode(QQ, 1, [I(0, 1)])
    W = module_from_barcode(QQ, 1, cod_bars)
    phi = LadderModule.from_int_comps(V, W, comps)
    want = "the components do not define a morphism: square 1 does not commute"
    for convert in (to_single_matrix, decompose):
        with pytest.raises(ValueError) as e:
            convert(phi, reduce_to_barcode_basis(V), reduce_to_barcode_basis(W))
        assert str(e.value) == want


def test_morphism_matrix_support_constraint():
    V = module_from_barcode(QQ, 5, [I(2, 5)])
    W = module_from_barcode(QQ, 5, [I(0, 1)])
    bv = reduce_to_barcode_basis(V)
    bw = reduce_to_barcode_basis(W)
    # [0,1] does not overlap [2,5] from the left, so no nonzero entry is legal
    with pytest.raises(ValueError):
        MorphismMatrix(
            tuple(bw.generators), tuple(bv.generators), Matrix.from_int_rows(QQ, [[1]])
        )
    zero_mm = MorphismMatrix(
        tuple(bw.generators), tuple(bv.generators), Matrix.zero(QQ, 1, 1)
    )
    lm = from_single_matrix(zero_mm, V, W, bv, bw)
    assert all(not any(c.row(i) for i in range(c.rows)) for c in lm.comps)


def test_morphism_matrix_rejects_unsorted_generators(running):
    mm = to_single_matrix(running.phi, running.bbV, running.bbW1)
    with pytest.raises(ValueError):
        MorphismMatrix(mm.row_gens, tuple(reversed(mm.col_gens)), mm.entries)


def test_composition_mask_kills_dead_paths():
    # U=[2,4] maps onto V=[1,3] maps onto W=[0,1]; the straight-line product
    # is 1 but no index carries U and W simultaneously, so the composite is 0
    U = module_from_barcode(QQ, 4, [I(2, 4)])
    V = module_from_barcode(QQ, 4, [I(1, 3)])
    W = module_from_barcode(QQ, 4, [I(0, 1)])
    bu, bv, bw = (reduce_to_barcode_basis(m) for m in (U, V, W))
    m1 = MorphismMatrix(tuple(bv.generators), tuple(bu.generators), Matrix.from_int_rows(QQ, [[1]]))
    m2 = MorphismMatrix(tuple(bw.generators), tuple(bv.generators), Matrix.from_int_rows(QQ, [[1]]))
    comp = compose_single(m2, m1)
    assert comp.entries == Matrix.zero(QQ, 1, 1)
    lm1 = from_single_matrix(m1, U, V, bu, bv)
    lm2 = from_single_matrix(m2, V, W, bv, bw)
    assert to_single_matrix(compose_ladder(lm2, lm1), bu, bw) == comp


def test_compose_ladder_shapes(running):
    ident = identity_ladder(running.W1)
    same = compose_ladder(ident, running.phi)
    assert same == running.phi
    with pytest.raises(ValueError):
        compose_ladder(running.phi, running.phi)


def test_shift_morphism(running):
    s = shift_morphism(running.psi, 1)
    assert s.dom == shift(running.W, 1)
    assert s.cod == shift(running.V, 2)
    assert validate_ladder(s) is None
    # shifting twice equals shifting by the sum
    assert shift_morphism(shift_morphism(running.phi, 1), 2) == shift_morphism(running.phi, 3)


def test_delta_invertible_certificate(running):
    cert = check_delta_invertible(running.phi, running.psi_on, 1)
    assert isinstance(cert, InterleavingCertificate)
    assert cert.delta == 1
    # the recorded composites are the inner 2-delta morphisms
    assert cert.dom_composite == inner_ladder(running.V, 2).comps
    assert cert.cod_composite == inner_ladder(running.W1, 2).comps


def test_check_interleaving_delegates_shift(running):
    cert = check_interleaving(running.phi, running.psi, 1)
    assert isinstance(cert, InterleavingCertificate)
    res = check_interleaving(running.phi, running.psi, 0)
    assert isinstance(res, TriangleFailure)
    assert res.side == "shape"
    assert "shifted by 0" in str(res)


def test_triangle_failure_localizes(running):
    comps = list(running.psi.comps)
    comps[3] = Matrix.zero(QQ, comps[3].rows, comps[3].cols)
    bad = LadderModule(running.W, shift(running.V, 1), tuple(comps))
    res = check_interleaving(running.phi, bad, 1)
    assert isinstance(res, TriangleFailure)
    assert res.side == "domain" and res.index == 2
    assert "t=2" in str(res)


def test_codomain_triangle_failure(running):
    # phi = 2 * identity on V against psi = identity / 3: psi . phi is
    # 2/3 * identity, so the domain triangle, checked first, breaks first
    V = running.V
    two = QQ.of(2)
    comps = tuple(
        Matrix.from_rows(QQ, [[two * x for x in m.row(i)] for i in range(m.rows)], cols=m.cols)
        for m in identity_ladder(V).comps
    )
    phi2 = LadderModule(V, V, comps)
    half = QQ.of(1, 2)
    psi_comps = tuple(
        Matrix.from_rows(QQ, [[x * half for x in m.row(i)] for i in range(m.rows)], cols=m.cols)
        for m in inner_ladder(V, 0).comps
    )
    psi2 = LadderModule(V, V, psi_comps)
    assert isinstance(check_delta_invertible(phi2, psi2, 0), InterleavingCertificate)
    third = QQ.of(1, 3)
    psi_bad = LadderModule(
        V,
        V,
        tuple(
            Matrix.from_rows(QQ, [[x * third for x in m.row(i)] for i in range(m.rows)], cols=m.cols)
            for m in inner_ladder(V, 0).comps
        ),
    )
    res = check_delta_invertible(phi2, psi_bad, 0)
    assert isinstance(res, TriangleFailure)
    assert res.side == "domain"


def test_codomain_triangle_failure_is_named():
    # phi includes [0,3] into [0,3] + [2,3] and psi projects back: psi . phi is
    # the identity on V, but phi . psi kills [2,3], so the codomain triangle
    # first breaks where that bar is born
    V = module_from_barcode(QQ, 3, [I(0, 3)])
    W = module_from_barcode(QQ, 3, [I(0, 3), I(2, 3)])
    incl = [[[1]], [[1]], [[1], [0]], [[1], [0]]]
    phi = LadderModule.from_int_comps(V, W, incl)
    psi = LadderModule.from_int_comps(W, V, [[[1] + [0] * (len(c) - 1)] for c in incl])
    res = check_delta_invertible(phi, psi, 0)
    assert isinstance(res, TriangleFailure)
    assert (res.side, res.index) == ("codomain", 2)
    assert str(res) == (
        "triangle codomain t=2: phi_(t+2*delta) . psi_t differs from the structure map"
    )


def test_delta_must_be_nonnegative(running):
    with pytest.raises(ValueError):
        check_delta_invertible(running.phi, running.psi_on, -1)


def _with_change(basis, mats):
    return BarcodeBasis(BasisChange(tuple(mats)), basis.barcode, basis.generators, basis.reduced)


def test_one_level_basis_over_another_field_is_refused():
    V = module_from_barcode(QQ, 0, [I(0, 0), I(0, 0)])
    basis = _with_change(reduce_to_barcode_basis(V), [Matrix.identity(field_by_name("prime 5"), 2)])
    with pytest.raises(ValueError, match="field mismatch"):
        _check_basis(basis, V, "source")
    with pytest.raises(ValueError, match="field mismatch"):
        q_split(V, 0, basis)


def _bad_basis(kind, basis, foreign):
    """basis broken one way; foreign is a barcode basis of another module with
    the same dims."""
    mats = list(basis.change.mats)
    t = next(t for t, g in enumerate(mats) if g.rows >= 2)
    field = mats[t].field
    if kind == "another module":
        return foreign
    if kind == "generator bar too short":
        # the first generator that spans two levels claims one level fewer,
        # and the barcode follows it, so only the reduced module disagrees
        k = next(k for k, g in enumerate(basis.generators) if g.bar.length)
        g = basis.generators[k]
        short = BarGenerator(Interval(g.bar.a, g.bar.b - 1), g.slot, g.positions[:-1])
        gens = basis.generators[:k] + (short,) + basis.generators[k + 1 :]
        return BarcodeBasis(basis.change, Barcode([x.bar for x in gens]), gens, basis.reduced)
    if kind == "zero row":
        rows = mats[t].to_lists()
        rows[1] = [field.zero()] * mats[t].cols
        mats[t] = Matrix.from_rows(field, rows, cols=mats[t].cols)
    elif kind == "foreign invertible level":
        shear = Matrix.identity(field, mats[t].rows).to_lists()
        shear[0][1] = field.of(3)
        mats[t] = Matrix.from_rows(field, shear, cols=mats[t].cols)
    else:
        mats.pop()
    return _with_change(basis, mats)


@pytest.mark.parametrize("side", ["domain", "codomain"])
@pytest.mark.parametrize(
    "kind, message",
    [
        ("another module", "%s basis does not reduce the %s module"),
        ("zero row", "singular matrix"),
        ("foreign invertible level", "%s basis does not reduce the %s module"),
        ("wrong number of levels", "basis change does not fit module dims"),
        ("generator bar too short", "%s basis generators do not describe its reduced module"),
    ],
)
def test_single_matrix_rejects_bad_bases(running, side, kind, message):
    phi, _, _ = gen.conjugate_morphism(random.Random("bad-bases"), running.phi)
    bases = {
        "domain": reduce_to_barcode_basis(phi.dom),
        "codomain": reduce_to_barcode_basis(phi.cod),
    }
    mm = to_single_matrix(phi, bases["domain"], bases["codomain"])
    foreign = {"domain": running.bbV, "codomain": running.bbW1}[side]
    bases[side] = _bad_basis(kind, bases[side], foreign)
    want = message.replace("%s", side)
    with pytest.raises(ValueError) as e:
        to_single_matrix(phi, bases["domain"], bases["codomain"])
    assert str(e.value) == want
    with pytest.raises(ValueError) as e:
        from_single_matrix(mm, phi.dom, phi.cod, bases["domain"], bases["codomain"])
    assert str(e.value) == want


def _reference_check(basis, module, which):
    if basis.change.apply(module) != basis.reduced:
        raise ValueError("%s basis does not reduce the %s module" % (which, which))


def _verdict(check, basis, module, which):
    try:
        check(basis, module, which)
    except ValueError as e:
        return str(e)
    return None


def _same_dims(rng, m):
    maps = tuple(
        gen.random_matrix(rng, m.field, m.dims[i], m.dims[i - 1]) for i in range(1, m.grid_len + 1)
    )
    return PersistenceModule(m.field, m.dims, maps)


def _perturbed(rng, m, bb, other_field):
    """bb after zero to two random edits, each of which may or may not break
    it: a zero row, a foreign invertible level, the change or the reduced
    module of another module of the same dims, a level too many or too few, a
    level of the wrong size (square or not), a level over another field."""
    field = m.field
    mats, reduced = list(bb.change.mats), bb.reduced
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(7)
        t = rng.randrange(len(mats))
        n = mats[t].rows
        if kind == 0 and n:
            rows = mats[t].to_lists()
            rows[rng.randrange(n)] = [field.zero()] * mats[t].cols
            mats[t] = Matrix.from_rows(field, rows, cols=mats[t].cols)
        elif kind == 1:
            mats[t] = gen.random_invertible(rng, field, n, ops=2 * n + 1)
        elif kind == 2:
            mats = list(reduce_to_barcode_basis(_same_dims(rng, m)).change.mats)
        elif kind == 3:
            reduced = reduce_to_barcode_basis(_same_dims(rng, m)).reduced
        elif kind == 4:
            if len(mats) > 1 and rng.random() < 0.5:
                mats.pop()
            else:
                mats.append(Matrix.identity(field, rng.randint(0, 2)))
        elif kind == 5:
            mats[t] = Matrix.zero(field, n, n + 1) if rng.random() < 0.5 else Matrix.identity(
                field, n + 1)
        elif kind == 6:
            mats[t] = Matrix.identity(other_field, n)
    return BarcodeBasis(BasisChange(tuple(mats)), bb.barcode, bb.generators, reduced)


def _basis_check_cases(field_name):
    """150 (module, perturbed basis, side) triples with the verdict applying
    the change and comparing gives for each."""
    field = field_by_name(field_name)
    other_field = field_by_name("prime 5" if field_name == "rational" else "rational")
    rng = random.Random("basis-check/" + field_name)
    cases = []
    for _ in range(150):
        m = gen.random_module(rng, field)
        basis = _perturbed(rng, m, reduce_to_barcode_basis(m), other_field)
        cases.append((m, basis, rng.choice(["domain", "codomain"])))
    return [(m, basis, which, _verdict(_reference_check, basis, m, which))
            for m, basis, which in cases]


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_basis_check_matches_applying_the_change(field_name):
    """_check_basis accepts exactly the bases whose change takes the module to
    the recorded reduced module, and rejects the others with the message
    applying the change and comparing would give."""
    cases = _basis_check_cases(field_name)
    for m, basis, which, want in cases:
        assert _verdict(_check_basis, basis, m, which) == want
    assert {w if w is None else w.replace("codomain", "domain") for *_, w in cases} == {
        None,
        "singular matrix",
        "not square",
        "field mismatch",
        "basis change does not fit module dims",
        "domain basis does not reduce the domain module",
    }


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_rank_proven_basis_check_matches_applying_the_change(field_name, monkeypatch):
    """Invertibility is proven by rank alone: same verdicts and messages as
    applying the change, and no inverse computed."""
    cases = _basis_check_cases(field_name)
    inverted = []
    monkeypatch.setattr(persistence, "mat_inverse", inverted.append)
    for m, basis, which, want in cases:
        assert _verdict(_check_basis, basis, m, which) == want
    assert inverted == []


def _reference_from_single(mm, dom, cod, dom_basis, cod_basis):
    """h_t^-1 P_t g_t at every level t, with h_t inverted, and P_t laid out
    entry by entry from mm at the positions of the generators alive at t."""
    field, comps = mm.field, []
    for t in range(dom.grid_len + 1):
        P = [[field.zero()] * dom.dims[t] for _ in range(cod.dims[t])]
        for r, rg in enumerate(mm.row_gens):
            for c, cg in enumerate(mm.col_gens):
                if rg.bar.contains_index(t) and cg.bar.contains_index(t):
                    P[rg.position_at(t)][cg.position_at(t)] = mm.entry(r, c)
        P = Matrix.from_rows(field, P, cols=dom.dims[t])
        h_inv = mat_inverse(cod_basis.change.mats[t])
        comps.append(mat_mul(h_inv, mat_mul(P, dom_basis.change.mats[t])))
    return tuple(comps)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_from_single_matrix_matches_inverting_the_codomain_basis(field_name):
    """from_single_matrix solves h_t X = P_t g_t; the reference inverts h_t.
    Same components, entry types included, for random single matrices that
    respect the support rule, over library-built and hand-built bases, on
    one-level grids and with modules that have no bars."""
    field = field_by_name(field_name)
    rng = random.Random("from-single/" + field_name)
    seen = Counter()
    for _ in range(80):
        l = rng.randint(0, 4)
        modules, bases = [], []
        for _ in range(2):
            empty = rng.random() < 0.2
            dims = tuple(0 if empty else rng.randint(0, 3) for _ in range(l + 1))
            m = PersistenceModule(field, dims, tuple(
                gen.random_matrix(rng, field, dims[i], dims[i - 1]) for i in range(1, l + 1)))
            bb = reduce_to_barcode_basis(m)
            if rng.random() < 0.5:
                bb = BarcodeBasis(bb.change, bb.barcode, bb.generators, bb.reduced)
            modules.append(m)
            bases.append(bb)
            seen["empty" if not bb.generators else "bars"] += 1
            seen["marked" if bb._marked_for(m) else "hand-built"] += 1
        (dom, cod), (dom_basis, cod_basis) = modules, bases
        seen["one level" if l == 0 else "grid"] += 1
        mm = gen.random_morphism_matrix(rng, cod_basis, dom_basis, field)
        seen["nonzero" if not mm.entries.is_zero() else "zero"] += 1
        got = from_single_matrix(mm, dom, cod, dom_basis, cod_basis)
        want = _reference_from_single(mm, dom, cod, dom_basis, cod_basis)
        assert got.comps == want
        assert [[type(x) for row in c.to_lists() for x in row] for c in got.comps] == [
            [type(x) for row in c.to_lists() for x in row] for c in want]
        assert to_single_matrix(got, dom_basis, cod_basis) == mm
    assert all(seen[k] >= 5 for k in (
        "empty", "bars", "marked", "hand-built", "one level", "grid", "nonzero")), seen


def _tampered_change(rng, bb):
    """bb's change with one level replaced by a random invertible matrix or
    given a zero row; either may or may not still reduce the module."""
    mats = list(bb.change.mats)
    t = rng.choice([t for t, g in enumerate(mats) if g.rows])
    field, n = mats[t].field, mats[t].rows
    if rng.random() < 0.5:
        mats[t] = gen.random_invertible(rng, field, n, ops=2 * n + 1)
    else:
        rows = mats[t].to_lists()
        rows[rng.randrange(n)] = [field.zero()] * n
        mats[t] = Matrix.from_rows(field, rows, cols=n)
    return BasisChange(tuple(mats))


def _message(call):
    with pytest.raises(ValueError) as e:
        call()
    return str(e.value)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_unmarked_and_foreign_bases_are_checked_at_every_entry(field_name):
    """Only a basis the library built for the module it is handed (or an equal
    one) skips the entry check. A basis from dataclasses.replace, one built by
    hand, or one built for another module is checked in full by
    to_single_matrix, from_single_matrix, decompose and q_split, and refused
    with the message the check gives."""
    field = field_by_name(field_name)
    rng = random.Random("marks/" + field_name)
    seen = Counter()
    for _ in range(40):
        lm, _, _, _ = gen.random_barcode_morphism(rng, field)
        phi, _, _ = gen.conjugate_morphism(rng, lm)
        modules = {"domain": phi.dom, "codomain": phi.cod}
        built = {side: reduce_to_barcode_basis(m) for side, m in modules.items()}
        mm = to_single_matrix(phi, built["domain"], built["codomain"])
        for side, m in modules.items():
            bb = built[side]
            copy = dataclasses.replace(bb)
            assert copy == bb and hash(copy) == hash(bb) and repr(copy) == repr(bb)
            assert bb._marked_for(m) and not copy._marked_for(m)
            change = _tampered_change(rng, bb)
            candidates = {
                "replaced": dataclasses.replace(bb, change=change),
                "hand-built": BarcodeBasis(change, bb.barcode, bb.generators, bb.reduced),
                "foreign": reduce_to_barcode_basis(_same_dims(rng, m)),
            }
            for kind, bad in candidates.items():
                # the full check on a fresh unmarked copy gives the message
                want = _verdict(_check_basis, _with_change(bad, bad.change.mats), m, side)
                seen[kind, want and want.replace("codomain", "domain")] += 1
                if want is None:
                    continue
                bases = dict(built, **{side: bad})
                dom_basis, cod_basis = bases["domain"], bases["codomain"]
                assert _message(lambda: to_single_matrix(phi, dom_basis, cod_basis)) == want
                assert _message(lambda: decompose(phi, dom_basis, cod_basis)) == want
                assert _message(
                    lambda: from_single_matrix(mm, phi.dom, phi.cod, dom_basis, cod_basis)) == want
                assert _message(lambda: q_split(m, 2, bad)) == want.replace(side, "source")
    for kind in ("replaced", "hand-built", "foreign"):
        assert seen[kind, "domain basis does not reduce the domain module"] >= 5, seen
    for kind in ("replaced", "hand-built"):
        assert seen[kind, "singular matrix"] >= 5, seen


def test_ladders_built_to_commute_are_marked(running, data_dir):
    """The mark goes to the ladders the parser validated, which the document
    hands out as the same instances, to the ones built to commute, and to
    composites and shifts whose inputs are all marked; equality, hash and
    repr do not see it, and dataclasses.replace drops it."""
    with open(os.path.join(data_dir, "run.txt")) as f:
        doc = parse_morphism_text(f.read())
    phi, psi = doc.phi(), doc.psi()
    assert phi is doc.phi() and psi is doc.psi()
    split = q_split(running.V, 2)
    marked = [
        phi, psi, identity_ladder(running.V), inner_ladder(running.V, 2),
        split.pr_long, split.pr_short, split.inc_long, split.inc_short,
        compose_ladder(shift_morphism(psi, 1), phi), shift_morphism(phi, 2),
        compose_ladder(inner_ladder(phi.cod, 1), phi),
    ]
    assert all(lm._marked() for lm in marked)
    hand_built = LadderModule(phi.dom, phi.cod, phi.comps)
    unmarked = [
        running.phi, hand_built, dataclasses.replace(phi), shift_morphism(hand_built, 1),
        compose_ladder(inner_ladder(phi.cod, 1), hand_built),
        compose_ladder(identity_ladder(phi.cod), hand_built),
        compose_ladder(hand_built, identity_ladder(phi.dom)),
        MorphismDoc(doc.dom, doc.cod, doc.delta, doc.comps, doc.inverse_comps).phi(),
    ]
    assert not any(lm._marked() for lm in unmarked)
    for lm in (hand_built, dataclasses.replace(phi)):
        assert lm == phi and hash(lm) == hash(phi) and repr(lm) == repr(phi)


def test_unmarked_ladders_are_proven_and_refused_as_before(running, monkeypatch):
    """to_single_matrix runs validate_ladder on an unmarked ladder only, and
    refuses a non-commuting one with the message naming its first failing
    square, whether it was built by hand, by dataclasses.replace from a
    marked one, or from a marked one's components with two levels swapped."""
    validated = []
    validate = morphism.validate_ladder
    monkeypatch.setattr(morphism, "validate_ladder", lambda lm: validated.append(lm) or validate(lm))
    lm, _, _ = gen.conjugate_morphism(random.Random("swapped"), running.phi)
    phi = parse_morphism_text(print_morphism(MorphismDoc(lm.dom, lm.cod, 0, lm.comps, ()))).phi()
    assert phi == lm and phi._marked()
    bd, bc = reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod)
    want = to_single_matrix(phi, bd, bc)
    assert validated == []
    for lm in (dataclasses.replace(phi), LadderModule(phi.dom, phi.cod, phi.comps)):
        assert to_single_matrix(lm, bd, bc) == want
        assert validated == [lm]
        validated.clear()

    comps = list(phi.comps)
    t = next(t for t, c in enumerate(comps) if not c.is_zero())
    rows = comps[t].to_lists()
    rows[0][0] += 1
    comps[t] = Matrix.from_rows(QQ, rows, cols=comps[t].cols)
    s, u = next((s, u) for s in range(len(comps)) for u in range(s + 1, len(comps))
                if comps[s].rows == comps[u].rows and comps[s].cols == comps[u].cols
                and phi.comps[s] != phi.comps[u])
    swapped = list(phi.comps)
    swapped[s], swapped[u] = swapped[u], swapped[s]
    bad = {
        "hand-built": LadderModule(phi.dom, phi.cod, tuple(comps)),
        "replaced": dataclasses.replace(phi, comps=tuple(comps)),
        "swapped": LadderModule(phi.dom, phi.cod, tuple(swapped)),
    }
    for kind, lm in bad.items():
        square = validate(lm)
        assert square is not None and not lm._marked(), kind
        want = "the components do not define a morphism: %s" % square
        assert _message(lambda: to_single_matrix(lm, bd, bc)) == want, kind
        assert _message(lambda: decompose(lm, bd, bc)) == want, kind
