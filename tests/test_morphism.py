"""Ladder modules, single-matrix presentations, and interleaving checks."""

import random
from collections import Counter
from functools import partial

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
    field_by_name,
    from_single_matrix,
    identity_ladder,
    inner_ladder,
    module_from_barcode,
    reduce_to_barcode_basis,
    shift,
    shift_morphism,
    to_single_matrix,
    validate_ladder,
)
from laddermod import persistence
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
    # identity on V checked against a psi that is not its inverse: scale one
    # phi component so the codomain triangle breaks first
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


def test_delta_must_be_nonnegative(running):
    with pytest.raises(ValueError):
        check_delta_invertible(running.phi, running.psi_on, -1)


def _with_change(basis, mats):
    return BarcodeBasis(BasisChange(tuple(mats)), basis.barcode, basis.generators, basis.reduced)


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


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_basis_check_matches_applying_the_change(field_name):
    """_check_basis accepts exactly the bases whose change takes the module to
    the recorded reduced module, and rejects the others with the message
    applying the change and comparing would give."""
    field = field_by_name(field_name)
    other_field = field_by_name("prime 5" if field_name == "rational" else "rational")
    rng = random.Random("basis-check/" + field_name)
    seen = Counter()
    for _ in range(150):
        m = gen.random_module(rng, field)
        basis = _perturbed(rng, m, reduce_to_barcode_basis(m), other_field)
        which = rng.choice(["domain", "codomain"])
        # a fresh BasisChange, so that the reference computes its own inverses
        fresh = _with_change(basis, basis.change.mats)
        want = _verdict(_reference_check, fresh, m, which)
        assert _verdict(_check_basis, basis, m, which) == want
        seen[want if want is None else want.replace("codomain", "domain")] += 1
    assert set(seen) == {
        None,
        "singular matrix",
        "not square",
        "field mismatch",
        "basis change does not fit module dims",
        "domain basis does not reduce the domain module",
    }, seen


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_rank_proven_basis_check_matches_applying_the_change(field_name, monkeypatch):
    """The side whose inverses the caller never reads is proven invertible by
    rank alone: same verdicts and messages as applying the change, and no
    inverse computed."""
    field = field_by_name(field_name)
    other_field = field_by_name("prime 5" if field_name == "rational" else "rational")
    rng = random.Random("basis-check/" + field_name)
    cases = []
    for _ in range(150):
        m = gen.random_module(rng, field)
        basis = _perturbed(rng, m, reduce_to_barcode_basis(m), other_field)
        cases.append((m, basis, rng.choice(["domain", "codomain"])))
    wants = [_verdict(_reference_check, _with_change(b, b.change.mats), m, w) for m, b, w in cases]
    inverted = []
    monkeypatch.setattr(persistence, "mat_inverse", inverted.append)
    for (m, basis, which), want in zip(cases, wants):
        fresh = _with_change(basis, basis.change.mats)
        assert _verdict(partial(_check_basis, inverses=False), fresh, m, which) == want
    assert inverted == []
    assert {w if w is None else w.replace("codomain", "domain") for w in wants} >= {
        None, "singular matrix", "not square", "field mismatch"}
