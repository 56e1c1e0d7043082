"""Intervals, barcodes, nestedness, and the barcode-basis reduction."""

import hashlib
import math
import random

import pytest

import gen
from laddermod import (
    Barcode,
    BasisChange,
    Interval,
    Matrix,
    PersistenceModule,
    QQ,
    field_by_name,
    interval_lex_leq,
    interval_overlap,
    interval_strictly_nested,
    is_barcode_form,
    mat_mul,
    module_from_barcode,
    nestedness,
    offset_origins,
    reduce_to_barcode_basis,
    shift,
    shift_basis,
    shift_interval,
)

I = Interval
F5 = field_by_name("prime 5")


def test_interval_basics():
    iv = I(2, 5)
    assert iv.length == 3
    assert iv.contains_index(2) and iv.contains_index(5)
    assert not iv.contains_index(6)
    assert str(iv) == "[2,5]"
    assert I(4, 4).length == 0
    with pytest.raises(ValueError):
        I(3, 2)


def test_interval_relations():
    assert interval_lex_leq(I(0, 4), I(0, 5))
    assert interval_lex_leq(I(0, 5), I(1, 2))
    assert not interval_lex_leq(I(1, 2), I(0, 9))
    # overlap: x starts no later, they meet, neither strictly contains
    assert interval_overlap(I(0, 4), I(1, 5))
    assert interval_overlap(I(0, 4), I(0, 4))
    assert interval_overlap(I(0, 4), I(4, 9))
    assert not interval_overlap(I(1, 5), I(0, 4))
    assert not interval_overlap(I(0, 4), I(5, 9))
    assert not interval_overlap(I(0, 9), I(2, 5))
    # strict nesting needs room on both sides
    assert interval_strictly_nested(I(2, 5), I(0, 9))
    assert not interval_strictly_nested(I(0, 5), I(0, 9))
    assert not interval_strictly_nested(I(2, 9), I(0, 9))
    assert not interval_strictly_nested(I(0, 9), I(2, 5))


def test_barcode_multiset_semantics():
    b = Barcode([I(1, 3), I(0, 2), I(1, 3)])
    assert b.bars == (I(0, 2), I(1, 3), I(1, 3))
    assert b.multiplicity(I(1, 3)) == 2
    assert b.counts() == {I(0, 2): 1, I(1, 3): 2}
    assert b.dim_at(1) == 3 and b.dim_at(3) == 2 and b.dim_at(4) == 0
    assert b == Barcode([I(1, 3), I(1, 3), I(0, 2)])
    assert str(b) == "[0,2] [1,3] [1,3]"


def test_nestedness_golds():
    assert nestedness(Barcode([I(0, 8), I(1, 5), I(1, 8), I(3, 5)])) == 1
    assert nestedness(Barcode([I(0, 4), I(1, 7), I(4, 4)])) == 3
    assert nestedness(Barcode([I(0, 4), I(0, 5)])) == math.inf
    assert nestedness(Barcode([I(0, 7), I(2, 5)])) == 2
    assert nestedness(Barcode([])) == math.inf
    # equal copies never nest strictly
    assert nestedness(Barcode([I(1, 3), I(1, 3)])) == math.inf


def test_shift_and_shift_interval():
    m = module_from_barcode(QQ, 7, [I(0, 4), I(1, 7), I(4, 4)])
    m1 = shift(m, 1)
    assert m1.dims == (2, 2, 2, 3, 1, 1, 1, 0)
    assert reduce_to_barcode_basis(m1).barcode == Barcode([I(0, 3), I(0, 6), I(3, 3)])
    assert shift_interval(I(0, 4), 1, 7) == I(0, 3)
    assert shift_interval(I(4, 4), 1, 7) == I(3, 3)
    assert shift_interval(I(0, 0), 1, 7) is None
    assert shift_interval(I(2, 5), -3, 7) == I(5, 7)
    assert shift_interval(I(2, 5), -8, 7) is None
    # shifting twice equals shifting by the sum, valuewise
    assert shift(shift(m, 1), 2) == shift(m, 3)
    assert shift(m, 0) == m


def test_module_validation():
    with pytest.raises(ValueError):
        PersistenceModule(QQ, (1, 2), (Matrix.zero(QQ, 1, 1),))
    with pytest.raises(ValueError):
        PersistenceModule(QQ, (1,), (Matrix.zero(QQ, 1, 1),))
    with pytest.raises(ValueError):
        PersistenceModule(QQ, (), ())


def test_inner_matrix_composites():
    m = module_from_barcode(QQ, 4, [I(0, 2), I(1, 4)])
    assert m.inner_matrix(0, 0) == Matrix.identity(QQ, 1)
    assert m.inner_matrix(0, 2).rank() == 1
    assert m.inner_matrix(0, 3).rank() == 0
    assert m.inner_matrix(1, 4).rank() == 1
    with pytest.raises(ValueError):
        m.inner_matrix(3, 1)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_inner_matrix_equals_chain_from_identity(field_name):
    field = field_by_name(field_name)
    rng = random.Random("inner-matrix/" + field_name)
    for _ in range(30):
        m = gen.random_module(rng, field, max_len=5, max_dim=3)
        for s in range(m.grid_len + 1):
            want = Matrix.identity(field, m.dims[s])
            for t in range(s, m.grid_len + 1):
                if t > s:
                    want = mat_mul(m.map_at(t), want)
                got = m.inner_matrix(s, t)
                assert (got.rows, got.cols) == (m.dims[t], m.dims[s])
                assert got == want
                assert all(type(x) is type(field.zero()) for x in got.data)


def test_running_example_barcodes(running):
    assert running.bbV.barcode == Barcode([I(0, 4), I(1, 7), I(4, 4)])
    assert running.bbW.barcode == Barcode([I(1, 5), I(1, 6)])
    assert running.bbW1.barcode == Barcode([I(0, 4), I(0, 5)])
    assert nestedness(running.bbV.barcode) == 3
    assert nestedness(running.bbW1.barcode) == math.inf


def test_reduction_produces_valid_basis(running):
    for m in (running.V, running.W):
        bb = reduce_to_barcode_basis(m)
        invs = bb.change.inverses()
        for t, g in enumerate(bb.change.mats):
            assert mat_mul(g, invs[t]) == Matrix.identity(m.field, m.dims[t])
        assert bb.change.apply(m) == bb.reduced
        for i in range(1, m.grid_len + 1):
            ok, _ = is_barcode_form(bb.reduced.map_at(i))
            assert ok
        assert bb.reduced == module_from_barcode(m.field, m.grid_len, bb.barcode)
        assert Barcode([g.bar for g in bb.generators]) == bb.barcode


def test_reduction_is_identity_on_barcode_form():
    m = module_from_barcode(QQ, 6, [I(0, 3), I(1, 5), I(1, 5), I(4, 4)])
    bb = reduce_to_barcode_basis(m)
    assert bb.change.is_identity()
    assert bb.reduced == m


def test_generator_positions_track_chains(running):
    bb = running.bbV
    idx = bb.generator_index()
    g04 = idx[(I(0, 4), 0)]
    g17 = idx[(I(1, 7), 0)]
    g44 = idx[(I(4, 4), 0)]
    assert g04.position_at(0) == 0
    assert g17.position_at(7) == 0
    # at level 4 the three generators occupy distinct coordinates
    assert sorted((g04.position_at(4), g17.position_at(4), g44.position_at(4))) == [0, 1, 2]
    with pytest.raises(ValueError):
        g44.position_at(5)


def test_slots_number_equal_bars():
    m = module_from_barcode(QQ, 5, [I(1, 3), I(1, 3), I(0, 2)])
    bb = reduce_to_barcode_basis(m)
    slots = sorted(g.slot for g in bb.generators if g.bar == I(1, 3))
    assert slots == [0, 1]


def test_shift_basis_clips_and_keeps_origins(running):
    bb1 = shift_basis(running.bbV, 2)
    assert bb1.barcode == Barcode([I(0, 2), I(0, 5), I(2, 2)])
    origins = {(g.bar, g.origin) for g in bb1.generators}
    assert origins == {(I(0, 2), I(0, 4)), (I(0, 5), I(1, 7)), (I(2, 2), I(4, 4))}
    bb2 = shift_basis(running.bbV, 1)
    assert bb2.barcode == Barcode([I(0, 3), I(0, 6), I(3, 3)])
    # dropped bars vanish along with their generators
    bb5 = shift_basis(running.bbV, 5)
    assert bb5.barcode == Barcode([I(0, 2)])
    assert bb5.generators[0].origin == I(1, 7)


def test_shift_basis_matches_module_shift(running):
    for d in (1, 2, 3):
        bb = shift_basis(running.bbV, d)
        direct = reduce_to_barcode_basis(shift(running.V, d))
        assert bb.barcode == direct.barcode
        assert bb.change.apply(shift(running.V, d)) == bb.reduced


def test_offset_origins(running):
    bb = offset_origins(running.bbW, 1)
    labels = {g.origin for g in bb.generators}
    assert labels == {I(2, 6), I(2, 7)}
    # bars themselves are untouched
    assert bb.barcode == running.bbW.barcode


def test_module_from_barcode_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        l = rng.randint(0, 6)
        bars = []
        for _ in range(rng.randint(0, 5)):
            a = rng.randint(0, l)
            bars.append(I(a, rng.randint(a, l)))
        m = module_from_barcode(QQ, l, bars)
        assert reduce_to_barcode_basis(m).barcode == Barcode(bars)


def test_basis_change_compose_and_apply():
    m = module_from_barcode(F5, 3, [I(0, 3), I(1, 2)])
    g = BasisChange(
        tuple(Matrix.from_int_rows(F5, [[1]]) for _ in range(1))
        + tuple(Matrix.from_int_rows(F5, [[1, 1], [0, 1]]) for _ in range(2))
        + (Matrix.from_int_rows(F5, [[2]]),)
    )
    m2 = g.apply(m)
    assert reduce_to_barcode_basis(m2).barcode == Barcode([I(0, 3), I(1, 2)])
    h = BasisChange.identity(F5, m.dims)
    assert h.is_identity()
    assert g.compose(h).mats == g.mats
    with pytest.raises(ValueError):
        g.apply(module_from_barcode(F5, 3, [I(0, 3)]))


# sha256 of the reductions in test_sweep_output_is_pinned, recorded from the
# object-arithmetic sweep; the raw integer sweep must reproduce it exactly
SWEEP_DIGEST = "9e0c62df3d341ca277bdf8ae564624988059899c0bf9d99d88e6b316f1ee446c"


def test_sweep_output_is_pinned():
    h = hashlib.sha256()
    for name in ("rational", "prime 5", "prime 7", "prime 1000003"):
        field = field_by_name(name)
        rng = random.Random("sweep/" + name)
        for k in range(40):
            m = gen.random_module(rng, field, max_len=6, max_dim=5)
            if k % 2:
                g = BasisChange(
                    tuple(gen.random_invertible(rng, field, n, ops=3 * n) for n in m.dims)
                )
                m = g.apply(m)
            bb = reduce_to_barcode_basis(m)
            h.update(repr((bb.change.mats, bb.generators, bb.barcode)).encode())
    assert h.hexdigest() == SWEEP_DIGEST
