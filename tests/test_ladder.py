"""Admissible operations, the matching-form reduction, and full decompositions."""

import contextlib
import dataclasses
import io
import math
import os
import random
import re
from collections import Counter

import pytest

import census
import gen
from laddermod import (
    AdmissibleOp,
    BarGenerator,
    Barcode,
    BasisChange,
    Interval,
    LadderDecomposition,
    LadderModule,
    Matrix,
    MorphismMatrix,
    QQ,
    ReductionFailure,
    apply_op,
    apply_ops,
    check_nestedness_precondition,
    decompose,
    field_by_name,
    from_single_matrix,
    interval_overlap,
    is_matching_form,
    mat_inverse,
    module_from_barcode,
    reduce_to_barcode_basis,
    reduce_to_matching_form,
    search_matching_form,
    to_single_matrix,
    verify_decomposition,
)
from laddermod import coarse, ladder, morphism, persistence
from laddermod.cli import parse_morphism_text

I = Interval


def gen_vec(basis, gen, t):
    """Coordinates of a reduced-basis generator in the original module."""
    return mat_inverse(basis.change.mats[t]).col(gen.position_at(t))


def test_running_example_operation_schedule(running):
    dec = decompose(running.phi, running.bbV, running.bbW1)
    assert isinstance(dec, LadderDecomposition)
    kinds = [(op.kind, op.target, op.source) for op in dec.ops]
    assert kinds == [("scale-col", 0, 0), ("AO3", 0, 1), ("AO2", 2, 0)]
    assert dec.ops[0].scalar == QQ.of(1, 2)
    assert dec.ops[1].scalar == QQ.of(-1)
    assert dec.ops[2].scalar == QQ.of(-1)
    mm0 = to_single_matrix(running.phi, running.bbV, running.bbW1)
    assert dec.ops[0].describe(mm0) == "scale column [0,4] by 1/2"
    assert dec.ops[1].describe(mm0) == "AO3: row [0,4] += -1 * row [0,5]"
    assert dec.ops[2].describe(mm0) == "AO2: column [4,4] += -1 * column [0,4]"


def test_running_example_summands(running):
    dec = decompose(running.phi, running.bbV, running.bbW1)
    assert dec.summands() == ["R [0,4]->[0,4]", "R [1,7]->[0,5]", "I+ [4,4]"]
    assert dec.pair_intervals() == ((0, 4, 0, 4), (0, 5, 1, 7))
    assert [g.bar for g in dec.plus_gens] == [I(4, 4)]
    assert dec.minus_gens == ()
    assert is_matching_form(dec.matching)


def test_running_example_final_generators(running):
    """The exact vectors the reduction ends on, level by level."""
    dec = decompose(running.phi, running.bbV, running.bbW1)
    half = QQ.of(1, 2)
    one, zero = QQ.one(), QQ.zero()
    dom = {(g.bar, g.slot): g for g in dec.dom_basis.generators}
    cod = {(g.bar, g.slot): g for g in dec.cod_basis.generators}

    g04 = dom[(I(0, 4), 0)]
    assert gen_vec(dec.dom_basis, g04, 0) == (half,)
    for t in (1, 2, 3):
        assert gen_vec(dec.dom_basis, g04, t) == (half, zero)
    assert gen_vec(dec.dom_basis, g04, 4) == (half, zero, zero)

    g17 = dom[(I(1, 7), 0)]
    for t in (1, 2, 3):
        assert gen_vec(dec.dom_basis, g17, t) == (zero, one)
    assert gen_vec(dec.dom_basis, g17, 4) == (zero, one, zero)
    for t in (5, 6, 7):
        assert gen_vec(dec.dom_basis, g17, t) == (one,)

    g44 = dom[(I(4, 4), 0)]
    assert gen_vec(dec.dom_basis, g44, 4) == (-half, zero, one)

    c04 = cod[(I(0, 4), 0)]
    for t in range(5):
        assert gen_vec(dec.cod_basis, c04, t) == (one, zero)
    c05 = cod[(I(0, 5), 0)]
    for t in range(5):
        assert gen_vec(dec.cod_basis, c05, t) == (one, one)
    assert gen_vec(dec.cod_basis, c05, 5) == (one,)


def test_decomposition_bases_stay_valid(running):
    dec = decompose(running.phi, running.bbV, running.bbW1)
    assert dec.dom_basis.change.apply(running.V) == dec.dom_basis.reduced
    assert dec.cod_basis.change.apply(running.W1) == dec.cod_basis.reduced
    assert verify_decomposition(running.phi, dec) is None


def test_decompose_with_default_bases(running):
    dec = decompose(running.phi)
    assert isinstance(dec, LadderDecomposition)
    assert dec.pair_intervals() == ((0, 4, 0, 4), (0, 5, 1, 7))


def test_ops_replay_reaches_matching_form(running):
    mm0 = to_single_matrix(running.phi, running.bbV, running.bbW1)
    dec = decompose(running.phi, running.bbV, running.bbW1)
    replayed = apply_ops(mm0, dec.ops)
    assert replayed == dec.matching
    assert is_matching_form(replayed)


def test_apply_op_masks_spill():
    # adding a column along the overlap order may write into positions the
    # support constraint forbids; those entries are dropped by the mask
    V = module_from_barcode(QQ, 4, [I(1, 3), I(2, 4)])
    W = module_from_barcode(QQ, 4, [I(0, 1)])
    bv = reduce_to_barcode_basis(V)
    bw = reduce_to_barcode_basis(W)
    mm = MorphismMatrix(
        tuple(bw.generators), tuple(bv.generators), Matrix.from_int_rows(QQ, [[1, 0]])
    )
    out = apply_op(mm, AdmissibleOp("AO2", 1, 0, QQ.of(1)))
    # the raw sum would put a 1 at (row [0,1], column [2,4]), which the
    # support mask clears again
    assert out.entries == Matrix.from_int_rows(QQ, [[1, 0]])
    # the same addition in the other direction is not admissible
    with pytest.raises(ValueError):
        apply_op(mm, AdmissibleOp("AO2", 0, 1, QQ.of(1)))
    with pytest.raises(ValueError):
        apply_op(mm, AdmissibleOp("AO1-col", 1, 0, QQ.of(1)))
    with pytest.raises(ValueError):
        apply_op(mm, AdmissibleOp("scale-col", 0, 0, QQ.zero()))


def test_is_matching_form_golds(running):
    mm0 = to_single_matrix(running.phi, running.bbV, running.bbW1)
    assert not is_matching_form(mm0)
    dec = decompose(running.phi, running.bbV, running.bbW1)
    assert is_matching_form(dec.matching)


def _entrywise_is_matching_form(mm):
    zero = mm.field.zero()
    one = mm.field.one()
    ncols = len(mm.col_gens)
    col_seen = [False] * ncols
    for r in range(len(mm.row_gens)):
        row_nz = [c for c in range(ncols) if mm.entry(r, c) != zero]
        if len(row_nz) > 1:
            return False
        for c in row_nz:
            if mm.entry(r, c) != one or col_seen[c]:
                return False
            col_seen[c] = True
    return True


def _entrywise_summand_gens(matched):
    zero = matched.field.zero()
    pairs = []
    used_rows = set()
    used_cols = set()
    for r, rg in enumerate(matched.row_gens):
        for c, cg in enumerate(matched.col_gens):
            if matched.entry(r, c) != zero:
                pairs.append((rg, cg))
                used_rows.add(r)
                used_cols.add(c)
    plus = tuple(g for c, g in enumerate(matched.col_gens) if c not in used_cols)
    minus = tuple(g for r, g in enumerate(matched.row_gens) if r not in used_rows)
    return tuple(pairs), plus, minus


def test_matching_form_matches_entrywise_reference():
    # entry by entry, as the checks read the matrix before they shared one scan
    rng = random.Random("matching-form")
    hits = {True: 0, False: 0}
    patterned = 0
    for field in (QQ, field_by_name("prime 5")):
        for _ in range(400):
            nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
            # one bar for all, so that every entry is allowed
            row_gens = tuple(BarGenerator(I(0, 1), i, (i, i)) for i in range(nrows))
            col_gens = tuple(BarGenerator(I(0, 1), i, (i, i)) for i in range(ncols))
            rows = [[rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(ncols)] for _ in range(nrows)]
            mm = MorphismMatrix(row_gens, col_gens, Matrix.from_int_rows(field, rows, cols=ncols))
            want = _entrywise_is_matching_form(mm)
            assert is_matching_form(mm) == want
            hits[want] += 1
            # the summands are read off a matched pattern: one nonzero at most
            # in each row and in each column, whatever its value
            if all(sum(map(bool, r)) <= 1 for r in rows) and all(
                sum(bool(r[c]) for r in rows) <= 1 for c in range(ncols)
            ):
                assert ladder._summand_gens(mm) == _entrywise_summand_gens(mm)
                patterned += 1
    assert min(hits.values()) > 100 and patterned > hits[True]


def test_counterexample_reduction_failure(counterexample):
    fail = reduce_to_matching_form(counterexample.mm)
    assert isinstance(fail, ReductionFailure)
    assert fail.row_bar == I(0, 5)
    assert fail.col_bar == I(2, 5)
    assert fail.certified
    assert "no admissible operation" in fail.message
    assert str(fail.row_bar) in fail.message
    assert fail.usable_rows == () and fail.usable_cols == ()
    assert fail.row_used and not fail.col_used
    assert len(fail.ops) == 2
    # the stuck matrix is exactly where the recorded ops lead
    assert fail.stuck == apply_ops(counterexample.mm, fail.ops)


def test_counterexample_search_exhausts(counterexample):
    res = search_matching_form(counterexample.mm)
    assert res.found is None
    assert res.exhausted
    assert res.states == 3


def test_counterexample_decompose_returns_failure(counterexample):
    out = decompose(counterexample.cphi, counterexample.bcv, counterexample.bcw)
    assert isinstance(out, ReductionFailure)


def test_search_finds_matching_form_when_one_exists(running):
    mm0 = to_single_matrix(running.phi, running.bbV, running.bbW1)
    res = search_matching_form(mm0)
    assert res.found is not None
    assert is_matching_form(res.found)


def test_pivot_rules_agree_on_summands(running):
    a = decompose(running.phi, running.bbV, running.bbW1, pivot_rule="first")
    b = decompose(running.phi, running.bbV, running.bbW1, pivot_rule="last")
    assert isinstance(a, LadderDecomposition) and isinstance(b, LadderDecomposition)
    assert a.pair_intervals() == b.pair_intervals()
    with pytest.raises(ValueError):
        decompose(running.phi, running.bbV, running.bbW1, pivot_rule="middle")


def test_zero_morphism_fully_free(running):
    zero_mm = MorphismMatrix(
        tuple(running.bbW1.generators),
        tuple(running.bbV.generators),
        Matrix.zero(QQ, 2, 3),
    )
    lm = from_single_matrix(zero_mm, running.V, running.W1, running.bbV, running.bbW1)
    dec = decompose(lm, running.bbV, running.bbW1)
    assert dec.pairs == ()
    assert [g.bar for g in dec.plus_gens] == [I(0, 4), I(1, 7), I(4, 4)]
    assert [g.bar for g in dec.minus_gens] == [I(0, 4), I(0, 5)]
    assert dec.summands() == ["I+ [0,4]", "I+ [1,7]", "I+ [4,4]", "I- [0,4]", "I- [0,5]"]


def test_verify_decomposition_detects_corruption(running):
    dec = decompose(running.phi, running.bbV, running.bbW1)
    other = decompose(
        from_single_matrix(
            MorphismMatrix(
                tuple(running.bbW1.generators),
                tuple(running.bbV.generators),
                Matrix.zero(QQ, 2, 3),
            ),
            running.V,
            running.W1,
            running.bbV,
            running.bbW1,
        ),
        running.bbV,
        running.bbW1,
    )
    msg = verify_decomposition(running.phi, other)
    assert msg is not None


def test_verify_decomposition_checks_pairs_against_the_matrix():
    # swapping the domain ends of two matched pairs keeps the bar counts and
    # the support rule, but not the summands the matched matrix gives
    rng = random.Random(7)
    while True:
        lm, bb_dom, bb_cod, _ = gen.random_barcode_morphism(rng, QQ)
        dec = decompose(lm, bb_dom, bb_cod)
        if not isinstance(dec, LadderDecomposition) or len(dec.pairs) < 2:
            continue
        (k1, j1), (k2, j2) = dec.pairs[:2]
        if k1.bar != k2.bar and j1.bar != j2.bar and interval_overlap(
            k1.bar, j2.bar
        ) and interval_overlap(k2.bar, j1.bar):
            break
    swapped = dataclasses.replace(dec, pairs=((k1, j2), (k2, j1)) + dec.pairs[2:])
    assert dec.summands()[:2] == ["R [0,3]->[0,3]", "R [0,4]->[0,2]"]
    assert swapped.summands()[:2] == ["R [0,3]->[0,2]", "R [0,4]->[0,3]"]
    assert verify_decomposition(lm, dec) is None
    want = "recorded summands differ from the ones the matched matrix gives"
    assert verify_decomposition(lm, swapped) == want


def _bumped(m, r, c):
    """m with one added to entry (r, c)."""
    rows = m.to_lists()
    rows[r][c] += m.field.one()
    return Matrix.from_rows(m.field, rows, cols=m.cols)


def _with_level(basis, t, mat):
    mats = basis.change.mats[:t] + (mat,) + basis.change.mats[t + 1:]
    return dataclasses.replace(basis, change=BasisChange(mats))


def _single_mutations(phi, dec):
    """Decompositions (and inputs) that each differ from a valid one in one
    place that verify_decomposition must notice."""
    (cg, dg), *_ = dec.pairs
    r, c = dec.matching.row_gens.index(cg), dec.matching.col_gens.index(dg)
    t = dg.bar.a  # cg and dg overlap, so both are alive here
    # P_t (g_t + E) != P_t g_t when E's row is the matched domain generator's
    g = dec.dom_basis.change.mats[t]
    yield phi, dataclasses.replace(
        dec, dom_basis=_with_level(dec.dom_basis, t, _bumped(g, dg.position_at(t), 0)))
    # (h_t + E) phi_t != h_t phi_t when E's column meets a nonzero row of phi_t
    h, comp = dec.cod_basis.change.mats[t], phi.comps[t]
    j = next(j for j in range(comp.rows) if any(comp.row(j)))
    yield phi, dataclasses.replace(dec, cod_basis=_with_level(dec.cod_basis, t, _bumped(h, 0, j)))
    for value in (2, 0):
        rows = dec.matching.entries.to_lists()
        rows[r][c] = phi.dom.field.of(value)
        entries = Matrix.from_rows(phi.dom.field, rows, cols=dec.matching.entries.cols)
        yield phi, dataclasses.replace(
            dec, matching=dataclasses.replace(dec.matching, entries=entries))
    comps = list(phi.comps)
    comps[t] = _bumped(comps[t], 0, 0)
    yield LadderModule(phi.dom, phi.cod, tuple(comps)), dec
    bars = list(dec.dom_basis.barcode)
    yield phi, dataclasses.replace(
        dec, dom_basis=dataclasses.replace(dec.dom_basis, barcode=Barcode(bars[1:])))
    if dec.plus_gens:
        yield phi, dataclasses.replace(dec, plus_gens=dec.plus_gens[1:])
    if dec.minus_gens:
        yield phi, dataclasses.replace(dec, minus_gens=dec.minus_gens[1:])
    far = I(cg.bar.b + 1, cg.bar.b + 1 + dg.bar.length)
    pairs = ((cg, dataclasses.replace(dg, bar=far)),) + dec.pairs[1:]
    yield phi, dataclasses.replace(dec, pairs=pairs)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_verify_rejects_single_mutations(field_name):
    field = field_by_name(field_name)
    rng = random.Random("mutations/" + field_name)
    checked = 0
    while checked < 15:
        lm, _, _, _ = gen.random_barcode_morphism(rng, field)
        phi, _, _ = gen.conjugate_morphism(rng, lm)
        dec = decompose(phi)
        if not isinstance(dec, LadderDecomposition) or not dec.pairs:
            continue
        if not (dec.plus_gens or dec.minus_gens):
            continue
        kinds = {op.kind for op in dec.ops}
        if not (kinds & {"scale-col", "AO1-col", "AO2"} and kinds & {"scale-row", "AO1-row", "AO3"}):
            continue
        assert verify_decomposition(phi, dec) is None
        verdicts = [verify_decomposition(*bad) for bad in _single_mutations(phi, dec)]
        assert len(verdicts) >= 8
        assert all(isinstance(v, str) for v in verdicts), verdicts
        checked += 1


def test_generators_that_misstate_their_bars_are_rejected():
    # the zero morphism [2,3] -> 3 x [5,6]; the first codomain generator claims
    # [5,5] and the barcode follows it, so only the reduced module disagrees
    V = module_from_barcode(QQ, 6, [I(2, 3)])
    W = module_from_barcode(QQ, 6, [I(5, 6)] * 3)
    phi = LadderModule(V, W, tuple(Matrix.zero(QQ, W.dims[t], V.dims[t]) for t in range(7)))
    honest = reduce_to_barcode_basis(W)
    g = honest.generators[0]
    gens = (BarGenerator(I(5, 5), g.slot, g.positions[:1]),) + honest.generators[1:]
    lying = dataclasses.replace(honest, barcode=Barcode([x.bar for x in gens]), generators=gens)
    want = "codomain basis generators do not describe its reduced module"
    with pytest.raises(ValueError) as e:
        decompose(phi, cod_basis=lying)
    assert str(e.value) == want
    dec = decompose(phi)
    assert verify_decomposition(phi, dec) is None
    forged = dataclasses.replace(
        dec,
        cod_basis=lying,
        minus_gens=gens,
        matching=MorphismMatrix(gens, dec.matching.col_gens, dec.matching.entries),
    )
    assert verify_decomposition(phi, forged) == "reconstruction failed: " + want


def test_nestedness_precondition_report(running, counterexample):
    rep = check_nestedness_precondition(running.phi, 1, running.bbV, running.bbW1)
    assert rep.ok
    assert rep.xi_dom == 3 and rep.xi_cod == math.inf
    assert "ok" in str(rep)
    rep2 = check_nestedness_precondition(counterexample.cphi, 1)
    assert not rep2.ok
    assert rep2.xi_dom == 2
    assert "not guaranteed" in str(rep2)


def reference_apply(mm, op):
    """One admissible op the plain way: copy all entries, apply the op, then
    re-mask every entry whose row bar does not overlap-precede its column bar."""
    zero = mm.field.zero()
    n = len(mm.col_gens)
    data = list(mm.entries.data)
    t, s, a = op.target, op.source, op.scalar
    for r in range(len(mm.row_gens)):
        for c in range(n):
            if (op.kind, c) == ("scale-col", t) or (op.kind, r) == ("scale-row", t):
                data[r * n + c] = data[r * n + c] * a
            elif op.kind in ("AO1-col", "AO2") and c == t:
                data[r * n + c] = data[r * n + c] + a * data[r * n + s]
            elif op.kind in ("AO1-row", "AO3") and r == t:
                data[r * n + c] = data[r * n + c] + a * data[s * n + c]
    for r, rg in enumerate(mm.row_gens):
        for c, cg in enumerate(mm.col_gens):
            if not interval_overlap(rg.bar, cg.bar):
                data[r * n + c] = zero
    return MorphismMatrix(mm.row_gens, mm.col_gens, Matrix(mm.field, len(mm.row_gens), n, data))


def wide_nested_free_morphism(rng, field):
    """A random morphism between nested-free interval modules with 16 to 32
    bars per side, and its barcode bases."""
    n = rng.randint(16, 32)
    grid_len = n + 16
    dom = module_from_barcode(field, grid_len, gen.sorted_pairing_bars(rng, grid_len, n, 8))
    cod = module_from_barcode(field, grid_len, gen.sorted_pairing_bars(rng, grid_len, n, 8))
    bb_dom, bb_cod = reduce_to_barcode_basis(dom), reduce_to_barcode_basis(cod)
    mm = gen.random_morphism_matrix(rng, bb_cod, bb_dom, field)
    return from_single_matrix(mm, dom, cod, bb_dom, bb_cod), bb_dom, bb_cod, mm


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_in_place_reduction_matches_reference_ops(field_name):
    rng = random.Random("wide/" + field_name)
    field = field_by_name(field_name)
    for _ in range(4):
        lm, bb_dom, bb_cod, mm = wide_nested_free_morphism(rng, field)
        dec = decompose(lm, bb_dom, bb_cod)
        assert isinstance(dec, LadderDecomposition)
        assert len(dec.ops) > 0
        replayed = mm
        for op in dec.ops:
            replayed = reference_apply(replayed, op)
        assert replayed == dec.matching
        assert apply_ops(mm, dec.ops) == dec.matching
        assert verify_decomposition(lm, dec) is None


def test_decompose_builds_constant_number_of_single_matrices(monkeypatch, running, counterexample):
    """The reducer works on one row list: a decomposition builds the same
    number of MorphismMatrix objects however many ops it applies."""
    built = []
    check = MorphismMatrix.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(MorphismMatrix, "__post_init__", counted)
    lm, bb_dom, bb_cod, _ = wide_nested_free_morphism(random.Random("builds"), QQ)
    counts = []
    op_counts = []
    for args in ((running.phi, running.bbV, running.bbW1), (lm, bb_dom, bb_cod),
                 (counterexample.cphi, counterexample.bcv, counterexample.bcw)):
        del built[:]
        out = decompose(*args)
        counts.append(len(built))
        op_counts.append(len(out.ops))
    assert op_counts[0] < op_counts[1]
    assert counts == [counts[0]] * 3


def _object_fold(basis, ops, side):
    """The basis fold in object arithmetic, entry by entry: the reference the
    raw-row fold must reproduce exactly, entry types included."""
    kinds = {"dom": ("scale-col", "AO1-col", "AO2"), "cod": ("scale-row", "AO1-row", "AO3")}
    ops = [op for op in ops if op.kind in kinds[side]]
    field = basis.reduced.field
    gens = basis.generators
    mats = [g.to_lists() for g in basis.change.mats]
    for op in ops:
        if op.kind in ("scale-col", "scale-row"):
            gen_ = gens[op.target]
            f = field.one() / op.scalar if side == "dom" else op.scalar
            for t in range(gen_.bar.a, gen_.bar.b + 1):
                p = gen_.position_at(t)
                mats[t][p] = [f * x for x in mats[t][p]]
            continue
        s = op.scalar
        tgt, src = gens[op.target], gens[op.source]
        for t in range(max(tgt.bar.a, src.bar.a), min(tgt.bar.b, src.bar.b) + 1):
            ps, pt = src.position_at(t), tgt.position_at(t)
            if side == "dom":
                mats[t][ps] = [x - s * y if y else x for x, y in zip(mats[t][ps], mats[t][pt])]
            else:
                mats[t][pt] = [x + s * y if y else x for x, y in zip(mats[t][pt], mats[t][ps])]
    return BasisChange(
        tuple(
            Matrix.from_rows(field, rows, cols=basis.reduced.dims[t])
            for t, rows in enumerate(mats)
        )
    )


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_fold_matches_object_reference(field_name):
    field = field_by_name(field_name)
    rng = random.Random("fold/" + field_name)
    kinds = set()
    for _ in range(6):
        lm, _, _, _ = gen.random_barcode_morphism(rng, field)
        phi, _, _ = gen.conjugate_morphism(rng, lm)
        bases = {"dom": reduce_to_barcode_basis(phi.dom), "cod": reduce_to_barcode_basis(phi.cod)}
        dec = decompose(phi, bases["dom"], bases["cod"])
        assert isinstance(dec, LadderDecomposition)
        ops = list(dec.ops)
        # the reducer scales columns only; add scalings and additions on both sides
        # (the fold reads only the generators' levels, not whether an op is admissible)
        for side, scale, adds in (("dom", "scale-col", ("AO1-col", "AO2")),
                                  ("cod", "scale-row", ("AO1-row", "AO3"))):
            k = len(bases[side].generators)
            for _ in range(3):
                v = field.of(rng.choice((-3, -2, 2, 3)), rng.choice((1, 2, 7)))
                ops.insert(rng.randint(0, len(ops)), AdmissibleOp(scale, rng.randrange(k), 0, v))
                if k > 1:
                    t, s = rng.sample(range(k), 2)
                    op = AdmissibleOp(rng.choice(adds), t, s, v)
                    ops.insert(rng.randint(0, len(ops)), op)
        kinds |= {op.kind for op in ops}
        for side, basis in bases.items():
            got = ladder._fold_ops(basis, ops, side)
            want = _object_fold(basis, ops, side)
            assert got.change == want
            assert got.change.mats == want.mats
            assert [[type(x) for x in g.data] for g in got.change.mats] == [
                [type(x) for x in g.data] for g in want.mats
            ]
            assert (got.barcode, got.generators, got.reduced) == (
                basis.barcode, basis.generators, basis.reduced)
    assert kinds == {"scale-col", "scale-row", "AO1-col", "AO1-row", "AO2", "AO3"}


def test_decompose_and_verify_invert_nothing(monkeypatch, running):
    """decompose checks the two endpoint bases and verify_decomposition the
    two folded ones. All four are proven invertible by rank, and
    to_single_matrix reads each column with one solve per birth level, so no
    level of any basis is inverted. from_single_matrix solves once per level,
    with a checked basis (invertibility by rank) or a library-built one."""
    phi, _, _ = gen.conjugate_morphism(random.Random("inverses"), running.phi)
    inverted = []

    def counted(a):
        inverted.append(a)
        return mat_inverse(a)

    for module in (persistence, morphism, coarse):
        monkeypatch.setattr(module, "mat_inverse", counted)
    dec = decompose(phi)
    assert isinstance(dec, LadderDecomposition)
    kinds = {op.kind for op in dec.ops}
    assert kinds & {"scale-col", "AO1-col", "AO2"} and kinds & {"scale-row", "AO1-row", "AO3"}
    assert verify_decomposition(phi, dec) is None
    assert from_single_matrix(dec.matching, phi.dom, phi.cod, dec.dom_basis, dec.cod_basis) == phi
    bases = reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod)
    mm = to_single_matrix(phi, *bases)
    assert from_single_matrix(mm, phi.dom, phi.cod, *bases) == phi
    assert inverted == []


def test_decompose_trusts_library_bases_and_verify_checks_in_full(monkeypatch, running, data_dir):
    """decompose proves nothing again about bases the library built for the
    modules it is handed (the sweep's, or a shifted one for an equal shifted
    module): no basis check, and one validate_ladder, on the ladder itself,
    unless the ladder is marked as commuting (a parsed one), which takes none.
    verify_decomposition ignores the marks and checks both folded bases."""
    calls = Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(morphism, "_check_basis", counting("check", morphism._check_basis))
    monkeypatch.setattr(morphism, "validate_ladder", counting("validate", morphism.validate_ladder))
    phi, _, _ = gen.conjugate_morphism(random.Random("trusted"), running.phi)
    with open(os.path.join(data_dir, "run.txt")) as f:
        parsed = parse_morphism_text(f.read()).phi()
    cases = [
        (phi, None, None, 1),
        (phi, reduce_to_barcode_basis(phi.dom), reduce_to_barcode_basis(phi.cod), 1),
        (running.phi, running.bbV, running.bbW1, 1),
        (parsed, running.bbV, running.bbW1, 0),
        (parsed, None, None, 0),
    ]
    for lm, dom_basis, cod_basis, validated in cases:
        calls.clear()
        dec = decompose(lm, dom_basis, cod_basis)
        assert isinstance(dec, LadderDecomposition)
        assert calls == Counter(validate=validated)
        calls.clear()
        assert verify_decomposition(lm, dec) is None
        assert calls == {"check": 2, "validate": 2}


def test_readme_library_quick_start():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        block = re.search(r"```python\n(.*?)```", f.read(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "['R [0,4]->[0,4]', 'R [1,7]->[0,5]']",
        "['pair [0,4] -> [1,5] x1', 'pair [1,7] -> [1,6] x1']",
        "1",
    ]


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_decompose_with_an_empty_side(field_name):
    # a module with no bars gives a single matrix with no rows or no columns
    field = field_by_name(field_name)
    V = module_from_barcode(field, 3, [])
    W = module_from_barcode(field, 3, [I(0, 2), I(1, 3)])
    for dom, cod, shape, kinds in [
        (V, W, (2, 0), {"I-"}),
        (W, V, (0, 2), {"I+"}),
        (V, V, (0, 0), set()),
    ]:
        comps = tuple(Matrix.zero(field, r, c) for r, c in zip(cod.dims, dom.dims))
        lm = LadderModule(dom, cod, comps)
        dec = decompose(lm)
        assert isinstance(dec, LadderDecomposition)
        assert (dec.matching.entries.rows, dec.matching.entries.cols) == shape
        summands = dec.summands()
        assert {s.split()[0] for s in summands} == kinds and len(summands) == max(shape)
        assert verify_decomposition(lm, dec) is None


def _boxed_failure(mm, fail):
    """(stuck, usable_rows, usable_cols, certified) of a ReductionFailure,
    recomputed on boxed entries: its ops replayed through reference_apply,
    and the usable sources of its entry read entry by entry."""
    stuck = mm
    for op in fail.ops:
        stuck = reference_apply(stuck, op)
    r, c = fail.row, fail.col
    zero = mm.field.zero()
    assert stuck.entry(r, c) != zero
    rbar, cbar = mm.row_gens[r].bar, mm.col_gens[c].bar
    rows = tuple(k for k, g in enumerate(mm.row_gens)
                 if k != r and stuck.entry(k, c) != zero and interval_overlap(rbar, g.bar))
    cols = tuple(k for k, g in enumerate(mm.col_gens)
                 if k != c and stuck.entry(r, k) != zero and interval_overlap(g.bar, cbar))
    return stuck, rows, cols, not rows and not cols


def _failure_fields(fail):
    return fail.stuck, fail.usable_rows, fail.usable_cols, fail.certified


def test_counterexample_failure_matches_boxed_replay(counterexample):
    for rule in ("first", "last"):
        fail = reduce_to_matching_form(counterexample.mm, pivot_rule=rule)
        assert _failure_fields(fail) == _boxed_failure(counterexample.mm, fail)


# The census counts (tests/census.py) as the reducer gave them on boxed field
# elements, before it moved to raw rows. The first four of F_2 are ROADMAP
# item 2's: morphisms, failures, uncertified failures, and failures the
# search resolves.
CENSUS_COUNTS = {
    (2, 2, 2): dict(morphisms=2585, failures=26, uncertified=6, resolved=6, exhausted=20,
                    states=44),
    (2, 3, 2): dict(morphisms=13342, failures=257, uncertified=42, resolved=42, exhausted=215,
                    states=395),
    (3, 2, 2): dict(morphisms=7685, failures=160, uncertified=64, resolved=64, exhausted=96,
                    states=344),
}


@pytest.mark.parametrize("p, grid_len, max_bars", sorted(CENSUS_COUNTS))
def test_census_of_small_morphisms(p, grid_len, max_bars):
    # every success replays through the boxed reference to its matching form,
    # and every failure reads as its boxed replay does
    last = []

    def on_success(mm, matched, ops):
        if last != [mm, ops]:  # the other pivot rule often takes the same ops
            replayed = mm
            for op in ops:
                replayed = reference_apply(replayed, op)
            assert replayed == matched
            last[:] = [mm, ops]

    def on_failure(mm, fail):
        assert _failure_fields(fail) == _boxed_failure(mm, fail)

    counts = census.census(p, grid_len, max_bars, on_success, on_failure)
    assert counts["nested-free failures"] == 0
    assert counts["certified but resolved"] == 0
    assert counts["uncertified and open"] == 0
    want = CENSUS_COUNTS[p, grid_len, max_bars]
    assert counts["morphisms"] == want["morphisms"]
    assert counts["search states"] == want["states"]
    for rule in census.PIVOT_RULES:
        got = [counts[key + " " + rule] for key in ("failures", "uncertified", "resolved", "exhausted")]
        assert got == [want["failures"], want["uncertified"], want["resolved"], want["exhausted"]]


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_apply_op_refuses_scalars_outside_the_field(field_name):
    field = field_by_name(field_name)
    V = module_from_barcode(field, 4, [I(1, 3), I(2, 4)])
    W = module_from_barcode(field, 4, [I(0, 1)])
    bv, bw = reduce_to_barcode_basis(V), reduce_to_barcode_basis(W)
    mm = MorphismMatrix(
        tuple(bw.generators), tuple(bv.generators), Matrix.from_int_rows(field, [[1, 0]])
    )
    other = field_by_name("prime 3").one()
    foreign = ("mixed characteristics 5 and 3" if field_name == "prime 5"
               else "Fp(1,3) is not an element of rational")
    cases = [(other, foreign), (1.5, "1.5 is not an element of " + field.name),
             ("x", "'x' is not an element of " + field.name)]
    for kind, t, src in (("AO2", 1, 0), ("scale-col", 0, 0), ("scale-row", 0, 0)):
        for scalar, msg in cases:
            with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
                apply_op(mm, AdmissibleOp(kind, t, src, scalar))
        for zero in (field.zero(), 0):
            if kind.startswith("scale"):
                with pytest.raises(ValueError, match="^scale by zero$"):
                    apply_op(mm, AdmissibleOp(kind, t, src, zero))
    # an int is read in the field, as field arithmetic reads it
    assert apply_op(mm, AdmissibleOp("scale-row", 0, 0, 3)).entries == Matrix.from_int_rows(
        field, [[3, 0]])


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_apply_op_on_thin_single_matrices(field_name):
    # one row, one column, no rows and no columns: every admissible op gives
    # the boxed reference's matrix, and the refusals keep their messages
    field = field_by_name(field_name)
    half, two = field.of(1, 2), field.of(2)

    def gens(bars):
        return tuple(BarGenerator(b, k, tuple(range(b.length + 1))) for k, b in enumerate(bars))

    def single(rows, cols, ints):
        return MorphismMatrix(gens(rows), gens(cols),
                              Matrix.from_int_rows(field, ints, cols=len(cols)))

    one_row = single([I(0, 2)], [I(0, 2), I(0, 2), I(1, 3)], [[1, 2, 3]])
    one_col = single([I(0, 2), I(0, 2), I(0, 3)], [I(1, 3)], [[1], [2], [3]])
    no_rows = single([], [I(0, 2), I(0, 2), I(1, 3)], [])
    no_cols = single([I(0, 2), I(0, 2), I(0, 3)], [], [[], [], []])
    good = [
        (one_row, AdmissibleOp("scale-col", 2, 2, half)),
        (one_row, AdmissibleOp("scale-row", 0, 0, two)),
        (one_row, AdmissibleOp("AO1-col", 1, 0, half)),
        (one_row, AdmissibleOp("AO2", 2, 0, -two)),
        (one_col, AdmissibleOp("AO1-row", 0, 1, half)),
        (one_col, AdmissibleOp("AO3", 0, 2, two)),
        (one_col, AdmissibleOp("scale-col", 0, 0, half)),
        (no_rows, AdmissibleOp("AO2", 2, 1, two)),
        (no_rows, AdmissibleOp("scale-col", 0, 0, half)),
        (no_cols, AdmissibleOp("AO1-row", 1, 0, half)),
        (no_cols, AdmissibleOp("scale-row", 2, 2, two)),
    ]
    for mm, op in good:
        assert apply_op(mm, op) == reference_apply(mm, op)
    bad = [
        (one_row, AdmissibleOp("AO1-col", 0, 0, two), "column op onto itself"),
        (one_row, AdmissibleOp("AO1-col", 2, 0, two), "AO1-col needs equal bars, got [0,2] and [1,3]"),
        (one_row, AdmissibleOp("AO2", 0, 2, two), "AO2 needs [1,3] to overlap-precede [0,2]"),
        (one_col, AdmissibleOp("AO3", 1, 1, two), "row op onto itself"),
        (one_col, AdmissibleOp("AO1-row", 2, 0, two), "AO1-row needs equal bars, got [0,2] and [0,3]"),
        (one_col, AdmissibleOp("AO3", 2, 0, two), "AO3 needs [0,3] to overlap-precede [0,2]"),
        (no_rows, AdmissibleOp("scale-col", 1, 1, field.zero()), "scale by zero"),
        (no_cols, AdmissibleOp("swap", 0, 1, two), "unknown op kind 'swap'"),
    ]
    for mm, op, msg in bad:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            apply_op(mm, op)
    for mm in (one_row, one_col, no_rows, no_cols):
        matched, ops = reduce_to_matching_form(mm)
        assert apply_ops(mm, ops) == matched and is_matching_form(matched)
        assert search_matching_form(mm).found is not None
