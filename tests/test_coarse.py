"""q-splittings, coarse interleavings, and grid refinement."""

import math
import random

import pytest

import gen
from laddermod import (
    Barcode,
    InterleavingCertificate,
    Interval,
    LadderDecomposition,
    Matrix,
    check_delta_invertible,
    coarse_decompose,
    coarse_interleaving,
    compose_ladder,
    decompose,
    field_by_name,
    induce_coarse_morphism,
    induced_matching,
    inner_ladder,
    mat_inverse,
    mat_mul,
    nestedness,
    q_split,
    reduce_to_barcode_basis,
    refine_interval,
    refine_module,
    refine_morphism,
    shift_morphism,
    validate_ladder,
)
from laddermod.morphism import _check_basis

I = Interval


def test_q_split_partitions_by_length(running):
    sp = q_split(running.V, 2)
    assert sp.q == 2
    assert sp.long_basis.barcode == Barcode([I(0, 4), I(1, 7)])
    assert sp.short_basis.barcode == Barcode([I(4, 4)])
    assert len(sp.long_basis.generators) + len(sp.short_basis.generators) == 3


def test_q_split_projections_and_inclusions(running):
    sp = q_split(running.V, 2)
    for lm in (sp.pr_long, sp.pr_short, sp.inc_long, sp.inc_short):
        assert validate_ladder(lm) is None
    assert sp.pr_long.dom == running.V and sp.pr_long.cod == sp.long
    assert sp.inc_short.dom == sp.short and sp.inc_short.cod == running.V
    # projection after inclusion is the identity on the long part
    for t in range(running.V.grid_len + 1):
        a = sp.pr_long.comps[t] * sp.inc_long.comps[t]
        assert a.rank() == sp.long.dims[t]
        z = sp.pr_short.comps[t] * sp.inc_long.comps[t]
        assert all(z.get(i, j) == 0 for i in range(z.rows) for j in range(z.cols))


def test_q_split_carries_origins(running):
    bb = running.bbV
    sp = q_split(running.V, 2, bb)
    assert {g.origin for g in sp.long_basis.generators} == {I(0, 4), I(1, 7)}
    assert {g.origin for g in sp.short_basis.generators} == {I(4, 4)}


def test_q_split_all_long_or_all_short(running):
    sp0 = q_split(running.V, 0)
    assert sp0.short_basis.barcode == Barcode([])
    sp99 = q_split(running.V, 99)
    assert sp99.long_basis.barcode == Barcode([])
    assert sp99.short_basis.barcode == running.bbV.barcode


def test_q_split_rejects_another_modules_basis(running):
    # a caller's basis is checked where it enters, before any split map is built
    phi, _, _ = gen.conjugate_morphism(random.Random("q-split-foreign"), running.phi)
    with pytest.raises(ValueError) as e:
        q_split(phi.dom, 2, running.bbV)
    assert str(e.value) == "source basis does not reduce the source module"


def test_coarse_interleaving_even_q(running):
    sp = q_split(running.V, 2)
    ci = coarse_interleaving(sp)
    assert isinstance(ci.certificate, InterleavingCertificate)
    assert ci.certificate.delta == 1


def test_coarse_interleaving_rejects_odd_q(running):
    sp3 = q_split(running.V, 3)
    assert sp3.long_basis.barcode == Barcode([I(0, 4), I(1, 7)])
    with pytest.raises(ValueError) as exc:
        coarse_interleaving(sp3)
    assert "refine_module" in str(exc.value)


def test_induce_coarse_morphism_variants(running):
    for variant in ("target", "source", "both"):
        cm = induce_coarse_morphism(running.phi, running.psi_on, 1, 2, variant)
        assert cm.variant == variant
        assert cm.coarse_delta == 2
        assert isinstance(cm.certificate, InterleavingCertificate)
        assert check_delta_invertible(cm.phi, cm.psi, 2) == cm.certificate


def test_induce_coarse_morphism_rejects_uncertified(running):
    with pytest.raises(ValueError):
        induce_coarse_morphism(running.phi, running.psi_on, 2, 2, "both")


def test_coarse_decompose_running(running):
    for variant in ("target", "source", "both"):
        cd = coarse_decompose(
            running.phi,
            running.psi_on,
            1,
            2,
            variant,
            dom_split=q_split(running.V, 2, running.bbV),
            cod_split=q_split(running.W1, 2, running.bbW1),
        )
        assert isinstance(cd.result, LadderDecomposition)
        assert cd.bound() == 2
    cd_both = coarse_decompose(
        running.phi,
        running.psi_on,
        1,
        2,
        "both",
        dom_split=q_split(running.V, 2, running.bbV),
        cod_split=q_split(running.W1, 2, running.bbW1),
    )
    assert cd_both.inequality_ok
    assert cd_both.xi_dom == math.inf and cd_both.xi_cod == math.inf
    chi = induced_matching(
        cd_both.result,
        dom_barcode=running.bbV.barcode,
        cod_barcode=running.bbW.barcode,
    )
    assert chi.pairs == (((I(0, 4), I(1, 5)), 1), ((I(1, 7), I(1, 6)), 1))
    assert chi.unmatched_source == ((I(4, 4), 1),)
    assert chi.unmatched_target == ()


def test_coarse_inequality_is_sufficient_not_necessary(running):
    # with the full domain kept, Xi(V)=3 < 2*delta+q=4, yet the reduction
    # still happens to succeed
    cd = coarse_decompose(
        running.phi,
        running.psi_on,
        1,
        2,
        "target",
        dom_split=q_split(running.V, 2, running.bbV),
        cod_split=q_split(running.W1, 2, running.bbW1),
    )
    assert not cd.inequality_ok
    assert cd.xi_dom == 3
    assert isinstance(cd.result, LadderDecomposition)


def test_refine_module_doubles_grid(running):
    VR = refine_module(running.V)
    assert VR.grid_len == 2 * running.V.grid_len + 1
    bb = reduce_to_barcode_basis(VR)
    assert bb.barcode == Barcode([I(0, 9), I(2, 15), I(8, 9)])
    assert refine_interval(I(0, 4)) == I(0, 9)
    assert refine_interval(I(4, 4)) == I(8, 9)
    assert nestedness(bb.barcode) == 2 * nestedness(running.bbV.barcode)


def test_refine_morphism_doubles_certificates(running):
    phi_r = refine_morphism(running.phi)
    psi_r = refine_morphism(running.psi_on)
    assert validate_ladder(phi_r) is None
    assert validate_ladder(psi_r) is None
    assert isinstance(check_delta_invertible(phi_r, psi_r, 2), InterleavingCertificate)


def test_refined_odd_q_pipeline(running):
    # an odd q on the original grid becomes the even 2q after refinement
    phi_r = refine_morphism(running.phi)
    psi_r = refine_morphism(running.psi_on)
    cd = coarse_decompose(phi_r, psi_r, 2, 6, "both")
    assert isinstance(cd.result, LadderDecomposition)
    assert cd.coarse.coarse_delta == 5


def _selection_matrix(field, positions, n):
    # row i picks coordinate positions[i] of an n-dimensional fibre
    return Matrix.from_rows(
        field,
        [[field.one() if j == p else field.zero() for j in range(n)] for p in positions],
        cols=n,
    )


def _inclusion_matrix(field, positions, n):
    # column i is the unit vector at coordinate positions[i]
    return Matrix.from_rows(
        field,
        [[field.one() if j == p else field.zero() for p in positions] for j in range(n)],
        cols=len(positions),
    )


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_q_split_maps_match_selection_products(field_name):
    field = field_by_name(field_name)
    rng = random.Random("q-split-maps/" + field_name)
    modules = []
    for _ in range(4):
        phi, _, _ = gen.certified_pair(rng, field=field)
        modules += [phi.dom, phi.cod]
    for m in modules:
        basis = reduce_to_barcode_basis(m)
        g_inv = [mat_inverse(g) for g in basis.change.mats]
        for q in (0, 2, 4, 99):
            sp = q_split(m, q, basis)
            # the split maps commute and the part bases hold by construction,
            # and nothing in q_split checks either
            for lm in (sp.pr_long, sp.pr_short, sp.inc_long, sp.inc_short):
                assert validate_ladder(lm) is None
            _check_basis(sp.long_basis, sp.long, "long")
            _check_basis(sp.short_basis, sp.short, "short")
            parts = (
                (sp.pr_long, sp.inc_long, [g for g in basis.generators if g.bar.length >= q]),
                (sp.pr_short, sp.inc_short, [g for g in basis.generators if g.bar.length < q]),
            )
            for pr, inc, gens in parts:
                for t in range(m.grid_len + 1):
                    alive = sorted(g.position_at(t) for g in gens if g.bar.contains_index(t))
                    sel = _selection_matrix(field, alive, m.dims[t])
                    assert pr.comps[t] == mat_mul(sel, basis.change.mats[t])
                    assert inc.comps[t] == mat_mul(g_inv[t], _inclusion_matrix(field, alive, m.dims[t]))


def _coarse_reference(phi, psi, delta, q, variant, dom_split, cod_split):
    # the pair and bases of each variant, written out branch by branch
    if variant == "target":
        phi2 = compose_ladder(cod_split.pr_long, phi)
        psi2 = compose_ladder(
            shift_morphism(psi, q),
            compose_ladder(
                shift_morphism(cod_split.inc_long, q), inner_ladder(cod_split.long, q)
            ),
        )
        bases = (dom_split.source_basis, cod_split.long_basis)
    elif variant == "source":
        phi2 = compose_ladder(phi, dom_split.inc_long)
        psi2 = compose_ladder(
            shift_morphism(dom_split.pr_long, 2 * delta + q),
            compose_ladder(inner_ladder(psi.cod, q), psi),
        )
        bases = (dom_split.long_basis, cod_split.source_basis)
    else:
        phi2 = compose_ladder(cod_split.pr_long, compose_ladder(phi, dom_split.inc_long))
        psi2 = compose_ladder(
            shift_morphism(dom_split.pr_long, 2 * delta + q),
            compose_ladder(
                shift_morphism(psi, q),
                compose_ladder(
                    shift_morphism(cod_split.inc_long, q), inner_ladder(cod_split.long, q)
                ),
            ),
        )
        bases = (dom_split.long_basis, cod_split.long_basis)
    cert = check_delta_invertible(phi2, psi2, delta + q // 2)
    return phi2, psi2, cert, decompose(phi2, *bases)


@pytest.mark.parametrize("field_name", ["rational", "prime 5"])
def test_coarse_variants_match_branch_by_branch_reference(field_name):
    field = field_by_name(field_name)
    rng = random.Random("coarse-variants/" + field_name)
    for k in range(12):
        q = (2, 4)[k % 2]
        phi, psi, delta = gen.coarse_pair(rng, q=q, field=field)
        dom_split = q_split(phi.dom, q)
        cod_split = q_split(phi.cod, q)
        for variant in ("target", "source", "both"):
            phi2, psi2, cert, dec = _coarse_reference(
                phi, psi, delta, q, variant, dom_split, cod_split
            )
            cm = induce_coarse_morphism(phi, psi, delta, q, variant, dom_split, cod_split)
            assert cm.phi.comps == phi2.comps
            assert cm.psi.comps == psi2.comps
            assert cm.certificate == cert
            cd = coarse_decompose(phi, psi, delta, q, variant, dom_split, cod_split)
            assert isinstance(cd.result, LadderDecomposition)
            assert cd.result.summands() == dec.summands()
