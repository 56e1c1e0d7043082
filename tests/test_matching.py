"""Induced partial matchings, costs, the image-based matching, and the exact
bottleneck distance."""

from fractions import Fraction

import pytest

from laddermod import (
    Barcode,
    Interval,
    LadderModule,
    PartialMatching,
    QQ,
    bl_matching,
    bottleneck_distance,
    check_cost_bound,
    check_matching_correspondence,
    decompose,
    induced_matching,
    matching_cost,
    module_from_barcode,
    to_basis_independent,
    validate_ladder,
)

I = Interval


def test_partial_matching_collapses_multiplicities():
    pm = PartialMatching.build(
        [(I(0, 2), I(1, 3)), (I(0, 2), I(1, 3)), (I(0, 4), I(0, 4))],
        [I(5, 6), I(5, 6)],
        [],
    )
    assert pm.pairs == (((I(0, 2), I(1, 3)), 2), ((I(0, 4), I(0, 4)), 1))
    assert pm.unmatched_source == ((I(5, 6), 2),)
    assert pm.unmatched_target == ()
    assert pm.pair_multiplicity(I(0, 2), I(1, 3)) == 2
    assert pm.pair_multiplicity(I(0, 2), I(0, 4)) == 0
    assert pm.source_bars() == Barcode([I(0, 2), I(0, 2), I(0, 4), I(5, 6), I(5, 6)])
    assert pm.target_bars() == Barcode([I(1, 3), I(1, 3), I(0, 4)])


def test_matching_cost_formula():
    pm = PartialMatching.build([(I(0, 4), I(1, 6))], [I(0, 3)], [I(2, 2)])
    # matched pair contributes max(|0-1|, |4-6|) = 2; unmatched [0,3]
    # contributes 3/2, unmatched point bar contributes 0
    assert matching_cost(pm) == Fraction(2)
    pm2 = PartialMatching.build([], [I(0, 7)], [])
    assert matching_cost(pm2) == Fraction(7, 2)
    assert matching_cost(PartialMatching.build([], [], [])) == Fraction(0)


def test_running_example_matchings(running):
    dec_phi = decompose(running.phi, running.bbV, running.bbW1)
    dec_psi = decompose(running.psi, running.bbW, running.bbV1)
    chi_phi = induced_matching(dec_phi)
    chi_psi = induced_matching(dec_psi)
    assert chi_phi.pairs == (((I(0, 4), I(1, 5)), 1), ((I(1, 7), I(1, 6)), 1))
    assert chi_phi.unmatched_source == ((I(4, 4), 1),)
    assert chi_phi.unmatched_target == ()
    assert chi_psi.pairs == (((I(1, 5), I(0, 4)), 1), ((I(1, 6), I(1, 7)), 1))
    assert chi_psi.unmatched_source == ()
    assert chi_psi.unmatched_target == ((I(4, 4), 1),)
    assert matching_cost(chi_phi) == Fraction(1)
    assert matching_cost(chi_psi) == Fraction(1)


def test_grid_coordinate_matching(running):
    dec_phi = decompose(running.phi, running.bbV, running.bbW1)
    chi = induced_matching(dec_phi, coords="grid")
    assert chi.pairs == (((I(0, 4), I(0, 4)), 1), ((I(1, 7), I(0, 5)), 1))
    with pytest.raises(ValueError):
        induced_matching(dec_phi, coords="pixel")


def test_cost_bound_report(running):
    chi = induced_matching(decompose(running.phi, running.bbV, running.bbW1))
    rep = check_cost_bound(chi, 1)
    assert rep.ok and rep.cost == 1 and rep.bound == 1
    assert str(rep) == "cost 1 <= bound 1"
    rep0 = check_cost_bound(chi, 0)
    assert not rep0.ok
    assert str(rep0) == "cost 1 > bound 0"


def test_correspondence_running(running):
    chi_phi = induced_matching(decompose(running.phi, running.bbV, running.bbW1))
    chi_psi = induced_matching(decompose(running.psi, running.bbW, running.bbV1))
    rep = check_matching_correspondence(chi_phi, chi_psi, 1)
    assert rep.ok
    assert rep.checked == 2
    assert rep.violations == ()
    assert rep.short_divergences == ()


def test_correspondence_flags_asymmetry():
    chi_phi = PartialMatching.build([(I(0, 9), I(1, 8))], [], [])
    chi_psi = PartialMatching.build([(I(1, 8), I(2, 9))], [], [])
    rep = check_matching_correspondence(chi_phi, chi_psi, 1)
    assert not rep.ok
    assert rep.violations
    # bars below the 2*delta threshold may diverge without failing the check
    chi_phi2 = PartialMatching.build([(I(0, 1), I(1, 2))], [], [])
    chi_psi2 = PartialMatching.build([], [I(1, 2)], [I(0, 1)])
    rep2 = check_matching_correspondence(chi_phi2, chi_psi2, 1)
    assert rep2.ok
    assert rep2.short_divergences


def test_full_barcode_extension(running):
    dec_phi = decompose(running.phi, running.bbV, running.bbW1)
    chi = induced_matching(
        dec_phi,
        dom_barcode=running.bbV.barcode,
        cod_barcode=running.bbW.barcode,
    )
    assert chi.pairs == (((I(0, 4), I(1, 5)), 1), ((I(1, 7), I(1, 6)), 1))
    assert chi.unmatched_source == ((I(4, 4), 1),)
    with pytest.raises(ValueError) as exc:
        induced_matching(dec_phi, dom_barcode=Barcode([I(0, 4)]))
    assert "not present" in str(exc.value)


def test_to_basis_independent(running):
    chi = induced_matching(decompose(running.phi, running.bbV, running.bbW1))
    tab = to_basis_independent(chi, running.bbV.barcode, running.bbW.barcode)
    assert tab.ok
    assert dict(tab.table) == {(I(0, 4), I(1, 5)): 1, (I(1, 7), I(1, 6)): 1}
    # multiplicities above the barcode count fail the marginal inequalities
    bogus = PartialMatching.build(
        [(I(0, 4), I(1, 5)), (I(0, 4), I(1, 6))], [], []
    )
    tab2 = to_basis_independent(bogus, Barcode([I(0, 4)]), running.bbW.barcode)
    assert not tab2.row_ok
    assert not tab2.ok


def test_bl_matching_agrees_across_interleavings(bl_example):
    bl_phi = bl_matching(bl_example.bphi, bl_example.bbBV, bl_example.bbBW1)
    bl_psi = bl_matching(bl_example.bpsi, bl_example.bbBV, bl_example.bbBW1)
    assert bl_phi == bl_psi
    assert bl_phi.pairs == (((I(0, 2), I(1, 3)), 1), ((I(0, 3), I(0, 3)), 1))


def test_ladder_matchings_depend_on_the_morphism(bl_example):
    lad_phi = induced_matching(decompose(bl_example.bphi, bl_example.bbBV, bl_example.bbBW1))
    lad_psi = induced_matching(decompose(bl_example.bpsi, bl_example.bbBV, bl_example.bbBW1))
    assert lad_phi.pairs == (((I(0, 2), I(1, 3)), 1), ((I(0, 3), I(0, 3)), 1))
    assert lad_psi.pairs == (((I(0, 2), I(0, 3)), 1), ((I(0, 3), I(1, 3)), 1))
    assert lad_phi != lad_psi
    # the image construction cannot see the difference
    assert lad_phi.pairs == bl_matching(bl_example.bphi, bl_example.bbBV, bl_example.bbBW1).pairs


@pytest.mark.parametrize("dom_bars, cod_bars, comps", [
    ([I(0, 1)], [I(0, 1), I(1, 1)], [[[1]], [[0], [1]]]),  # the image is nonzero at 1
    ([I(0, 0), I(0, 1)], [I(0, 1)], [[[1, 0]], [[0]]]),  # the image is zero at 1
])
def test_bl_matching_names_a_non_commuting_ladder_one_way(dom_bars, cod_bars, comps):
    V = module_from_barcode(QQ, 1, dom_bars)
    W = module_from_barcode(QQ, 1, cod_bars)
    phi = LadderModule.from_int_comps(V, W, comps)
    assert validate_ladder(phi) == "square 1 does not commute"
    with pytest.raises(ValueError) as e:
        bl_matching(phi)
    assert str(e.value) == "image is not closed under the structure maps"


def test_bl_matching_running(running):
    bl = bl_matching(running.phi, running.bbV, running.bbW1)
    # labels are provenance origins: codomain bars on the unshifted W grid
    assert bl.pairs == (((I(0, 4), I(1, 5)), 1), ((I(1, 7), I(1, 6)), 1))
    assert bl.unmatched_source == ((I(4, 4), 1),)


def test_bottleneck_distance_golds(running):
    bV = running.bbV.barcode
    bW = running.bbW.barcode
    assert bottleneck_distance(bV, bW) == Fraction(1)
    assert bottleneck_distance(bW, bV) == Fraction(1)
    assert bottleneck_distance(bV, bV) == 0
    assert bottleneck_distance(Barcode([]), Barcode([])) == 0
    assert bottleneck_distance(Barcode([I(0, 6)]), Barcode([])) == Fraction(3)
    assert bottleneck_distance(Barcode([]), Barcode([I(0, 6)])) == Fraction(3)
    assert bottleneck_distance(Barcode([I(0, 2)]), Barcode([I(1, 3)])) == Fraction(1)
    # matching to the diagonal can beat any bar-to-bar assignment
    assert bottleneck_distance(Barcode([I(0, 1)]), Barcode([I(10, 11)])) == Fraction(1, 2)


def test_bottleneck_distance_is_a_lower_bound(running):
    chi = induced_matching(decompose(running.phi, running.bbV, running.bbW1))
    d = bottleneck_distance(chi.source_bars(), chi.target_bars())
    assert matching_cost(chi) >= d


def test_bottleneck_distance_size_guard():
    big = Barcode([I(0, 1)] * 65)
    with pytest.raises(ValueError):
        bottleneck_distance(big, big)


def test_describe_output(running):
    chi = induced_matching(decompose(running.phi, running.bbV, running.bbW1))
    text = chi.describe()
    assert "pair [0,4] -> [1,5] x1" in text
    assert "unmatched source [4,4] x1" in text
