"""Shared fixtures: the worked examples every layer of the library is tested
against, plus the golden file corpus used by the CLI round-trip tests."""

import os
from types import SimpleNamespace

import pytest

from laddermod import (
    Interval,
    LadderModule,
    Matrix,
    MorphismMatrix,
    PersistenceModule,
    QQ,
    from_single_matrix,
    module_from_barcode,
    reduce_to_barcode_basis,
    shift,
    shift_basis,
    shift_morphism,
)
from laddermod.cli import MorphismDoc

# the generators check what they build with asserts; rewriting them keeps those
# checks alive under python -O, as pytest does for the test modules themselves
pytest.register_assert_rewrite("gen")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def build_running():
    """V has bars [0,4], [1,7], [4,4]; W has bars [0,4], [0,5] on the shifted
    grid; phi: V -> W(1) and psi: W -> V(1) form a certified 1-interleaving."""
    V = PersistenceModule.from_int_maps(
        QQ,
        (1, 2, 2, 2, 3, 1, 1, 1),
        [
            [[1], [0]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 1], [0, 0]],
            [[0, 1, 0]],
            [[1]],
            [[1]],
        ],
    )
    W = PersistenceModule.from_int_maps(
        QQ,
        (0, 2, 2, 2, 2, 2, 1, 0),
        [
            [[], []],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 1]],
            [[1, 0], [0, 1]],
            [[0, 1]],
            [],
        ],
    )
    W1 = shift(W, 1)
    phi = LadderModule.from_int_comps(
        V,
        W1,
        [
            [[2], [0]],
            [[2, 1], [0, 1]],
            [[2, 1], [0, 1]],
            [[2, 1], [0, 1]],
            [[2, 1, 1], [0, 1, 0]],
            [[1]],
            [],
            [],
        ],
    )
    half = QQ.of(1, 2)
    one = QQ.one()
    zero = QQ.zero()
    psi_comps = (
        Matrix.zero(QQ, 2, 0),
        Matrix.from_rows(QQ, [[half, -half], [zero, one]]),
        Matrix.from_rows(QQ, [[half, -half], [zero, one]]),
        Matrix.from_rows(QQ, [[half, -half], [zero, one], [zero, zero]]),
        Matrix.from_int_rows(QQ, [[0, 1]]),
        Matrix.from_int_rows(QQ, [[0, 1]]),
        Matrix.from_int_rows(QQ, [[1]]),
        Matrix.zero(QQ, 0, 0),
    )
    psi = LadderModule(W, shift(V, 1), psi_comps)
    bbV = reduce_to_barcode_basis(V)
    bbW = reduce_to_barcode_basis(W)
    return SimpleNamespace(
        V=V,
        W=W,
        W1=W1,
        phi=phi,
        psi=psi,
        psi_on=shift_morphism(psi, 1),
        bbV=bbV,
        bbW=bbW,
        bbW1=shift_basis(bbW, 1),
        bbV1=shift_basis(bbV, 1),
        doc=MorphismDoc(V, W, 1, phi.comps, psi_comps),
    )


def build_bl():
    """Two interleaved staircase modules whose two obvious 1-interleavings
    produce the same image-based matching but different ladder matchings."""
    BV = PersistenceModule.from_int_maps(
        QQ, (2, 2, 2, 1), [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0]]]
    )
    BW = PersistenceModule.from_int_maps(
        QQ, (1, 2, 2, 2), [[[1], [0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    )
    BW1 = shift(BW, 1)
    bphi = LadderModule.from_int_comps(
        BV, BW1, [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], []]
    )
    bpsi = LadderModule.from_int_comps(
        BV, BW1, [[[0, 1], [1, 0]], [[0, 1], [1, 0]], [[0, 1], [1, 0]], []]
    )
    bbBV = reduce_to_barcode_basis(BV)
    bbBW = reduce_to_barcode_basis(BW)
    return SimpleNamespace(
        BV=BV,
        BW=BW,
        BW1=BW1,
        bphi=bphi,
        bpsi=bpsi,
        bbBV=bbBV,
        bbBW=bbBW,
        bbBW1=shift_basis(bbBW, 1),
    )


def build_counterexample():
    """Morphism between {[0,7],[2,5]} and {[0,4],[0,5]} with 2*delta equal to
    the domain nestedness; no admissible schedule brings it to matching form."""
    CV = module_from_barcode(QQ, 7, [Interval(0, 7), Interval(2, 5)])
    CW = module_from_barcode(QQ, 7, [Interval(0, 4), Interval(0, 5)])
    bcv = reduce_to_barcode_basis(CV)
    bcw = reduce_to_barcode_basis(CW)
    half = QQ.of(1, 2)
    mm = MorphismMatrix(
        tuple(bcw.generators),
        tuple(bcv.generators),
        Matrix.from_rows(QQ, [[half, QQ.of(-1, 2)], [half, QQ.one()]]),
    )
    cphi = from_single_matrix(mm, CV, CW, bcv, bcw)
    return SimpleNamespace(CV=CV, CW=CW, bcv=bcv, bcw=bcw, mm=mm, cphi=cphi)


@pytest.fixture(scope="session")
def running():
    return build_running()


@pytest.fixture(scope="session")
def bl_example():
    return build_bl()


@pytest.fixture(scope="session")
def counterexample():
    return build_counterexample()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
