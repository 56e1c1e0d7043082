"""One digest of the decomposition outputs on a fixed corpus.

A change meant to leave every output as it was (a speed-up, a refactor) must
keep this digest. It covers the ops with their scalars, both folded bases, the
summands, the matched matrix, the induced matching and its cost, with the type
of every matrix entry. The corpus is every file in tests/data, decomposed in
the bases the CLI builds, and seeded random morphisms between interval modules
in random coordinates, over QQ and F_5. A change that moves an output on
purpose records the new digest and says why.
"""

import glob
import hashlib
import json
import os
import random

import gen
from laddermod import (
    LadderDecomposition,
    decompose,
    field_by_name,
    induced_matching,
    inner_ladder,
    matching_cost,
    reduce_to_barcode_basis,
    shift_basis,
)
from laddermod.cli import parse_module_text, parse_morphism_text

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
RANDOM_PER_FIELD = 20
DIGEST = "b1a2925d22750ed4fe5235604ebc151df55d8a501c117d35a3d0f6aa2af3f7df"


def _matrix(m):
    return [repr(m), sorted({type(x).__name__ for row in m.to_lists() for x in row})]


def _gen(g):
    return [str(g.bar), g.slot, list(g.positions), str(g.origin)]


def _basis(bb):
    return {
        "change": [_matrix(x) for x in bb.change.mats],
        "barcode": str(bb.barcode),
        "generators": [_gen(g) for g in bb.generators],
        "reduced": [list(bb.reduced.dims)] + [_matrix(x) for x in bb.reduced.maps],
    }


def _ops(ops, field):
    return [[op.kind, op.target, op.source, field.fmt(op.scalar), type(op.scalar).__name__]
            for op in ops]


def _outcome(lm, dom_basis=None, cod_basis=None):
    dec = decompose(lm, dom_basis, cod_basis)
    field = lm.dom.field
    if not isinstance(dec, LadderDecomposition):
        return {"failure": str(dec), "ops": _ops(dec.ops, field), "stuck": _matrix(dec.stuck.entries)}
    chi = induced_matching(dec)
    mm = dec.matching
    return {
        "ops": _ops(dec.ops, field),
        "dom_basis": _basis(dec.dom_basis),
        "cod_basis": _basis(dec.cod_basis),
        "summands": dec.summands(),
        "matching": [[_gen(g) for g in mm.row_gens], [_gen(g) for g in mm.col_gens],
                     _matrix(mm.entries)],
        "induced": chi.describe(),
        "cost": str(matching_cost(chi)),
    }


def _data_outcomes():
    out = []
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(path)
        if text.startswith("morphism"):
            # the bases cmd_decompose builds: the codomain basis shifted by delta
            doc = parse_morphism_text(text)
            bb_dom = reduce_to_barcode_basis(doc.dom)
            bb_cod = shift_basis(reduce_to_barcode_basis(doc.cod), doc.delta)
            out.append([name, _outcome(doc.phi(), bb_dom, bb_cod)])
        else:
            # a module file decomposes through its structure map across one step
            m = parse_module_text(text)
            bb = reduce_to_barcode_basis(m)
            out.append([name, _outcome(inner_ladder(m, 1), bb, shift_basis(bb, 1))])
    return out


def _random_outcomes():
    out = []
    for field_name in ("rational", "prime 5"):
        field = field_by_name(field_name)
        rng = random.Random("golden/" + field_name)
        for _ in range(RANDOM_PER_FIELD):
            lm, _, _, _ = gen.random_barcode_morphism(rng, field)
            phi, _, _ = gen.conjugate_morphism(rng, lm)
            out.append([field_name, _outcome(phi)])
    return out


def corpus_digest():
    text = json.dumps([_data_outcomes(), _random_outcomes()], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_the_recorded_digest():
    assert corpus_digest() == DIGEST
