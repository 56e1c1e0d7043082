"""Coarsening: split off bars shorter than q and push a morphism through.

The splitting V = V_{>=q} (+) V_{<q} comes straight out of a barcode basis.
Projections and inclusions are honest morphisms in the original coordinates,
and composing a certified pair with them yields a pair certified at
delta + q/2, which is then decomposed as usual. q must be even so that q/2
stays on the integer grid; refine_module / refine_morphism double the grid
when an odd q is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

# The split maps are row and column selections that commute by construction, so
# no matrix is multiplied or validated here; bench/workloads.py rebinds the
# imported mat_inverse, mat_mul and validate_ladder for its traced run.
from .fields import Matrix, mat_inverse, mat_mul
from .ladder import decompose
from .morphism import (
    InterleavingCertificate,
    LadderModule,
    _check_basis,
    check_delta_invertible,
    check_interleaving,
    compose_ladder,
    inner_ladder,
    shift_morphism,
    validate_ladder,
)
from .persistence import (
    Barcode,
    BarcodeBasis,
    BasisChange,
    Interval,
    PersistenceModule,
    _assign_slots,
    _barcode_module,
    nestedness,
    reduce_to_barcode_basis,
)


@dataclass(frozen=True)
class QSplitting:
    q: int
    source_basis: object
    long: object  # module of bars with length >= q
    short: object
    long_basis: object
    short_basis: object
    pr_long: object  # LadderModule m -> long
    pr_short: object
    inc_long: object  # LadderModule long -> m
    inc_short: object


def _build_part(m, basis, sel_gens):
    field = m.field
    l = m.grid_len
    alive = []
    for t in range(l + 1):
        ps = sorted(g.position_at(t) for g in sel_gens if g.bar.contains_index(t))
        alive.append(ps)
    dims = tuple(len(ps) for ps in alive)
    rank = [{p: i for i, p in enumerate(ps)} for ps in alive]
    raw = [
        {
            "bar": g.bar,
            "positions": [rank[t][g.position_at(t)] for t in range(g.bar.a, g.bar.b + 1)],
            "origin": g.origin,
        }
        for g in sel_gens
    ]
    gens = _assign_slots(raw)
    part = _barcode_module(field, dims, gens)
    part_basis = BarcodeBasis(
        BasisChange.identity(field, dims), Barcode([g.bar for g in gens]), gens, part
    )
    # pr_t keeps the rows alive[t] of g_t, inc_t the columns alive[t] of g_t^-1;
    # the generators lay out basis.reduced, so both commute with it
    g, g_inv = basis.change.mats, basis.change.inverses()
    pr = LadderModule(m, part, tuple(x._select(rows=ps) for x, ps in zip(g, alive)))
    inc = LadderModule(part, m, tuple(x._select(cols=ps) for x, ps in zip(g_inv, alive)))
    return part, part_basis, pr, inc


def q_split(m, q, basis=None):
    """Split m into the direct sum of its bars of length >= q and the rest."""
    if q < 0:
        raise ValueError("q must be >= 0")
    if basis is None:
        basis = reduce_to_barcode_basis(m)
    else:
        _check_basis(basis, m, "source")
    long_gens = [g for g in basis.generators if g.bar.length >= q]
    short_gens = [g for g in basis.generators if g.bar.length < q]
    long_mod, long_basis, pr_l, inc_l = _build_part(m, basis, long_gens)
    short_mod, short_basis, pr_s, inc_s = _build_part(m, basis, short_gens)
    return QSplitting(
        q, basis, long_mod, short_mod, long_basis, short_basis, pr_l, pr_s, inc_l, inc_s
    )


@dataclass(frozen=True)
class CoarseInterleaving:
    """The canonical q/2-interleaving between a module and its long part."""

    split: object
    phi: object  # m -> long(q/2)
    phi_tilde: object  # long -> m(q/2)
    certificate: object


def coarse_interleaving(split):
    q = split.q
    if q % 2 != 0:
        raise ValueError(
            "q must be even to stay on the grid; refine_module doubles the grid for odd q"
        )
    h = q // 2
    long = split.long
    phi = compose_ladder(inner_ladder(long, h), split.pr_long)
    phi_tilde = compose_ladder(shift_morphism(split.inc_long, h), inner_ladder(long, h))
    cert = check_interleaving(phi, phi_tilde, h)
    if not isinstance(cert, InterleavingCertificate):
        raise RuntimeError(str(cert))
    return CoarseInterleaving(split, phi, phi_tilde, cert)


@dataclass(frozen=True)
class CoarseMorphism:
    """A certified pair pushed through the q-splitting of one or both ends."""

    variant: str  # "target", "source" or "both"
    q: int
    delta: int
    phi: object
    psi: object
    certificate: object
    dom_split: object
    cod_split: object

    @property
    def coarse_delta(self):
        return self.delta + self.q // 2


def induce_coarse_morphism(phi, psi, delta, q, variant="both", dom_split=None, cod_split=None):
    """Compose a delta-invertible pair with the q-splitting maps.

    variant "target" coarsens the codomain, "source" the domain, "both" both.
    The returned pair is certified (delta + q/2)-invertible.
    """
    if variant not in ("target", "source", "both"):
        raise ValueError("variant must be target, source or both")
    if q % 2 != 0 or q < 0:
        raise ValueError("q must be even and >= 0")
    pre = check_delta_invertible(phi, psi, delta)
    if not isinstance(pre, InterleavingCertificate):
        raise ValueError("input pair is not delta-invertible: %s" % pre)
    if dom_split is None:
        dom_split = q_split(phi.dom, q)
    if cod_split is None:
        cod_split = q_split(phi.cod, q)
    if dom_split.q != q or cod_split.q != q:
        raise ValueError("splitting built for a different q")

    coarse_dom = variant in ("source", "both")
    coarse_cod = variant in ("target", "both")
    phi2 = compose_ladder(phi, dom_split.inc_long) if coarse_dom else phi
    if coarse_cod:
        phi2 = compose_ladder(cod_split.pr_long, phi2)
        psi2 = compose_ladder(
            shift_morphism(psi, q),
            compose_ladder(
                shift_morphism(cod_split.inc_long, q), inner_ladder(cod_split.long, q)
            ),
        )
    else:
        psi2 = compose_ladder(inner_ladder(psi.cod, q), psi)
    if coarse_dom:
        psi2 = compose_ladder(shift_morphism(dom_split.pr_long, 2 * delta + q), psi2)
    cert = check_delta_invertible(phi2, psi2, delta + q // 2)
    if not isinstance(cert, InterleavingCertificate):
        raise RuntimeError(str(cert))
    return CoarseMorphism(variant, q, delta, phi2, psi2, cert, dom_split, cod_split)


@dataclass(frozen=True)
class CoarseDecomposition:
    coarse: object  # CoarseMorphism
    inequality_ok: bool
    xi_dom: object  # nestedness of the induced domain barcode
    xi_cod: object
    result: object  # LadderDecomposition or ReductionFailure

    def bound(self):
        return self.coarse.coarse_delta


def coarse_decompose(phi, psi, delta, q, variant="both", dom_split=None, cod_split=None):
    """Coarsen a certified pair and decompose the induced morphism.

    The decomposition is guaranteed when 2*delta + q < min of the two relevant
    nestedness values (of the coarsened endpoint barcodes); it is attempted
    either way and the report carries the inequality status.
    """
    cm = induce_coarse_morphism(phi, psi, delta, q, variant, dom_split, cod_split)
    dom_basis = cm.dom_split.source_basis if variant == "target" else cm.dom_split.long_basis
    cod_basis = cm.cod_split.source_basis if variant == "source" else cm.cod_split.long_basis
    xi_dom = nestedness(dom_basis.barcode)
    xi_cod = nestedness(cod_basis.barcode)
    ok = 2 * delta + q < min(xi_dom, xi_cod)
    result = decompose(cm.phi, dom_basis, cod_basis)
    return CoarseDecomposition(cm, ok, xi_dom, xi_cod, result)


def refine_module(m):
    """Double the grid: 0..l becomes 0..2l+1, with identities interleaved.

    Bars [a,b] turn into [2a, 2b+1], every nestedness gap doubles, so an odd
    coarsening parameter q on the original grid becomes the even 2q here.
    """
    l = m.grid_len
    dims = []
    for t in range(l + 1):
        dims.extend([m.dims[t], m.dims[t]])
    maps = []
    for t in range(l + 1):
        maps.append(Matrix.identity(m.field, m.dims[t]))
        if t < l:
            maps.append(m.map_at(t + 1))
    return PersistenceModule(m.field, tuple(dims), tuple(maps))


def refine_morphism(lm):
    """Refine both endpoints and duplicate every component."""
    dom = refine_module(lm.dom)
    cod = refine_module(lm.cod)
    comps = []
    for c in lm.comps:
        comps.extend([c, c])
    return LadderModule(dom, cod, tuple(comps))


def refine_interval(iv):
    return Interval(2 * iv.a, 2 * iv.b + 1)
