"""Morphisms between persistence modules.

A morphism is stored as one exact matrix per grid index (a ladder of
commuting squares). Once both endpoints are in barcode bases, the whole
morphism compresses into a single matrix indexed by bars: entry (K, J) is the
coefficient with which the chain of the domain bar J hits the chain of the
codomain bar K, and it can only be nonzero when K starts no later than J and
the two bars overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

# No basis is inverted here; mat_inverse is imported for the traced benchmark
# run (bench/workloads.py), which rebinds it in this module.
from .fields import Matrix, mat_inverse, mat_mul, mat_solve
from .persistence import (
    Barcode,
    _barcode_module,
    interval_lex_key,
    interval_overlap,
    shift,
)


@dataclass(frozen=True)
class LadderModule:
    """Componentwise morphism dom -> cod over the same grid.

    A ladder known to commute is marked (_mark): the ones the parser has
    validated, the ones built to commute (inner_ladder, identity_ladder, the
    split maps of q_split), and the composites and shifts of marked ladders.
    to_single_matrix proves commutation only for an unmarked ladder. As with
    BarcodeBasis, the mark sits outside the dataclass fields: equality, hash
    and repr ignore it, and dataclasses.replace drops it."""

    dom: object
    cod: object
    comps: tuple

    def __post_init__(self):
        if self.dom.field != self.cod.field:
            raise ValueError("field mismatch")
        if self.dom.grid_len != self.cod.grid_len:
            raise ValueError("grid length mismatch")
        if len(self.comps) != self.dom.grid_len + 1:
            raise ValueError("expected %d components" % (self.dom.grid_len + 1))
        for t, c in enumerate(self.comps):
            if (c.rows, c.cols) != (self.cod.dims[t], self.dom.dims[t]):
                raise ValueError(
                    "component %d has shape %dx%d, expected %dx%d"
                    % (t, c.rows, c.cols, self.cod.dims[t], self.dom.dims[t])
                )

    @property
    def grid_len(self):
        return self.dom.grid_len

    @classmethod
    def from_int_comps(cls, dom, cod, int_comps):
        comps = tuple(
            Matrix.from_int_rows(dom.field, rows, cols=dom.dims[t])
            for t, rows in enumerate(int_comps)
        )
        return cls(dom, cod, comps)

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def _mark(self, commutes=True):
        """Mark self as commuting when commutes is true, and return it."""
        if commutes:
            object.__setattr__(self, "_commutes", True)
        return self

    def _marked(self):
        return "_commutes" in self.__dict__


def validate_ladder(lm):
    """Check every square commutes. Returns None, or a message naming the first
    failing index i (the square between levels i-1 and i)."""
    for i in range(1, lm.grid_len + 1):
        left = mat_mul(lm.comps[i], lm.dom.map_at(i))
        right = mat_mul(lm.cod.map_at(i), lm.comps[i - 1])
        if left != right:
            return "square %d does not commute" % i
    return None


def compose_ladder(outer, inner):
    if inner.cod != outer.dom:
        raise ValueError("composition endpoints do not match")
    return LadderModule(
        inner.dom,
        outer.cod,
        tuple(mat_mul(a, b) for a, b in zip(outer.comps, inner.comps)),
    )._mark(outer._marked() and inner._marked())


def shift_morphism(lm, delta):
    """Reindex a morphism: component t of the result is component t+delta, and a
    zero map of the right shape once either side has left the grid."""
    dom, cod = shift(lm.dom, delta), shift(lm.cod, delta)
    l = lm.grid_len
    comps = []
    for t in range(l + 1):
        s = t + delta
        if 0 <= s <= l:
            comps.append(lm.comps[s])
        else:
            comps.append(Matrix.zero(lm.dom.field, cod.dims[t], dom.dims[t]))
    return LadderModule(dom, cod, tuple(comps))._mark(lm._marked())


def inner_ladder(m, delta):
    """The canonical morphism m -> m(delta) built from the structure maps."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    cod = shift(m, delta)
    l = m.grid_len
    comps = []
    for t in range(l + 1):
        if t + delta <= l:
            comps.append(m.inner_matrix(t, t + delta))
        else:
            comps.append(Matrix.zero(m.field, 0, m.dims[t]))
    return LadderModule(m, cod, tuple(comps))._mark()


def identity_ladder(m):
    comps = tuple(Matrix.identity(m.field, n) for n in m.dims)
    return LadderModule(m, m, comps)._mark()


@dataclass(frozen=True)
class MorphismMatrix:
    """Single-matrix presentation of a morphism in barcode bases.

    Rows are the codomain generators, columns the domain generators, both in
    lexicographic bar order. A nonzero entry requires the row bar to overlap
    the column bar from the left (row.a <= col.a <= row.b <= col.b).
    """

    row_gens: tuple
    col_gens: tuple
    entries: Matrix

    def __post_init__(self):
        rk = [interval_lex_key(g.bar) + (g.slot,) for g in self.row_gens]
        ck = [interval_lex_key(g.bar) + (g.slot,) for g in self.col_gens]
        if rk != sorted(rk) or ck != sorted(ck):
            raise ValueError("generators out of order")
        if (self.entries.rows, self.entries.cols) != (len(self.row_gens), len(self.col_gens)):
            raise ValueError("entry matrix shape mismatch")
        for r, c in self.entries._nonzeros():
            rbar, cbar = self.row_gens[r].bar, self.col_gens[c].bar
            if not interval_overlap(rbar, cbar):
                raise ValueError("entry (%s, %s) violates the support constraint" % (rbar, cbar))

    @property
    def field(self):
        return self.entries.field

    def entry(self, r, c):
        return self.entries.get(r, c)

    def __str__(self):
        return "\n".join(
            "%s | %s" % (rg.bar, row) for rg, row in zip(self.row_gens, self.entries._fmt_rows())
        )


def _check_basis(basis, module, which):
    """Raise ValueError unless basis.change takes module to basis.reduced,
    that is g_t A_t g_{t-1}^{-1} == R_t at every t. Every g_t is proven
    invertible by its rank, and then this is g_t A_t == R_t g_{t-1},
    validate_ladder on the ladder g: module -> basis.reduced, with no
    inverse. Checks and messages are those of BasisChange.apply and a
    compare, in the same order. A last check proves the generators list
    basis.barcode and lay out basis.reduced."""
    g, red = basis.change.mats, basis.reduced
    if tuple(x.rows for x in g) != module.dims:
        raise ValueError("basis change does not fit module dims")
    basis.change._prove_invertible()
    if any(x.field != module.field for x in g):
        raise ValueError("field mismatch")
    if red.field != module.field or red.dims != module.dims or (
        validate_ladder(LadderModule(module, red, g)) is not None
    ):
        raise ValueError("%s basis does not reduce the %s module" % (which, which))
    if basis.barcode != Barcode(x.bar for x in basis.generators) or red != _barcode_module(
        red.field, red.dims, basis.generators
    ):
        raise ValueError("%s basis generators do not describe its reduced module" % which)


def to_single_matrix(lm, dom_basis, cod_basis):
    """Express a morphism as its single matrix over the given barcode bases.

    The checked bases g, h are isomorphisms onto the rigid modules R and S,
    so the level products P_t = h_t phi_t g_t^-1 commute with R and S exactly
    when phi_i A_i = B_i phi_(i-1) at every square i, which validate_ladder
    on phi proves unless phi is marked as commuting (see LadderModule). R and
    S carry each bar to itself while it lives, so P commutes exactly when
    each entry M(K, J) is the same at every level where both bars live and is
    zero unless K.a <= J.a <= K.b <= J.b: column J is read once, at J.a. For
    the columns born at t (lexicographic order keeps them together), with E_t
    the selection of their positions, X_t = g_t^-1 E_t is one mat_solve and
    the block is h_t (phi_t X_t) at the codomain generators alive at t, so
    no basis is inverted and no P_t is formed. A basis is checked unless the
    library built it for that endpoint (see BarcodeBasis)."""
    if not dom_basis._marked_for(lm.dom):
        _check_basis(dom_basis, lm.dom, "domain")
    if not cod_basis._marked_for(lm.cod):
        _check_basis(cod_basis, lm.cod, "codomain")
    if not lm._marked():
        bad = validate_ladder(lm)
        if bad is not None:
            raise ValueError("the components do not define a morphism: %s" % bad)
    field, g, h = lm.dom.field, dom_basis.change.mats, cod_basis.change.mats
    blocks = []
    for t, born in groupby(dom_basis.generators, key=lambda gen: gen.bar.a):
        at = {gen.positions[0]: k for k, gen in enumerate(born)}
        E = Matrix._selection(field, len(at), [at.get(p) for p in range(g[t].rows)])
        alive = [gen.position_at(t) if gen.bar.contains_index(t) else None
                 for gen in cod_basis.generators]
        blocks.append(mat_mul(h[t], mat_mul(lm.comps[t], mat_solve(g[t], E)))._select(alive))
    entries = Matrix._join_cols(field, len(cod_basis.generators), blocks)
    return MorphismMatrix(tuple(cod_basis.generators), tuple(dom_basis.generators), entries)


def from_single_matrix(mm, dom, cod, dom_basis, cod_basis):
    """Rebuild componentwise maps from a single matrix, in the original
    coordinates of dom and cod.

    Component t is h_t^-1 P_t g_t for the block P_t of mm at the generators
    alive at t, found as mat_solve(h_t, P_t g_t), so no basis is inverted.
    The result commutes by construction and is not re-validated: the blocks
    of a single matrix commute with the rigid modules (see to_single_matrix),
    and the checked bases carry them back to dom and cod. As there, a basis
    the library built for its module is not checked again."""
    if not dom_basis._marked_for(dom):
        _check_basis(dom_basis, dom, "domain")
    if not cod_basis._marked_for(cod):
        _check_basis(cod_basis, cod, "codomain")
    g, h = dom_basis.change.mats, cod_basis.change.mats
    # mm may be any single matrix, so each block P_t is multiplied densely
    comps = [mat_solve(h[t], mat_mul(mm.entries._select(rows, cols), g[t]))
             for t, (rows, cols) in enumerate(_level_indices(mm, dom_basis, cod_basis))]
    return LadderModule(dom, cod, tuple(comps))


def _level_indices(mm, dom_basis, cod_basis):
    """(rows, cols) at every level t: the indices of the row and column
    generators of mm alive at t, in the order of their positions there. The
    block of mm at them is P_t."""
    if tuple(g.bar for g in mm.col_gens) != tuple(g.bar for g in dom_basis.generators):
        raise ValueError("column generators do not match the domain basis")
    if tuple(g.bar for g in mm.row_gens) != tuple(g.bar for g in cod_basis.generators):
        raise ValueError("row generators do not match the codomain basis")

    def alive(gens, t):
        return [i for _, i in sorted((g.position_at(t), i) for i, g in enumerate(gens)
                                     if g.bar.contains_index(t))]

    return [(alive(cod_basis.generators, t), alive(dom_basis.generators, t))
            for t in range(dom_basis.reduced.grid_len + 1)]


def _unmet_level(mm, lm, dom_basis, cod_basis):
    """The first t with h_t phi_t != P_t g_t, or None when mm presents lm in
    these bases. mm must be in matching form, so each P_t is a selection and
    P_t g_t picks rows of g_t. Both bases are checked in full."""
    _check_basis(dom_basis, lm.dom, "domain")
    _check_basis(cod_basis, lm.cod, "codomain")
    g, h = dom_basis.change.mats, cod_basis.change.mats
    matched = [None] * len(mm.row_gens)
    for r, c in mm.entries._nonzeros():
        matched[r] = c
    for t, (rows, cols) in enumerate(_level_indices(mm, dom_basis, cod_basis)):
        at = {c: k for k, c in enumerate(cols)}
        P = Matrix._selection(mm.field, len(cols), [at.get(matched[r]) for r in rows])
        if mat_mul(h[t], lm.comps[t]) != mat_mul(P, g[t]):
            return t
    return None


def _support(row_gens, col_gens):
    """ok[r][c] is True when entry (r, c) may be nonzero: the row bar
    overlap-precedes the column bar."""
    return [[interval_overlap(rg.bar, cg.bar) for cg in col_gens] for rg in row_gens]


def compose_single(outer, inner):
    """Single matrix of a composite: multiply, then drop entries whose bars no
    longer overlap (those coefficients have empty common support)."""
    if [(g.bar, g.slot) for g in outer.col_gens] != [(g.bar, g.slot) for g in inner.row_gens]:
        raise ValueError("inner codomain generators do not match outer domain")
    prod = mat_mul(outer.entries, inner.entries)
    entries = prod._masked(_support(outer.row_gens, inner.col_gens))
    return MorphismMatrix(outer.row_gens, inner.col_gens, entries)


@dataclass(frozen=True)
class InterleavingCertificate:
    """Witness that (phi, psi) is a delta-invertible pair: both triangle
    families were checked, and the two composites are kept for inspection."""

    delta: int
    dom_composite: tuple  # components of psi . phi : V -> V(2 delta)
    cod_composite: tuple  # components of phi(2 delta) . psi : W -> W(2 delta)


@dataclass(frozen=True)
class TriangleFailure:
    side: str  # "domain", "codomain" or "shape"
    index: int
    detail: str

    def __str__(self):
        if self.side == "shape":
            return "shape mismatch: %s" % self.detail
        return "triangle %s t=%d: %s" % (self.side, self.index, self.detail)


def check_delta_invertible(phi, psi, delta):
    """Verify psi is a delta-inverse of phi: V -> W.

    Requires psi: W -> V(2 delta). The triangles are the ladder equations
    psi . phi = inner_ladder(V, 2 delta) and phi(2 delta) . psi =
    inner_ladder(W, 2 delta). Returns a certificate or the first failure.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    V, W = phi.dom, phi.cod
    if psi.dom != W:
        return TriangleFailure("shape", -1, "inverse domain is not the codomain module")
    if psi.cod != shift(V, 2 * delta):
        return TriangleFailure(
            "shape", -1, "inverse codomain is not the domain shifted by %d" % (2 * delta)
        )
    dom_comp = compose_ladder(psi, phi).comps
    for t, (got, want) in enumerate(zip(dom_comp, inner_ladder(V, 2 * delta).comps)):
        if got != want:
            return TriangleFailure(
                "domain", t, "psi_t . phi_t differs from the structure map across 2*delta"
            )
    cod_comp = compose_ladder(shift_morphism(phi, 2 * delta), psi).comps
    for t, (got, want) in enumerate(zip(cod_comp, inner_ladder(W, 2 * delta).comps)):
        if got != want:
            return TriangleFailure(
                "codomain", t, "phi_(t+2*delta) . psi_t differs from the structure map"
            )
    return InterleavingCertificate(delta, dom_comp, cod_comp)


def check_interleaving(phi, psi, delta):
    """Verify a delta-interleaving given phi: V -> W(delta) and psi: W -> V(delta).

    The pair is rewritten so that psi starts at W(delta), which reduces the
    triangle checks to a delta-invertibility check of phi.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    V, W = phi.dom, psi.dom
    if phi.cod != shift(W, delta):
        return TriangleFailure("shape", -1, "phi codomain is not psi domain shifted by %d" % delta)
    if psi.cod != shift(V, delta):
        return TriangleFailure("shape", -1, "psi codomain is not phi domain shifted by %d" % delta)
    psi_shifted = shift_morphism(psi, delta)
    return check_delta_invertible(phi, psi_shifted, delta)
