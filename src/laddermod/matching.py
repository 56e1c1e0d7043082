"""Partial matchings of barcodes induced by morphisms, their costs, and an
exact bottleneck-distance oracle for desk-scale barcodes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .fields import mat_mul, mat_solve
from .persistence import (
    Barcode,
    PersistenceModule,
    interval_lex_key,
    reduce_to_barcode_basis,
)


def _collapse(items):
    out = {}
    for it in items:
        out[it] = out.get(it, 0) + 1
    def key(kv):
        k = kv[0]
        if isinstance(k, tuple):
            return tuple(interval_lex_key(x) for x in k)
        return interval_lex_key(k)
    return tuple(sorted(out.items(), key=key))


@dataclass(frozen=True)
class PartialMatching:
    """Pairs are (source bar, target bar) with multiplicities; every bar of
    either barcode is accounted for exactly once across pairs and unmatched
    lists."""

    pairs: tuple  # (((Interval, Interval), mult), ...)
    unmatched_source: tuple  # ((Interval, mult), ...)
    unmatched_target: tuple

    @classmethod
    def build(cls, pair_list, unmatched_source, unmatched_target):
        return cls(
            _collapse(tuple(pair_list)),
            _collapse(tuple(unmatched_source)),
            _collapse(tuple(unmatched_target)),
        )

    def pair_multiplicity(self, src, tgt):
        for (s, t), mult in self.pairs:
            if s == src and t == tgt:
                return mult
        return 0

    def source_bars(self):
        out = []
        for (s, _), mult in self.pairs:
            out.extend([s] * mult)
        for s, mult in self.unmatched_source:
            out.extend([s] * mult)
        return Barcode(out)

    def target_bars(self):
        out = []
        for (_, t), mult in self.pairs:
            out.extend([t] * mult)
        for t, mult in self.unmatched_target:
            out.extend([t] * mult)
        return Barcode(out)

    def describe(self):
        lines = []
        for (s, t), mult in self.pairs:
            lines.append("pair %s -> %s x%d" % (s, t, mult))
        for s, mult in self.unmatched_source:
            lines.append("unmatched source %s x%d" % (s, mult))
        for t, mult in self.unmatched_target:
            lines.append("unmatched target %s x%d" % (t, mult))
        return lines


def matching_cost(pm):
    """Exact cost: worst endpoint displacement over pairs, half the length of
    any unmatched bar, zero for the empty matching."""
    cost = Fraction(0)
    for (s, t), _ in pm.pairs:
        cost = max(cost, Fraction(max(abs(s.a - t.a), abs(s.b - t.b))))
    for group in (pm.unmatched_source, pm.unmatched_target):
        for bar, _ in group:
            cost = max(cost, Fraction(bar.length, 2))
    return cost


def induced_matching(dec, dom_barcode=None, cod_barcode=None, coords="origin"):
    """Read the partial matching off a decomposition.

    Matched summands become (domain bar, codomain bar) pairs, free domain bars
    are unmatched on the source side, free codomain bars on the target side.
    coords picks between pre-shift labels ("origin") and the grid bars of the
    modules as decomposed ("grid"). Passing fuller barcodes extends the
    unmatched lists, e.g. with the short bars a coarsened morphism never saw.
    """
    if coords not in ("origin", "grid"):
        raise ValueError("coords must be 'origin' or 'grid'")
    lab = (lambda g: g.origin) if coords == "origin" else (lambda g: g.bar)
    pair_list = [(lab(dg), lab(cg)) for cg, dg in dec.pairs]
    un_src = [lab(g) for g in dec.plus_gens]
    un_tgt = [lab(g) for g in dec.minus_gens]
    pm = PartialMatching.build(pair_list, un_src, un_tgt)
    if dom_barcode is not None:
        pm = _account_for(pm, dom_barcode, "source")
    if cod_barcode is not None:
        pm = _account_for(pm, cod_barcode, "target")
    return pm


def _account_for(pm, barcode, side):
    """pm with the bars of barcode that it leaves out on side ("source" or
    "target") added there as unmatched. Every bar pm holds on that side must
    be in barcode."""
    source = side == "source"
    rest = list(barcode.bars)
    for bar in pm.source_bars() if source else pm.target_bars():
        if bar not in rest:
            raise ValueError("%s bar %s not present in the supplied barcode"
                             % ("domain" if source else "codomain", bar))
        rest.remove(bar)
    unmatched = pm.unmatched_source if source else pm.unmatched_target
    bars = [bar for bar, mult in unmatched for _ in range(mult)] + rest
    return replace(pm, **{"unmatched_" + side: _collapse(bars)})


@dataclass(frozen=True)
class CostReport:
    ok: bool
    cost: Fraction
    bound: Fraction

    def __str__(self):
        rel = "<=" if self.ok else ">"
        return "cost %s %s bound %s" % (self.cost, rel, self.bound)


def check_cost_bound(pm, delta):
    cost = matching_cost(pm)
    bound = Fraction(delta)
    return CostReport(cost <= bound, cost, bound)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Comparison of the matchings induced by a pair and its inverse: pairs
    whose bars both live at least 2*delta must mirror each other exactly;
    anything involving a shorter bar may legitimately differ."""

    ok: bool
    checked: int
    violations: tuple
    short_divergences: tuple


def check_matching_correspondence(chi_phi, chi_psi, delta):
    thr = 2 * delta
    viol = []
    short = []
    checked = 0
    fwd = {pair: mult for pair, mult in chi_phi.pairs}
    bwd = {pair: mult for pair, mult in chi_psi.pairs}
    keys = set(fwd) | {(t, s) for s, t in bwd}
    for s, t in sorted(keys, key=lambda p: interval_lex_key(p[0]) + interval_lex_key(p[1])):
        m1 = fwd.get((s, t), 0)
        m2 = bwd.get((t, s), 0)
        if s.length >= thr and t.length >= thr:
            checked += 1
            if m1 != m2:
                viol.append((s, t, m1, m2))
        elif m1 != m2:
            short.append((s, t, m1, m2))
    return CorrespondenceReport(not viol, checked, tuple(viol), tuple(short))


def _image_module(phi):
    """Pointwise column-space of a morphism, as a submodule of the codomain
    spanned by the pivot columns of each component."""
    l = phi.grid_len
    C = [comp._select(cols=comp._pivots()) for comp in phi.comps]
    maps = []
    for t in range(1, l + 1):
        rhs = mat_mul(phi.cod.map_at(t), C[t - 1])
        try:
            maps.append(mat_solve(C[t], rhs))
        except ValueError:
            raise ValueError("image is not closed under the structure maps") from None
    return PersistenceModule(phi.dom.field, tuple(c.cols for c in C), tuple(maps))


def bl_matching(phi, dom_basis=None, cod_basis=None):
    """Barcode matching through the image factorization.

    The image barcode injects into the codomain barcode along equal deaths and
    into the domain barcode along equal births, longest bars first (ties by
    pre-shift length, then slot); composing the two gives the matching.
    """
    if dom_basis is None:
        dom_basis = reduce_to_barcode_basis(phi.dom)
    if cod_basis is None:
        cod_basis = reduce_to_barcode_basis(phi.cod)
    im_mod = _image_module(phi)
    im_basis = reduce_to_barcode_basis(im_mod)

    def family_key(g):
        return (-g.bar.length, -g.origin.length, g.slot)

    def inject(end, gens, where):
        out = {}
        for e in {end(g) for g in im_basis.generators}:
            ims = sorted((g for g in im_basis.generators if end(g) == e), key=family_key)
            tgts = sorted((g for g in gens if end(g) == e), key=family_key)
            if len(ims) > len(tgts):
                raise ValueError("image barcode does not inject into the %s %d" % (where, e))
            for ig, tg in zip(ims, tgts):
                out[(ig.bar, ig.slot)] = tg
        return out

    into_cod = inject(lambda g: g.bar.b, cod_basis.generators, "codomain at death")
    from_dom = inject(lambda g: g.bar.a, dom_basis.generators, "domain at birth")

    pair_list = []
    used_dom = set()
    used_cod = set()
    for ig in im_basis.generators:
        dg = from_dom[(ig.bar, ig.slot)]
        cg = into_cod[(ig.bar, ig.slot)]
        pair_list.append((dg.origin, cg.origin))
        used_dom.add((dg.bar, dg.slot))
        used_cod.add((cg.bar, cg.slot))
    un_src = [g.origin for g in dom_basis.generators if (g.bar, g.slot) not in used_dom]
    un_tgt = [g.origin for g in cod_basis.generators if (g.bar, g.slot) not in used_cod]
    return PartialMatching.build(pair_list, un_src, un_tgt)


@dataclass(frozen=True)
class BasisIndependentTable:
    """Multiplicity table M(source bar, target bar) together with the two
    inequality families bounding its marginals by barcode multiplicities."""

    table: tuple  # (((Interval, Interval), mult), ...)
    row_ok: bool
    col_ok: bool

    @property
    def ok(self):
        return self.row_ok and self.col_ok


def to_basis_independent(pm, dom_barcode, cod_barcode):
    dom_counts = dom_barcode.counts()
    cod_counts = cod_barcode.counts()
    row_sums = {}
    col_sums = {}
    for (s, t), mult in pm.pairs:
        row_sums[s] = row_sums.get(s, 0) + mult
        col_sums[t] = col_sums.get(t, 0) + mult
    row_ok = all(dom_counts.get(s, 0) >= n for s, n in row_sums.items())
    col_ok = all(cod_counts.get(t, 0) >= n for t, n in col_sums.items())
    return BasisIndependentTable(pm.pairs, row_ok, col_ok)


def _bipartite_feasible(adj, n_left, n_right):
    match_right = [None] * n_right

    def augment(u, seen):
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] is None or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    count = 0
    for u in range(n_left):
        if augment(u, [False] * n_right):
            count += 1
    return count == n_left


def bottleneck_distance(b1, b2, max_bars=64):
    """Exact bottleneck distance between two finite barcodes.

    Candidate values are endpoint displacements and half-lengths; feasibility
    at each candidate is a perfect-matching question with one diagonal shadow
    per bar. Intended for small inputs; raises above max_bars total bars.
    """
    bars1 = list(b1)
    bars2 = list(b2)
    if len(bars1) + len(bars2) > max_bars:
        raise ValueError("barcodes too large for the oracle (%d bars)" % (len(bars1) + len(bars2)))
    cands = {Fraction(0)}
    for x in bars1:
        for y in bars2:
            cands.add(Fraction(max(abs(x.a - y.a), abs(x.b - y.b))))
    for x in bars1 + bars2:
        cands.add(Fraction(x.length, 2))
    n1, n2 = len(bars1), len(bars2)

    def feasible(tau):
        # left: bars1 then shadows of bars2; right: bars2 then shadows of bars1
        adj = []
        for i, x in enumerate(bars1):
            row = [
                j
                for j, y in enumerate(bars2)
                if max(abs(x.a - y.a), abs(x.b - y.b)) <= tau
            ]
            if Fraction(x.length, 2) <= tau:
                row.append(n2 + i)
            adj.append(row)
        for j, y in enumerate(bars2):
            row = list(range(n2, n2 + n1))  # shadow-shadow always allowed
            if Fraction(y.length, 2) <= tau:
                row = [j] + row
            adj.append(row)
        return _bipartite_feasible(adj, n1 + n2, n1 + n2)

    for tau in sorted(cands):
        if feasible(tau):
            return tau
    raise RuntimeError("no feasible threshold found")
