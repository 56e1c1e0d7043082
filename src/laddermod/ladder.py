"""Matching-form reduction of a morphism's single matrix.

The allowed moves never change the isomorphism type of either endpoint:

* ops between rows of equal bars or columns of equal bars,
* adding a multiple of column K into column J when K overlap-precedes J,
* adding a multiple of row K into row J when J overlap-precedes K,
* scaling a row or column.

After a plain row or column addition, entries whose row bar does not
overlap-precede their column bar are dropped: such coefficients live over an
empty common support, and discarding them realizes the move as an honest
transformation of generators. Reaching a 0/1 matrix with at most one nonzero
entry per row and column splits the morphism into elementary summands: a pair
(K, J) per matched 1, a free domain bar per zero column, a free codomain bar
per zero row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .fields import Matrix, _axpy, _scaled
# bench/workloads.py rebinds the imported from_single_matrix for its traced run.
from .morphism import MorphismMatrix, _support, _unmet_level, from_single_matrix, to_single_matrix
from .persistence import (
    BarcodeBasis,
    BasisChange,
    interval_lex_key,
    interval_overlap,
    nestedness,
    reduce_to_barcode_basis,
)


@dataclass(frozen=True)
class AdmissibleOp:
    kind: str  # AO1-col | AO1-row | AO2 | AO3 | scale-col | scale-row
    target: int
    source: int
    scalar: object

    def describe(self, mm):
        if self.kind == "scale-col":
            return "scale column %s by %s" % (
                mm.col_gens[self.target].bar, mm.field.fmt(self.scalar))
        if self.kind == "scale-row":
            return "scale row %s by %s" % (
                mm.row_gens[self.target].bar, mm.field.fmt(self.scalar))
        if self.kind in ("AO1-col", "AO2"):
            return "%s: column %s += %s * column %s" % (
                self.kind, mm.col_gens[self.target].bar,
                mm.field.fmt(self.scalar), mm.col_gens[self.source].bar)
        return "%s: row %s += %s * row %s" % (
            self.kind, mm.row_gens[self.target].bar,
            mm.field.fmt(self.scalar), mm.row_gens[self.source].bar)


def _scalar(field, n, d):
    """The canonical raw scalar (n', d') of n / d, for d nonzero."""
    (n,), d = field._norm([n], d)
    return n, d


def _working_rows(mm):
    """The entries of mm as canonical raw rows (ints, den), so that rows of
    equal values are equal pairs."""
    field = mm.field
    return [field._norm(n, d) for n, d in mm.entries._raw_rows()]


def _apply(rows, ok, mm, kind, t, src, sn, sd):
    """Apply one admissible operation with the canonical raw scalar sn / sd
    to the canonical raw rows of mm's entries, in place. A changed row is
    replaced by a new canonical pair and no ints list is written, so a copy
    of the list rows is a snapshot.

    rows must already satisfy the support mask ok. An addition then changes
    only its target column or row, and the coefficients the mask would drop
    there are the ones landing on entries that must stay zero, so those
    entries are skipped instead of written and cleared again. A row op is
    one masked _axpy. A column op leaves a row alone when its term has a zero
    factor, and rescales a row it changes by sd, which keeps the row exact,
    before normalising it.
    """
    field = mm.field
    if kind in ("scale-col", "scale-row"):
        if not sn:
            raise ValueError("scale by zero")
        if kind == "scale-row":
            rows[t] = _scaled(field, rows[t], sn, sd)
            return
    elif kind in ("AO1-col", "AO2"):
        if t == src:
            raise ValueError("column op onto itself")
        tb, sb = mm.col_gens[t].bar, mm.col_gens[src].bar
        if kind == "AO1-col":
            if tb != sb:
                raise ValueError("AO1-col needs equal bars, got %s and %s" % (sb, tb))
        elif not interval_overlap(sb, tb):
            raise ValueError("AO2 needs %s to overlap-precede %s" % (sb, tb))
    elif kind in ("AO1-row", "AO3"):
        if t == src:
            raise ValueError("row op onto itself")
        tb, sb = mm.row_gens[t].bar, mm.row_gens[src].bar
        if kind == "AO1-row":
            if tb != sb:
                raise ValueError("AO1-row needs equal bars, got %s and %s" % (sb, tb))
        elif not interval_overlap(tb, sb):
            raise ValueError("AO3 needs %s to overlap-precede %s" % (tb, sb))
        n, d = rows[src]
        masked = [x if allowed else 0 for x, allowed in zip(n, ok[t])]
        rows[t] = _axpy(field, rows[t], sn, sd, (masked, d))
        return
    else:
        raise ValueError("unknown op kind %r" % kind)
    # a column op: entry t becomes v / (d * sd), and the others are kept
    for i, ((n, d), allowed) in enumerate(zip(rows, ok)):
        if kind == "scale-col":
            if not n[t]:
                continue
            v = n[t] * sn
        else:
            x = n[src]
            if not (x and allowed[t]):
                continue
            v = n[t] * sd + sn * x
        m = [y * sd for y in n] if sd != 1 else list(n)
        m[t] = v
        rows[i] = field._norm(m, d * sd)


def _rebuilt(mm, rows):
    """mm's generators around new raw entry rows."""
    return MorphismMatrix(
        mm.row_gens, mm.col_gens, Matrix._from_raw_rows(mm.field, rows, len(mm.col_gens))
    )


def apply_op(mm, op):
    """Apply one admissible operation and drop unsupported coefficients."""
    return apply_ops(mm, (op,))


def apply_ops(mm, ops):
    """Apply admissible operations in order, on one working copy of the
    entries. The field lifts each scalar, and refuses one that is not its
    element."""
    field = mm.field
    rows = _working_rows(mm)
    ok = _support(mm.row_gens, mm.col_gens)
    for op in ops:
        (n,), d = field._lift([op.scalar])
        _apply(rows, ok, mm, op.kind, op.target, op.source, n, d)
    return _rebuilt(mm, rows)


def _pattern(rows):
    """(r, c) of every nonzero entry of the raw rows, in row order, or None
    when a row or a column holds two."""
    pattern, cols = [], set()
    for r, (n, _) in enumerate(rows):
        nz = list(compress(range(len(n)), n))
        if len(nz) > 1 or nz and nz[0] in cols:
            return None
        cols.update(nz)
        pattern += [(r, c) for c in nz]
    return pattern


def _matched(rows):
    """Whether the raw rows hold at most one nonzero entry per row and per
    column, each of them one."""
    pattern = _pattern(rows)
    return pattern is not None and all(rows[r][0][c] == rows[r][1] for r, c in pattern)


def is_matching_form(mm):
    """At most one nonzero entry per row and per column, and each such entry is one."""
    return _matched(mm.entries._raw_rows())


@dataclass(frozen=True)
class ReductionFailure:
    """The scheduled reduction got stuck at one entry.

    certified is True when no single admissible row or column addition could
    clear the entry either (no usable source has a nonzero at the needed
    position), which is the blocking certificate. When certified is False the
    schedule failed but some one-step alternative existed; the exhaustive
    search is the arbiter in that case.
    """

    row: int
    col: int
    row_bar: object
    col_bar: object
    row_used: bool
    col_used: bool
    usable_rows: tuple
    usable_cols: tuple
    certified: bool
    ops: tuple
    stuck: object  # MorphismMatrix at the point of failure
    message: str

    def __str__(self):
        return self.message


def _blocking_failure(mm, rows, ops, r, c, row_pivot, col_pivot):
    rbar = mm.row_gens[r].bar
    cbar = mm.col_gens[c].bar
    usable_rows = tuple(
        k
        for k in range(len(mm.row_gens))
        if k != r and rows[k][0][c] and interval_overlap(rbar, mm.row_gens[k].bar)
    )
    usable_cols = tuple(
        k
        for k in range(len(mm.col_gens))
        if k != c and rows[r][0][k] and interval_overlap(mm.col_gens[k].bar, cbar)
    )
    certified = not usable_rows and not usable_cols
    msg = (
        "stuck at entry (row %s, column %s): %s; %s"
        % (
            rbar,
            cbar,
            "row and column already matched"
            if row_pivot[r] is not None and col_pivot[c] is not None
            else ("row already matched" if row_pivot[r] is not None else "column already matched"),
            "no admissible operation can clear it"
            if certified
            else "one-step alternatives exist outside the schedule",
        )
    )
    return ReductionFailure(
        r, c, rbar, cbar,
        row_pivot[r] is not None, col_pivot[c] is not None,
        usable_rows, usable_cols, certified, tuple(ops), _rebuilt(mm, rows), msg,
    )


def _blocks(gens):
    """Runs of equal bars in a sorted generator list: [(bar, [indices])]."""
    out = []
    for i, g in enumerate(gens):
        if out and out[-1][0] == g.bar:
            out[-1][1].append(i)
        else:
            out.append((g.bar, [i]))
    return out


def reduce_to_matching_form(mm, pivot_rule="first"):
    """Run the block schedule: column-bar blocks left to right, row-bar blocks
    bottom-up inside each. Returns (matching form, ops) or a ReductionFailure.

    pivot_rule picks which free entry of a block becomes the pivot ("first" or
    "last" in row-then-column order); every choice leads to the same matched
    pairs, the option exists to exercise that fact.

    The schedule runs on canonical raw rows (see fields): each scalar is a
    raw quotient, and it is boxed once, for the op that records it.
    """
    if pivot_rule not in ("first", "last"):
        raise ValueError("pivot_rule must be 'first' or 'last'")
    field = mm.field
    rows = _working_rows(mm)
    ok = _support(mm.row_gens, mm.col_gens)
    ops = []

    def do(kind, t, src, n, d):
        """Apply and record the op of scalar n / d."""
        n, d = _scalar(field, n, d)
        _apply(rows, ok, mm, kind, t, src, n, d)
        ops.append(AdmissibleOp(kind, t, src, field._drop([n], d)[0]))

    col_blocks = _blocks(mm.col_gens)
    row_blocks = _blocks(mm.row_gens)
    row_pivot = [None] * len(mm.row_gens)
    col_pivot = [None] * len(mm.col_gens)

    for cbar, cidx in col_blocks:
        for rbar, ridx in reversed(row_blocks):
            # first clear entries sitting in already matched rows or columns;
            # an entry of row r is n[c] / d for (n, d) = rows[r]
            for r in ridx:
                for c in cidx:
                    n, d = rows[r]
                    v = n[c]
                    if not v:
                        continue
                    if row_pivot[r] is None and col_pivot[c] is None:
                        continue
                    done = False
                    if col_pivot[c] is not None:
                        src = col_pivot[c]
                        if interval_overlap(rbar, mm.row_gens[src].bar):
                            m, e = rows[src]
                            do("AO3", r, src, -v * e, d * m[c])
                            done = True
                    if not done and row_pivot[r] is not None:
                        src = row_pivot[r]
                        sbar = mm.col_gens[src].bar
                        if sbar == cbar:
                            do("AO1-col", c, src, -v, n[src])
                            done = True
                        elif interval_overlap(sbar, cbar):
                            do("AO2", c, src, -v, n[src])
                            done = True
                    if not done:
                        return _blocking_failure(mm, rows, ops, r, c, row_pivot, col_pivot)
            # then match free rows against free columns inside the block
            while True:
                free = [
                    (r, c)
                    for r in ridx
                    for c in cidx
                    if row_pivot[r] is None and col_pivot[c] is None and rows[r][0][c]
                ]
                if not free:
                    break
                r, c = free[0] if pivot_rule == "first" else free[-1]
                n, d = rows[r]
                if n[c] != d:
                    do("scale-col", c, c, d, n[c])
                for r2 in ridx:
                    m, e = rows[r2]
                    if r2 != r and row_pivot[r2] is None and m[c]:
                        do("AO1-row", r2, r, -m[c], e)
                for c2 in cidx:
                    n, d = rows[r]
                    if c2 != c and col_pivot[c2] is None and n[c2]:
                        do("AO1-col", c2, c, -n[c2], d)
                row_pivot[r] = c
                col_pivot[c] = r

    if not _matched(rows):
        raise RuntimeError("schedule finished but matrix is not in matching form")
    return _rebuilt(mm, rows), tuple(ops)


@dataclass(frozen=True)
class SearchResult:
    found: object  # MorphismMatrix in matching form, or None
    states: int
    exhausted: bool  # True when the whole reachable space was visited


def search_matching_form(mm, max_states=200000):
    """Exhaustive search over admissible single-entry clearings.

    Moves are forced-coefficient row/column additions (followed by the support
    mask) that strictly decrease a weighted count of nonzero entries; blocks
    early in the reduction schedule weigh exponentially more, so clearing an
    early entry always pays for any spill it causes further along. The search
    is sound: a returned matrix is a genuine matching form reached by
    admissible ops. It is not complete in principle, since a matching form
    reachable only through measure-increasing detours would be missed.

    A state is a tuple of canonical raw rows ((ints, den) with ints a tuple),
    so states of equal values are equal keys.
    """
    field = mm.field
    nrows, ncols = len(mm.row_gens), len(mm.col_gens)
    ok = _support(mm.row_gens, mm.col_gens)

    col_blocks = _blocks(mm.col_gens)
    row_blocks = _blocks(mm.row_gens)
    order = {}
    k = 0
    for cbar, _ in col_blocks:
        for rbar, _ in reversed(row_blocks):
            order[(rbar, cbar)] = k
            k += 1
    nblocks = k
    base = max(nrows, ncols) + 2
    weight = [
        [base ** (nblocks - order[(rg.bar, cg.bar)]) for cg in mm.col_gens]
        for rg in mm.row_gens
    ]

    def measure(state):
        return sum(w for wrow, (n, _) in zip(weight, state) for w, x in zip(wrow, n) if x)

    def successors(state):
        m0 = measure(state)
        out = []

        def add(kind, t, s, n, d):
            rows = list(state)
            _apply(rows, ok, mm, kind, t, s, *_scalar(field, n, d))
            nd = tuple((tuple(n), d) for n, d in rows)
            if measure(nd) < m0:
                out.append(nd)

        for s in range(ncols):
            for t in range(ncols):
                if s == t:
                    continue
                sb, tb = mm.col_gens[s].bar, mm.col_gens[t].bar
                if sb == tb:
                    kind = "AO1-col"
                elif interval_overlap(sb, tb):
                    kind = "AO2"
                else:
                    continue
                for n, _ in state:
                    if n[s] and n[t]:
                        add(kind, t, s, -n[t], n[s])
        for s in range(nrows):
            for t in range(nrows):
                if s == t:
                    continue
                sb, tb = mm.row_gens[s].bar, mm.row_gens[t].bar
                if sb == tb:
                    kind = "AO1-row"
                elif interval_overlap(tb, sb):
                    kind = "AO3"
                else:
                    continue
                (ns, ds), (nt, dt) = state[s], state[t]
                for vs, vt in zip(ns, nt):
                    if vs and vt:
                        add(kind, t, s, -vt * ds, dt * vs)
        return out

    seen = set()
    stack = [tuple((tuple(n), d) for n, d in _working_rows(mm))]
    states = 0
    truncated = False
    found = None
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        states += 1
        if _pattern(state) is not None:
            found = state
            break
        if states >= max_states:
            truncated = True
            break
        stack.extend(successors(state))

    if found is None:
        return SearchResult(None, states, not truncated and not stack)
    # normalize the matched pattern to honest 1s by column scalings
    rows = list(found)
    for r, c in _pattern(found):
        n, d = rows[r]
        if n[c] != d:
            _apply(rows, ok, mm, "scale-col", c, c, *_scalar(field, d, n[c]))
    if not _matched(rows):
        raise RuntimeError("search result is not in matching form")
    return SearchResult(_rebuilt(mm, rows), states, True)


_SIDE_KINDS = {
    "dom": ("scale-col", "AO1-col", "AO2"),
    "cod": ("scale-row", "AO1-row", "AO3"),
}


def _fold_ops(basis, ops, side):
    """Fold the ops of one side into the recorded coordinate change of that
    endpoint: column ops rewrite the domain basis ("dom"), row ops the
    codomain basis ("cod"). The generators are the basis's own, the ones
    indexing the single matrix the ops acted on. The rows of each level are
    rewritten as raw rows (see fields), the scalar n / d of an op lifted to
    ([n], d)."""
    ops = [op for op in ops if op.kind in _SIDE_KINDS[side]]
    if not ops:
        return basis
    field = basis.reduced.field
    gens = basis.generators
    mats = [g._raw_rows() for g in basis.change.mats]
    for op in ops:
        (n,), d = field._lift([op.scalar])
        if op.kind in ("scale-col", "scale-row"):
            gen = gens[op.target]
            f = (d, n) if side == "dom" else (n, d)
            for t in range(gen.bar.a, gen.bar.b + 1):
                p = gen.position_at(t)
                mats[t][p] = _scaled(field, mats[t][p], *f)
            continue
        tgt, src = gens[op.target], gens[op.source]
        for t in range(max(tgt.bar.a, src.bar.a), min(tgt.bar.b, src.bar.b) + 1):
            ps, pt = src.position_at(t), tgt.position_at(t)
            if side == "dom":
                mats[t][ps] = _axpy(field, mats[t][ps], -n, d, mats[t][pt])
            else:
                mats[t][pt] = _axpy(field, mats[t][pt], n, d, mats[t][ps])
    change = BasisChange(
        tuple(
            Matrix._from_raw_rows(field, rows, basis.reduced.dims[t])
            for t, rows in enumerate(mats)
        )
    )
    return BarcodeBasis(change, basis.barcode, basis.generators, basis.reduced)


@dataclass(frozen=True)
class LadderDecomposition:
    """Direct-sum decomposition of a morphism into elementary pieces."""

    dom_basis: object  # BarcodeBasis after folding in the column ops
    cod_basis: object  # BarcodeBasis after folding in the row ops
    matching: object  # MorphismMatrix in matching form
    ops: tuple
    pairs: tuple  # (codomain BarGenerator, domain BarGenerator) per matched 1
    plus_gens: tuple  # domain generators mapped to zero
    minus_gens: tuple  # codomain generators not hit

    def pair_intervals(self):
        """Matched (codomain bar, domain bar) pairs, on the grid."""
        return tuple(sorted(
            (interval_lex_key(cg.bar) + interval_lex_key(dg.bar) for cg, dg in self.pairs)
        ))

    def summands(self):
        """Human-readable summand list."""
        out = []
        for cg, dg in sorted(self.pairs, key=lambda p: p[1].sort_key()):
            out.append("R %s->%s" % (dg.bar, cg.bar))
        for g in self.plus_gens:
            out.append("I+ %s" % g.bar)
        for g in self.minus_gens:
            out.append("I- %s" % g.bar)
        return out


def decompose(lm, dom_basis=None, cod_basis=None, pivot_rule="first"):
    """Decompose a morphism of persistence modules into elementary summands.

    Reduction is attempted unconditionally; the nestedness precondition only
    guarantees success, it is not required for it. Returns a
    LadderDecomposition or the ReductionFailure from the matrix stage.
    """
    if dom_basis is None:
        dom_basis = reduce_to_barcode_basis(lm.dom)
    if cod_basis is None:
        cod_basis = reduce_to_barcode_basis(lm.cod)
    mm = to_single_matrix(lm, dom_basis, cod_basis)
    red = reduce_to_matching_form(mm, pivot_rule=pivot_rule)
    if isinstance(red, ReductionFailure):
        return red
    matched, ops = red
    dom_basis = _fold_ops(dom_basis, ops, "dom")
    cod_basis = _fold_ops(cod_basis, ops, "cod")
    return LadderDecomposition(dom_basis, cod_basis, matched, ops, *_summand_gens(matched))


def _summand_gens(matched):
    """(pairs, plus_gens, minus_gens) of a matching form: a (codomain, domain)
    pair per nonzero entry, the generators of zero columns and of zero rows."""
    pattern = _pattern(matched.entries._raw_rows())
    used_rows = {r for r, _ in pattern}
    used_cols = {c for _, c in pattern}
    pairs = tuple((matched.row_gens[r], matched.col_gens[c]) for r, c in pattern)
    plus = tuple(g for c, g in enumerate(matched.col_gens) if c not in used_cols)
    minus = tuple(g for r, g in enumerate(matched.row_gens) if r not in used_rows)
    return pairs, plus, minus


@dataclass(frozen=True)
class NestednessReport:
    ok: bool
    delta: int
    xi_dom: object
    xi_cod: object

    def __str__(self):
        verdict = "ok" if self.ok else "warning: decomposition not guaranteed"
        return "2*delta=%s vs min nestedness=%s: %s" % (
            2 * self.delta, min(self.xi_dom, self.xi_cod), verdict)


def check_nestedness_precondition(lm, delta, dom_basis=None, cod_basis=None):
    """Sufficient condition for the reduction to succeed on a certified pair:
    twice delta must stay below the nestedness of both barcodes."""
    if dom_basis is None:
        dom_basis = reduce_to_barcode_basis(lm.dom)
    if cod_basis is None:
        cod_basis = reduce_to_barcode_basis(lm.cod)
    xi_d = nestedness(dom_basis.barcode)
    xi_c = nestedness(cod_basis.barcode)
    return NestednessReport(2 * delta < min(xi_d, xi_c), delta, xi_d, xi_c)


def verify_decomposition(lm, dec):
    """Check that dec decomposes lm: the matched matrix P gives the recorded
    summands, and h_t phi_t = P_t g_t at every level t, for the folded bases g,
    h and the block P_t of P at the generators alive at t. With g and h proven
    invertible by rank, this is phi_t = h_t^-1 P_t g_t. Returns None or a message."""
    if not is_matching_form(dec.matching):
        return "stored matrix is not in matching form"
    if _summand_gens(dec.matching) != (dec.pairs, dec.plus_gens, dec.minus_gens):
        return "recorded summands differ from the ones the matched matrix gives"
    try:
        t = _unmet_level(dec.matching, lm, dec.dom_basis, dec.cod_basis)
    except ValueError as e:
        return "reconstruction failed: %s" % e
    if t is not None:
        return "reconstructed component %d differs from the input" % t
    return None
