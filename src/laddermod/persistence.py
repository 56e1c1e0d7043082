"""One-parameter persistence modules over an integer grid 0..l.

A module is a list of dimensions n_0..n_l together with exact matrices
A_1..A_l, where A_i has shape n_i x n_{i-1}. Everything here is about putting
such a module into rigid barcode form by an explicit invertible change of
basis at every index, and tracking where each interval summand lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import Matrix, _axpy, _scaled, mat_inverse, mat_mul


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [a, b] with a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b:
            raise ValueError("empty interval [%d,%d]" % (self.a, self.b))

    @property
    def length(self):
        return self.b - self.a

    def contains_index(self, t):
        return self.a <= t <= self.b

    def __str__(self):
        return "[%d,%d]" % (self.a, self.b)


def interval_lex_key(iv):
    return (iv.a, iv.b)


def interval_lex_leq(x, y):
    return (x.a, x.b) <= (y.a, y.b)


def interval_overlap(x, y):
    """True when x starts no later than y and they overlap: x.a <= y.a <= x.b <= y.b."""
    return x.a <= y.a <= x.b <= y.b


def interval_strictly_nested(x, y):
    """True when x sits strictly inside y: y.a < x.a <= x.b < y.b."""
    return y.a < x.a and x.b < y.b


class Barcode:
    """Multiset of intervals, kept sorted lexicographically."""

    __slots__ = ("bars",)

    def __init__(self, bars):
        self.bars = tuple(sorted(bars, key=interval_lex_key))

    def counts(self):
        out = {}
        for b in self.bars:
            out[b] = out.get(b, 0) + 1
        return out

    def multiplicity(self, iv):
        return sum(1 for b in self.bars if b == iv)

    def dim_at(self, t):
        return sum(1 for b in self.bars if b.contains_index(t))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        return isinstance(other, Barcode) and self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __str__(self):
        return " ".join(str(b) for b in self.bars)

    def __repr__(self):
        return "Barcode(%s)" % str(self)


def nestedness(barcode):
    """Smallest endpoint gap over strictly nested pairs, math.inf when no pair nests.

    For bars [a,b] strictly inside [c,d] the gap is min(a-c, d-b).
    """
    bars = list(barcode)
    best = math.inf
    for i, x in enumerate(bars):
        for y in bars:
            if interval_strictly_nested(x, y):
                gap = min(x.a - y.a, y.b - x.b)
                if gap < best:
                    best = gap
    return best


@dataclass(frozen=True)
class PersistenceModule:
    field: object
    dims: tuple
    maps: tuple  # maps[i] is A_{i+1}: level i -> level i+1

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("need at least one grid index")
        if len(self.maps) != len(self.dims) - 1:
            raise ValueError("expected %d maps" % (len(self.dims) - 1))
        for i, m in enumerate(self.maps):
            if (m.rows, m.cols) != (self.dims[i + 1], self.dims[i]):
                raise ValueError(
                    "map %d has shape %dx%d, expected %dx%d"
                    % (i + 1, m.rows, m.cols, self.dims[i + 1], self.dims[i])
                )
            if m.field != self.field:
                raise ValueError("map %d over a different field" % (i + 1))

    @property
    def grid_len(self):
        return len(self.dims) - 1

    @classmethod
    def from_int_maps(cls, field, dims, int_maps):
        mats = []
        for i, rows in enumerate(int_maps):
            mats.append(Matrix.from_int_rows(field, rows, cols=dims[i]))
        return cls(field, tuple(dims), tuple(mats))

    def map_at(self, i):
        """A_i, the structure map into level i (1-indexed)."""
        return self.maps[i - 1]

    def inner_matrix(self, s, t):
        """Composite v_{s,t}: level s -> level t, s <= t."""
        if not (0 <= s <= t <= self.grid_len):
            raise ValueError("bad inner indices %d..%d" % (s, t))
        if s == t:
            return Matrix.identity(self.field, self.dims[s])
        out = self.map_at(s + 1)
        for i in range(s + 2, t + 1):
            out = mat_mul(self.map_at(i), out)
        return out

    def is_zero(self):
        return all(d == 0 for d in self.dims)


def shift(m, delta):
    """Shifted module m(delta): level t becomes level t+delta, zero off the grid."""
    l = m.grid_len
    dims = []
    for t in range(l + 1):
        s = t + delta
        dims.append(m.dims[s] if 0 <= s <= l else 0)
    maps = []
    for t in range(1, l + 1):
        s = t + delta
        if 1 <= s <= l:
            maps.append(m.map_at(s))
        else:
            maps.append(Matrix.zero(m.field, dims[t], dims[t - 1]))
    return PersistenceModule(m.field, tuple(dims), tuple(maps))


def shift_interval(iv, delta, grid_len):
    """Image of a bar under shifting by delta, or None when it leaves the grid."""
    a, b = iv.a - delta, iv.b - delta
    if b < 0 or a > grid_len:
        return None
    return Interval(max(a, 0), min(b, grid_len))


@dataclass(frozen=True)
class BasisChange:
    """Invertible matrix g_t at every grid index; new coordinates = g_t * old."""

    mats: tuple

    @classmethod
    def identity(cls, field, dims):
        return cls(tuple(Matrix.identity(field, n) for n in dims))

    def inverses(self):
        """g_t^{-1} at every index. Computed on the first call and kept in the
        instance dict, outside the dataclass fields, so equality, hash and
        repr do not see it; the object is frozen and its matrices immutable,
        so the inverses cannot go stale."""
        invs = self.__dict__.get("_inverses")
        if invs is None:
            invs = tuple(mat_inverse(g) for g in self.mats)
            object.__setattr__(self, "_inverses", invs)
        return invs

    def _prove_invertible(self):
        """Raise ValueError unless every g_t is invertible, by rank alone. Over
        QQ a level that has full rank modulo Matrix.rank's fixed prime needs
        no exact elimination; only one that the prime leaves singular gets
        one, so a singular level is still refused as "singular matrix". The
        verdict is kept next to the inverses (which prove it too) and cannot
        go stale, so a second call costs nothing."""
        if "_inverses" in self.__dict__ or "_invertible" in self.__dict__:
            return
        for g in self.mats:
            if g.rows != g.cols:
                raise ValueError("not square")
            if g.rank() < g.rows:
                raise ValueError("singular matrix")
        object.__setattr__(self, "_invertible", True)

    def apply(self, m):
        """Rewrite the structure maps in the new coordinates: g_t A_t g_{t-1}^{-1}."""
        if tuple(g.rows for g in self.mats) != m.dims:
            raise ValueError("basis change does not fit module dims")
        invs = self.inverses()
        maps = tuple(
            mat_mul(mat_mul(self.mats[t], m.map_at(t)), invs[t - 1])
            for t in range(1, m.grid_len + 1)
        )
        return PersistenceModule(m.field, m.dims, maps)

    def compose(self, other):
        """self after other, index-wise."""
        if len(self.mats) != len(other.mats):
            raise ValueError("length mismatch")
        return BasisChange(tuple(mat_mul(a, b) for a, b in zip(self.mats, other.mats)))

    def is_identity(self):
        return all(g == Matrix.identity(g.field, g.rows) for g in self.mats)


@dataclass(frozen=True)
class BarGenerator:
    """One interval summand: its bar, a slot among equal bars, and the position
    its chain occupies at every level it spans (positions[k] is the 0-based
    coordinate at level bar.a + k, in the reduced module).

    origin records the bar before any shift clipping; it is what gets reported
    to the outside world and defaults to the bar itself.
    """

    bar: Interval
    slot: int
    positions: tuple
    origin: Interval = None

    def __post_init__(self):
        if self.origin is None:
            object.__setattr__(self, "origin", self.bar)
        if len(self.positions) != self.bar.length + 1:
            raise ValueError("positions do not span the bar")

    def position_at(self, t):
        if not self.bar.contains_index(t):
            raise ValueError("level %d outside %s" % (t, self.bar))
        return self.positions[t - self.bar.a]

    def sort_key(self):
        return (self.bar.a, self.bar.b, self.slot)


@dataclass(frozen=True)
class BarcodeBasis:
    """A barcode basis: the change of coordinates, the resulting interval
    decomposition, one generator record per bar, and the reduced module whose
    structure maps are in rigid barcode form.

    A basis the library builds (reduce_to_barcode_basis, shift_basis,
    offset_origins, the parts of q_split) is marked with the module it reduces
    by construction. to_single_matrix, from_single_matrix and q_split skip
    their entry check for a basis marked for the module they are given (or an
    equal one); any other basis is checked in full where it enters."""

    change: BasisChange
    barcode: Barcode
    generators: tuple
    reduced: PersistenceModule

    def generator_index(self):
        """(bar, slot) -> generator lookup."""
        return {(g.bar, g.slot): g for g in self.generators}

    def _mark(self, m):
        """Mark self as built to reduce m (unless m is None) and return it. As
        with BasisChange's inverses, the mark sits outside the dataclass
        fields: equality, hash and repr ignore it, dataclasses.replace drops it."""
        if m is not None:
            object.__setattr__(self, "_reduces", m)
        return self

    def _marked_for(self, m):
        mark = self.__dict__.get("_reduces")
        return mark is not None and (mark is m or mark == m)


def _assign_slots(raw_gens):
    """Sort generator records and number equal bars 0,1,2,... by birth position."""
    raw_gens = sorted(raw_gens, key=lambda g: (g["bar"].a, g["bar"].b, g["positions"][0]))
    out = []
    prev = None
    slot = 0
    for g in raw_gens:
        if g["bar"] == prev:
            slot += 1
        else:
            slot = 0
            prev = g["bar"]
        out.append(
            BarGenerator(g["bar"], slot, tuple(g["positions"]), g.get("origin"))
        )
    return tuple(out)


def _barcode_module(field, dims, gens):
    """The rigid 0/1 module the generators describe: each generator occupies
    position_at(t) at every level t of its bar, and the map into level t sends
    its position at t-1 to its position at t. None unless the positions fill
    every level of dims exactly once. Each map is a selection (see fields):
    the row of a generator alive at t-1 and t picks its position at t-1, the
    row of one born at t is zero."""
    levels = [[] for _ in dims]
    for g in gens:
        if g.bar.a < 0 or g.bar.b >= len(dims):
            return None
        for t, p in enumerate(g.positions, g.bar.a):
            levels[t].append(p)
    if any(sorted(ps) != list(range(n)) for ps, n in zip(levels, dims)):
        return None
    picks = [[None] * n for n in dims]
    for g in gens:
        for t in range(g.bar.a + 1, g.bar.b + 1):
            picks[t][g.position_at(t)] = g.position_at(t - 1)
    maps = tuple(Matrix._selection(field, dims[t - 1], picks[t]) for t in range(1, len(dims)))
    return PersistenceModule(field, tuple(dims), maps)


def reduce_to_barcode_basis(m):
    """Compute a barcode basis of m by a left-to-right sweep.

    At each index the incoming map is row reduced, and leftover entries of
    dying columns are absorbed into the continuing chains, which only rewrites
    the recorded coordinate changes at earlier indices (the already reduced
    matrices stay put).

    The sweep runs on raw rows (see fields): the rows of each map and of each
    coordinate change, and the columns of the next map, on which the inverse
    of every row operation acts.
    """
    l = m.grid_len
    field = m.field
    dims = m.dims

    work = [None] * (l + 1)
    g = [[([0] * p + [1] + [0] * (n - p - 1), 1) for p in range(n)] for n in dims]

    # chains[k] = {"birth": int, "pos": [positions per level from birth]}
    chains = [{"birth": 0, "pos": [p]} for p in range(dims[0])]
    # chain_at[t][p] = chain id occupying position p at level t (filled as we go)
    chain_at = [list(range(dims[0]))]

    def columns(t):
        # the map out of level t (none past the last level) as raw columns,
        # one per position at level t, over one common denominator
        flat, den = m.maps[t]._block() if t < l else ([], 1)
        return [(flat[c::dims[t]], den) for c in range(dims[t])]

    nxt = columns(0)
    for i in range(1, l + 1):
        rows, cols = dims[i], dims[i - 1]
        gi = g[i]
        # the rows of the map into level i, in canonical form
        den = math.lcm(*[d for _, d in nxt])
        A = work[i] = [field._norm([n[k] * (den // d) for n, d in nxt], den) for k in range(rows)]
        nxt = columns(i)

        # row reduce A to reduced echelon form; every row operation on A and
        # g[i] is undone by the inverse column operation on the next map
        pivots = []  # (row, col)
        pr = 0
        for j in range(cols):
            piv = next((r for r in range(pr, rows) if A[r][0][j]), None)
            if piv is None:
                continue
            if piv != pr:
                for lst in (A, gi, nxt):
                    lst[pr], lst[piv] = lst[piv], lst[pr]
            n, d = A[pr]
            if n[j] != d:
                # row pr times d / n_j, column pr of the next map times n_j / d
                A[pr] = _scaled(field, A[pr], d, n[j])
                gi[pr] = _scaled(field, gi[pr], d, n[j])
                nxt[pr] = _scaled(field, nxt[pr], n[j], d)
            for r in range(rows):
                n, d = A[r]
                if r != pr and n[j]:
                    # row r minus n_j / d times row pr, and column pr of the
                    # next map plus n_j / d times column r
                    A[r] = _axpy(field, A[r], -n[j], d, A[pr])
                    gi[r] = _axpy(field, gi[r], -n[j], d, gi[pr])
                    nxt[pr] = _axpy(field, nxt[pr], n[j], d, nxt[r])
            pivots.append((pr, j))
            pr += 1

        pivot_cols = {j: r for r, j in pivots}

        # absorb junk left in dying columns into the continuing chains
        for j in range(cols):
            if j in pivot_cols:
                continue
            for r, jc in pivots:
                n, d = A[r]
                beta = n[j]
                if not beta:
                    continue
                n[j] = 0
                A[r] = field._norm(n, d)
                dying = chain_at[i - 1][j]
                donor = chain_at[i - 1][jc]
                birth = chains[dying]["birth"]
                if chains[donor]["birth"] > birth:
                    raise RuntimeError("donor chain is born after the dying chain")
                for t in range(birth, i):
                    pc = chains[donor]["pos"][t - chains[donor]["birth"]]
                    pj = chains[dying]["pos"][t - birth]
                    g[t][pc] = _axpy(field, g[t][pc], beta, d, g[t][pj])

        # book-keeping: continuations, deaths, births
        level = [None] * rows
        for r, j in pivots:
            k = chain_at[i - 1][j]
            chains[k]["pos"].append(r)
            level[r] = k
        for j in range(cols):
            if j not in pivot_cols:
                k = chain_at[i - 1][j]
                chains[k]["death"] = i - 1
        for p in range(len(pivots), rows):
            chains.append({"birth": i, "pos": [p]})
            level[p] = len(chains) - 1
        chain_at.append(level)

    raw = []
    for ch in chains:
        death = ch.get("death", l)
        raw.append({"bar": Interval(ch["birth"], death), "positions": ch["pos"]})
    gens = _assign_slots(raw)

    change = BasisChange(tuple(Matrix._from_raw_rows(field, rows, n) for rows, n in zip(g, dims)))
    reduced = _barcode_module(field, dims, gens)
    if reduced is None or any(
        reduced.maps[i - 1]._raw_rows() != work[i]
        for i in range(1, l + 1)
    ):
        raise RuntimeError("sweep left the module out of barcode form")
    return BarcodeBasis(change, Barcode([g_.bar for g_ in gens]), gens, reduced)._mark(m)


def shift_basis(bb, delta):
    """Barcode basis of the shifted module, with origins carried through clipping.

    If bb reduces m, the result reduces shift(m, delta): coordinates are just
    reindexed, bars are clipped, and bars that leave the grid are dropped.
    """
    l = len(bb.change.mats) - 1
    field = bb.reduced.field
    mats = []
    dims = []
    for t in range(l + 1):
        s = t + delta
        if 0 <= s <= l:
            mats.append(bb.change.mats[s])
            dims.append(bb.reduced.dims[s])
        else:
            mats.append(Matrix.identity(field, 0))
            dims.append(0)
    raw = []
    for gen in bb.generators:
        clipped = shift_interval(gen.bar, delta, l)
        if clipped is None:
            continue
        positions = [
            gen.position_at(t + delta) for t in range(clipped.a, clipped.b + 1)
        ]
        raw.append({"bar": clipped, "positions": positions, "origin": gen.origin})
    gens = _assign_slots(raw)
    reduced = shift(bb.reduced, delta)
    mark = bb.__dict__.get("_reduces")
    return BarcodeBasis(
        BasisChange(tuple(mats)), Barcode([g.bar for g in gens]), gens, reduced
    )._mark(None if mark is None else shift(mark, delta))


def offset_origins(bb, delta):
    """Decorate a barcode basis with origins moved up by delta.

    This is the reporting convention for a morphism into a module that is
    itself a delta-shift: bars of the reduced module are labeled by where they
    live before shifting. No grid clipping is applied to origins.
    """
    gens = tuple(
        BarGenerator(
            g.bar, g.slot, g.positions, Interval(g.origin.a + delta, g.origin.b + delta)
        )
        for g in bb.generators
    )
    return BarcodeBasis(bb.change, bb.barcode, gens, bb.reduced)._mark(bb.__dict__.get("_reduces"))


def module_from_barcode(field, grid_len, bars):
    """Interval module direct sum, in rigid barcode form.

    Chains are laid out at each level sorted by birth, ties by input order.
    """
    bars = list(bars)
    for b in bars:
        if b.a < 0 or b.b > grid_len:
            raise ValueError("bar %s outside grid 0..%d" % (b, grid_len))
    filled = [0] * (grid_len + 1)  # positions handed out so far at each level
    gens = []
    for b in sorted(bars, key=lambda b: b.a):
        gens.append(BarGenerator(b, 0, tuple(filled[t] for t in range(b.a, b.b + 1))))
        for t in range(b.a, b.b + 1):
            filled[t] += 1
    return _barcode_module(field, tuple(filled), gens)
