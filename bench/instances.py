"""Seeded inputs for the benchmark workloads.

Every instance starts from interval modules in their standard coordinates,
where a morphism is a single matrix indexed by bars, and is then conjugated by
random elementary operations at every level of both ends. The construction
works on plain lists of field elements and never calls the library's
reduction code, so a change to the library cannot change the load; `digest`
pins the generated entries per workload and seed. Only the finished lists are
wrapped in the library's container types.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from laddermod import LadderModule, Matrix, PersistenceModule, shift

# coefficients of the random single matrix, as in tests/gen.py:random_morphism_matrix
COEFFS = (-2, -1, 1, 2, 3)
DENSITY = 0.7


@dataclass
class Instance:
    """One generated morphism phi: V -> U, with U on phi's grid, and what the
    construction knows about it. Matrices are kept as row lists:
    v_maps[t - 1] and u_maps[t - 1] are the structure maps into level t,
    comps[t] is phi_t."""

    ident: int
    field: object
    n: int  # bars per side
    grid_len: int
    delta: int  # 0 for a plain morphism V -> W
    dom_bars: tuple  # ((a, b), ...)
    cod_bars: tuple
    conj_ops: tuple  # elementary operations applied to (domain, codomain)
    single_nnz: int  # nonzeros of the single matrix before conjugation
    v_maps: list
    u_maps: list
    comps: list
    psi_comps: list = None  # certified pairs: psi_s: U_s -> V_(s + 2 delta)
    pairs: tuple = ()  # certified pairs: the constructed (dom bar, cod bar) matches
    phi: LadderModule = None
    psi: LadderModule = None
    path: str = None  # the morphism file, for workloads that go through the CLI

    def record(self):
        return {
            "id": self.ident,
            "field": self.field.name,
            "n": self.n,
            "L": self.grid_len,
            "delta": self.delta,
            "conj_ops_dom": self.conj_ops[0],
            "conj_ops_cod": self.conj_ops[1],
            "single_nnz": self.single_nnz,
        }


def digest(instances):
    """sha256 over the record, bars and every matrix entry of the instances."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr(sorted(inst.record().items())).encode())
        h.update(repr((inst.dom_bars, inst.cod_bars, inst.pairs)).encode())
        for group in (inst.v_maps, inst.u_maps, inst.comps, inst.psi_comps or ()):
            for m in group:
                h.update(("|%d:" % len(m)).encode())
                for row in m:
                    h.update((" ".join(inst.field.fmt(x) for x in row) + ";").encode())
    return h.hexdigest()


def nested_free_bars(rng, grid_len, n, max_len):
    """n nested-free bars of length at most max_len. Births are spread evenly
    over the grid with jitter and lengths are random; sorted births are then
    paired with sorted deaths."""
    span = grid_len - max_len
    ends = []
    for i in range(n):
        a = min(span, i * span // n + rng.randint(0, max(1, span // n)))
        ends.append((a, a + rng.randint(0, max_len)))
    return tuple(zip(sorted(a for a, _ in ends), sorted(b for _, b in ends)))


def straddling_bars(rng, grid_len, n):
    """n nested-free bars that all contain the midpoint of the grid, with
    births and deaths spread evenly over the two halves, with jitter."""
    mid = grid_len // 2
    births = sorted(min(mid, i * mid // n + rng.randint(0, 1)) for i in range(n))
    deaths = sorted(max(mid, grid_len - i * mid // n - rng.randint(0, 1)) for i in range(n))
    return tuple(zip(births, deaths))


def long_bars(rng, grid_len, n, lo, min_len=4, max_len=10):
    """n bars with strictly increasing births (all >= lo) and deaths, each of
    length at least min_len: nested-free and pairwise distinct."""
    while True:
        births = sorted(rng.sample(range(lo, grid_len - max_len + 1), n))
        deaths = []
        for a in births:
            deaths.append(max(a + rng.randint(min_len, max_len), deaths[-1] + 1 if deaths else 0))
        if deaths[-1] <= grid_len:
            return tuple(zip(births, deaths))


def _layout(bars, grid_len):
    """Coordinate of every live bar at every level: bars ordered by birth,
    ties by input order, as `module_from_barcode` lays them out."""
    order = sorted(range(len(bars)), key=lambda k: (bars[k][0], k))
    return [
        {k: p for p, k in enumerate(k for k in order if bars[k][0] <= t <= bars[k][1])}
        for t in range(grid_len + 1)
    ]


def _structure_maps(field, pos):
    zero, one = field.zero(), field.one()
    maps = []
    for t in range(1, len(pos)):
        rows = [[zero] * len(pos[t - 1]) for _ in pos[t]]
        for k, p in pos[t].items():
            if k in pos[t - 1]:
                rows[p][pos[t - 1][k]] = one
        maps.append(rows)
    return maps


def _zero_comps(field, rows_pos, cols_pos):
    zero = field.zero()
    return [[[zero] * len(c) for _ in r] for r, c in zip(rows_pos, cols_pos)]


class _Side:
    """One end of a morphism under conjugation: an elementary operation at
    level t acts on the rows of every matrix landing at t and, inverted, on
    the columns of every matrix leaving t."""

    def __init__(self, maps, into, out_of):
        self.maps = maps
        self.into = into  # level -> matrices whose rows are that level
        self.out_of = out_of  # level -> matrices whose columns are that level

    def apply(self, t, op):
        kind, i, j, c = op
        left = list(self.into.get(t, ()))
        right = list(self.out_of.get(t, ()))
        if t >= 1:
            left.append(self.maps[t - 1])
        if t < len(self.maps):
            right.append(self.maps[t])
        for m in left:
            if kind == "add":
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            elif kind == "swap":
                m[i], m[j] = m[j], m[i]
            else:
                m[i] = [c * x for x in m[i]]
        for m in right:
            if kind == "add":
                for row in m:
                    row[j] = row[j] - c * row[i]
            elif kind == "swap":
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                inv = 1 / c
                for row in m:
                    row[i] = row[i] * inv


def _elementary(rng, field, d):
    """One elementary row operation on a d-dimensional level, drawn as
    tests/gen.py:random_invertible draws them."""
    kind = rng.randrange(3)
    i, j = rng.sample(range(d), 2)
    if kind == 0:
        return ("add", i, j, field.of(rng.choice((-2, -1, 1, 2))))
    if kind == 1:
        return ("swap", i, j, None)
    return ("scale", i, j, field.of(rng.choice((-1, 2, 3))))


def _conjugate(rng, field, side, dims, ops_per_level):
    count = 0
    for t, d in enumerate(dims):
        if d < 2:
            continue
        for _ in range(ops_per_level(d)):
            side.apply(t, _elementary(rng, field, d))
            count += 1
    return count


def _module(field, dims, maps):
    return PersistenceModule(
        field,
        tuple(dims),
        tuple(Matrix.from_rows(field, m, cols=dims[t]) for t, m in enumerate(maps)),
    )


def _comps(field, comps, cols):
    return tuple(Matrix.from_rows(field, m, cols=c) for m, c in zip(comps, cols))


def random_morphism(rng, ident, field, grid_len, dom_bars, cod_bars, ops_per_level):
    """A random morphism V -> W between the interval modules of two barcodes.

    Each single-matrix entry the support rule allows (codomain bar K
    overlap-precedes domain bar J) is nonzero with probability DENSITY; then
    both ends are conjugated level by level."""
    pos_v = _layout(dom_bars, grid_len)
    pos_w = _layout(cod_bars, grid_len)
    maps_v = _structure_maps(field, pos_v)
    maps_w = _structure_maps(field, pos_w)
    comps = _zero_comps(field, pos_w, pos_v)
    nnz = 0
    for kk, (ka, kb) in enumerate(cod_bars):
        for jj, (ja, jb) in enumerate(dom_bars):
            if ka <= ja <= kb <= jb and rng.random() < DENSITY:
                c = field.of(rng.choice(COEFFS))
                nnz += 1
                for t in range(ja, kb + 1):
                    comps[t][pos_w[t][kk]][pos_v[t][jj]] = c
    levels = range(grid_len + 1)
    dims_v = [len(p) for p in pos_v]
    dims_w = [len(p) for p in pos_w]
    ops = (
        _conjugate(rng, field, _Side(maps_v, {}, {t: [comps[t]] for t in levels}),
                   dims_v, ops_per_level),
        _conjugate(rng, field, _Side(maps_w, {t: [comps[t]] for t in levels}, {}),
                   dims_w, ops_per_level),
    )
    inst = Instance(ident, field, len(dom_bars), grid_len, 0, dom_bars, cod_bars,
                    ops, nnz, maps_v, maps_w, comps)
    inst.phi = LadderModule(
        _module(field, dims_v, maps_v), _module(field, dims_w, maps_w),
        _comps(field, comps, dims_v),
    )
    return inst


def certified_pair(rng, ident, field, grid_len, n, delta, ops_per_level):
    """A certified delta-invertible pair phi: V -> U, psi: U -> V(2 delta).

    U holds the bars of V moved down by 2 delta. Every bar of V maps onto its
    twin in U and back, so both triangle families hold exactly; then both
    ends are conjugated level by level."""
    two = 2 * delta
    bars = long_bars(rng, grid_len, n, two)
    u_bars = tuple((a - two, b - two) for a, b in bars)
    pos_v = _layout(bars, grid_len)
    pos_u = _layout(u_bars, grid_len)
    maps_v = _structure_maps(field, pos_v)
    maps_u = _structure_maps(field, pos_u)
    levels = range(grid_len + 1)
    phi = _zero_comps(field, pos_u, pos_v)
    psi = _zero_comps(field, [pos_v[s + two] if s + two <= grid_len else {} for s in levels], pos_u)
    one = field.one()
    for k, (a, b) in enumerate(bars):
        for t in range(a, b - two + 1):
            phi[t][pos_u[t][k]][pos_v[t][k]] = one
        for s in range(a - two, b - two + 1):
            psi[s][pos_v[s + two][k]][pos_u[s][k]] = one
    v_side = _Side(maps_v, {t: [psi[t - two]] for t in levels if t >= two},
                   {t: [phi[t]] for t in levels})
    u_side = _Side(maps_u, {t: [phi[t]] for t in levels}, {t: [psi[t]] for t in levels})
    dims_v = [len(p) for p in pos_v]
    dims_u = [len(p) for p in pos_u]
    ops = (
        _conjugate(rng, field, v_side, dims_v, ops_per_level),
        _conjugate(rng, field, u_side, dims_u, ops_per_level),
    )
    inst = Instance(ident, field, n, grid_len, delta, bars, u_bars, ops, n,
                    maps_v, maps_u, phi, psi, tuple(zip(bars, u_bars)))
    V = _module(field, dims_v, maps_v)
    U = _module(field, dims_u, maps_u)
    inst.phi = LadderModule(V, U, _comps(field, phi, dims_v))
    inst.psi = LadderModule(U, shift(V, two), _comps(field, psi, dims_u))
    return inst
