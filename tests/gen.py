"""Random instance generators shared by the property and acceptance suites.

Everything is driven by a caller-supplied random.Random so failures are
reproducible from the printed seed.
"""

import math

from laddermod import (
    Barcode,
    BasisChange,
    Interval,
    LadderModule,
    Matrix,
    MorphismMatrix,
    PersistenceModule,
    QQ,
    check_delta_invertible,
    field_by_name,
    from_single_matrix,
    interval_overlap,
    module_from_barcode,
    nestedness,
    offset_origins,
    reduce_to_barcode_basis,
    shift,
    shift_basis,
    shift_interval,
    validate_ladder,
    InterleavingCertificate,
)

FIELDS = (QQ, field_by_name("prime 5"))


def random_matrix(rng, field, rows, cols, lo=-2, hi=2):
    return Matrix.from_rows(
        field, [[field.of(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_module(rng, field=None, max_len=5, max_dim=4):
    """Arbitrary structure maps, not necessarily decomposable by inspection."""
    field = field or rng.choice(FIELDS)
    l = rng.randint(1, max_len)
    dims = tuple(rng.randint(0, max_dim) for _ in range(l + 1))
    maps = tuple(random_matrix(rng, field, dims[i], dims[i - 1]) for i in range(1, l + 1))
    return PersistenceModule(field, dims, maps)


def random_invertible(rng, field, n, ops=3):
    rows = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    for _ in range(ops):
        if n < 2:
            break
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = field.of(rng.choice((-2, -1, 1, 2)))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = field.of(rng.choice((-1, 2, 3)))
            # 2 or 3 vanishes over F_2 or F_3; skipping it draws nothing more,
            # so every other field sees the same matrices
            if c:
                rows[i] = [c * a for a in rows[i]]
    return Matrix.from_rows(field, rows, cols=n)


def random_bars(rng, grid_len, count, min_len=0, max_len=None):
    out = []
    for _ in range(count):
        length = rng.randint(min_len, max_len if max_len is not None else grid_len)
        a = rng.randint(0, grid_len - length)
        out.append(Interval(a, a + length))
    return out


def random_nested_free_bars(rng, grid_len, count, tries=200):
    for _ in range(tries):
        bars = random_bars(rng, grid_len, count)
        if nestedness(Barcode(bars)) == math.inf:
            return bars
    raise AssertionError("could not sample a nested-free barcode")


def sorted_pairing_bars(rng, grid_len, count, max_len):
    """count bars from sorted births paired with sorted deaths. No bar sits
    strictly inside another, so the barcode is nested-free by construction
    and sampling never has to retry, however many bars are asked for."""
    births = sorted(rng.randint(0, grid_len) for _ in range(count))
    deaths = sorted(min(grid_len, a + rng.randint(0, max_len)) for a in births)
    return [Interval(a, b) for a, b in zip(births, deaths)]


def random_morphism_matrix(rng, cod_basis, dom_basis, field, density=0.7):
    """Random single-matrix presentation respecting the support constraint."""
    rows = []
    for rg in cod_basis.generators:
        row = []
        for cg in dom_basis.generators:
            if interval_overlap(rg.bar, cg.bar) and rng.random() < density:
                row.append(field.of(rng.choice((-2, -1, 1, 2, 3))))
            else:
                row.append(field.zero())
        rows.append(row)
    return MorphismMatrix(
        tuple(cod_basis.generators),
        tuple(dom_basis.generators),
        Matrix.from_rows(field, rows, cols=len(dom_basis.generators)),
    )


def random_barcode_morphism(rng, field=None, grid_len=None, nested_free=True):
    """A random honest morphism between interval modules, with its bases."""
    field = field or rng.choice(FIELDS)
    grid_len = grid_len or rng.randint(3, 8)
    k1 = rng.randint(1, 4)
    k2 = rng.randint(1, 4)
    if nested_free:
        bars_dom = random_nested_free_bars(rng, grid_len, k1)
        bars_cod = random_nested_free_bars(rng, grid_len, k2)
    else:
        bars_dom = random_bars(rng, grid_len, k1)
        bars_cod = random_bars(rng, grid_len, k2)
    dom = module_from_barcode(field, grid_len, bars_dom)
    cod = module_from_barcode(field, grid_len, bars_cod)
    bb_dom = reduce_to_barcode_basis(dom)
    bb_cod = reduce_to_barcode_basis(cod)
    mm = random_morphism_matrix(rng, bb_cod, bb_dom, field)
    lm = from_single_matrix(mm, dom, cod, bb_dom, bb_cod)
    return lm, bb_dom, bb_cod, mm


def conjugate_morphism(rng, phi):
    """phi in new coordinates: random invertible changes g on the domain and h
    on the codomain. Returns (new phi, g, h)."""
    field = phi.dom.field
    g = BasisChange(tuple(random_invertible(rng, field, n) for n in phi.dom.dims))
    h = BasisChange(tuple(random_invertible(rng, field, n) for n in phi.cod.dims))
    ginv = g.inverses()
    comps = tuple(h.mats[t] * phi.comps[t] * ginv[t] for t in range(phi.grid_len + 1))
    return LadderModule(g.apply(phi.dom), h.apply(phi.cod), comps), g, h


def conjugate_pair(rng, phi, psi, delta):
    """Apply random invertible coordinate changes to both ends of a certified
    pair, keeping it certified."""
    l = phi.grid_len
    phi2, g, h = conjugate_morphism(rng, phi)
    V2, U2 = phi2.dom, phi2.cod
    hinv = h.inverses()
    # psi: U -> V(2*delta); the V-side change acts through the shift
    two = 2 * delta
    psi_comps = []
    for t in range(l + 1):
        if t + two <= l:
            psi_comps.append(g.mats[t + two] * psi.comps[t] * hinv[t])
        else:
            psi_comps.append(psi.comps[t] * hinv[t])
    psi2 = LadderModule(U2, shift(V2, two), tuple(psi_comps))
    assert validate_ladder(phi2) is None
    assert validate_ladder(psi2) is None
    return phi2, psi2


def certified_pair(rng, delta=None, grid_len=None, field=None):
    """A certified delta-invertible pair with 2*delta below every relevant
    nestedness value.

    Construction: long bars mapped along the 2*delta inner morphism, short
    bars mapped to zero, then random coordinate changes on both ends. Returns
    (phi, psi, delta); phi: V -> U and psi: U -> V(2*delta) with U the role of
    the delta-shifted codomain.
    """
    field = field or rng.choice(FIELDS)
    delta = delta if delta is not None else rng.randint(1, 2)
    grid_len = grid_len or rng.randint(4 * delta + 2, 4 * delta + 8)
    two = 2 * delta
    while True:
        nlong = rng.randint(1, 3)
        long_bars = random_bars(rng, grid_len, nlong, min_len=two)
        clips = [shift_interval(j, two, grid_len) for j in long_bars]
        assert all(c is not None for c in clips)
        distinct = all(
            long_bars[i] == long_bars[j] or clips[i] != clips[j]
            for i in range(nlong)
            for j in range(i + 1, nlong)
        )
        if not distinct:
            continue
        short_v = random_bars(rng, grid_len, rng.randint(0, 2), max_len=max(two - 1, 0))
        short_u = random_bars(rng, grid_len, rng.randint(0, 2), max_len=max(two - 1, 0))
        bars_v = long_bars + short_v
        bars_u = clips + short_u
        xi = min(
            nestedness(Barcode(bars_v)),
            nestedness(Barcode(bars_u)),
            nestedness(Barcode([shift_interval(b, two, grid_len) for b in bars_v
                                if shift_interval(b, two, grid_len) is not None])),
        )
        if xi <= two:
            continue
        break
    V = module_from_barcode(field, grid_len, bars_v)
    U = module_from_barcode(field, grid_len, bars_u)
    bbV = reduce_to_barcode_basis(V)
    bbU = reduce_to_barcode_basis(U)
    bbV2 = shift_basis(bbV, two)

    def pick(gens, bar, used):
        for g in gens:
            if g.bar == bar and (g.bar, g.slot) not in used:
                used.add((g.bar, g.slot))
                return g
    # phi: each long V generator onto its clipped U twin, shorts to zero
    used = set()
    targets = {}
    for j, c in zip(long_bars, clips):
        g = pick(bbU.generators, c, used)
        targets[j] = targets.get(j, []) + [g]
    taken = {}
    rows_u = list(bbU.generators)
    rows_v2 = list(bbV2.generators)
    phi_rows = [[field.zero()] * len(bbV.generators) for _ in rows_u]
    psi_rows = [[field.zero()] * len(rows_u) for _ in rows_v2]
    used_v = set()
    for j in long_bars:
        cg = targets[j].pop(0)
        vg = pick(bbV.generators, j, used_v)
        phi_rows[rows_u.index(cg)][bbV.generators.index(vg)] = field.one()
        # the shifted twin of vg has the same origin generator
        v2g = next(
            g for g in rows_v2
            if g.origin == j and (j, g.slot, "psi") not in taken and g.bar == cg.bar
        )
        taken[(j, v2g.slot, "psi")] = True
        psi_rows[rows_v2.index(v2g)][rows_u.index(cg)] = field.one()
    mm_phi = MorphismMatrix(
        tuple(rows_u), tuple(bbV.generators),
        Matrix.from_rows(field, phi_rows, cols=len(bbV.generators)),
    )
    mm_psi = MorphismMatrix(
        tuple(rows_v2), tuple(rows_u),
        Matrix.from_rows(field, psi_rows, cols=len(rows_u)),
    )
    phi = from_single_matrix(mm_phi, V, U, bbV, bbU)
    psi = from_single_matrix(mm_psi, U, shift(V, two), bbU, bbV2)
    phi, psi = conjugate_pair(rng, phi, psi, delta)
    cert = check_delta_invertible(phi, psi, delta)
    assert isinstance(cert, InterleavingCertificate), str(cert)
    return phi, psi, delta


def interleaving_bundles(phi, psi, delta):
    """Provenance bundles placing both matchings in original coordinates:
    domain bars as-is, codomain bars read as the unshifted endpoint's."""
    bb_dom = reduce_to_barcode_basis(phi.dom)
    bb_cod = offset_origins(reduce_to_barcode_basis(phi.cod), delta)
    bb_psi_cod = shift_basis(bb_dom, 2 * delta)
    return bb_dom, bb_cod, bb_psi_cod


def coarse_pair(rng, delta=1, q=2, field=None):
    """A certified pair clearing the coarse inequality 2*delta + q < min
    nestedness on the full endpoint barcodes (every variant keeps at most the
    full barcode on each side, and nestedness only grows when bars drop)."""
    while True:
        phi, psi, _ = certified_pair(rng, delta=delta, grid_len=rng.randint(8, 12), field=field)
        bbV = reduce_to_barcode_basis(phi.dom)
        bbU = reduce_to_barcode_basis(phi.cod)
        long_v = [b for b in bbV.barcode if b.length >= q]
        long_u = [b for b in bbU.barcode if b.length >= q]
        if not long_v or not long_u:
            continue
        if min(nestedness(bbV.barcode), nestedness(bbU.barcode)) > 2 * delta + q:
            return phi, psi, delta


def composable_pair(rng):
    """Two honest morphisms U -> V -> W with their presentations and bases."""
    field = rng.choice(FIELDS)
    grid_len = rng.randint(3, 7)
    mods = []
    for _ in range(3):
        bars = random_bars(rng, grid_len, rng.randint(1, 4))
        m = module_from_barcode(field, grid_len, bars)
        mods.append((m, reduce_to_barcode_basis(m)))
    (u, bu), (v, bv), (w, bw) = mods
    m1 = random_morphism_matrix(rng, bv, bu, field)
    m2 = random_morphism_matrix(rng, bw, bv, field)
    lm1 = from_single_matrix(m1, u, v, bu, bv)
    lm2 = from_single_matrix(m2, v, w, bv, bw)
    return lm1, lm2, m1, m2, (bu, bv, bw)
