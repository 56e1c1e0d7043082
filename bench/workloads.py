"""The benchmark workloads: how each builds its instances from the seed, the
job it times, and the untimed checks on every output.

Jobs call the library through module attributes (`ladder.decompose`, ...),
so the traced run sees them through the names `trace_targets` rebinds.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import Counter
from fractions import Fraction

from laddermod import LadderDecomposition, Matrix, QQ, ReductionFailure, field_by_name, shift
from laddermod import cli, coarse, fields, ladder, matching, morphism, persistence

import instances

F5 = field_by_name("prime 5")
RANK_SAMPLES = 4  # (s, t) pairs per instance for the rank oracle


class Workload:
    name = None
    why = None
    pool_size = None  # instances generated at set-up
    trace_count = None  # leading pool instances run in the traced pass

    def make(self, rng, ident):
        raise NotImplementedError

    def prepare(self, inst, workdir):
        """Set-up work beyond generation, such as writing input files."""

    def job(self, inst):
        raise NotImplementedError

    def check(self, inst, out):
        """Full untimed check of one output: None or a failure message."""
        raise NotImplementedError

    def summary(self, out):
        """What a repeated run of a checked instance must reproduce exactly."""
        return out

    def build(self, seed, count, workdir):
        pool = []
        for ident in range(count):
            inst = self.make(random.Random("%s/%d/%d" % (self.name, seed, ident)), ident)
            self.prepare(inst, workdir)
            pool.append(inst)
        return pool


def _decompose(phi):
    bb_dom = persistence.reduce_to_barcode_basis(phi.dom)
    bb_cod = persistence.reduce_to_barcode_basis(phi.cod)
    dec = ladder.decompose(phi, bb_dom, bb_cod)
    if isinstance(dec, ReductionFailure):
        return dec, None, None
    chi = matching.induced_matching(dec)
    return dec, chi, matching.matching_cost(chi)


def _bar(iv):
    return (iv.a, iv.b)


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][j]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = rows[i][j] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_oracle(inst, pairs):
    """Morphism rank oracle, independent of the reducer: for s <= t,
    rank(u_{s,t} . phi_s) is the number of matched (J, K) with J.a <= s and
    t <= K.b, in grid coordinates. The left side is computed from the raw
    generated components with no basis. Returns None or a failure message."""
    rng = random.Random(inst.ident)
    zero = inst.field.zero()
    for _ in range(RANK_SAMPLES):
        s = rng.randint(0, inst.grid_len)
        t = min(inst.grid_len, s + rng.randint(0, 10))
        x = inst.comps[s]
        ncols = inst.phi.dom.dims[s]
        for i in range(s + 1, t + 1):
            nxt = []
            for row in inst.u_maps[i - 1]:
                acc = [zero] * ncols
                for k, c in enumerate(row):
                    if c:
                        acc = [p + c * q for p, q in zip(acc, x[k])]
                nxt.append(acc)
            x = nxt
        got = _rank(x)
        want = sum(1 for (ja, _), (_, kb) in pairs if ja <= s and t <= kb)
        if got != want:
            return "rank oracle at s=%d t=%d: rank %d but %d matched pairs" % (s, t, got, want)
    return None


class _Decomposing(Workload):
    """A random morphism in arbitrary coordinates, decomposed by the library."""

    n = None  # bars per side
    verify_in_job = False

    def job(self, inst):
        out = _decompose(inst.phi)
        if self.verify_in_job and not isinstance(out[0], ReductionFailure):
            return out + (ladder.verify_decomposition(inst.phi, out[0]),)
        return out

    def check(self, inst, out):
        dec, chi, cost = out[:3]
        if not isinstance(dec, LadderDecomposition):
            return "reduction failed: %s" % dec
        verdict = out[3] if self.verify_in_job else ladder.verify_decomposition(inst.phi, dec)
        if verdict is not None:
            return "verify_decomposition: %s" % verdict
        pairs = [(_bar(dg.bar), _bar(cg.bar)) for cg, dg in dec.pairs]
        plus = [_bar(g.bar) for g in dec.plus_gens]
        minus = [_bar(g.bar) for g in dec.minus_gens]
        if sorted([d for d, _ in pairs] + plus) != sorted(inst.dom_bars):
            return "domain bars not accounted for exactly once"
        if sorted([c for _, c in pairs] + minus) != sorted(inst.cod_bars):
            return "codomain bars not accounted for exactly once"
        if Counter({(_bar(s), _bar(t)): m for (s, t), m in chi.pairs}) != Counter(pairs):
            return "induced matching differs from the decomposition's pairs"
        want = max(
            [Fraction(max(abs(a - c), abs(b - d))) for (a, b), (c, d) in pairs]
            + [Fraction(b - a, 2) for a, b in plus + minus],
            default=Fraction(0),
        )
        if cost != want:
            return "matching cost %s, expected %s" % (cost, want)
        return rank_oracle(inst, pairs)

    def summary(self, out):
        dec, chi, cost = out[:3]
        if not isinstance(dec, LadderDecomposition):
            return str(dec)
        return tuple(dec.summands()), chi, cost


class LadderWide(_Decomposing):
    name = "ladder-wide"
    why = "32 short bars per side, small fibres, about 170 admissible ops per instance: the matching-form reducer dominates"
    n = 32
    pool_size = 20
    trace_count = 10

    def make(self, rng, ident):
        n = self.n
        grid = n + 16
        return instances.random_morphism(
            rng, ident, QQ, grid,
            instances.nested_free_bars(rng, grid, n, 16),
            instances.nested_free_bars(rng, grid, n, 16),
            lambda d: 3,
        )


class BasisDense(_Decomposing):
    name = "basis-dense"
    why = "12 bars all alive mid-grid, densely conjugated over QQ: basis checks, products and inverses dominate"
    n = 12
    pool_size = 20
    trace_count = 10
    verify_in_job = True

    def make(self, rng, ident):
        n = self.n
        grid = 2 * n
        return instances.random_morphism(
            rng, ident, QQ, grid,
            instances.straddling_bars(rng, grid, n),
            instances.straddling_bars(rng, grid, n),
            lambda d: 2 * d,
        )


class CertifiedCli(Workload):
    name = "certified-cli"
    why = "certified F_5 pairs through the CLI in-process: parsing, interleaving checks, coarse path, image matching"
    pool_size = 60
    trace_count = 20
    bars = 16
    grid = 40
    delta = 1
    q = 2
    commands = (("verify",), ("decompose", "--q", str(q)), ("match", "--compare"))

    def make(self, rng, ident):
        return instances.certified_pair(rng, ident, F5, self.grid, self.bars, self.delta, lambda d: 3)

    def prepare(self, inst, workdir):
        """Write the pair as a morphism file with its inverse inline: the
        codomain is stored unshifted and the inverse reindexed onto it."""
        phi, psi, d = inst.phi, inst.psi, inst.delta
        file_psi = tuple(
            psi.comps[t - d] if t >= d else Matrix.zero(F5, phi.dom.dims[t + d], 0)
            for t in range(inst.grid_len + 1)
        )
        doc = cli.MorphismDoc(phi.dom, shift(phi.cod, -d), d, phi.comps, file_psi)
        inst.path = os.path.join(workdir, "%s-%03d.txt" % (self.name, inst.ident))
        with open(inst.path, "w", encoding="utf-8") as fh:
            fh.write(cli.print_morphism(doc))

    def job(self, inst):
        outs = []
        for cmd in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([cmd[0], inst.path, *cmd[1:]])
            outs.append((code, buf.getvalue()))
        return tuple(outs)

    def expected(self, inst):
        """Exit code and stdout of each command, derived from the construction:
        every bar [a, b] of V is matched to [a - delta, b - delta] of the
        stored codomain, which is [a - 2 delta, b - 2 delta] on phi's grid."""
        d, q = inst.delta, self.q
        verify = "domain triangles: pass\ncodomain triangles: pass\ncertified %d-interleaving\n" % d
        summands = ", ".join("R [%d,%d]->[%d,%d]" % (a, b, c, e) for (a, b), (c, e) in sorted(inst.pairs))
        decompose = (
            "coarse variant=both q=%d delta=%d bound=%d\n"
            "inequality 2*delta+q < min(Xi): ok (Xi dom=inf, Xi cod=inf)\n"
            "summands: %s\n" % (q, d, d + q // 2, summands)
        )
        block = "".join("pair [%d,%d] -> [%d,%d] x1\n" % (a, b, a - d, b - d) for a, b in sorted(inst.dom_bars))
        block += "cost %d\n" % d
        match = "ladder:\n" + block + "bl:\n" + block + "methods agree\n"
        return ((0, verify), (0, decompose), (0, match))

    def check(self, inst, out):
        for cmd, got, want in zip(self.commands, out, self.expected(inst)):
            if got != want:
                return "%s: exit %d, output differs from the construction" % (cmd[0], got[0])
        return rank_oracle(inst, inst.pairs)


WORKLOADS = {wl.name: wl for wl in (LadderWide(), BasisDense(), CertifiedCli())}


def _count_reduction(counts, args, result):
    if isinstance(result, ReductionFailure):
        counts["ladder.failures"] += 1
        return
    for op in result[1]:
        counts["ladder.ops"] += 1
        counts["ladder.ops." + op.kind] += 1


def _count_nnz(counts, args, result):
    counts["ladder.single_nnz"] += sum(1 for x in result.entries.data if x)


def _count_bytes(counts, args, result):
    counts["cli.parse.bytes"] += len(args[0].encode())


def trace_targets():
    """(owner, attribute, span name, counter hook) for every name the traced
    run rebinds: each public function at every module that calls it by that
    name, plus BasisChange.apply on its class."""
    table = (
        ("ladder.reduce_to_matching_form", "reduce_to_matching_form", (ladder,), _count_reduction),
        ("ladder.decompose", "decompose", (ladder, coarse, cli), None),
        ("ladder.verify_decomposition", "verify_decomposition", (ladder,), None),
        ("morphism.to_single_matrix", "to_single_matrix", (ladder, cli), _count_nnz),
        ("morphism.from_single_matrix", "from_single_matrix", (ladder,), None),
        ("morphism.validate_ladder", "validate_ladder", (morphism, coarse, cli), None),
        ("morphism.check_interleaving", "check_interleaving", (coarse, cli), None),
        ("morphism.compose_ladder", "compose_ladder", (coarse, cli), None),
        ("persistence.reduce_to_barcode_basis", "reduce_to_barcode_basis",
         (persistence, ladder, coarse, matching, cli), None),
        ("persistence.BasisChange.apply", "apply", (persistence.BasisChange,), None),
        ("fields.mat_mul", "mat_mul", (fields, persistence, morphism, coarse, matching), None),
        ("fields.mat_inverse", "mat_inverse", (fields, persistence, morphism, coarse), None),
        ("coarse.q_split", "q_split", (coarse, cli), None),
        ("coarse.induce_coarse_morphism", "induce_coarse_morphism", (coarse,), None),
        ("coarse.coarse_decompose", "coarse_decompose", (cli,), None),
        ("matching.bl_matching", "bl_matching", (cli,), None),
        ("cli.parse_morphism_text", "parse_morphism_text", (cli,), _count_bytes),
        ("cli.verify", "cmd_verify", (cli,), None),
        ("cli.decompose", "cmd_decompose", (cli,), None),
        ("cli.match", "cmd_match", (cli,), None),
    )
    return [(owner, attr, name, hook) for name, attr, owners, hook in table for owner in owners]
