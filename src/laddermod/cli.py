"""Command line front end.

Text files hold modules and morphisms with exact entries; printing is
canonical, so parse-then-print returns the input byte for byte. Subcommands:
barcode listing (optionally as an SVG strip), ladder decomposition, induced
and image-based matchings, and interleaving verification.

Exit codes: 0 success, 1 input error, 2 algorithmic failure (a morphism that
cannot be brought to matching form, or a verification that fails).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .fields import _INTEGER, _TOKEN, Matrix, field_by_name
from .persistence import (
    PersistenceModule,
    reduce_to_barcode_basis,
    shift,
    shift_basis,
)
from .morphism import (
    InterleavingCertificate,
    LadderModule,
    check_interleaving,
    compose_ladder,
    inner_ladder,
    shift_morphism,
    to_single_matrix,
    validate_ladder,
)
from .ladder import (
    ReductionFailure,
    check_nestedness_precondition,
    decompose,
    search_matching_form,
)
from .coarse import coarse_decompose, q_split
from .matching import _account_for, bl_matching, induced_matching, matching_cost


# Largest accepted sum of squared fibre dimensions in a module file. Barcode
# reduction allocates a d x d matrix per level, so larger files are refused on
# their dims line instead of running out of memory later.
_MAX_DIMS_SQUARED = 10**7


class ParseError(Exception):
    def __init__(self, lineno, msg):
        super().__init__("line %d: %s" % (lineno, msg))
        self.lineno = lineno


class _Lines:
    def __init__(self, text):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, "unexpected end of file, expected %s" % what)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    @property
    def lineno(self):
        return self.pos


def _expect(ls, literal):
    line = ls.next("'%s'" % literal)
    if line != literal:
        raise ParseError(ls.lineno, "expected '%s', got '%s'" % (literal, line))


def _default_field():
    return field_by_name(os.environ.get("LADDERMOD_FIELD", "rational"))


def _parse_field_line(ls):
    line = ls.peek()
    if line is not None and line.startswith("field "):
        ls.next("field")
        try:
            return field_by_name(line[len("field "):])
        except ValueError as e:
            raise ParseError(ls.lineno, str(e))
    try:
        return _default_field()
    except ValueError as e:
        raise ParseError(ls.lineno, "LADDERMOD_FIELD: %s" % e)


def _tokens(line):
    """The blank-separated tokens of line; a line of single spaces, as the
    printer writes, takes the fast path."""
    toks = line.split(" ")
    return toks if "\t" not in line and "" not in toks else _TOKEN.findall(line)


def _is_keyword_line(line, keyword):
    """line is keyword alone, or keyword followed by a blank."""
    head = _TOKEN.match(line)
    return head is not None and head.group() == keyword


def _parse_ints(ls, line, prefix):
    toks = _tokens(line[len(prefix):])
    if all(_INTEGER.fullmatch(tok) for tok in toks):
        try:
            return tuple(int(tok) for tok in toks)
        except ValueError:  # more digits than int converts
            pass
    raise ParseError(ls.lineno, "bad integer list in '%s'" % line)


def _parse_matrix(ls, field, rows, cols, what):
    def token_rows():
        for _ in range(rows):
            toks = _tokens(ls.next("a row of %s" % what))
            if len(toks) != cols:
                raise ParseError(
                    ls.lineno, "%s: expected %d entries, got %d" % (what, cols, len(toks))
                )
            yield toks

    # a bad entry is refused while its row is the last one read
    try:
        return Matrix._parse(field, cols, token_rows())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(ls.lineno, "%s: %s" % (what, e))


def _parse_module_body(ls):
    field = _parse_field_line(ls)
    line = ls.next("dims")
    if not _is_keyword_line(line, "dims"):
        raise ParseError(ls.lineno, "expected 'dims ...', got '%s'" % line)
    dims = _parse_ints(ls, line, "dims")
    if not dims:
        raise ParseError(ls.lineno, "dims must list at least one dimension")
    if any(d < 0 for d in dims):
        raise ParseError(ls.lineno, "dimensions must be >= 0")
    if sum(d * d for d in dims) > _MAX_DIMS_SQUARED:
        raise ParseError(
            ls.lineno, "dimensions too large: the sum of their squares exceeds %d" % _MAX_DIMS_SQUARED
        )
    maps = []
    for i in range(1, len(dims)):
        _expect(ls, "map %d" % i)
        maps.append(_parse_matrix(ls, field, dims[i], dims[i - 1], "map %d" % i))
    try:
        return PersistenceModule(field, dims, tuple(maps))
    except ValueError as e:
        raise ParseError(ls.lineno, str(e))


def parse_module_text(text):
    ls = _Lines(text)
    _expect(ls, "module")
    m = _parse_module_body(ls)
    if ls.peek() is not None:
        raise ParseError(ls.lineno + 1, "trailing content '%s'" % ls.peek())
    return m


def _module_lines(m):
    out = ["module", "field %s" % m.field.name, "dims %s" % " ".join(str(d) for d in m.dims)]
    for i in range(1, len(m.dims)):
        out.append("map %d" % i)
        out.extend(m.map_at(i)._fmt_rows())
    return out


def print_module(m):
    return "\n".join(_module_lines(m)) + "\n"


@dataclass(frozen=True)
class MorphismDoc:
    """Parsed morphism file: unshifted endpoints, declared delta, components
    of dom_t -> cod_(t+delta), and the optional candidate inverse.

    phi() and psi() build their ladder once and return that same instance
    after, kept outside the dataclass fields; parse_morphism_text marks the
    ones it validated as commuting (see LadderModule)."""

    dom: PersistenceModule
    cod: PersistenceModule
    delta: int
    comps: tuple
    inverse_comps: tuple  # () when absent

    def _ladder(self, key, src, dst, comps):
        lm = self.__dict__.get(key)
        if lm is None:
            lm = LadderModule(src, shift(dst, self.delta), comps)
            object.__setattr__(self, key, lm)
        return lm

    def phi(self):
        return self._ladder("_phi", self.dom, self.cod, self.comps)

    def psi(self):
        if not self.inverse_comps:
            raise ValueError("no inverse components in the file")
        return self._ladder("_psi", self.cod, self.dom, self.inverse_comps)


def _parse_comp_blocks(ls, src, dst, delta, what):
    l = src.grid_len
    comps = []
    for t in range(l + 1):
        _expect(ls, "comp %d" % t)
        rows = dst.dims[t + delta] if t + delta <= l else 0
        comps.append(_parse_matrix(ls, src.field, rows, src.dims[t], "%s comp %d" % (what, t)))
    return tuple(comps)


def parse_morphism_text(text):
    ls = _Lines(text)
    _expect(ls, "morphism")
    delta = 0
    line = ls.peek()
    if line is not None and _is_keyword_line(line, "delta"):
        ls.next("delta")
        vals = _parse_ints(ls, line, "delta")
        if len(vals) != 1 or vals[0] < 0:
            raise ParseError(ls.lineno, "delta must be a single integer >= 0")
        (delta,) = vals
    _expect(ls, "domain")
    _expect(ls, "module")
    dom = _parse_module_body(ls)
    _expect(ls, "codomain")
    _expect(ls, "module")
    cod = _parse_module_body(ls)
    if dom.field != cod.field:
        raise ParseError(ls.lineno, "domain and codomain fields differ")
    if dom.grid_len != cod.grid_len:
        raise ParseError(ls.lineno, "domain and codomain grids differ")
    _expect(ls, "components")
    comps = _parse_comp_blocks(ls, dom, cod, delta, "component")
    inverse = ()
    if ls.peek() == "inverse":
        ls.next("inverse")
        inverse = _parse_comp_blocks(ls, cod, dom, delta, "inverse")
    if ls.peek() is not None:
        raise ParseError(ls.lineno + 1, "trailing content '%s'" % ls.peek())
    doc = MorphismDoc(dom, cod, delta, comps, inverse)
    checks = [("components", doc.phi())]
    if inverse:
        checks.append(("inverse", doc.psi()))
    for what, lm in checks:
        bad = validate_ladder(lm)
        if bad is not None:
            raise ParseError(ls.lineno, "%s: %s" % (what, bad))
        lm._mark()
    return doc


def print_morphism(doc):
    out = ["morphism", "delta %d" % doc.delta, "domain"]
    out.extend(_module_lines(doc.dom))
    out.append("codomain")
    out.extend(_module_lines(doc.cod))
    for head, comps in (("components", doc.comps), ("inverse", doc.inverse_comps)):
        if comps:
            out.append(head)
        for t, comp in enumerate(comps):
            out.append("comp %d" % t)
            out.extend(comp._fmt_rows())
    return "\n".join(out) + "\n"


def _read(path):
    """The text of path, with newlines translated as open() does; a byte that
    is not UTF-8 is refused on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(1 + head.count(b"\n"), "not valid UTF-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def render_barcode_svg(barcode, grid_len):
    pad, row_h, scale = 24, 18, 40
    n = len(barcode)
    width = 2 * pad + grid_len * scale
    height = 2 * pad + row_h * max(n, 1)
    x = lambda t: pad + t * scale
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (width, height, width, height),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="1"/>'
        % (x(0), height - pad, x(grid_len), height - pad),
    ]
    for t in range(grid_len + 1):
        out.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="1"/>'
            % (x(t), height - pad - 3, x(t), height - pad + 3)
        )
        out.append(
            '<text x="%d" y="%d" font-size="10" text-anchor="middle">%d</text>'
            % (x(t), height - pad + 14, t)
        )
    for k, bar in enumerate(barcode):
        y = pad + k * row_h
        if bar.a == bar.b:
            out.append('<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x(bar.a), y))
        else:
            out.append(
                '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="6" '
                'stroke-linecap="round"/>' % (x(bar.a), y, x(bar.b), y)
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_barcode(args):
    m = parse_module_text(_read(args.file))
    bb = reduce_to_barcode_basis(m)
    bars = bb.barcode.bars
    if bars:
        print(" ".join(str(b) for b in bars))
    if args.diagram:
        for bar in bars:
            strip = "".join("#" if bar.a <= t <= bar.b else "." for t in range(m.grid_len + 1))
            print("%s  %s" % (strip, bar))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_barcode_svg(bb.barcode, m.grid_len))
        print("wrote %s" % args.svg)
    return 0


def _lift(lm, extra):
    """Reinterpret a candidate at a coarser delta by composing with the
    codomain structure maps."""
    if extra == 0:
        return lm
    return compose_ladder(inner_ladder(lm.cod, extra), lm)


def _phi_at(doc, delta):
    return _lift(doc.phi(), delta - doc.delta)


def _inverse(doc, args):
    """The candidate inverse at the declared delta, from the inline section
    or an --inverse file (read once); None when neither is present."""
    if doc.inverse_comps:
        return doc.psi()
    if getattr(args, "inverse", None):
        other = parse_morphism_text(_read(args.inverse))
        if other.dom != doc.cod or other.cod != doc.dom or other.delta != doc.delta:
            raise ValueError("--inverse file does not match the morphism's endpoints")
        return other.phi()
    return None


def _fmt_xi(xi):
    return "inf" if xi == float("inf") else "%s" % xi


def _summand_listing(dec):
    parts = []
    for s in dec.summands():
        if parts and parts[-1][0] == s:
            parts[-1][1] += 1
        else:
            parts.append([s, 1])
    return ", ".join(s if n == 1 else "%s x%d" % (s, n) for s, n in parts)


def cmd_decompose(args):
    doc = parse_morphism_text(_read(args.file))
    delta = doc.delta if args.delta is None else args.delta
    if delta < doc.delta:
        print("error: --delta %d is below the declared delta %d" % (delta, doc.delta), file=sys.stderr)
        return 1
    phi = _phi_at(doc, delta)
    psi = _inverse(doc, args)
    if psi is not None:
        psi = _lift(psi, delta - doc.delta)
    bb_dom = reduce_to_barcode_basis(doc.dom)
    bb_cod = shift_basis(reduce_to_barcode_basis(doc.cod), delta)

    if args.q is not None:
        if psi is None:
            print("error: coarse decomposition needs the candidate inverse", file=sys.stderr)
            return 1
        if args.q % 2 != 0 or args.q < 0:
            print("error: --q must be even and >= 0 (refine the grid for odd q)", file=sys.stderr)
            return 1
        psi_on = shift_morphism(psi, delta)
        dom_split = q_split(doc.dom, args.q, bb_dom)
        cod_split = q_split(phi.cod, args.q, bb_cod)
        cd = coarse_decompose(
            phi, psi_on, delta, args.q, args.variant, dom_split, cod_split
        )
        print("coarse variant=%s q=%d delta=%d bound=%s" % (args.variant, args.q, delta, cd.bound()))
        print(
            "inequality 2*delta+q < min(Xi): %s (Xi dom=%s, Xi cod=%s)"
            % ("ok" if cd.inequality_ok else "not guaranteed", _fmt_xi(cd.xi_dom), _fmt_xi(cd.xi_cod))
        )
        if isinstance(cd.result, ReductionFailure):
            print(str(cd.result))
            return 2
        print("summands: %s" % _summand_listing(cd.result))
        return 0

    rep = check_nestedness_precondition(phi, delta, bb_dom, bb_cod)
    print("nestedness domain Xi=%s" % _fmt_xi(rep.xi_dom))
    print("nestedness codomain Xi=%s" % _fmt_xi(rep.xi_cod))
    print("precondition 2*delta=%d < min(Xi): %s" % (2 * delta, "ok" if rep.ok else "not guaranteed"))
    if psi is not None:
        cert = check_interleaving(phi, psi, delta)
        print("certified %d-interleaving: %s" % (delta, "yes" if isinstance(cert, InterleavingCertificate) else "NO (%s)" % cert))
    dec = decompose(phi, bb_dom, bb_cod, pivot_rule=args.pivot_rule)
    if isinstance(dec, ReductionFailure):
        print(str(dec))
        res = search_matching_form(to_single_matrix(phi, bb_dom, bb_cod))
        print(
            "exhaustive search: %d states explored, exhausted=%s, matching form found: %s"
            % (res.states, res.exhausted, res.found is not None)
        )
        return 2
    print("summands: %s" % _summand_listing(dec))
    return 0


def _print_matching(pm, label=None):
    if label:
        print("%s:" % label)
    for line in pm.describe():
        print(line)
    print("cost %s" % matching_cost(pm))


def cmd_match(args):
    doc = parse_morphism_text(_read(args.file))
    delta = doc.delta
    phi = doc.phi()
    bb_dom = reduce_to_barcode_basis(doc.dom)
    bb_cod_plain = reduce_to_barcode_basis(doc.cod)
    bb_cod = shift_basis(bb_cod_plain, delta)

    def ladder_pm():
        dec = decompose(phi, bb_dom, bb_cod)
        if isinstance(dec, ReductionFailure):
            return dec
        return induced_matching(
            dec, dom_barcode=bb_dom.barcode, cod_barcode=bb_cod_plain.barcode
        )

    def bl_pm():
        # the shift drops the bars of W that die before delta; list them too
        return _account_for(bl_matching(phi, bb_dom, bb_cod), bb_cod_plain.barcode, "target")

    if args.compare:
        lad = ladder_pm()
        bl = bl_pm()
        if isinstance(lad, ReductionFailure):
            print(str(lad))
            return 2
        _print_matching(lad, "ladder")
        _print_matching(bl, "bl")
        print("methods %s" % ("agree" if lad == bl else "differ"))
        return 0
    pm = ladder_pm() if args.method == "ladder" else bl_pm()
    if isinstance(pm, ReductionFailure):
        print(str(pm))
        return 2
    _print_matching(pm)
    return 0


def cmd_verify(args):
    doc = parse_morphism_text(_read(args.file))
    psi = _inverse(doc, args)
    if psi is None:
        print("error: verification needs the candidate inverse", file=sys.stderr)
        return 1

    def certify(d):
        if d < doc.delta:
            # shapes cannot line up below the declared delta; report honestly
            return check_interleaving(doc.phi(), psi, d)
        return check_interleaving(_phi_at(doc, d), _lift(psi, d - doc.delta), d)

    if args.scan_delta_max is not None:
        for d in range(doc.delta, args.scan_delta_max + 1):
            res = certify(d)
            if isinstance(res, InterleavingCertificate):
                print("smallest certified delta: %d" % d)
                return 0
            print("delta %d: fail (%s)" % (d, res))
        print("no delta <= %d certifies the pair" % args.scan_delta_max)
        return 2

    d = doc.delta if args.delta is None else args.delta
    res = certify(d)
    if isinstance(res, InterleavingCertificate):
        print("domain triangles: pass")
        print("codomain triangles: pass")
        print("certified %d-interleaving" % d)
        return 0
    print("FAIL: %s" % res)
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    p = _Parser(prog="laddermod", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("barcode", help="list the barcode of a module file")
    b.add_argument("file")
    b.add_argument("--diagram", action="store_true", help="print a text strip per bar")
    b.add_argument("--svg", metavar="OUT", help="write an SVG strip diagram")
    b.set_defaults(fn=cmd_barcode)

    d = sub.add_parser("decompose", help="decompose a morphism file into ladder summands")
    d.add_argument("file")
    d.add_argument("--delta", type=int, default=None, help="reinterpret at a coarser delta")
    d.add_argument("--inverse", metavar="FILE", help="candidate inverse as a separate file")
    d.add_argument("--q", type=int, default=None, help="coarse decomposition at resolution q (even)")
    d.add_argument("--variant", choices=("target", "source", "both"), default="both")
    d.add_argument("--pivot-rule", choices=("first", "last"), default="first")
    d.set_defaults(fn=cmd_decompose)

    m = sub.add_parser("match", help="barcode matching induced by a morphism file")
    m.add_argument("file")
    m.add_argument("--method", choices=("ladder", "bl"), default="ladder")
    m.add_argument("--compare", action="store_true", help="print both methods")
    m.set_defaults(fn=cmd_match)

    v = sub.add_parser("verify", help="check a candidate interleaving pair")
    v.add_argument("file")
    v.add_argument("--delta", type=int, default=None)
    v.add_argument("--inverse", metavar="FILE")
    v.add_argument("--scan-delta-max", type=int, default=None, metavar="N",
                   help="report the smallest delta <= N at which the pair certifies")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
