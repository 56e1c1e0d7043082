"""Exact scalar arithmetic and dense matrices.

Two field backends: arbitrary-precision rationals (fractions.Fraction) and a
prime field F_p whose elements overload the usual operators, so everything
downstream is written once against +, -, *, / and ==.

The hot loops (products, elimination, the barcode sweep) run instead on raw
rows, pairs (ints, den) of plain integers for the entries ints[k] / den. A
field's _lift and _drop convert its elements to and from raw rows, and _norm
makes a raw row canonical (QQ: no common factor, den > 0; F_p: residues over
den 1). The row ops live here too: _axpy and _scaled for the barcode sweep
and the basis fold, and _eliminate, the one Gauss-Jordan loop. Over QQ,
Matrix.rank first seeks full rank modulo one fixed prime below 2^30, which
proves the rank exactly when it is found, and runs _eliminate only when it
is not.

A Matrix holds one canonical raw block for the whole matrix (see Matrix).
Its constructors lift and check the entries they are given; kernels
(mat_mul, mat_inverse, mat_solve, _select, the raw rows of the sweep and the
basis fold) and the parser (_parse) build the block directly. Products,
eliminations, submatrix picks, masks, column joins, nonzero positions, pivot
columns, equality, hashing and printing run on the raw block, so a chain of
kernel calls never boxes an intermediate. Readers box only the entries they
return, and over QQ every zero entry is one shared Fraction(0). Only this
module touches the representation. Outside it, the raw-row interface serves
the barcode sweep, the basis fold, and the matching-form reducer with its
ops and its search.

No floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter, mul

_num, _den, _res, _char = (attrgetter(a) for a in ("numerator", "denominator", "v", "p"))

# A number with an exponent: Fraction expands 1e999999999 into a billion-digit
# integer, so such tokens are refused before they reach it.
_EXPONENT = re.compile(r"\s*[-+]?(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE]")
# The file grammar of an entry, in ASCII only: an integer or one fraction n/d
# in both fields, and a plain decimal over QQ. Fraction and int would also take
# digit separators (1_0, for int and for Fraction from Python 3.11) and
# non-ASCII digits, which the printer would not give back. The integers of a
# field spec and of the dims and delta lines follow _INTEGER.
_INTEGER = re.compile(r"[-+]?[0-9]+")
# A blank, between the words of a field spec and the tokens of a dims or delta
# line or a matrix row, is an ASCII space or tab only: str.split() would also
# split on other whitespace (U+00A0, U+2003, ...), which the printer would
# write back as spaces.
_TOKEN = re.compile(r"[^ \t]+")
_FRACTION = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")
_RATIONAL = re.compile(r"[-+]?([0-9]+(/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")
# The most digits in a row an entry may have (integer part, decimal part or
# denominator): Python's default limit on int-string conversion, which int and
# Fraction would otherwise enforce with their own message (its wording differs
# between Python 3.10 and 3.11+). A run counts digits of any script, and the
# underscores int accepts between them do not break it.
_MAX_DIGITS = 4300
_DIGIT_RUN = re.compile(r"[\d_]+")


def _refuse_long_digit_runs(text):
    if len(text) > _MAX_DIGITS and any(
        len(run) - run.count("_") > _MAX_DIGITS for run in _DIGIT_RUN.findall(text)
    ):
        raise ValueError("an entry may have at most %d digits in a row" % _MAX_DIGITS)

# The prime of the rank certificate (Matrix.rank). It is below 2^30, so each
# residue is one digit of a CPython int; _is_prime(2**30 - 35) holds.
_CERT_P = 2**30 - 35


class Fp:
    """Element of F_p, value kept in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o / self

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            # only the canonical residue, so that equal values hash equally
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d,%d)" % (self.v, self.p)


# Deterministic Miller-Rabin: the first 13 primes as bases decide primality
# exactly for every n below _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if n >= _MR_LIMIT:
        raise ValueError("field order %d is too large, it must be below %d" % (n, _MR_LIMIT))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _not_an_element(field, entries, types):
    """The error for the first entry that is none of types."""
    bad = next(x for x in entries if not isinstance(x, types))
    return ValueError("%r is not an element of %s" % (bad, field.name))


_ZERO = Fraction(0)


class RationalField:
    name = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of(self, n, d=1):
        return Fraction(n, d)

    def parse(self, text):
        _refuse_long_digit_runs(text)
        if _EXPONENT.match(text):
            raise ValueError("exponent notation is not accepted in %r" % text)
        if not _RATIONAL.fullmatch(text):
            raise ValueError("Invalid literal for Fraction: %r" % text)
        return Fraction(text)

    def fmt(self, x):
        return str(x)

    def _lift(self, entries):
        # int and Fraction (and their subclasses, such as bool) only: a numpy
        # integer has a numerator too, but its products wrap around
        if not {int, Fraction}.issuperset(map(type, entries)) and not all(
            isinstance(x, (int, Fraction)) for x in entries
        ):
            raise _not_an_element(self, entries, (int, Fraction))
        den = lcm(*set(map(_den, entries)))
        if den == 1:
            return list(map(_num, entries)), 1
        return [x.numerator * (den // x.denominator) for x in entries], den

    def _norm(self, ints, den):
        g = gcd(*ints, den) * (-1 if den < 0 else 1)
        if g == 1:
            return ints, den
        return [x // g for x in ints], den // g

    def _drop(self, ints, den):
        # a zero entry is the one shared _ZERO, so a sparse block builds a
        # Fraction per nonzero only
        if den == 1:
            return [Fraction(x) if x else _ZERO for x in ints]
        return [Fraction(x, den) if x else _ZERO for x in ints]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("field order %r is not prime" % (p,))
        self.p = p
        self.name = "prime %d" % p

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def of(self, n, d=1):
        return Fp(n, self.p) / Fp(d, self.p)

    def parse(self, text):
        _refuse_long_digit_runs(text)
        if not _FRACTION.fullmatch(text):
            parts = text.split("/")
            if len(parts) <= 2:
                for part in parts:
                    int(part)  # a part that is no integer at all keeps int's message
            raise ValueError("%r is neither an integer nor one fraction n/d" % text)
        n, _, d = text.partition("/")
        return self.of(int(n), int(d)) if d else Fp(int(n), self.p)

    def fmt(self, x):
        return str(x.v)

    def _lift(self, entries):
        try:
            if all(map(self.p.__eq__, map(_char, entries))):
                return list(map(_res, entries)), 1
        except AttributeError:
            pass
        # as in Fp arithmetic: an int is its residue, another characteristic fails
        zero = self.zero()
        try:
            return [(zero + x).v for x in entries], 1
        except (AttributeError, TypeError):
            raise _not_an_element(self, entries, (int, Fp)) from None

    def _norm(self, ints, den):
        p = self.p
        if den == 1:
            return [x % p for x in ints], 1
        f = pow(den, -1, p)
        return [x * f % p for x in ints], 1

    def _drop(self, ints, den):
        p = self.p
        return [Fp(x, p) for x in (ints if den == 1 else self._norm(ints, den)[0])]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


QQ = RationalField()


def field_by_name(name):
    """Parse a field spec string: 'rational' or 'prime <p>'."""
    parts = _TOKEN.findall(name)
    if parts == ["rational"]:
        return QQ
    if len(parts) == 2 and parts[0] == "prime" and _INTEGER.fullmatch(parts[1]):
        return PrimeField(int(parts[1]))
    raise ValueError("unknown field spec %r" % name)


class Matrix:
    """Immutable dense matrix, row-major. Shapes with 0 rows or columns are fine.

    It holds one thing: _raw, the canonical raw block (ints, den) of its
    entries, plus _pick, which is None except for a selection, where it is the
    column of each row's 1 (None for a zero row). Canonical means equal values
    give equal blocks: a kernel's block is normed when made, and _lift gives
    canonical form (QQ: over the lcm of the reduced denominators, which leaves
    no common factor; F_p: residues over den 1). The constructor lifts the
    entries it is given, so one that is not an element of the field is refused
    here, before any use. Readers box only the entries they return. Equality
    and hashing compare values in the field, through the raw block.
    """

    __slots__ = ("field", "rows", "cols", "_raw", "_pick")

    def __init__(self, field, rows, cols, data):
        data = list(data)
        if len(data) != rows * cols:
            raise ValueError("need %d entries, got %d" % (rows * cols, len(data)))
        self.field = field
        self.rows = rows
        self.cols = cols
        self._raw = field._lift(data)
        self._pick = None

    @classmethod
    def _of_raw(cls, field, rows, cols, ints, den):
        """Matrix of the raw block: entry k is ints[k] / den. ints is a list
        the matrix may keep, so the caller must not change it afterwards."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m._pick = field, rows, cols, None
        m._raw = field._norm(ints, den)
        return m

    @classmethod
    def _selection(cls, field, cols, pick):
        """The 0/1 matrix of width cols whose row i is unit row pick[i], or a
        zero row for None. A column picked twice is refused, so the matrix is
        a partial permutation and a product with it is a pick (mat_mul)."""
        pick = tuple(pick)
        hit = [j for j in pick if j is not None]
        if hit and (len(set(hit)) < len(hit) or min(hit) < 0 or max(hit) >= cols):
            raise ValueError("a selection needs distinct columns in 0..%d" % (cols - 1))
        ints = [0] * (len(pick) * cols)
        for i, j in enumerate(pick):
            if j is not None:
                ints[i * cols + j] = 1
        m = object.__new__(cls)
        m.field, m.rows, m.cols = field, len(pick), cols
        m._raw, m._pick = (ints, 1), pick  # 0/1 over 1 is canonical in every field
        return m

    @classmethod
    def _from_raw_rows(cls, field, raw_rows, cols):
        """Matrix of a list of raw rows (ints, den), each of width cols."""
        den = lcm(*[d for _, d in raw_rows])
        ints = []
        for n, d in raw_rows:
            ints.extend(n if d == den else [x * (den // d) for x in n])
        return cls._of_raw(field, len(raw_rows), cols, ints, den)

    @classmethod
    def _parse(cls, field, cols, token_rows):
        """Matrix of an iterable of rows of entry tokens, each row of width
        cols, read straight to one raw block. A row of ASCII integers, the
        common case, goes to its integers with no field element built; any
        other row, and one with a token longer than _MAX_DIGITS, goes through
        field.parse, which refuses the first token outside the file grammar,
        so the error comes before the next row is read."""
        raw_rows = []
        for toks in token_rows:
            line = "".join(toks)
            if line.isascii() and "_" not in line and (
                len(line) <= _MAX_DIGITS or max(map(len, toks)) <= _MAX_DIGITS
            ):
                try:
                    raw_rows.append(([int(t) for t in toks], 1))
                    continue
                except ValueError:
                    pass  # a fraction or a decimal, or a token to refuse
            raw_rows.append(field._lift([field.parse(t) for t in toks]))
        return cls._from_raw_rows(field, raw_rows, cols)

    def _block(self):
        """The canonical raw block (ints, den), for the raw-row interface."""
        return self._raw

    def _raw_rows(self):
        """Fresh raw rows (ints, den), all over the block's denominator."""
        ints, den = self._raw
        c = self.cols
        return [(ints[i * c : i * c + c], den) for i in range(self.rows)]

    @property
    def data(self):
        return tuple(self.field._drop(*self._raw))

    @classmethod
    def from_rows(cls, field, rows_of_entries, cols=None):
        """Matrix from a list of rows. cols, when given, is the width every
        row must have (and the width of a matrix with no rows); otherwise the
        first row sets it."""
        rows = len(rows_of_entries)
        if cols is None:
            cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for r in rows_of_entries:
            if len(r) != cols:
                raise ValueError("row of width %d in a matrix of %d columns" % (len(r), cols))
            flat.extend(r)
        return cls(field, rows, cols, flat)

    # the lift reads a bare int as the field element it names
    from_int_rows = from_rows

    @classmethod
    def identity(cls, field, n):
        return cls._selection(field, n, range(n))

    @classmethod
    def zero(cls, field, rows, cols):
        return cls._selection(field, cols, [None] * rows)

    def get(self, i, j):
        ints, den = self._raw
        return self.field._drop([ints[i * self.cols + j]], den)[0]

    def row(self, i):
        ints, den = self._raw
        return tuple(self.field._drop(ints[i * self.cols : (i + 1) * self.cols], den))

    def col(self, j):
        ints, den = self._raw
        return tuple(self.field._drop([ints[i * self.cols + j] for i in range(self.rows)], den))

    def to_lists(self):
        flat, c = self.field._drop(*self._raw), self.cols
        return [flat[i * c : i * c + c] for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self._raw == other._raw
        )

    def __hash__(self):
        ints, den = self._raw
        return hash((self.rows, self.cols, tuple(ints), den))

    def __mul__(self, other):
        return mat_mul(self, other)

    def __repr__(self):
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, "; ".join(self._fmt_rows()))

    def _fmt_rows(self):
        """Each row as field.fmt of its entries joined by single spaces, made
        from the raw block without boxing an entry: each entry in lowest terms
        as str(Fraction) writes it, which over F_p (den 1) is its residue."""
        (ints, den), c = self._raw, self.cols
        text = []
        for x in ints:
            g = gcd(x, den)
            text.append(str(x // g) if g == den else "%d/%d" % (x // g, den // g))
        return [" ".join(text[i * c : i * c + c]) for i in range(self.rows)]

    def is_zero(self):
        return not any(self._raw[0])

    def rank(self):
        """The rank. Over QQ, full rank modulo the fixed prime _CERT_P is
        sought first, on the integer block, whose rank over QQ is the
        matrix's whatever its denominator. A minor that is nonzero mod p is a
        nonzero integer, so rank mod p <= rank <= min(rows, cols), and full
        rank mod p is the rank, exactly, with no randomness. A QQ matrix that
        p leaves short of full rank, and every F_p matrix, goes through the
        exact elimination."""
        if self.field == QQ and _full_rank_mod(self._raw[0], self.rows, self.cols):
            return min(self.rows, self.cols)
        return len(self._pivots())

    def _pivots(self):
        """Pivot columns of the reduced row echelon form."""
        return _eliminate(self._raw_rows(), self.cols, self.field)

    def _select(self, rows=None, cols=None):
        """Submatrix of the given rows and columns (all when None), in the
        order given, picked from the raw block without boxing an entry. A
        None in rows or cols picks a zero row or column."""
        ints, den = self._raw
        c = self.cols
        rows = range(self.rows) if rows is None else rows
        width = c if cols is None else len(cols)
        zero = [0] * width
        picked = []
        for i in rows:
            if i is None:
                picked += zero
            elif cols is None:
                picked += ints[i * c : i * c + c]
            else:
                b = i * c
                picked += [0 if j is None else ints[b + j] for j in cols]
        return Matrix._of_raw(self.field, len(rows), width, picked, den)

    @classmethod
    def _join_cols(cls, field, rows, blocks):
        """The matrix [b_1 | b_2 | ...] of blocks of rows rows each, joined
        from their raw blocks without boxing an entry."""
        return cls._from_raw_rows(field, _joined_rows(rows, blocks), sum(b.cols for b in blocks))

    def _nonzeros(self):
        """(i, j) of every nonzero entry, in row-major order, read from the
        raw block without boxing an entry."""
        ints, c = self._raw[0], self.cols
        return [divmod(k, c) for k in compress(range(len(ints)), ints)]

    def _masked(self, keep):
        """The matrix with entry (i, j) set to zero wherever keep[i][j] is
        false, masked on the raw block without boxing an entry."""
        ints, den = self._raw
        kept = [x if k else 0 for x, k in zip(ints, chain.from_iterable(keep))]
        return Matrix._of_raw(self.field, self.rows, self.cols, kept, den)


def _full_rank_mod(ints, rows, cols):
    """Whether the integer block ints (rows x cols, row-major) has rank
    min(rows, cols) modulo _CERT_P. Forward elimination on residues that
    drops each column once it is done, and stops at the first column without
    a pivot that full rank cannot spare."""
    p = _CERT_P
    rest = [[x % p for x in ints[i * cols : i * cols + cols]] for i in range(rows)]
    spare = cols - min(rows, cols)
    for _ in range(cols):
        for k, r in enumerate(rest):
            if r[0]:
                break
        else:
            spare -= 1
            if spare < 0:
                return False
            for r in rest:
                del r[0]
            continue
        piv = rest.pop(k)
        inv = pow(piv[0], -1, p)
        tail = piv[1:]
        for i, r in enumerate(rest):
            f = r.pop(0)
            if f:
                f = f * inv % p
                rest[i] = [(x - f * y) % p for x, y in zip(r, tail)]
    return True


def _axpy(field, x, fn, fd, y):
    """Raw row x + (fn / fd) * y."""
    (xn, xd), (yn, yd) = x, y
    g = gcd(xd, fd)
    s, t = fd // g * yd, fn * (xd // g)
    return field._norm([a * s + t * b for a, b in zip(xn, yn)], xd * s)


def _scaled(field, x, fn, fd):
    """Raw row (fn / fd) * x."""
    return field._norm([a * fn for a in x[0]], x[1] * fd)


def _eliminate(work, ncols, field):
    """Gauss-Jordan elimination in place on a list of raw rows (ints, den).

    Pivots are taken only in the first ncols columns, so any further columns
    ride along as an augmented block. Each pivot is the first nonzero entry at
    or below the current row; pivot rows are scaled to 1 and their column is
    cleared above and below. A row is replaced only when its values change.
    Returns the pivot columns in order.
    """
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][0][j]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        n, d = work[r]
        if n[j] != d:
            work[r] = n, d = field._norm(n, n[j])
        # entry j of the pivot row is n[j] / d = 1, so row i loses g/e times it
        for i, (m, e) in enumerate(work):
            g = m[j]
            if g and i != r:
                work[i] = field._norm([x * d - g * y for x, y in zip(m, n)], e * d)
        pivots.append(j)
    return pivots


def _joined_rows(rows, blocks):
    """Raw rows of the block matrix [b_1 | b_2 | ...], over one denominator."""
    raws = [b._raw for b in blocks]
    den = lcm(*[d for _, d in raws])
    parts = [(ints if d == den else [x * (den // d) for x in ints], b.cols)
             for (ints, d), b in zip(raws, blocks)]
    out = []
    for i in range(rows):
        row = []
        for ints, c in parts:
            row += ints[i * c : i * c + c]
        out.append((row, den))
    return out


def mat_mul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch %dx%d * %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    if a.field != b.field:
        raise ValueError("field mismatch")
    # a selection times b picks rows of b, a times a selection picks columns of a
    pa, pb = a._pick, b._pick
    if pa is not None:
        if pb is not None:
            return Matrix._selection(a.field, b.cols, [None if i is None else pb[i] for i in pa])
        return b._select(rows=pa)
    if pb is not None:
        col_of = [None] * b.cols
        for i, j in enumerate(pb):
            if j is not None:
                col_of[j] = i
        return a._select(cols=col_of)
    # each operand is one raw block over a common denominator, so the product
    # is one too: integer dot products over the product of the denominators
    fa, da = a._raw
    fb, db = b._raw
    k = a.cols
    arows = [fa[i * k : i * k + k] for i in range(a.rows)]
    bcols = [fb[j :: b.cols] for j in range(b.cols)]
    dots = [sum(map(mul, row, col)) for row in arows for col in bcols]
    return Matrix._of_raw(a.field, a.rows, b.cols, dots, da * db)


def mat_inverse(a):
    if a.rows != a.cols:
        raise ValueError("not square")
    n = a.rows
    work = _joined_rows(n, [a, Matrix.identity(a.field, n)])
    if len(_eliminate(work, n, a.field)) < n:
        raise ValueError("singular matrix")
    return Matrix._from_raw_rows(a.field, [(m[n:], d) for m, d in work], n)


def mat_solve(a, b):
    """Solve a @ x = b for x, requiring a to have full column rank.

    Raises ValueError when the rank is deficient or the system is inconsistent.
    """
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    work = _joined_rows(a.rows, [a, b])
    n = a.cols
    if len(_eliminate(work, n, a.field)) < n:
        raise ValueError("matrix does not have full column rank")
    if any(x for m, _ in work[n:] for x in m[n:]):
        raise ValueError("inconsistent system")
    return Matrix._from_raw_rows(a.field, [(m[n:], d) for m, d in work[:n]], b.cols)


def is_barcode_form(a):
    """Check the rigid pivot shape.

    Returns (True, c) where c is the 1-indexed tuple of pivot columns, or
    (False, None). Accepted matrices have some top block of rows that are unit
    vectors with strictly increasing pivot columns, and all remaining rows zero.
    """
    ints, den = a._raw
    nz = a._nonzeros()
    # row i < len(nz) holds one nonzero, in column nz[i][1]; it must be a 1
    cols = [j for _, j in nz]
    if [i for i, _ in nz] != list(range(len(nz))) or any(
        ints[i * a.cols + j] != den for i, j in nz
    ) or any(j >= k for j, k in zip(cols, cols[1:])):
        return False, None
    return True, tuple(j + 1 for j in cols)
