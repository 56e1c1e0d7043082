"""Exact field and matrix arithmetic."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gen
from laddermod import (
    BasisChange,
    Fp,
    LadderDecomposition,
    Matrix,
    QQ,
    decompose,
    field_by_name,
    is_barcode_form,
    mat_inverse,
    mat_mul,
    mat_solve,
    verify_decomposition,
)
from laddermod import fields
from laddermod.fields import _CERT_P, _eliminate

from gen import FIELDS, random_invertible, random_matrix

F5 = field_by_name("prime 5")


def test_rational_field_basics():
    assert QQ.of(1, 2) + QQ.of(1, 3) == Fraction(5, 6)
    assert QQ.of(2) * QQ.of(1, 2) == 1
    assert QQ.one() / QQ.of(3, 7) == Fraction(7, 3)
    assert QQ.zero() == 0 and QQ.one() == 1
    assert QQ.fmt(Fraction(-3, 4)) == "-3/4"
    assert QQ.fmt(Fraction(5)) == "5"
    assert QQ.parse("7/2") == Fraction(7, 2)
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.name == "rational"


def test_prime_field_basics():
    a = F5.of(3)
    b = F5.of(4)
    assert a + b == F5.of(2)
    assert a * b == F5.of(2)
    assert F5.one() / F5.of(2) == F5.of(3)
    assert F5.of(1, 2) == F5.of(3)
    assert -a == F5.of(2)
    assert F5.fmt(F5.of(7)) == "2"
    assert F5.parse("9") == F5.of(4)
    assert F5.parse("1/2") == F5.of(3)
    assert F5.name == "prime 5"
    with pytest.raises(ZeroDivisionError):
        F5.one() / F5.zero()


def test_parse_takes_ascii_entries_alone():
    assert QQ.parse("+1/2") == Fraction(1, 2) and QQ.parse("-.25") == Fraction(-1, 4)
    assert QQ.parse("007") == 7 and QQ.parse("1.") == 1
    assert F5.parse("-1/2") == F5.of(-1, 2) and F5.parse("+7") == F5.of(2)
    for tok in ("1_0", "\uff12", "1/-2", " 1", "", "1.5/2", "."):
        with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
            QQ.parse(tok)
    for tok in ("1_0", "\uff12", "1/-2", "1/+2", " 1"):
        with pytest.raises(ValueError, match="is neither an integer nor one fraction n/d$"):
            F5.parse(tok)
    # tokens that were never integers keep int's message
    for tok, part in (("x", "x"), ("1/x", "x"), ("0.5", "0.5"), ("", "")):
        with pytest.raises(ValueError, match="^invalid literal for int\\(\\) with base 10: %r$" % part):
            F5.parse(tok)
    with pytest.raises(ZeroDivisionError):
        F5.parse("1/5")
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")


def test_prime_field_rejects_composite_modulus():
    for n in (0, 1, 4):
        with pytest.raises(ValueError):
            field_by_name("prime %d" % n)
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            field_by_name("prime %d" % n)
    # the primality test is exact only below this order, so larger ones are refused
    with pytest.raises(ValueError, match="too large"):
        field_by_name("prime 3317044064679887385961981")
    # a 61-bit prime order is accepted at once
    start = time.perf_counter()
    big = field_by_name("prime %d" % (2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert big.p == 2**61 - 1
    assert big.of(1, 3) * big.of(3) == big.one()


def test_field_by_name_unknown():
    with pytest.raises(ValueError):
        field_by_name("octonion")
    # words are split on ASCII spaces and tabs only, as the tokens of a file line
    for spec in ("prime\u00a07", "prime\u20037", "\u00a0rational"):
        with pytest.raises(ValueError, match="unknown field spec"):
            field_by_name(spec)
    assert field_by_name(" prime\t 7\t") == field_by_name("prime 7")


def test_fp_values_are_normalized_and_hashable():
    assert Fp(7, 5) == Fp(2, 5)
    assert hash(Fp(7, 5)) == hash(Fp(2, 5))
    assert Fp(3, 5) != Fp(3, 7)
    # an int equals an element only as its canonical residue, so hashes agree
    assert Fp(1, 5) != 6
    assert 6 not in {Fp(1, 5)}
    assert Fp(1, 5) == 1 and hash(Fp(1, 5)) == hash(1)
    assert Fp(3, 5) + 6 == Fp(4, 5)


def test_matrix_constructors_and_equality():
    m = Matrix.from_int_rows(QQ, [[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.get(1, 0) == 3
    assert m.col(1) == (Fraction(2), Fraction(4))
    assert m.row(0) == (Fraction(1), Fraction(2))
    assert Matrix.identity(QQ, 3).get(2, 2) == 1
    z = Matrix.zero(QQ, 2, 0)
    assert z.rows == 2 and z.cols == 0
    assert Matrix.from_rows(QQ, [[QQ.of(1), QQ.of(2)], [QQ.of(3), QQ.of(4)]]) == m


def test_from_rows_honours_cols():
    one = QQ.one()
    with pytest.raises(ValueError, match="width 2 in a matrix of 3 columns"):
        Matrix.from_rows(QQ, [[one, one]], cols=3)
    with pytest.raises(ValueError, match="width 1 in a matrix of 2 columns"):
        Matrix.from_rows(QQ, [[one, one], [one]])
    assert Matrix.from_rows(QQ, [[one, one]], cols=2) == Matrix.from_rows(QQ, [[one, one]])
    for rows in ([], ()):
        m = Matrix.from_rows(QQ, rows, cols=3)
        assert (m.rows, m.cols) == (0, 3)
    assert Matrix.from_rows(QQ, []).cols == 0


def test_matrix_multiplication_and_shape_errors():
    a = Matrix.from_int_rows(QQ, [[1, 2], [0, 1]])
    b = Matrix.from_int_rows(QQ, [[1, 0], [1, 1]])
    assert mat_mul(a, b) == Matrix.from_int_rows(QQ, [[3, 2], [1, 1]])
    assert a * b == mat_mul(a, b)
    with pytest.raises(ValueError):
        mat_mul(a, Matrix.zero(QQ, 3, 3))
    # empty shapes compose
    e = Matrix.zero(QQ, 0, 2)
    assert mat_mul(e, a).rows == 0


def test_rank_and_rref_exactness():
    m = Matrix.from_int_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    assert Matrix.zero(QQ, 3, 4).rank() == 0
    assert Matrix.identity(F5, 4).rank() == 4
    # floating point would report rank 2 here; the determinant is exactly zero
    t = Matrix.from_rows(
        QQ, [[QQ.of(1, 10**12), QQ.of(1)], [QQ.of(1), QQ.of(10**12)]]
    )
    assert t.rank() == 1


def test_mat_inverse_golds():
    a = Matrix.from_int_rows(QQ, [[2, 1], [1, 1]])
    ainv = mat_inverse(a)
    assert mat_mul(a, ainv) == Matrix.identity(QQ, 2)
    assert ainv == Matrix.from_int_rows(QQ, [[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        mat_inverse(Matrix.from_int_rows(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        mat_inverse(Matrix.zero(QQ, 2, 3))
    assert mat_inverse(Matrix.zero(QQ, 0, 0)) == Matrix.zero(QQ, 0, 0)


def test_mat_solve_columnwise():
    a = Matrix.from_int_rows(QQ, [[1, 0], [1, 1], [0, 1]])
    b = Matrix.from_int_rows(QQ, [[2, 0], [3, 1], [1, 1]])
    x = mat_solve(a, b)
    assert mat_mul(a, x) == b
    bad = Matrix.from_int_rows(QQ, [[1, 0], [0, 0], [0, 1]])
    with pytest.raises(ValueError):
        mat_solve(a, bad)


def test_is_barcode_form():
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[1, 0], [0, 1]])) == (True, (1, 2))
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[0, 1, 0]])) == (True, (2,))
    assert is_barcode_form(Matrix.zero(QQ, 2, 3)) == (True, ())
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[2]])) == (False, None)
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[1, 1]])) == (False, None)
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[0, 1], [1, 0]])) == (False, None)
    # a zero row may not sit above a pivot row
    assert is_barcode_form(Matrix.from_int_rows(QQ, [[0, 0], [1, 0]])) == (False, None)


def test_prime_field_matrix_ops():
    m = Matrix.from_int_rows(F5, [[2, 1], [1, 2]])
    minv = mat_inverse(m)
    assert mat_mul(m, minv) == Matrix.identity(F5, 2)
    assert minv == Matrix.from_int_rows(F5, [[4, 3], [3, 4]])
    assert m.rank() == 2
    # determinant 2*3 - 1*1 = 5 vanishes mod 5 though not over the integers
    assert Matrix.from_int_rows(F5, [[2, 1], [1, 3]]).rank() == 1
    assert Matrix.from_int_rows(F5, [[5]]).rank() == 0


def _counting_eliminations(monkeypatch):
    calls = []
    eliminate = fields._eliminate

    def counted(work, ncols, field):
        calls.append(ncols)
        return eliminate(work, ncols, field)

    monkeypatch.setattr(fields, "_eliminate", counted)
    return calls


def test_rank_certificate_mod_p_and_its_exact_fallback(monkeypatch):
    p = _CERT_P
    eliminations = _counting_eliminations(monkeypatch)
    # full rank modulo p proves full rank over QQ, with no exact elimination
    for rows in ([[1, 2], [3, 4]], [[1, 2, 3]], [[1], [p], [0]], [[QQ.of(1, p), 0], [0, QQ.of(1, p)]]):
        m = Matrix.from_rows(QQ, [[QQ.of(x) for x in row] for row in rows])
        assert m.rank() == min(m.rows, m.cols)
    assert eliminations == []
    # invertible over QQ but singular mod p: the exact fallback finds full rank,
    # whether p divides an entry of the integer block or its denominator
    for rows in ([[p, 0], [0, 1]], [[QQ.of(1, p), 0], [0, 1]], [[1, 1], [1, 1 + p]]):
        m = Matrix.from_rows(QQ, [[QQ.of(x) for x in row] for row in rows])
        assert m.rank() == 2
    assert len(eliminations) == 3
    # singular over QQ, with entries that are multiples of p
    eliminations.clear()
    singular = Matrix.from_int_rows(QQ, [[p, 2 * p], [1, 2]])
    assert singular.rank() == 1
    assert len(eliminations) == 1
    # F_p matrices keep the exact path
    eliminations.clear()
    assert Matrix.from_int_rows(F5, [[1, 2], [3, 4]]).rank() == 2
    assert len(eliminations) == 1


def test_singular_level_still_reads_singular_matrix(running):
    p = _CERT_P
    # the first level is invertible over QQ and the second singular, whether
    # or not the first is invertible mod p
    for mats in (
        (Matrix.from_int_rows(QQ, [[p, 0], [0, 1]]), Matrix.from_int_rows(QQ, [[p, 2 * p], [1, 2]])),
        (Matrix.identity(QQ, 1), Matrix.from_int_rows(QQ, [[1, 1], [1, 1]])),
    ):
        with pytest.raises(ValueError, match="^singular matrix$"):
            BasisChange(mats)._prove_invertible()
    phi, _, _ = gen.conjugate_morphism(random.Random("singular-level"), running.phi)
    dec = decompose(phi)
    assert isinstance(dec, LadderDecomposition)
    assert verify_decomposition(phi, dec) is None
    t = next(t for t, g in enumerate(dec.dom_basis.change.mats) if g.rows >= 2)
    g = dec.dom_basis.change.mats[t].to_lists()
    g[1] = [x * p for x in g[0]]  # singular over QQ and mod p: the fallback decides
    mats = list(dec.dom_basis.change.mats)
    mats[t] = Matrix.from_rows(QQ, g)
    bad = dataclasses.replace(
        dec, dom_basis=dataclasses.replace(dec.dom_basis, change=BasisChange(tuple(mats))))
    assert verify_decomposition(phi, bad) == "reconstruction failed: singular matrix"


def _exact_rank(rows):
    """Gaussian elimination on Fractions: the reference for Matrix.rank."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# entries that meet the certificate's prime: multiples of p, p in a
# denominator, and values that agree with others mod p
_ENTRY = st.sampled_from([0, 0, 1, -1, 2, 3, _CERT_P, -_CERT_P, 2 * _CERT_P, _CERT_P + 1,
                          Fraction(1, _CERT_P), Fraction(_CERT_P, 3), Fraction(-1, 2)])


@st.composite
def _qq_matrices(draw):
    """Rows of a random QQ matrix, often rank-deficient: a product of a
    rows x k and a k x cols factor, any shape including 0 rows or columns."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = draw(st.integers(0, max(rows, cols)))
    left = [[draw(_ENTRY) for _ in range(k)] for _ in range(rows)]
    right = [[draw(_ENTRY) for _ in range(cols)] for _ in range(k)]
    return rows, cols, [
        [sum((Fraction(left[i][x]) * right[x][j] for x in range(k)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(_qq_matrices())
def test_rank_matches_exact_reference(shape_rows):
    rows, cols, entries = shape_rows
    m = Matrix.from_rows(QQ, entries, cols=cols)
    assert (m.rows, m.cols) == (rows, cols)
    assert m.rank() == _exact_rank(entries) == len(m._pivots())


def test_verify_proves_ranks_without_exact_elimination(monkeypatch, running):
    # the folded bases of a conjugated decomposition are invertible mod p, so
    # the verifier's rank proofs need no exact elimination at all
    phi, _, _ = gen.conjugate_morphism(random.Random("certificate"), running.phi)
    dec = decompose(phi)
    assert isinstance(dec, LadderDecomposition)
    ranked = []
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(self) or rank(self))
    eliminations = _counting_eliminations(monkeypatch)
    assert verify_decomposition(phi, dec) is None
    assert len(ranked) == 2 * (phi.grid_len + 1)
    assert eliminations == []


def _transpose(a):
    return Matrix.from_rows(a.field, [list(a.col(j)) for j in range(a.cols)], cols=a.rows)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_echelon_kernel_on_random_matrices(field):
    rng = random.Random(20231)
    for _ in range(40):
        n = rng.randint(1, 12)
        a = random_invertible(rng, field, n, ops=4 * n)
        ainv = mat_inverse(a)
        assert mat_mul(ainv, a) == Matrix.identity(field, n)
        assert mat_mul(a, ainv) == Matrix.identity(field, n)

        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        m = random_matrix(rng, field, rows, cols)
        assert m.rank() == _transpose(m).rank() <= min(rows, cols)

        cols = rng.randint(0, 12)
        tall = random_matrix(rng, field, rng.randint(cols, 12), cols)
        x = random_matrix(rng, field, cols, rng.randint(0, 3))
        if tall.rank() == cols:
            assert mat_solve(tall, mat_mul(tall, x)) == x
        else:
            with pytest.raises(ValueError, match="full column rank"):
                mat_solve(tall, mat_mul(tall, x))

    # sparse inputs: the row updates meet zero terms, which they skip
    for _ in range(40):
        n = rng.randint(1, 12)
        a = _sparse_matrix(rng, field, n, n)
        if a.rank() == n:
            assert mat_mul(mat_inverse(a), a) == Matrix.identity(field, n)
        else:
            with pytest.raises(ValueError, match="singular matrix"):
                mat_inverse(a)
        a = random_invertible(rng, field, n, ops=n // 2)
        assert mat_mul(a, mat_inverse(a)) == Matrix.identity(field, n)

        m = _sparse_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
        assert m.rank() == _transpose(m).rank() <= min(m.rows, m.cols)

        cols = rng.randint(0, 12)
        tall = _sparse_matrix(rng, field, rng.randint(cols, 12), cols)
        x = _sparse_matrix(rng, field, cols, rng.randint(0, 3))
        if tall.rank() == cols:
            assert mat_solve(tall, mat_mul(tall, x)) == x
        else:
            with pytest.raises(ValueError, match="full column rank"):
                mat_solve(tall, mat_mul(tall, x))


def _sparse_matrix(rng, field, rows, cols):
    """About 40% zeros, the other entries small and nonzero in both fields."""
    return Matrix.from_rows(
        field,
        [[field.of(rng.choice((-2, -1, 1, 2, 3))) if rng.random() < 0.6 else field.zero()
          for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_mat_mul_matches_triple_loop(field):
    rng = random.Random("mat_mul/" + field.name)
    zero = field.zero()
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (4, 0, 4)]
    shapes += [tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(200)]
    for r, k, c in shapes:
        a, b = _sparse_matrix(rng, field, r, k), _sparse_matrix(rng, field, k, c)
        want = []
        for i in range(r):
            for j in range(c):
                s = zero
                for x in range(k):
                    s = s + a.get(i, x) * b.get(x, j)
                want.append(s)
        got = mat_mul(a, b)
        assert (got.rows, got.cols) == (r, c)
        assert got.data == tuple(want)
        # an empty sum is the field's zero, not the int 0
        assert all(type(v) is type(zero) for v in got.data)


def test_echelon_augmented_columns_are_not_pivoted():
    a = Matrix.from_int_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    work = [QQ._lift(row + e) for row, e in zip(a.to_lists(), Matrix.identity(QQ, 3).to_lists())]
    assert _eliminate(work, 3, QQ) == [0, 1]
    work = [QQ._drop(*w) for w in work]
    # the augmented block has full rank, but no pivot was taken in it
    assert work[2][:3] == [0, 0, 0]
    assert work[2][3:] != [0, 0, 0]
    assert [row[:3] for row in work[:2]] == [[1, 0, 1], [0, 1, 1]]
    tall = Matrix.from_int_rows(QQ, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="inconsistent system"):
        mat_solve(tall, Matrix.from_int_rows(QQ, [[1], [0], [0]]))


def test_echelon_empty_shapes():
    assert _eliminate([], 3, QQ) == []
    assert _eliminate([F5._lift([]), F5._lift([])], 0, F5) == []
    assert Matrix.zero(F5, 2, 0)._pivots() == []
    for field in FIELDS:
        assert Matrix.zero(field, 0, 4).rank() == 0
        assert Matrix.zero(field, 4, 0).rank() == 0
        assert mat_solve(Matrix.zero(field, 3, 0), Matrix.zero(field, 3, 2)) == Matrix.zero(
            field, 0, 2
        )
        assert mat_solve(Matrix.zero(field, 0, 0), Matrix.zero(field, 0, 2)) == Matrix.zero(
            field, 0, 2
        )
        with pytest.raises(ValueError, match="inconsistent system"):
            mat_solve(Matrix.zero(field, 1, 0), Matrix.identity(field, 1))
        with pytest.raises(ValueError, match="full column rank"):
            mat_solve(Matrix.zero(field, 0, 2), Matrix.zero(field, 0, 1))


def _object_echelon(rows, ncols, field):
    """Gauss-Jordan on field objects, entry by entry: the reference the raw
    integer kernel must reproduce exactly, entry types included."""
    one = field.one()
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = rows[r][j]
        if f != one:
            rows[r] = [x / f for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                g = rows[i][j]
                rows[i] = [x - g * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
    return pivots


def _random_entry(rng, field):
    if rng.random() < 0.4:
        return field.zero()
    return field.of(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


@pytest.mark.parametrize(
    "field", [QQ, F5, field_by_name("prime 1000003")], ids=lambda f: f.name
)
def test_echelon_rows_match_object_reference(field):
    rng = random.Random("echelon/" + field.name)
    shapes = [(0, 0, 0), (0, 4, 3), (4, 0, 0), (3, 5, 0), (2, 3, 3)]
    shapes += [(rng.randint(0, 9), w, rng.randint(0, w))
               for w in (rng.randint(0, 9) for _ in range(300))]
    for rows, width, ncols in shapes:
        rank = rng.randint(0, min(rows, width))
        basis = [[_random_entry(rng, field) for _ in range(width)] for _ in range(rank)]
        data = []
        for _ in range(rows):
            # half the matrices are combinations of a few rows, so rank deficient
            if basis and rng.random() < 0.5:
                c = [field.of(rng.randint(-2, 2)) for _ in basis]
                data.append([sum((a * b[k] for a, b in zip(c, basis)), field.zero())
                             for k in range(width)])
            else:
                data.append([_random_entry(rng, field) for _ in range(width)])
        want = [list(r) for r in data]
        work = [field._lift(r) for r in data]
        assert _eliminate(work, ncols, field) == _object_echelon(want, ncols, field)
        got = [field._drop(*w) for w in work]
        assert got == want
        assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]


def _picks(rng, n):
    """Index lists to select with: all (None), none, all reversed, and random
    ones, unsorted and with repeats."""
    picks = [None, [], list(range(n))[::-1]]
    if n:
        picks += [[rng.randrange(n) for _ in range(rng.randint(1, 8))] for _ in range(2)]
    return picks


@pytest.mark.parametrize(
    "field", [QQ, F5, field_by_name("prime 1000003")], ids=lambda f: f.name
)
def test_select_matches_entry_reads(field):
    rng = random.Random("select/" + field.name)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for rows, cols in shapes:
        a = Matrix.from_rows(
            field, [[_random_entry(rng, field) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        # a kernel result holds a raw block instead of the entries it was given
        for m in (a, mat_mul(a, Matrix.identity(field, cols))):
            for rs in _picks(rng, rows):
                for cs in _picks(rng, cols):
                    got = m._select(rs, cs)
                    ri = range(rows) if rs is None else rs
                    ci = range(cols) if cs is None else cs
                    want = Matrix.from_rows(
                        field, [[m.get(i, j) for j in ci] for i in ri], cols=len(ci)
                    )
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert got == want
                    assert got.data == want.data
                    assert [type(x) for x in got.data] == [type(x) for x in want.data]


@pytest.mark.parametrize("field", [QQ, F5], ids=lambda f: f.name)
def test_column_joins_and_nonzero_positions_match_entry_reads(field):
    # the single matrix is joined from raw blocks over different denominators,
    # and its support is read from the raw block
    rng = random.Random("join/" + field.name)
    for _ in range(60):
        rows = rng.randint(0, 4)
        blocks = []
        for _ in range(rng.randint(0, 4)):
            cols = rng.randint(0, 3)
            a = Matrix.from_rows(
                field, [[_random_entry(rng, field) for _ in range(cols)] for _ in range(rows)],
                cols=cols)
            # a kernel result holds a raw block, over its own denominator
            twice = Matrix.from_int_rows(
                field, [[2 * (i == j) for j in range(cols)] for i in range(cols)], cols=cols)
            blocks.append(rng.choice((a, mat_mul(a, twice))))
        width = sum(b.cols for b in blocks)
        want = Matrix.from_rows(
            field, [[x for b in blocks for x in b.row(i)] for i in range(rows)], cols=width)
        got = Matrix._join_cols(field, rows, blocks)
        assert (got.rows, got.cols) == (rows, width)
        assert got == want and got.data == want.data
        assert got._nonzeros() == [
            (i, j) for i in range(rows) for j in range(width) if want.get(i, j)]


def test_boxed_zero_entries_share_one_fraction():
    # a sparse kernel result builds a Fraction per nonzero entry only
    for rows in ([[0, 2, 0], [0, 0, 0]], [[0, QQ.of(1, 2), 0], [0, 0, 0]]):
        m = mat_mul(Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows]),
                    Matrix.from_int_rows(QQ, [[1, 0, 0], [0, 3, 0], [0, 0, 1]]))
        assert all(type(x) is Fraction for x in m.data)
        zeros = [x for x in m.data if x == 0]
        assert len(zeros) == 5 and len({id(x) for x in zeros}) == 1
        assert m.data[1] == 3 * rows[0][1]


def _partial_permutation(rng, rows, cols):
    """A pick for Matrix._selection: distinct columns, None for a zero row."""
    hit = rng.sample(range(cols), rng.randint(0, min(rows, cols)))
    pick = hit + [None] * (rows - len(hit))
    rng.shuffle(pick)
    return pick


def _selections(rng, field, rows, cols):
    """Selections of shape rows x cols: random partial permutations, the
    zero matrix, and the identity when square."""
    out = [Matrix._selection(field, cols, _partial_permutation(rng, rows, cols)) for _ in range(3)]
    out.append(Matrix.zero(field, rows, cols))
    if rows == cols:
        out.append(Matrix.identity(field, rows))
    return out


def _dense_reference(a, b):
    """Entry lists of a b, summed over boxed entries from the field's zero."""
    zero = a.field.zero()
    return [[sum((a.get(i, k) * b.get(k, j) for k in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


@pytest.mark.parametrize(
    "field", [QQ, F5, field_by_name("prime 1000003")], ids=lambda f: f.name
)
def test_products_with_selections_match_a_dense_reference(field):
    rng = random.Random("selection/" + field.name)
    kind = type(field.zero())
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (4, 4, 4)]
    shapes += [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(60)]
    for r, k, c in shapes:
        dense_a = Matrix.from_rows(
            field, [[_random_entry(rng, field) for _ in range(k)] for _ in range(r)], cols=k)
        dense_b = Matrix.from_rows(
            field, [[_random_entry(rng, field) for _ in range(c)] for _ in range(k)], cols=c)
        sel_a, sel_b = _selections(rng, field, r, k), _selections(rng, field, k, c)
        # a selection is the 0/1 matrix its pick names
        for s in sel_a:
            assert s.to_lists() == [[field.one() if j == p else field.zero() for j in range(k)]
                                    for p in s._pick]
        pairs = [(s, dense_b) for s in sel_a] + [(dense_a, s) for s in sel_b]
        pairs += [(s, t) for s in sel_a for t in sel_b]
        for a, b in pairs:
            got = mat_mul(a, b)
            want = _dense_reference(a, b)
            assert (got.rows, got.cols) == (r, c)
            assert got.to_lists() == want
            assert all(type(x) is kind for x in got.data)
            assert got == Matrix.from_rows(field, want, cols=c)
            # the product of two selections is one, any other product is not
            assert (got._pick is not None) == (a._pick is not None and b._pick is not None)


def test_selections_pick_each_column_at_most_once():
    for cols, pick in ((3, [0, 0]), (3, [1, None, 1]), (2, [2]), (2, [-1]), (0, [0])):
        with pytest.raises(ValueError, match="distinct columns"):
            Matrix._selection(QQ, cols, pick)
    assert Matrix._selection(F5, 3, [2, None, 0]) == Matrix.from_int_rows(
        F5, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])


@pytest.mark.parametrize("field", [QQ, F5], ids=lambda f: f.name)
def test_only_selections_carry_a_pick(field):
    # a matrix not built as a selection is never taken for one, even when its
    # values are those of a selection
    e = Matrix.identity(field, 3)
    a = Matrix.from_int_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for m in (a, mat_mul(a, a), e._select(), e._select([2, 0], [None, 1]), mat_inverse(e),
              mat_solve(a, a), Matrix._of_raw(field, 2, 2, [1, 0, 0, 1], 1)):
        assert m._pick is None
    assert e._pick == (0, 1, 2) and Matrix.zero(field, 2, 3)._pick == (None, None)
    assert e._select([2, 0], [None, 1]).to_lists() == Matrix.from_int_rows(
        field, [[0, 0], [0, 0]]).to_lists()
    assert e._select([None, 1], [1, None]) == Matrix.from_int_rows(field, [[0, 0], [1, 0]])


def _constructions(field, entries):
    """Each way to build a 2x2 matrix from four entries."""
    rows = [entries[:2], entries[2:]]
    return (lambda: Matrix(field, 2, 2, entries), lambda: Matrix(field, 2, 2, iter(entries)),
            lambda: Matrix.from_rows(field, rows), lambda: Matrix.from_int_rows(field, rows))


def test_a_bad_entry_reads_alike_on_the_pick_path():
    # a bad entry is refused where it enters, wherever it sits in the matrix,
    # so no product, by a selection or by a dense matrix, ever sees it
    F7 = field_by_name("prime 7")
    for field, bad in ((QQ, 0.5), (QQ, "1"), (QQ, Fp(1, 5)), (F5, Fraction(1, 2)), (F5, 0.5),
                       (F7, Fp(2, 5))):
        one = field.one()
        messages = set()
        for k in range(4):
            entries = [one] * 4
            entries[k] = bad
            for build in _constructions(field, entries):
                with pytest.raises(ValueError) as err:
                    build()
                messages.add(str(err.value))
        assert len(messages) == 1
        assert messages.pop() in ("%r is not an element of %s" % (bad, field.name),
                                  "mixed characteristics 7 and 5")


@pytest.mark.parametrize("field", [QQ, F5], ids=lambda f: f.name)
def test_each_input_matrix_is_lifted_once(field, monkeypatch):
    entries = [field.of(1, 2), 3, field.of(5), field.of(-2), 0, field.of(7, 3)]
    twin = mat_mul(Matrix.identity(field, 2), Matrix.from_rows(field, [entries[:3], entries[3:]]))
    dense = mat_mul(Matrix.from_int_rows(field, [[1, 2], [0, 1], [3, 1]]),
                    Matrix.from_int_rows(field, [[1, 1], [2, 1]]))
    calls = []
    lift = field._lift
    monkeypatch.setattr(field, "_lift", lambda xs: calls.append(xs) or lift(xs))
    m = Matrix(field, 2, 3, entries)
    assert len(calls) == 1
    # a dense product, a row pick, a rank, a compare and a hash lift nothing
    mat_mul(m, dense)
    mat_mul(Matrix._selection(field, 2, [1, None]), m)
    m.rank()
    assert m == twin and hash(m) == hash(twin)
    assert len(calls) == 1
    # the reads are field elements of the same values, bare ints included
    kind = type(field.zero())
    assert m.data == tuple(entries) and all(type(x) is kind for x in m.data)
    assert type(m.get(0, 1)) is kind and m.get(0, 1) == 3
    assert m.data == twin.data


def test_a_bad_entry_fails_alike_at_every_use():
    # there is no use to fail at: each constructor refuses the entry, alike
    for field, bad in ((QQ, 0.5), (F5, Fp(1, 7))):
        messages = set()
        for build in _constructions(field, [field.one(), bad, field.one(), field.one()]):
            with pytest.raises(ValueError) as err:
                build()
            messages.add(str(err.value))
        assert len(messages) == 1


class _OtherInteger:
    """A number type with an integer ratio that is not int, as numpy's
    fixed-width integers are, whose products wrap around."""

    numerator, denominator = 3, 1

    def __repr__(self):
        return "OtherInteger(3)"


def test_entries_outside_the_field_are_refused():
    # refused at construction, by every constructor, with the field's message;
    # a float, a string, another integer type and an element of the other field
    for field, bad in ((QQ, 0.5), (QQ, 1.5), (QQ, "1"), (QQ, _OtherInteger()), (QQ, Fp(1, 5)),
                       (F5, Fraction(1, 2)), (F5, 0.5)):
        message = "%r is not an element of %s" % (bad, field.name)
        for build in _constructions(field, [field.one(), bad, field.one(), field.one()]):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            Matrix.from_rows(field, [[bad]])
        assert str(err.value) == message


def test_entries_of_another_characteristic_are_refused():
    F7 = field_by_name("prime 7")
    entries = [Fp(2, 5), Fp(1, 7), Fp(1, 5), Fp(1, 5)]
    for build in _constructions(F5, entries):
        with pytest.raises(ValueError, match="^mixed characteristics 5 and 7$"):
            build()
    with pytest.raises(ValueError, match="^mixed characteristics 5 and 7$"):
        Matrix.from_rows(F5, [[Fp(1, 7)]])
    assert Matrix.identity(F7, 2).rank() == 2


@pytest.mark.parametrize("field", [QQ, F5], ids=lambda f: f.name)
def test_reads_box_only_the_entries_they_return(field, monkeypatch):
    rng = random.Random("reads/" + field.name)
    n = 64
    m = Matrix.from_rows(field, [[_random_entry(rng, field) for _ in range(n)] for _ in range(n)])
    want = m.to_lists()
    boxed = []
    drop = field._drop
    monkeypatch.setattr(field, "_drop", lambda ints, den: boxed.append(len(ints)) or drop(ints, den))
    assert m.get(5, 7) == want[5][7] and boxed == [1]
    assert m.row(3) == tuple(want[3]) and boxed == [1, n]
    assert m.col(9) == tuple(r[9] for r in want) and boxed == [1, n, n]


def test_bare_int_entries_count_as_field_elements():
    for field in (F5, QQ):
        of = field.of
        loose = Matrix(field, 2, 2, [1, of(2), of(3), 4])
        exact = Matrix.from_int_rows(field, [[1, 2], [3, 4]])
        assert loose == exact
        assert mat_mul(loose, loose) == mat_mul(exact, exact)
        assert mat_mul(loose, Matrix(field, 2, 1, [2, 0])) == Matrix.from_int_rows(
            field, [[2], [6]]
        )
        assert loose.rank() == exact.rank()
        assert mat_inverse(loose) == mat_inverse(exact)
        work = loose._raw_rows()
        assert _eliminate(work, 2, field) == [0, 1]
        assert [field._drop(*w) for w in work] == Matrix.identity(field, 2).to_lists()
        assert loose._pivots() == [0, 1]
    assert Matrix(F5, 1, 2, [1, Fp(2, 5)]).rank() == 1
    assert mat_mul(Matrix(F5, 1, 2, [1, Fp(2, 5)]), Matrix(F5, 2, 1, [7, 1])) == Matrix(
        F5, 1, 1, [Fp(4, 5)]
    )


def test_random_invertible_is_invertible_in_small_characteristic():
    for p in (2, 3):
        field = field_by_name("prime %d" % p)
        rng = random.Random("invertible/%d" % p)
        for _ in range(150):
            n = rng.randint(1, 6)
            a = random_invertible(rng, field, n, ops=3 * n)
            assert mat_mul(a, mat_inverse(a)) == Matrix.identity(field, n)


def test_bare_int_that_vanishes_is_no_pivot():
    # 5 is zero in F_5, though a true int
    assert Matrix(F5, 1, 1, [5]).rank() == 0
    assert Matrix(F5, 1, 2, [5, Fp(1, 5)]).rank() == 1
    assert mat_mul(Matrix(F5, 1, 1, [5]), Matrix.identity(F5, 1)) == Matrix.zero(F5, 1, 1)


@pytest.mark.parametrize(
    "field", [QQ, F5, field_by_name("prime 1000003")], ids=lambda f: f.name
)
def test_entries_and_kernel_results_are_one_matrix(field):
    # a matrix built from entries and the same values out of a kernel compare,
    # hash and print alike, and read as field elements entry by entry
    rng = random.Random("two-forms/" + field.name)
    kind = type(field.zero())
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(60)]
    for rows, cols in shapes:
        a = Matrix.from_rows(
            field, [[_random_entry(rng, field) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        kernel = [mat_mul(a, Matrix.identity(field, cols)), mat_mul(Matrix.identity(field, rows), a)]
        if rows == cols and a.rank() == rows:
            kernel.append(mat_inverse(mat_inverse(a)))
        if a.rank() == cols:
            kernel.append(mat_mul(a, mat_solve(a, a)))
        for k in kernel:
            assert k == a and a == k and not k != a
            assert hash(k) == hash(a)
            assert [k.get(i, j) for i in range(rows) for j in range(cols)] == list(a.data)
            assert {type(k.get(i, j)) for i in range(rows) for j in range(cols)} <= {kind}
            assert repr(k) == repr(a)
            assert k._fmt_rows() == [" ".join(map(field.fmt, r)) for r in a.to_lists()]
            assert k.data == a.data and k.to_lists() == a.to_lists()
            assert all(type(x) is kind for x in k.data)
            assert [k.col(j) for j in range(cols)] == [a.col(j) for j in range(cols)]
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            other = a.to_lists()
            other[i][j] = other[i][j] + field.one()
            b = Matrix.from_rows(field, other, cols=cols)
            assert all(k != b and b != k for k in kernel)
    z, e = Matrix.zero(field, 2, 3), Matrix.identity(field, 2)
    assert z == Matrix.from_rows(field, [[field.zero()] * 3] * 2) and z.is_zero()
    assert e == Matrix.from_rows(field, [[field.one(), field.zero()], [field.zero(), field.one()]])
    assert all(type(x) is kind for x in z.data + e.data)
    assert Matrix.zero(field, 2, 3) != Matrix.zero(field, 3, 2)
    assert Matrix.zero(field, 0, 2) != Matrix.zero(field, 0, 3)


def test_matrices_compare_values_in_the_field():
    # a bare int is read as its residue, as Fp(3, 5) + 6 == Fp(4, 5) does
    assert Matrix(F5, 1, 1, [6]) == Matrix(F5, 1, 1, [Fp(1, 5)])
    assert hash(Matrix(F5, 1, 1, [6])) == hash(Matrix(F5, 1, 1, [Fp(1, 5)]))
    assert Matrix(QQ, 1, 2, [1, Fraction(1, 2)]) == Matrix(QQ, 1, 2, [Fraction(2, 2), Fraction(2, 4)])
    assert Matrix(F5, 1, 1, [Fp(1, 5)]) != Matrix(field_by_name("prime 7"), 1, 1, [Fp(1, 7)])
    assert Matrix(QQ, 1, 1, [1]) != Matrix(F5, 1, 1, [Fp(1, 5)])
