"""The F2 section of linalg and the mod-2 forms of central, against naive
bit-list references written here."""
import hashlib
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parafusion.central import F2BilinearForm, F2QuadraticForm, f2_solve_unique
from parafusion.codes import build_ee8_pair, build_lattice, builtin_code, span
from parafusion.linalg import (
    f2_echelon,
    f2_pack,
    f2_row_mul,
    f2_span,
    f2_unpack,
    mat_mul,
    mat_pow,
)


def bit_rows(n_rows, n_cols):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols).map(tuple),
        min_size=n_rows,
        max_size=n_rows,
    )


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    """(m, n): up to ``max_rows`` bit rows of one length n in 1..max_cols."""
    n = draw(st.integers(1, max_cols))
    return draw(bit_rows(draw(st.integers(0, max_rows)), n)), n


@st.composite
def square_bit_matrices(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(bit_rows(n, n))


def naive_add(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def naive_row_mul(x, m):
    return tuple(sum(x[i] * m[i][j] for i in range(len(x))) % 2 for j in range(len(m[0])))


def naive_span(rows, n):
    words = {tuple([0] * n)}
    for r in rows:
        words |= {naive_add(w, r) for w in words}
    return words


def reference_basis(rows):
    """Forward echelon on bit lists, row by row: reduce each row by the
    kept rows at their pivots (first nonzero coordinate), keep it when
    nonzero."""
    basis, pivots = [], []
    for row in rows:
        r = list(row)
        for b, pv in zip(basis, pivots):
            if r[pv]:
                r = [(x + y) % 2 for x, y in zip(r, b)]
        p = next((i for i, x in enumerate(r) if x), None)
        if p is not None:
            basis.append(r)
            pivots.append(p)
    return [tuple(b) for b in basis]


@given(bit_matrices(max_rows=10, max_cols=9), st.data())
def test_pack_round_trip_and_row_mul(mn, data):
    m, n = mn
    for row in m:
        assert f2_unpack(f2_pack(row), n) == row
    x = data.draw(bit_rows(1, len(m)))[0]
    got = f2_row_mul(f2_pack(x), [f2_pack(r) for r in m])
    assert f2_unpack(got, n) == (naive_row_mul(x, m) if m else (0,) * n)


def test_pack_reduces_integers_mod_2():
    assert f2_pack((2, -1, 3, 0)) == 0b0110
    assert f2_unpack(0b0110, 4) == (0, 1, 1, 0)


@given(bit_matrices(max_rows=10, max_cols=9))
def test_echelon_spans_input_is_independent_and_matches_reference(mn):
    m, n = mn
    echelon = [f2_unpack(r, n) for r in f2_echelon(map(f2_pack, m))]
    assert echelon == reference_basis(m)
    assert naive_span(echelon, n) == naive_span(m, n)
    assert len(naive_span(echelon, n)) == 2 ** len(echelon)
    pivots = [(r & -r).bit_length() - 1 for r in f2_echelon(map(f2_pack, m))]
    assert len(set(pivots)) == len(pivots)


@given(bit_matrices(max_rows=6, max_cols=8))
def test_span_is_in_mask_order(mn):
    m, n = mn
    words = [f2_unpack(w, n) for w in f2_span([f2_pack(r) for r in m])]
    assert len(words) == 2 ** len(m)
    for mask, w in enumerate(words):
        expected = tuple([0] * n)
        for i, r in enumerate(m):
            if mask >> i & 1:
                expected = naive_add(expected, r)
        assert w == expected


@given(square_bit_matrices(), st.data())
def test_solve_unique_solves_or_raises_exactly_when_singular(a, data):
    n = len(a)
    b = data.draw(bit_rows(1, n))[0]
    kernel = [
        x for x in product((0, 1), repeat=n)
        if any(x) and all(sum(r[j] * x[j] for j in range(n)) % 2 == 0 for r in a)
    ]
    if kernel:
        with pytest.raises(ValueError, match="singular F2 system"):
            f2_solve_unique(a, b)
    else:
        x = f2_solve_unique(a, b)
        assert tuple(sum(r[j] * x[j] for j in range(n)) % 2 for r in a) == b


@given(square_bit_matrices(), st.data())
def test_conjugate_matches_mat_mul_mod_2(e, data):
    n = len(e)
    g = data.draw(bit_rows(data.draw(st.integers(1, 8)), n))
    got = F2BilinearForm(e).conjugate(g).matrix
    expected = mat_mul(mat_mul(g, e), tuple(zip(*g)))
    assert got == tuple(tuple(x % 2 for x in row) for row in expected)


@given(square_bit_matrices(), st.data())
def test_bilinear_form_equality_hash_and_matrix_follow_the_bit_matrix(e, data):
    n = len(e)
    other = data.draw(st.one_of(st.just(e), bit_rows(n, n), square_bit_matrices()))
    form, twin = F2BilinearForm(e), F2BilinearForm(other)
    assert form.matrix == tuple(e)
    assert (form == twin) == (tuple(e) == tuple(other))
    assert form == F2BilinearForm(e) and hash(form) == hash(F2BilinearForm(e))
    if form == twin:
        assert hash(form) == hash(twin)
        assert {form: 1}[twin] == 1
    # Forms built from packed rows (sums, conjugates) are equal, with equal
    # hashes, to the forms built from their bit matrices.
    transposed = tuple(zip(*e))
    summed = form + F2BilinearForm(transposed)
    assert summed.matrix == tuple(naive_add(r, c) for r, c in zip(e, transposed))
    g = data.draw(bit_rows(data.draw(st.integers(1, 8)), n))
    for built in (summed, form.conjugate(g)):
        assert built == F2BilinearForm(built.matrix)
        assert hash(built) == hash(F2BilinearForm(built.matrix))


def test_bilinear_form_must_be_square():
    with pytest.raises(ValueError, match="square"):
        F2BilinearForm(((0, 1, 0), (1, 0, 0)))


@st.composite
def quadratic_forms(draw):
    n = draw(st.integers(1, 8))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(st.integers(0, 1))
    diag = tuple(draw(bit_rows(1, n))[0])
    return F2QuadraticForm(diag, F2BilinearForm(tuple(map(tuple, b))))


@given(quadratic_forms(), st.data())
def test_quadratic_value_matches_double_sum(q, data):
    n = len(q.diagonal)
    b = q.polarization.matrix
    for x in data.draw(st.lists(bit_rows(1, n).map(lambda r: r[0]), max_size=8)):
        expected = sum(q.diagonal[i] * x[i] for i in range(n)) + sum(
            x[i] * x[j] * b[i][j] for i in range(n) for j in range(i + 1, n)
        )
        assert q.value(x) == expected % 2
    y = data.draw(bit_rows(1, n))[0]
    x = data.draw(bit_rows(1, n))[0]
    assert q.polarization.value(x, y) == sum(
        x[i] * b[i][j] * y[j] for i in range(n) for j in range(n)
    ) % 2


def test_mat_pow_keeps_integers():
    m = ((0, 1), (-1, -1))
    assert all(type(x) is int for row in mat_pow(m, 3) for x in row)
    assert mat_pow(m, 3) == ((1, 0), (0, 1))
    assert all(type(x) is int for row in mat_pow(m, 0) for x in row)


def test_5b_span_and_hamming_rows_are_pinned():
    code = builtin_code("5B")
    words = span(code)
    assert len(words) == 256 and list(words) == sorted(words)
    digest = hashlib.sha256(repr(words).encode()).hexdigest()
    assert digest == "66b3c5f57353353ba15f2917c61dc7cefc205801fe47bfa81662dae13a9983b5"
    assert build_ee8_pair(build_lattice(code)).hamming_rows == (
        (1, 0, 0, 1, 0, 0, 1, 1),
        (0, 0, 1, 1, 1, 0, 1, 0),
        (0, 1, 0, 1, 1, 0, 0, 1),
        (0, 0, 0, 0, 1, 1, 1, 1),
    )
