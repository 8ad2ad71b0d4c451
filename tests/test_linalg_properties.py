"""Property tests for the exact elimination and enumeration kernels in linalg.

Each property checks a kernel against a route that does not share its
elimination: the Leibniz expansion for determinants, direct products for
inverses and solutions, the Hermite kernel for ranks, and a brute-force
search of a bounding box for the quadratic-form enumerator.  The integer
kernel under the rational routines is also checked against the
``Fraction`` routes it replaced: sum-of-products matrix products and a
``Fraction`` Gauss-Jordan elimination, kept here as oracles; the flat
enumeration loop is checked, order included, against the recursive
generator it replaced; and ``clear_denominators`` and ``int_mat``, which
pass all-``int`` rows through, against their ``Fraction`` routes.
"""
from fractions import Fraction as Q
from itertools import permutations, product
from math import floor, isqrt, lcm
from operator import mul

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from parafusion.codes import ambient_lattice, build_lattice, builtin_code
from parafusion.lattices import Lattice, dual, rescale, root_lattice, sublattice
import parafusion.linalg as linalg_mod
from parafusion.linalg import (
    _branch_and_bound,
    _gauss_jordan,
    _hermite_with_transform,
    _levels,
    clear_denominators,
    coset_minimum,
    det,
    enumerate_quadratic,
    hnf,
    identity,
    int_mat,
    int_mat_mul,
    integer_row_kernel,
    mat_inv,
    mat_mul,
    rank,
    row_mul,
    snf,
    solve_left,
)

rationals = st.builds(Q, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))


def leibniz(m):
    n = len(m)
    total = Q(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Q(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def matrices(elements, nrows, ncols):
    return st.lists(
        st.lists(elements, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


@st.composite
def square_rational(draw, n=None):
    """A rational n x n matrix; about half are made singular on purpose."""
    n = draw(st.integers(1, 4)) if n is None else n
    m = draw(matrices(rationals, n, n))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    return m


def int_matrices(max_rows=5, max_cols=5, lo=-6, hi=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: matrices(st.integers(lo, hi), r, c)
        )
    )


def int_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(square_rational())
def test_det_matches_leibniz(m):
    assert det(m) == leibniz(m)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(square_rational(n), square_rational(n))))
def test_det_multiplicative(pair):
    a, b = pair
    assert det(mat_mul(a, b)) == det(a) * det(b)


@given(square_rational())
def test_inverse_or_singular(m):
    if leibniz(m) == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)
    else:
        assert mat_mul(m, mat_inv(m)) == identity(len(m))


@st.composite
def independent_rows(draw):
    """A rational r x c matrix with r <= c and independent rows."""
    r = draw(st.integers(1, 3))
    c = draw(st.integers(r, 4))
    b = draw(matrices(rationals, r, c))
    assume(leibniz(mat_mul(b, list(zip(*b)))) != 0)
    return b


@given(independent_rows(), st.data())
def test_solve_left_recovers_coefficients(b, data):
    y = tuple(data.draw(st.lists(rationals, min_size=len(b), max_size=len(b))))
    target = tuple(sum(yi * row[j] for yi, row in zip(y, b)) for j in range(len(b[0])))
    assert solve_left(b, target) == y


@given(independent_rows(), st.data())
def test_solve_left_rejects_target_outside_row_space(b, data):
    n = len(b[0])
    t = data.draw(st.lists(rationals, min_size=n, max_size=n))
    stacked = b + [t]
    # t lies outside the row space iff the Gram matrix of rows + t is nonsingular.
    assume(leibniz(mat_mul(stacked, list(zip(*stacked)))) != 0)
    assert solve_left(b, t) is None


@given(int_matrices())
def test_rank_matches_hermite_kernel(m):
    assert rank(m) == len(m) - len(integer_row_kernel(m))


@given(int_matrices())
def test_hnf_is_hermite_with_transform(m):
    h, u = _hermite_with_transform(m)
    assert hnf(m) == tuple(tuple(row) for row in h if any(row))
    assert int_mul(u, m) == h
    assert abs(leibniz(u)) == 1


@given(int_matrices(max_rows=4, max_cols=4, lo=-9, hi=9))
def test_snf_diagonal_divisibility_chain(m):
    d, u, v = snf(m)
    assert int_mul(int_mul(u, m), v) == [list(row) for row in d]
    assert abs(leibniz(u)) == 1 and abs(leibniz(v)) == 1
    nrows, ncols = len(m), len(m[0])
    assert all(d[i][j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


# ---------------------------------------------------------------------------
# quadratic-form enumeration


@st.composite
def positive_definite(draw):
    """A positive-definite rational Gram of rank 1..3: B·B^T for an integer
    B, divided by a small integer or inverted (which gives thirds, fifths...)."""
    n = draw(st.integers(1, 3))
    b = draw(matrices(st.integers(-2, 2), n, n))
    assume(leibniz(b) != 0)
    g = [[Q(x) for x in row] for row in int_mul(b, [list(col) for col in zip(*b)])]
    if draw(st.booleans()):
        return mat_inv(g)
    q = draw(st.sampled_from((1, 2, 3, 6)))
    return [[x / q for x in row] for row in g]


def form(gram, v):
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def brute_force(gram, bound, center):
    """Every (x, Q(x + center)) with Q <= bound, by scanning a box that holds
    them all: |x_i + t_i| <= sqrt(bound · (gram^-1)_ii).  Q is evaluated
    over ``int``: with s and T the lcms of the denominators of the Gram and
    the centre, v = T·x + T·t and G = s·gram, s·T^2·Q(x + t) = v·G·v^T."""
    ginv = mat_inv(gram)
    ranges = []
    for i, t in enumerate(center):
        r = bound * ginv[i][i]
        reach = isqrt(-(-r.numerator // r.denominator)) + 1
        ranges.append(range(int(-t) - reach - 1, int(-t) + reach + 2))
    s = lcm(*(Q(g).denominator for row in gram for g in row))
    big_t = lcm(*(Q(t).denominator for t in center))
    g = [[int(s * Q(e)) for e in row] for row in gram]
    c = [int(big_t * Q(t)) for t in center]
    scale = s * big_t * big_t
    limit = floor(Q(bound) * scale)
    out = set()
    for x in product(*ranges):
        v = [big_t * xi + ci for xi, ci in zip(x, c)]
        q = sum(vi * sum(map(mul, row, v)) for vi, row in zip(v, g))
        if q <= limit:
            out.add((x, Q(q, scale)))
    return out


centres = st.builds(Q, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 6)))
bounds = st.builds(Q, st.integers(0, 12), st.sampled_from((1, 2, 3)))


@given(positive_definite(), bounds, st.data())
def test_enumerate_quadratic_matches_brute_force(gram, bound, data):
    center = data.draw(st.lists(centres, min_size=len(gram), max_size=len(gram)))
    if data.draw(st.booleans()):
        found = list(enumerate_quadratic(gram, bound))
        center = [Q(0)] * len(gram)
    else:
        found = list(enumerate_quadratic(gram, bound, center=tuple(center)))
    assert len(set(found)) == len(found)
    assert set(found) == brute_force(gram, bound, center)


@given(positive_definite(), st.data())
def test_coset_minimum_matches_brute_force(gram, data):
    shift = data.draw(st.lists(centres, min_size=len(gram), max_size=len(gram)))
    norm, minimizers = coset_minimum(gram, tuple(shift))
    # Q(x + shift) at x = -round(shift) bounds the minimum, so the box
    # holds every minimizer.
    nearest = [t - round(t) for t in shift]
    pairs = brute_force(gram, form(gram, nearest), shift)
    expected_norm = min(q for _, q in pairs)
    assert norm == expected_norm
    assert len(set(minimizers)) == len(minimizers)
    assert set(minimizers) == {x for x, q in pairs if q == expected_norm}


def recursive_branch_and_bound(t_scale, rows, budget):
    """The recursive generator ``_branch_and_bound`` replaced: every
    (x, sum_i w_i U_i^2) within ``budget`` on the ``_levels`` rows, deepest
    coordinate first, each coordinate ascending."""
    n = len(rows)
    x = [0] * n
    y = [0] * n

    def recurse(i, partial):
        w, step, base, ti, tail = rows[i]
        off = base + sum(map(mul, tail, y[i + 1 :]))
        r = isqrt((budget - partial) // w)
        for xi in range(-((off + r) // step), (r - off) // step + 1):
            u = step * xi + off
            x[i] = xi
            y[i] = t_scale * xi + ti
            if i:
                yield from recurse(i - 1, partial + w * u * u)
            else:
                yield tuple(x), partial + w * u * u

    if budget >= 0:
        yield from recurse(n - 1, 0)


@st.composite
def gram_and_centre(draw):
    """A positive-definite Gram and a centre: None, all zero or rational."""
    gram = draw(positive_definite())
    n = len(gram)
    centre = draw(
        st.none()
        | st.just((Q(0),) * n)
        | st.lists(centres, min_size=n, max_size=n).map(tuple)
    )
    return gram, centre


E8 = root_lattice("E", 8).gram


@given(gram_and_centre(), st.builds(Q, st.integers(-4, 12), st.sampled_from((1, 2, 3))))
@example(([[2, -1], [-1, 2]], None), Q(0))
@example(([[2, -1], [-1, 2]], None), Q(-1))
@example(([[2, -1], [-1, 2]], (Q(1, 3), Q(1, 3))), Q(0))
@example(([[2, -1], [-1, 2]], (Q(1, 3), Q(1, 3))), Q(-1, 2))
@example(([[2]], None), Q(8))
@example((E8, None), Q(4))
@example((E8, (Q(1, 2),) + (Q(0),) * 7), Q(3))
def test_branch_and_bound_keeps_the_recursive_order(case, bound):
    gram, centre = case
    scale, t_scale, rows = _levels(gram, centre)
    budget = floor(bound * scale)
    assert list(_branch_and_bound(t_scale, rows, budget)) == list(
        recursive_branch_and_bound(t_scale, rows, budget)
    )


def test_enumerate_quadratic_a2_dual_with_rational_centre():
    # The A2 dual has Gram (1/3)[[2, 1], [1, 2]]; its vectors of norm 2/3
    # are the six minimal ones.
    gram = [[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]]
    found = list(enumerate_quadratic(gram, Q(2, 3)))
    assert sorted(x for x, q in found if q == Q(2, 3)) == [
        (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0),
    ]
    center = (Q(1, 3), Q(-1, 2))
    assert set(enumerate_quadratic(gram, Q(3), center=center)) == brute_force(
        gram, Q(3), center
    )


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction routes it replaced


def sum_of_products(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def oracle_gauss_jordan(rows, ncols):
    """Reduce ``Fraction`` rows in place to reduced row echelon form on the
    first ``ncols`` columns, later columns riding along; returns the pivot
    columns and the signed product of the pivots."""
    pivots = []
    pivot_product = Q(1)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            pivot_product = -pivot_product
        pivot_product *= rows[r][c]
        inv_p = 1 / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, pivot_product


def oracle_det(m):
    n = len(m)
    pivots, pivot_product = oracle_gauss_jordan([list(map(Q, row)) for row in m], n)
    return pivot_product if len(pivots) == n else Q(0)


def oracle_inv(m):
    """The inverse, or None for a singular matrix."""
    n = len(m)
    aug = [list(map(Q, row)) + [Q(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    pivots, _ = oracle_gauss_jordan(aug, n)
    return tuple(tuple(row[n:]) for row in aug) if len(pivots) == n else None


def oracle_rank(m):
    return len(oracle_gauss_jordan([list(map(Q, row)) for row in m], len(m[0]))[0])


def oracle_solve_left(basis, target):
    rows, cols = len(basis), len(basis[0])
    aug = [[Q(basis[r][c]) for r in range(rows)] + [Q(target[c])] for c in range(cols)]
    pivots, _ = oracle_gauss_jordan(aug, rows)
    if any(aug[r][rows] != 0 for r in range(len(pivots), cols)):
        return None
    y = [Q(0)] * rows
    for r, c in enumerate(pivots):
        y[c] = aug[r][rows]
    if sum_of_products([y], basis)[0] != tuple(map(Q, target)):
        return None
    return tuple(y)


def types(m):
    return [[type(x) for x in row] for row in m]


small_ints = st.integers(-9, 9)
# Denominators up to 7, mixed within one matrix.
sevenths = st.builds(Q, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def kernel_matrices(draw, nrows=None, ncols=None, fractions=None):
    """An up to 8 x 8 matrix of ``int``s or of ``Fraction``s; about half
    are products through a narrower middle, so rank-deficient."""
    nrows = draw(st.integers(1, 8)) if nrows is None else nrows
    ncols = draw(st.integers(1, 8)) if ncols is None else ncols
    fractions = draw(st.booleans()) if fractions is None else fractions
    entries = sevenths if fractions else small_ints
    if draw(st.booleans()):
        middle = draw(st.integers(0, min(nrows, ncols) - 1))
        left = draw(matrices(entries, nrows, middle))
        right = draw(matrices(entries, middle, ncols))
        m = sum_of_products(left, right) if middle else [[0] * ncols] * nrows
    else:
        m = draw(matrices(entries, nrows, ncols))
    return [[Q(x) if fractions else x for x in row] for row in m]


@given(st.tuples(*[st.integers(1, 6)] * 3), st.booleans(), st.booleans(), st.data())
def test_products_match_sum_of_products_in_value_and_type(shape, a_frac, b_frac, data):
    n, t, m = shape
    a = data.draw(kernel_matrices(n, t, a_frac))
    b = data.draw(kernel_matrices(t, m, b_frac))
    expected = sum_of_products(a, b)
    got = mat_mul(a, b)
    assert got == expected and types(got) == types(expected)
    row = row_mul(a[0], b)
    assert row == expected[0] and types([row]) == types(expected[:1])


def dense_product(a, b):
    """The dense kernel the sparse ``mat_mul`` replaced: every row against
    every column."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


@st.composite
def sparse_matrices(draw, nrows, ncols, fractions):
    """Mostly zero ``int`` or ``Fraction`` entries, with whole rows and
    columns set to zero."""
    entries = st.one_of(st.just(0), st.just(0), sevenths if fractions else small_ints)
    m = draw(matrices(entries, nrows, ncols))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


@given(st.tuples(*[st.integers(0, 6)] * 3), st.booleans(), st.booleans(), st.data())
def test_sparse_product_matches_the_dense_kernel(shape, a_frac, b_frac, data):
    n, t, m = shape
    a = data.draw(sparse_matrices(n, t, a_frac))
    b = data.draw(sparse_matrices(t, m, b_frac))
    got = mat_mul(a, b)
    assert got == dense_product(a, b)
    all_int = {type(x) for row in a + b for x in row} <= {int}
    assert {type(x) for row in got for x in row} <= ({int} if all_int else {Q})


@given(st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(0, 6)), st.data())
def test_int_product_matches_sum_of_products(shape, data):
    # The int entry point, zero-row and zero-column shapes included, is
    # the sum of products and the product mat_mul gives; every product
    # raises when a left row is not as wide as the right factor is high.
    n, t, m = shape
    a = data.draw(sparse_matrices(n, t, False))
    b = data.draw(sparse_matrices(t, m, False))
    expected = sum_of_products(a, b)
    got = int_mat_mul(a, b)
    assert got == expected and types(got) == types(expected)
    assert got == mat_mul(a, b)
    width = data.draw(st.integers(0, 7).filter(lambda w: w != t))
    bad = [[1] * width for _ in range(max(n, 1))]
    for product_ in (int_mat_mul, mat_mul, lambda x, y: row_mul(x[0], y)):
        with pytest.raises(ValueError, match=f"width {t}"):
            product_(bad, b)


@given(st.data())
def test_integer_elimination_is_the_fraction_elimination_scaled(data):
    # With the same pivots and swaps, every row of the fraction-free
    # elimination is its last pivot times the row the Fraction elimination
    # leaves, ride-along columns included; so each division was exact.
    m = data.draw(kernel_matrices(fractions=False))
    ncols = data.draw(st.integers(0, len(m[0])))
    rows = [list(row) for row in m]
    pivots, signed_last = _gauss_jordan(rows, ncols)
    expected = [list(map(Q, row)) for row in m]
    expected_pivots, pivot_product = oracle_gauss_jordan(expected, ncols)
    assert pivots == expected_pivots
    assert signed_last == pivot_product
    last = rows[0][pivots[0]] if pivots else 1
    assert all(type(x) is int for row in rows for x in row)
    assert [[last * x for x in row] for row in expected] == rows


@given(st.integers(1, 8).flatmap(lambda n: kernel_matrices(n, n)))
def test_det_inverse_and_rank_match_the_fraction_routes(m):
    assert det(m) == oracle_det(m) and type(det(m)) is Q
    assert rank(m) == oracle_rank(m)
    inverse = oracle_inv(m)
    if inverse is None:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)
    else:
        got = mat_inv(m)
        assert got == inverse and all(type(x) is Q for row in got for x in row)


@given(kernel_matrices(), st.data())
def test_rank_and_solve_left_match_the_fraction_routes_on_rectangles(b, data):
    assert rank(b) == oracle_rank(b)
    if data.draw(st.booleans()):
        y = data.draw(st.lists(sevenths, min_size=len(b), max_size=len(b)))
        target = sum_of_products([y], b)[0]
    else:
        target = data.draw(st.lists(sevenths, min_size=len(b[0]), max_size=len(b[0])))
    got = solve_left(b, target)
    assert got == oracle_solve_left(b, target)
    assert got is None or all(type(x) is Q for x in got)


def test_lattice_layer_matches_the_fraction_routes_on_non_integral_grams():
    # 5B's ambient ((1/2)A4)^4 with the glued basis, the A2 dual, and D4
    # rescaled by 1/3.
    code = builtin_code("5B")
    cases = [
        (ambient_lattice(code), build_lattice(code).basis),
        (Lattice([[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]]), [[1, 1], [2, -1]]),
        (rescale(root_lattice("D", 4), Q(1, 3)), [[1, 0, 1, 0], [0, 2, 0, 1]]),
    ]
    for lat, rows in cases:
        assert not lat.is_integral()
        assert lat.det() == oracle_det(lat.gram) and type(lat.det()) is Q
        b = [list(map(Q, row)) for row in rows]
        expected = sum_of_products(sum_of_products(b, lat.gram), list(zip(*b)))
        assert sublattice(lat, rows).gram == expected
        assert dual(lat).gram == oracle_inv(lat.gram)


# --- the integer boundary: all-int rows pass through ---


def oracle_clear_denominators(m):
    """``clear_denominators`` as it was: every entry read as a ``Fraction``."""
    rows = [[x if type(x) in (int, Q) else Q(x) for x in row] for row in m]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, tuple(
        tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows
    )


def oracle_int_mat(rows):
    """``int_mat`` as it was: every entry read as a ``Fraction``."""
    out = []
    for row in rows:
        converted = []
        for x in row:
            f = Q(x)
            if f.denominator != 1:
                raise ValueError(f"entry {x} is not an integer")
            converted.append(f.numerator)
        out.append(tuple(converted))
    return tuple(out)


mixed_entries = st.one_of(
    small_ints, st.booleans(), sevenths, small_ints.map(str), sevenths.map(str)
)


@st.composite
def boundary_matrices(draw):
    """Up to 4 rows of up to 4 entries, ragged and empty ones included:
    half all ``int``, half mixing ``int``, ``bool``, ``Fraction`` and ``str``."""
    entries = small_ints if draw(st.booleans()) else mixed_entries
    return draw(st.lists(st.lists(entries, max_size=4), max_size=4))


@given(boundary_matrices())
@example([])
@example([[]])
@example([[1, 2], [3]])
@example([[True, 2], [False]])
@example([[Q(4, 2), "6/3"]])
@example([[1, "1/2"], [Q(1, 3)]])
def test_the_integer_boundary_matches_the_fraction_routes(m):
    s, cleared = clear_denominators(m)
    assert (s, cleared) == oracle_clear_denominators(m)
    assert all(type(x) is int for row in cleared for x in row)
    try:
        expected = oracle_int_mat(m)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            int_mat(m)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        got = int_mat(m)
        assert got == expected
        assert all(type(x) is int for row in got for x in row)


@given(st.booleans(), st.booleans(), st.data())
def test_a_product_scans_each_operand_once(a_frac, b_frac, data):
    a = data.draw(kernel_matrices(3, 3, a_frac))
    b = data.draw(kernel_matrices(3, 3, b_frac))
    scanned = []
    real = linalg_mod._is_int_mat
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_mod, "_is_int_mat", lambda m: scanned.append(m) or real(m))
        assert mat_mul(a, b) == sum_of_products(a, b)
    assert len(scanned) == 2
