"""Property tests for the exact elimination and enumeration kernels in linalg.

Each property checks a kernel against a route that does not share its
elimination: the Leibniz expansion for determinants, direct products for
inverses and solutions, the Smith route for ranks, and a brute-force
search of a bounding box for the quadratic-form enumerator.
"""
from fractions import Fraction as Q
from itertools import permutations, product
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from parafusion.linalg import (
    _hermite_with_transform,
    coset_minimum,
    det,
    enumerate_quadratic,
    hnf,
    identity,
    integer_row_kernel,
    mat_inv,
    mat_mul,
    rank,
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
def test_rank_matches_smith_kernel(m):
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
    them all: |x_i + t_i| <= sqrt(bound · (gram^-1)_ii)."""
    ginv = mat_inv(gram)
    ranges = []
    for i, t in enumerate(center):
        r = bound * ginv[i][i]
        reach = isqrt(-(-r.numerator // r.denominator)) + 1
        ranges.append(range(int(-t) - reach - 1, int(-t) + reach + 2))
    out = set()
    for x in product(*ranges):
        q = form(gram, [xi + t for xi, t in zip(x, center)])
        if q <= bound:
            out.add((x, q))
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
