"""Exact linear algebra kernel: normal forms, kernels, enumeration."""
import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from parafusion.linalg import (
    _levels,
    clear_denominators,
    coset_minimum,
    det,
    enumerate_quadratic,
    hnf,
    identity,
    int_identity,
    int_mat_mul,
    integer_row_kernel,
    invariant_factors,
    ldl,
    mat,
    mat_inv,
    mat_mul,
    rank,
    row_mul,
    shell_vectors,
    size_reduce_basis,
    snf,
    solve_left,
    transpose,
)


def int_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_unimodular(n, rng):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        u = random_unimodular(nr, rng)
        assert hnf(m) == hnf(int_mul(u, m))


def test_hnf_pivot_shape():
    h = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for r in range(1, len(h)):
        lead_prev = next(j for j, x in enumerate(h[r - 1]) if x)
        lead = next(j for j, x in enumerate(h[r]) if x)
        assert lead_prev < lead
    for r, row in enumerate(h):
        lead = next(j for j, x in enumerate(row) if x)
        assert row[lead] > 0
        for above in range(r):
            assert 0 <= h[above][lead] < row[lead]


def test_snf_transform_identity_random():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        d, u, v = snf(m)
        assert int_mul(int_mul([list(r) for r in u], m), [list(r) for r in v]) == [
            list(r) for r in d
        ]
        assert abs(det(mat(u))) == 1
        assert abs(det(mat(v))) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert diag[len(nz):] == [0] * (len(diag) - len(nz))


def test_invariant_factors_known():
    assert invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
    assert invariant_factors([[2, 4], [4, 4]]) == (2, 4)
    assert invariant_factors([[0, 0], [0, 0]]) == ()


def test_snf_large_even_gram_terminates_quickly():
    # regression: the naive single-pivot elimination exploded around rank 13
    n = 14
    g = [[2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    d, u, v = snf(g)
    assert int_mul(int_mul([list(r) for r in u], g), [list(r) for r in v]) == [
        list(r) for r in d
    ]


def test_det_and_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if det(m) == 0:
            continue
        assert mat_mul(m, mat_inv(m)) == identity(n)
    assert det(mat([[2, -1], [-1, 2]])) == 3


def test_solve_left():
    a = mat([[2, 0], [1, 3]])
    y = solve_left(a, (4, 6))
    assert y is not None
    assert mat_mul(mat([y]), a) == mat([[4, 6]])
    # inconsistent system over the rationals
    assert solve_left(mat([[1, 2], [2, 4]]), (0, 1)) is None


def test_products_reject_a_width_that_is_not_the_right_height():
    # A 1x3 row times a 2x1 matrix used to drop the third entry: ((3,),).
    for a in ([[1, 2, 3]], [[1]], [[Q(1, 2), 2, 3]]):
        with pytest.raises(ValueError, match="width 2"):
            mat_mul(a, [[1], [1]])
        with pytest.raises(ValueError, match="width 2"):
            row_mul(a[0], [[1], [1]])
    with pytest.raises(ValueError, match="width 2"):
        int_mat_mul([[1, 2], [1, 2, 3]], [[1], [1]])
    assert int_mat_mul([[1, 2]], [[1], [1]]) == ((3,),)


def test_rank():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[0, 0]])) == 0


def test_integer_row_kernel_saturated():
    rng = random.Random(5)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        ker = integer_row_kernel(m)
        for row in ker:
            assert all(
                sum(row[i] * m[i][j] for i in range(nr)) == 0 for j in range(nc)
            )
        assert len(ker) == nr - rank(mat(m))
        if ker:
            assert all(f == 1 for f in invariant_factors(ker))


@st.composite
def rational_positive_definite(draw):
    """B·B^T / q for a nonsingular integer B of rank 1..4, or its inverse."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    b = draw(st.lists(row, min_size=n, max_size=n))
    assume(det(mat(b)) != 0)
    q = draw(st.sampled_from((1, 2, 3, 6)))
    g = [[Q(x, q) for x in r] for r in int_mul(b, [list(c) for c in zip(*b)])]
    return mat_inv(g) if draw(st.booleans()) else g


@given(rational_positive_definite(), st.data())
def test_ldl_reconstruction(g, data):
    n = len(g)
    s, d, b = ldl(g)
    assert all(type(v) is int for v in [s, *d, *(e for r in b for e in r)])
    # D[i] is the (i+1)-th leading minor of s·g; B[i] is zero left of i.
    assert d == [det([[s * e for e in r[: i + 1]] for r in g[: i + 1]]) for i in range(n)]
    assert all(b[i][j] == 0 for i in range(n) for j in range(i))
    x = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    t = data.draw(st.lists(st.builds(Q, st.integers(-5, 5), st.integers(1, 4)),
                           min_size=n, max_size=n))

    def form(v):
        return sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))

    squares = sum(
        Q(sum(b[i][j] * x[j] for j in range(i, n)) ** 2, p * q)
        for i, (p, q) in enumerate(zip([1] + d, d))
    )
    assert squares == s * form(x)
    # The scaled levels: s·L·T^2·Q(x + t) = sum_i w_i U_i^2 over int.
    scale, t_scale, rows = _levels(g, t)
    y = [t_scale * (xi + ti) for xi, ti in zip(x, t)]
    total = 0
    for i, (w, step, base, _, tail) in enumerate(rows):
        u = step * x[i] + base + sum(c * yj for c, yj in zip(tail, y[i + 1 :]))
        total += w * u * u
    assert total == scale * form([xi + ti for xi, ti in zip(x, t)])


def brute_shell(gram, bound, box):
    n = len(gram)
    out = {}
    def rec(prefix):
        if len(prefix) == n:
            norm = sum(
                prefix[i] * gram[i][j] * prefix[j] for i in range(n) for j in range(n)
            )
            if 0 < norm <= bound:
                out.setdefault(norm, set()).add(tuple(prefix))
            return
        for c in range(-box, box + 1):
            rec(prefix + [c])
    rec([])
    return out


def test_enumerate_quadratic_matches_brute_force():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 3)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        while det(mat(b)) == 0:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = mat(int_mul(b, [list(r) for r in transpose(mat(b))]))
        bound = Q(9)
        got = {}
        for x, norm in enumerate_quadratic(gram, bound):
            if norm > 0:
                got.setdefault(norm, set()).add(x)
        want = brute_shell([[int(e) for e in row] for row in gram], 9, 8)
        assert got == {Q(k): v for k, v in want.items()}


def test_shell_vectors_come_in_pairs():
    gram = mat([[2, -1], [-1, 2]])
    sh = shell_vectors(gram, Q(2))
    assert len(sh) == 6
    assert all((tuple(-c for c in x) in {tuple(y) for y in sh}) for x in sh)


def test_empty_and_non_positive_bounds_take_the_general_path():
    # Z^0 holds one vector, of norm 0: it lies within a bound exactly when
    # the bound is >= 0.  A norm-0 shell is the zero vector alone, and a
    # negative norm has no vectors.
    assert list(enumerate_quadratic((), -1)) == []
    assert list(enumerate_quadratic((), 0)) == [((), 0)]
    assert coset_minimum((), ()) == (0, [()])
    assert shell_vectors((), 0) == [()]
    assert shell_vectors((), -1) == []
    gram = mat([[2, -1], [-1, 2]])
    assert shell_vectors(gram, 0) == [(0, 0)]
    assert shell_vectors(gram, -2) == shell_vectors(gram, Q(-1, 2)) == []


def test_coset_minimum_decomposes_once(monkeypatch):
    import parafusion.linalg as linalg_mod
    from parafusion.lattices import sqrt2_a

    gram = sqrt2_a(4).gram
    calls = []
    real_ldl = linalg_mod.ldl

    def counting_ldl(gram):
        calls.append(gram)
        return real_ldl(gram)

    monkeypatch.setattr(linalg_mod, "ldl", counting_ldl)
    linalg_mod._gram_levels.cache_clear()
    best, minimizers = coset_minimum(gram, (Q(1, 2), 0, Q(1, 2), 0))
    assert len(calls) == 1
    assert (best, len(minimizers)) == (2, 6)
    # The levels are kept per Gram: other centres and the enumerator on the
    # same Gram decompose nothing more.
    assert coset_minimum(gram, (0, Q(1, 2), 0, Q(1, 2)))[0] == 2
    assert len(list(enumerate_quadratic(gram, Q(4), center=(Q(1, 2), 0, 0, 0)))) > 0
    assert len(shell_vectors(gram, 4)) == 20
    assert len(calls) == 1


def test_coset_minimum_against_brute_force():
    gram = mat([[2, -1], [-1, 2]])
    shift = (Q(1, 3), Q(1, 3))
    best, minimizers = coset_minimum(gram, shift)
    brute = {}
    for a in range(-6, 7):
        for b in range(-6, 7):
            x = (a + shift[0], b + shift[1])
            norm = sum(
                x[i] * gram[i][j] * x[j] for i in range(2) for j in range(2)
            )
            brute.setdefault(norm, []).append(x)
    assert best == min(brute)
    assert len(minimizers) == len(brute[best])


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_enumeration_order_is_pinned():
    # Vectors, minimizers, norms and their order, as the Fraction LDL^T
    # enumerator gave them: the norm-4 and norm-6 shells of the 5B lattice L_C
    # (the norm-6 one as the recursive integer enumerator gave it), the
    # coset minima of the 16 distinct 5B blocks, and an A2-dual
    # enumeration around a rational centre.
    from parafusion.codes import build_lattice, builtin_code, span
    from parafusion.lattices import shell, sqrt2_a

    code = builtin_code("5B")
    lattice = build_lattice(code).lattice
    assert digest(shell(lattice, 4)) == (
        "3f8832aa267cb7b9741e1f4cd7fcdd6e98b6bab39103d26d7665b880fc613655"
    )
    assert digest(shell(lattice, 6)) == (
        "8e5648ab5dd2465f71f3c329708f74a17232f3fb394c8124ca97862be1650007"
    )
    blocks = sorted({b for w in span(code) for b in code.blocks(w)})
    assert len(blocks) == 16
    gram = sqrt2_a(4).gram
    minima = [coset_minimum(gram, tuple(Q(b, 2) for b in block)) for block in blocks]
    assert digest(minima) == (
        "05a613512efed23fc5ff35ae51327724d4e44da6e2f4cc968aa855d341673fd5"
    )
    a2_dual = [[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]]
    found = list(enumerate_quadratic(a2_dual, Q(3), center=(Q(1, 3), Q(-1, 2))))
    assert digest(found) == (
        "bc817c2262a6c40c9e24f607f4ebaa29090b5776cd0f4d09866a5c1fc5e58986"
    )


def test_size_reduce_preserves_lattice():
    rng = random.Random(17)
    g = mat([[4, -2, 0], [-2, 4, -2], [0, -2, 4]])
    new_gram, u = size_reduce_basis(g)
    assert abs(det(mat(u))) == 1
    rebuilt = mat_mul(mat_mul(mat(u), g), transpose(mat(u)))
    assert rebuilt == new_gram
    # Typed as mat_mul: an int Gram stays int, with the same basis change.
    int_gram, int_u = size_reduce_basis(((4, -2, 0), (-2, 4, -2), (0, -2, 4)))
    assert (int_gram, int_u) == (new_gram, u)
    assert {type(x) for row in int_gram for x in row} == {int}
    assert {type(x) for row in new_gram for x in row} == {Q}


def rational_hnf(m):
    """Test oracle: the canonical form of a rational row lattice, as the
    integer HNF of the cleared rows scaled back."""
    scale, scaled = clear_denominators(m)
    return tuple(tuple(Q(x, scale) for x in row) for row in hnf(scaled))


def test_rational_hnf_equality_is_lattice_equality():
    a = [[Q(1, 2), Q(0)], [Q(0), Q(1)]]
    b = [[Q(1, 2), Q(1)], [Q(1, 2), Q(0)]]
    assert rational_hnf(a) == rational_hnf(b)
    c = [[Q(1, 3), Q(0)], [Q(0), Q(1)]]
    assert rational_hnf(a) != rational_hnf(c)
