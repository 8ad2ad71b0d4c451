"""Integral lattices: root systems, quotients, shells, isometries."""
import hashlib
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parafusion.lattices import (
    Isometry,
    Lattice,
    annihilator,
    c_nu_radical,
    coset_min_norm,
    coxeter_nu,
    discriminant_group,
    dual,
    dual_quotient_invariants,
    is_rssd,
    lattice_intersection,
    quotient_invariants,
    r_cap_p_dual_index,
    reflection,
    rescale,
    root_lattice,
    rssd_involution,
    same_lattice,
    shell,
    sqrt2_a,
    sublattice,
    tau_isometry,
    tensor,
    tensor_vector,
    verify_weyl,
    weyl_pairing_row,
    weyl_vector,
)
import parafusion.lattices as lattices_mod
from parafusion import linalg
from parafusion.linalg import (
    det,
    identity,
    int_mat,
    invariant_factors,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_sub,
    transpose,
)


def kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i][k] * b[j][l] for k in range(na) for l in range(nb))
        for i in range(na)
        for j in range(nb)
    )


def test_root_lattice_determinants():
    for n in range(1, 9):
        assert root_lattice("A", n).det() == n + 1
    for n in range(4, 9):
        assert root_lattice("D", n).det() == 4
    assert root_lattice("E", 6).det() == 3
    assert root_lattice("E", 7).det() == 2
    assert root_lattice("E", 8).det() == 1


def test_root_lattices_even_integral():
    for fam, n in (("A", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)):
        lat = root_lattice(fam, n)
        assert lat.is_integral()
        assert lat.is_even()


def test_root_lattice_validation():
    with pytest.raises(ValueError):
        root_lattice("B", 3)
    with pytest.raises(ValueError):
        root_lattice("D", 3)
    with pytest.raises(ValueError):
        root_lattice("E", 9)
    with pytest.raises(ValueError):
        root_lattice("A", 0)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        Lattice([[0, 0], [0, 0]])  # not positive definite
    with pytest.raises(ValueError):
        Lattice([[1, 0], [0, -1]])


# --- definiteness: the fraction-free ldl against a Fraction LDL^T oracle ---


def oracle_ldl(gram):
    """Q(x) = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2 by ``Fraction``
    elimination; raises ValueError unless positive definite."""
    n = len(gram)
    q = [list(map(Q, row)) for row in gram]
    d = [Q(0)] * n
    c = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        d[i] = q[i][i]
        for j in range(i + 1, n):
            c[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for t in range(i + 1, n):
                q[r][t] -= q[r][i] * q[i][t] / q[i][i]
    return d, c


small_rationals = st.builds(Q, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n matrices (n <= 4) of small rationals: half with
    free entries, mostly indefinite, and half B·B^T plus a diagonal shift
    in {-1, 0, 1}, which are definite, singular semidefinite or indefinite."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        m = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(small_rationals)
        return m
    cols = draw(st.integers(1, 4))
    b = [draw(st.lists(small_rationals, min_size=cols, max_size=cols)) for _ in range(n)]
    shift = draw(st.integers(-1, 1))
    return [
        [sum(x * y for x, y in zip(b[i], b[j])) + (shift if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]


@given(symmetric_matrices())
@example([[1, 2], [2, 1]])  # indefinite with a positive diagonal
@example([[1, 1], [1, 1]])  # singular semidefinite
@example([[2, 1, 1], [1, 2, 1], [1, 1, 0]])  # last leading minor only
@example([[2, 2, 0], [2, 2, 0], [0, 0, 1]])  # zero minor mid-way
def test_lattice_rejects_exactly_what_ldl_rejects(gram):
    try:
        d, c = oracle_ldl(gram)
    except ValueError:
        with pytest.raises(ValueError, match="not positive definite"):
            Lattice(gram)
    else:
        Lattice(gram)
        # The levels agree: s·d_i = D[i]/D[i-1] and c_ij = B[i][j]/D[i].
        s, big_d, b = linalg.ldl(gram)
        assert [Q(x, y) for x, y in zip(big_d, [1] + big_d)] == [s * x for x in d]
        assert all(
            Q(b[i][j], big_d[i]) == c[i][j]
            for i in range(len(gram))
            for j in range(i + 1, len(gram))
        )


def test_lattice_definiteness_fixed_cases():
    a2_dual = Lattice([[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]])
    assert a2_dual.det() == Q(1, 3)
    assert not a2_dual.is_integral()
    empty = Lattice([])
    assert (empty.rank, empty.det(), empty.is_integral()) == (0, 1, True)
    # The last leading minor of 2·A_12 is its determinant, 2^12 · 13.
    assert linalg.ldl(int_mat(sqrt2_a(12).gram))[1][-1] == 2**12 * 13
    with pytest.raises(ValueError, match="not positive definite"):
        linalg.ldl([[1, 2], [2, 1]])


def test_rescale_and_sqrt2():
    a2 = root_lattice("A", 2)
    doubled = rescale(a2, 2)
    assert doubled.gram == mat([[4, -2], [-2, 4]])
    assert doubled.det() == 4 * a2.det()
    assert sqrt2_a(4).gram == rescale(root_lattice("A", 4), 2).gram
    with pytest.raises(ValueError):
        rescale(a2, 0)


def test_dual_and_double_dual():
    for lat in (root_lattice("A", 3), root_lattice("E", 6)):
        d = dual(lat)
        assert d.det() == 1 / lat.det()
        assert dual(d).gram == lat.gram


def test_lattice_inner_and_norm():
    a2 = root_lattice("A", 2)
    assert a2.norm((1, 0)) == 2
    assert a2.inner((1, 0), (0, 1)) == -1
    assert a2.norm((1, 1)) == 2


def test_inner_clears_only_its_two_coordinate_rows(monkeypatch):
    # The cached int Gram is not cleared again: clear_denominators sees
    # no matrix of more than one row, and the value is the exact sum.
    import parafusion.lattices as lattices_mod
    import parafusion.linalg as linalg_mod

    gram = tuple(tuple(e / 2 for e in row) for row in root_lattice("A", 4).gram)
    lat = Lattice(gram)
    x, y = (1, Q(1, 3), 0, -2), (Q(1, 2), 0, 3, 1)
    rows = []
    real = linalg_mod.clear_denominators

    def spy(m):
        rows.append(len(m))
        return real(m)

    monkeypatch.setattr(linalg_mod, "clear_denominators", spy)
    monkeypatch.setattr(lattices_mod, "clear_denominators", spy)
    value = lat.inner(x, y)
    assert rows and max(rows) == 1
    assert type(value) is Q
    assert value == sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))
    assert type(root_lattice("A", 2).inner((1, 0), (0, 1))) is Q


def test_sublattice_to_parent():
    a2 = root_lattice("A", 2)
    sub = sublattice(a2, [[1, 1]])
    assert sub.rank == 1
    assert sub.gram == mat([[2]])


def test_discriminant_groups():
    a4 = discriminant_group(root_lattice("A", 4))
    assert a4.invariant_factors == (5,)
    assert a4.order == 5
    assert a4.q_values == (2,)

    a2 = discriminant_group(root_lattice("A", 2))
    assert a2.invariant_factors == (3,)
    assert a2.q_values == (1,)

    e8 = discriminant_group(root_lattice("E", 8))
    assert e8.invariant_factors == ()
    assert e8.order == 1
    assert e8.exponent == 1

    d4 = discriminant_group(root_lattice("D", 4))
    assert d4.invariant_factors == (2, 2)
    assert d4.q_values is None  # even exponent: no canonical mod-2m value here

    a1 = discriminant_group(root_lattice("A", 1))
    assert a1.invariant_factors == (2,)
    assert a1.q_values is None


def test_discriminant_generators_lie_in_dual():
    for lat in (root_lattice("A", 4), root_lattice("E", 6), sqrt2_a(4)):
        grp = discriminant_group(lat)
        assert grp.order == lat.det()
        for g, d in zip(grp.generator_coords, grp.invariant_factors):
            # d*g must land in L
            scaled = tuple(d * e for e in g)
            assert all(c.denominator == 1 for c in scaled)
            # g pairs integrally with L (membership in L*)
            pair = [sum(gi * col for gi, col in zip(g, row)) for row in lat.gram]
            assert all(p.denominator == 1 for p in pair)


def test_annihilator_orthogonal_complement():
    a2 = root_lattice("A", 2)
    ann = annihilator(a2, [[1, 0]])
    assert len(ann) == 1
    assert a2.inner(ann[0], (1, 0)) == 0
    e8 = root_lattice("E", 8)
    ann = annihilator(e8, [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]])
    assert len(ann) == 6
    for row in ann:
        assert e8.inner(row, (1, 0, 0, 0, 0, 0, 0, 0)) == 0


def test_rssd_known_positive():
    a2 = root_lattice("A", 2)
    assert is_rssd(a2, [[1, 0]])
    t = rssd_involution(a2, [[1, 0]])
    assert t.matrix == mat([[-1, 0], [1, 1]])
    assert t.order() == 2
    assert t.apply((1, 0)) == (-1, 0)
    assert t.apply((1, 2)) == (1, 2)  # alpha1 + 2 alpha2 spans the annihilator


def test_rssd_known_negative():
    a2 = root_lattice("A", 2)
    assert not is_rssd(a2, [[3, 0]])
    with pytest.raises(ValueError):
        rssd_involution(a2, [[3, 0]])


def test_rssd_full_lattice_is_minus_one():
    a2 = root_lattice("A", 2)
    assert is_rssd(a2, identity(2))
    t = rssd_involution(a2, identity(2))
    assert t.matrix == mat([[-1, 0], [0, -1]])


def test_shells():
    a2 = root_lattice("A", 2)
    assert len(shell(a2, 2)) == 6
    assert len(shell(a2, 4)) == 0
    assert len(shell(a2, 6)) == 6
    assert shell(a2, 0) == [(0, 0)]
    with pytest.raises(ValueError):
        shell(a2, -2)
    e8 = root_lattice("E", 8)
    assert len(shell(e8, 2)) == 240
    assert shell(e8, 0) == [(0,) * 8]
    assert len(shell(sqrt2_a(4), 4)) == 20


def test_shell_maps_back_from_a_reduced_basis():
    # B = I with 3 on the superdiagonal skews E8 so that size reduction
    # changes the basis (U != I), and shell maps each vector back through U.
    b = [[int(i == j) + 3 * (j == i + 1) for j in range(8)] for i in range(8)]
    skewed = Lattice(mat_mul(mat_mul(b, root_lattice("E", 8).gram), transpose(b)))
    assert linalg.size_reduce_basis(skewed.gram)[1] != linalg.int_identity(8)
    vecs = shell(skewed, 2)
    assert len(vecs) == len(set(vecs)) == 240
    assert all(skewed.norm(v) == 2 for v in vecs)
    # The vectors and their order, as the enumerator gave them before the
    # identity transform was skipped.
    assert hashlib.sha256(repr(vecs).encode()).hexdigest() == (
        "e1212b42538493a74166bb9b657e9cbf2dad3823da9e33ea7b08e83c2d281962"
    )


def test_shell_negation_closed():
    lat = root_lattice("D", 4)
    vecs = shell(lat, 2)
    assert len(vecs) == 24
    got = set(vecs)
    assert got == {tuple(-e for e in v) for v in got}
    for v in vecs:
        assert lat.norm(v) == 2


def test_coset_minimum():
    a2 = root_lattice("A", 2)
    assert coset_min_norm(a2, (0, 0)) == 0
    # glue vector coset of A2: minimum 2/3
    assert coset_min_norm(a2, (Q(2, 3), Q(1, 3))) == Q(2, 3)
    assert coset_min_norm(a2, (Q(1, 3), Q(1, 3))) == Q(2, 9)


def test_coxeter_nu_properties():
    for k in range(3, 9):
        lat = sqrt2_a(k - 1)
        iso = Isometry(coxeter_nu(k), lat)
        assert iso.order() == k
        assert iso.is_fixed_point_free()
        assert iso.is_integral()
    with pytest.raises(ValueError):
        coxeter_nu(1)


def test_tau_normalizes_nu():
    k, s = 5, 2
    lat = sqrt2_a(k - 1)
    tau = Isometry(tau_isometry(k, s), lat)
    nu = Isometry(coxeter_nu(k), lat)
    assert tau.order() == 4
    # tau^{-1} nu tau = nu^{s^{-1}} with s^{-1} = 3 mod 5; under the row
    # convention the operator composite g∘f is the matrix product f*g.
    from parafusion.linalg import mat_inv, mat_pow

    tm, nm = mat(tau.matrix), mat(nu.matrix)
    lhs = mat_mul(mat_mul(tm, nm), mat_inv(tm))
    rhs = mat_pow(nm, 3)
    assert mat_eq(lhs, rhs)
    with pytest.raises(ValueError):
        tau_isometry(4, 2)


def test_quotient_invariants_one_minus_nu():
    expected = {3: (1, 3), 5: (1, 1, 1, 5), 8: (1, 1, 1, 1, 1, 1, 8)}
    for k in range(3, 9):
        lat = sqrt2_a(k - 1)
        s = mat_sub(identity(k - 1), mat(coxeter_nu(k)))
        inv = quotient_invariants(lat, s)
        prod = 1
        for f in inv:
            prod *= f
        assert prod == k
        if k in expected:
            assert inv == expected[k]
        dual_inv = dual_quotient_invariants(lat, s)
        prod = 1
        for f in dual_inv:
            prod *= f
        assert prod == k


def test_quotient_validation():
    a2 = root_lattice("A", 2)
    with pytest.raises(ValueError):
        quotient_invariants(a2, [[1, 0]])  # not full rank
    with pytest.raises(ValueError):
        quotient_invariants(a2, [[Q(1, 2), 0], [0, 1]])  # not integral


def test_weyl_vector_and_pairing_row():
    for k in range(3, 13):
        r = weyl_vector(k)
        lat = sqrt2_a(k - 1)
        for i in range(k - 1):
            basis_vec = tuple(1 if j == i else 0 for j in range(k - 1))
            assert lat.inner(r, basis_vec) == 2
        assert weyl_pairing_row(k) == tuple([0] * (k - 2) + [k])
        report = verify_weyl(k)
        assert report.passed
        assert report.dual_membership


def fraction_weyl(k):
    """The ``Fraction`` route to the Weyl vector and report: G^{-1} by
    ``mat_inv`` and the pairing row r·G·S^T / 2 by ``Fraction`` row products."""
    lat = sqrt2_a(k - 1)
    s = mat_sub(linalg.int_identity(k - 1), coxeter_nu(k))
    r = linalg.row_mul((2 * lat._scale,) * lat.rank, mat_inv(lat._int_gram))
    out = tuple(e / 2 for e in linalg.row_mul(linalg.row_mul(r, lat._int_gram), transpose(s)))
    assert all(e.denominator == 1 for e in out)
    row = tuple(int(e) for e in out)
    member = all(e % k == 0 for e in row)
    inv = dual_quotient_invariants(lat, s)
    passed = row == tuple([0] * (k - 2) + [k]) and member and math.prod(inv) == k
    return r, lattices_mod.WeylReport(k, passed, row, member, inv)


def test_weyl_matches_the_fraction_route():
    for k in range(3, 33):
        (r, report), got = fraction_weyl(k), verify_weyl(k)
        assert got == report and {type(x) for x in got.pairing_row} == {int}, k
        got = weyl_vector(k)
        assert got == r and {type(x) for x in got} == {Q}, k


def test_c_nu_radical_is_full_lattice():
    # the mod-2p form degenerates completely: (1-nu)L* contains L
    for k in (3, 5, 7, 9):  # p = 9 is odd, not prime
        lat = sqrt2_a(k - 1)
        rad = c_nu_radical(lat, coxeter_nu(k), k)
        assert mat_eq(mat(rad), identity(k - 1))
    for k in (3, 5, 7):
        lat = root_lattice("A", k - 1)
        rad = c_nu_radical(lat, coxeter_nu(k), k)
        assert mat_eq(mat(rad), identity(k - 1))


def test_c_nu_radical_validation():
    lat = sqrt2_a(4)
    nu = coxeter_nu(5)
    with pytest.raises(ValueError, match="p must be odd and >= 3, got 4"):
        c_nu_radical(lat, nu, 4)  # even p
    with pytest.raises(ValueError):
        c_nu_radical(lat, nu, 3)  # wrong order
    with pytest.raises(ValueError):
        c_nu_radical(lat, identity(4), 5)  # not fixed-point-free... order fails first


def test_r_cap_p_dual_index_cases():
    assert r_cap_p_dual_index(root_lattice("A", 4), 5) == 5
    assert r_cap_p_dual_index(root_lattice("E", 6), 3) == 3
    assert r_cap_p_dual_index(root_lattice("E", 8), 5) == 1
    with pytest.raises(ValueError):
        r_cap_p_dual_index(root_lattice("A", 4), 4)


def test_tensor_gram_and_det():
    a2 = root_lattice("A", 2)
    t = tensor(a2, a2)
    assert t.gram == mat(kron(a2.gram, a2.gram))
    assert t.det() == 81
    assert t.is_even()
    x = tensor_vector((1, 0), (0, 1))
    assert t.norm(x) == 4


def test_tensor_minimum_and_shell_counts():
    cases = [
        (root_lattice("A", 2), root_lattice("A", 2), 18),
        (root_lattice("A", 2), root_lattice("A", 3), 36),
        (root_lattice("A", 4), root_lattice("A", 2), 60),
    ]
    for a, b, count in cases:
        t = tensor(a, b)
        assert len(shell(t, 2)) == 0
        vecs = shell(t, 4)
        assert len(vecs) == count
        assert count == len(shell(a, 2)) * len(shell(b, 2)) // 2


def test_tensor_shell4_vectors_decompose():
    a = root_lattice("A", 2)
    b = root_lattice("A", 3)
    t = tensor(a, b)
    na, nb = a.rank, b.rank
    decomposables = set()
    for x in shell(a, 2):
        for y in shell(b, 2):
            decomposables.add(tensor_vector(x, y))
    got = {tuple(Q(e) for e in v) for v in shell(t, 4)}
    assert got == decomposables
    for v in got:
        # all 2x2 minors of the na-by-nb reshape vanish: rank one
        rows = [v[i * nb : (i + 1) * nb] for i in range(na)]
        for i1 in range(na):
            for i2 in range(i1 + 1, na):
                for j1 in range(nb):
                    for j2 in range(j1 + 1, nb):
                        assert (
                            rows[i1][j1] * rows[i2][j2]
                            - rows[i1][j2] * rows[i2][j1]
                            == 0
                        )


def test_tensor_reflection_identity():
    # the RSSD involution in A tensor beta is exactly 1 tensor r_beta
    a = root_lattice("A", 2)
    for r_lat in (root_lattice("A", 2), root_lattice("A", 3)):
        t = tensor(a, r_lat)
        for beta in shell(r_lat, 2):
            rows = [
                tensor_vector(tuple(1 if j == i else 0 for j in range(a.rank)), beta)
                for i in range(a.rank)
            ]
            t_inv = rssd_involution(t, rows)
            expected = kron(identity(a.rank), reflection(r_lat, beta).matrix)
            assert mat_eq(t_inv.matrix, mat(expected))


def test_reflection_validation():
    a2 = root_lattice("A", 2)
    with pytest.raises(ValueError):
        reflection(a2, (1, 1000))


def test_lattice_intersection_and_same():
    rows = lattice_intersection([[2, 0], [0, 1]], [[1, 0], [0, 3]])
    assert same_lattice(rows, [[2, 0], [0, 3]])
    assert same_lattice([[1, 0], [0, 1]], [[1, 0], [1, 1]])
    assert not same_lattice([[2, 0], [0, 1]], [[1, 0], [0, 1]])


def test_same_lattice_on_int_rows_builds_no_fraction(monkeypatch):
    a, b = [[2, 0], [1, 3]], [[1, 3], [1, -3]]
    with monkeypatch.context() as m:
        built = count_fractions(m)
        assert same_lattice(a, b)
        assert not same_lattice(a, [[1, 0], [0, 3]])
        assert built == []
    for convert in (Q, lambda x: f"{2 * x}/2"):
        rows = [[convert(x) for x in row] for row in a]
        assert same_lattice(rows, b)
        assert not same_lattice(rows, [[1, 0], [0, 3]])
    assert same_lattice([["1/2", 0], [0, 1]], [[Q(1, 2), 0], [Q(1, 2), 1]])


def test_isometry_validation():
    a2 = root_lattice("A", 2)
    with pytest.raises(ValueError):
        Isometry([[1, 0], [1, 1]], a2)  # does not preserve the form
    iso = Isometry([[0, 1], [1, 0]], a2)
    assert iso.order() == 2


def test_isometry_keeps_the_cleared_pair_and_a_fraction_view():
    a2, z2 = root_lattice("A", 2), Lattice([[1, 0], [0, 1]])
    rotation = [[Q(3, 5), Q(4, 5)], [Q(-4, 5), Q(3, 5)]]  # of infinite order
    cases = [
        ([[0, 1], [1, 0]], a2, 1),
        ([[Q(-1), Q(0)], [Q(1), Q(1)]], a2, 1),
        ([["0", "-1"], [1, 0]], z2, 1),
        (rotation, z2, 5),
    ]
    for m, lat, scale in cases:
        iso = Isometry(m, lat)
        assert iso.matrix == mat(m) and {type(x) for r in iso.matrix for x in r} == {Q}
        assert (iso._scale, iso.is_integral()) == (scale, scale == 1)
        assert iso.is_fixed_point_free() == (det(mat_sub(identity(2), mat(m))) != 0)
    assert Isometry(cases[2][0], z2).order() == 4
    assert Isometry(rotation, z2).apply((5, 0)) == (3, 4)
    with pytest.raises(ValueError, match="order exceeds cap 8"):
        Isometry(rotation, z2).order(cap=8)


def dual_quotient_by_gram(lat, s_rows):
    """S*/L* by its definition: S* has basis (G S^T)^{-1} and L* has basis
    G^{-1} in L's coordinates; the transition of L* over S* gives the SNF."""
    s = mat(s_rows)
    sub_dual = mat_inv(mat_mul(lat.gram, transpose(s)))
    trans = mat_mul(mat_inv(lat.gram), mat_inv(sub_dual))
    assert all(e.denominator == 1 for row in trans for e in row)
    return invariant_factors(int_mat(trans))


def test_dual_quotient_matches_the_gram_route():
    cases = []
    for k in range(3, 13):
        cases.append((sqrt2_a(k - 1), mat_sub(identity(k - 1), mat(coxeter_nu(k)))))
    tensor_cases = (
        (3, root_lattice("A", 2)),
        (3, root_lattice("E", 6)),
        (5, root_lattice("A", 2)),
    )
    for p, r_lat in tensor_cases:
        t = tensor(root_lattice("A", p - 1), r_lat)
        nu_t = kron(coxeter_nu(p), identity(r_lat.rank))
        cases.append((t, mat_sub(identity(t.rank), mat(nu_t))))
    a2_dual = dual(root_lattice("A", 2))
    cases.append((a2_dual, mat_sub(identity(2), mat(coxeter_nu(3)))))
    for lat, s in cases:
        assert dual_quotient_invariants(lat, s) == dual_quotient_by_gram(lat, s)


def test_dual_quotient_validation():
    a2 = root_lattice("A", 2)
    with pytest.raises(ValueError, match="square of full rank"):
        dual_quotient_invariants(a2, [[1, 0]])
    with pytest.raises(ValueError, match="non-integer"):
        dual_quotient_invariants(a2, [[Q(1, 2), 0], [0, 1]])


def rssd_cases():
    a2 = root_lattice("A", 2)
    cases = [
        (a2, [[1, 0]]),
        (a2, [[3, 0]]),
        (a2, identity(2)),
        (a2, [[1, 0], [2, 0]]),  # rank-deficient rows, RSSD span
        (a2, [[3, 0], [6, 0]]),  # rank-deficient rows, not RSSD
        (root_lattice("A", 3), [[1, 0, 0], [0, 0, 1]]),
    ]
    a = root_lattice("A", 2)
    for r_lat in (root_lattice("A", 2), root_lattice("A", 3)):
        t = tensor(a, r_lat)
        for beta in shell(r_lat, 2):
            rows = [
                tensor_vector(tuple(1 if j == i else 0 for j in range(a.rank)), beta)
                for i in range(a.rank)
            ]
            cases.append((t, rows))
    return cases


def test_is_rssd_agrees_with_rssd_involution():
    seen = set()
    for lat, rows in rssd_cases():
        try:
            rssd_involution(lat, rows)
            raised = False
        except ValueError as exc:
            assert "not RSSD" in str(exc)
            raised = True
        assert is_rssd(lat, rows) is not raised
        seen.add(raised)
    assert seen == {True, False}
    a2 = root_lattice("A", 2)
    for f in (is_rssd, rssd_involution):
        with pytest.raises(ValueError, match="non-integer"):
            f(a2, [[Q(1, 2), 0]])


def test_rssd_rejects_rows_of_the_wrong_width():
    a2 = root_lattice("A", 2)
    for f in (is_rssd, rssd_involution):
        for rows in ([[1, 2, 3]], [[1]], [[1, 0], [0, 1, 0]]):
            with pytest.raises(ValueError, match="width 2"):
                f(a2, rows)


def test_sublattice_rejects_rows_of_the_wrong_width():
    # Both used to return Gram [[2]], the extra or missing coordinates dropped.
    a2 = root_lattice("A", 2)
    for rows in ([[1, 0, 5]], [[1]], [[1, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="width 2"):
            sublattice(a2, rows)


def count_fractions(monkeypatch):
    """Record the arguments of every ``Fraction`` built from here on."""
    built = []
    real = Q.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counting)
    return built


def test_rssd_involution_builds_no_fraction_and_no_identity(monkeypatch):
    lat = root_lattice("E", 8)
    rows = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]]
    with monkeypatch.context() as m:
        for owner in (linalg, lattices_mod):
            m.setattr(owner, "identity", lambda n: pytest.fail("identity called"))
        built = count_fractions(m)
        t = rssd_involution(lat, rows)
        assert built == []
    assert mat_eq(mat_mul(t.matrix, t.matrix), identity(8))


def test_int_paths_make_no_type_scan(monkeypatch):
    from parafusion.central import lift, lift_order, standard_epsilon
    from parafusion.orbifold import derive_full_table

    lat = sqrt2_a(12)
    lf = lift(coxeter_nu(13), lat, standard_epsilon(lat))
    iso = Isometry(tau_isometry(13, 2), lat)
    e6 = root_lattice("E", 6)
    calls = count_calls(monkeypatch, [linalg], "_is_int_mat")
    assert lift_order(lf) == 13 and iso.order() == 12
    assert lat.preserves_form(tau_isometry(13, 5)) and iso.is_integral()
    assert discriminant_group(e6).q_values == (2,)
    assert derive_full_table(8).k == 8
    assert calls == []


def count_calls(monkeypatch, owners, name):
    """Replace ``name`` in each owner module by one counting wrapper."""
    calls = []
    real = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_rssd_involution_eliminations_do_not_grow_with_rank(monkeypatch):
    calls = count_calls(monkeypatch, [linalg], "_gauss_jordan")
    counts = []
    for n in (2, 8):
        lat = root_lattice("A", n)
        del calls[:]
        rssd_involution(lat, [[1] + [0] * (n - 1)])
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_sublattice_multiplies_twice(monkeypatch):
    calls = count_calls(monkeypatch, [lattices_mod], "int_mat_mul")
    sublattice(root_lattice("A", 3), [[1, 1, 0], [0, 1, 1]])
    assert len(calls) == 2


def test_discriminant_group_runs_one_snf(monkeypatch):
    calls = count_calls(monkeypatch, [lattices_mod, linalg], "snf")
    assert discriminant_group(root_lattice("E", 6)).invariant_factors == (3,)
    assert len(calls) == 1


def test_dual_quotient_takes_no_inverse(monkeypatch):
    calls = count_calls(monkeypatch, [lattices_mod, linalg], "mat_inv")
    s = mat_sub(identity(6), mat(coxeter_nu(7)))
    assert dual_quotient_invariants(sqrt2_a(6), s) == (1, 1, 1, 1, 1, 7)
    assert calls == []


@pytest.mark.parametrize(
    "gram",
    [
        [[2, -1], [-1, 2]],
        [[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]],
        [["2", "-1/2"], ["-1/2", "3/4"]],
        mat_inv([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
        [],
    ],
)
def test_the_fraction_gram_is_built_on_first_read(gram):
    lat = Lattice(gram)
    assert "gram" not in vars(lat)
    assert lat.gram == mat(gram)
    assert all(type(x) is Q for row in lat.gram for x in row)
    assert "gram" in vars(lat) and lat.gram is lat.gram


def test_shell_and_sublattice_never_build_a_fraction_gram():
    a2_dual = dual(root_lattice("A", 2))
    assert len(shell(a2_dual, Q(2, 3))) == 6
    sub = sublattice(a2_dual, [[1, 1], [Q(1, 2), 2]])
    assert all(sub.norm(v) == 2 for v in shell(sub, 2))
    for lat in (a2_dual, sub):
        assert "gram" not in vars(lat)


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[1, 2], [3, 4]], "gram matrix must be symmetric"),
        ([[Q(1, 2), 1], [Q(1, 3), 2]], "gram matrix must be symmetric"),
        ([[2, 1], [1]], "gram matrix must be symmetric"),
        ([[2], [1, 2]], "gram matrix must be symmetric"),
        ([[1, 2], [2, 1]], "gram matrix is not positive definite"),
        ([[Q(1, 2), 1], [1, Q(1, 2)]], "gram matrix is not positive definite"),
        ([[0, 0], [0, 0]], "gram matrix is not positive definite"),
    ],
)
def test_lattice_messages_are_unchanged(gram, message):
    with pytest.raises(ValueError) as info:
        Lattice(gram)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("entry", [Q(1, 2), "1/2", 0.5])
def test_non_integer_rows_are_named_through_fraction(entry):
    a2 = root_lattice("A", 2)
    for f in (annihilator, is_rssd, quotient_invariants, dual_quotient_invariants):
        with pytest.raises(ValueError) as info:
            f(a2, [[entry, 0], [0, 1]])
        assert str(info.value) == "sublattice has non-integer coordinate 1/2"


def test_sqrt2_a_validation():
    with pytest.raises(ValueError, match="n >= 1"):
        sqrt2_a(0)


# --- the int routes against the Fraction routes they replace ---
# Each oracle reads the public Fraction gram, as these routines once did.


def oracle_shell(lat, norm):
    norm = Q(norm)
    if lat.rank <= 4:
        return linalg.shell_vectors(lat.gram, norm)
    g2, u = linalg.size_reduce_basis(lat.gram)
    vecs = linalg.shell_vectors(g2, norm)
    if u == linalg.int_identity(lat.rank):
        return vecs
    cols = tuple(zip(*u))
    return [tuple(sum(a * b for a, b in zip(x, col)) for col in cols) for x in vecs]


def oracle_coset_min_norm(lat, shift):
    return linalg.coset_minimum(lat.gram, linalg.vec(shift))[0]


def oracle_sublattice(parent, rows):
    b = mat(rows)
    return Lattice(mat_mul(mat_mul(b, parent.gram), transpose(b)))


def oracle_dual(lat):
    return Lattice(mat_inv(lat.gram))


def oracle_rescale(lat, c):
    return Lattice(linalg.mat_scale(lat.gram, Q(c)))


def oracle_tensor(a, b):
    return Lattice(kron(a.gram, b.gram))


def typed(m):
    return [[(type(x), x) for x in row] for row in m]


def assert_same_lattice(got, want):
    """Equal cleared pairs and public grams, entry types included."""
    assert (type(got._scale), got._scale) == (type(want._scale), want._scale)
    assert typed(got._int_gram) == typed(want._int_gram)
    assert typed(got.gram) == typed(want.gram)


@st.composite
def rational_grams(draw, max_rank=6):
    """Positive-definite A·M·A/d for M = B·B^T + I (B in [-1, 1]) and A a
    diagonal of 1, 1/2 or 1/3: mixed denominators, most scales above 1."""
    n = draw(st.integers(1, max_rank))
    b = [draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)) for _ in range(n)]
    a = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=n, max_size=n))
    d = draw(st.sampled_from((1, 2, 3)))
    return [
        [Q(sum(x * y for x, y in zip(b[i], b[j])) + (i == j), d * a[i] * a[j])
         for j in range(n)]
        for i in range(n)
    ]


def rational_rows(n, count):
    return st.lists(
        st.lists(small_rationals, min_size=n, max_size=n), min_size=count, max_size=count
    )


@st.composite
def shell_cases(draw):
    """A Gram, a norm that may hit no vector, and a coset shift."""
    gram = draw(rational_grams())
    return gram, draw(small_rationals.map(abs)), draw(rational_rows(len(gram), 1))[0]


# Rank 6 at scale 3, skewed so that size reduction moves the basis (U != I).
SKEW = [[int(i == j) + 2 * (j == i + 1) for j in range(6)] for i in range(6)]
SKEWED_RANK_6 = linalg.mat_scale(
    mat_mul(mat_mul(SKEW, root_lattice("E", 6).gram), transpose(SKEW)), Q(1, 3)
)


@given(shell_cases())
@example((SKEWED_RANK_6, Q(2, 3), [Q(1, 2)] * 6))
def test_shell_and_coset_minimum_match_the_fraction_routes(case):
    gram, norm, shift = case
    lat = Lattice(gram)
    for t in sorted({Q(0), norm, min(lat.norm(e) for e in identity(lat.rank))}):
        got = shell(lat, t)
        assert got == oracle_shell(lat, t)
        assert {type(x) for v in got for x in v} <= {int}
    got = coset_min_norm(lat, shift)
    want = oracle_coset_min_norm(lat, shift)
    assert (type(got), got) == (type(want), want)


@given(rational_grams(), st.data())
def test_derived_lattices_match_the_fraction_routes(gram, data):
    lat = Lattice(gram)
    n = lat.rank
    assert_same_lattice(dual(lat), oracle_dual(lat))
    c = data.draw(small_rationals.filter(bool).map(abs), label="c")
    assert_same_lattice(rescale(lat, c), oracle_rescale(lat, c))
    other = Lattice(data.draw(rational_grams(max_rank=2), label="other"))
    assert_same_lattice(tensor(lat, other), oracle_tensor(lat, other))
    count = data.draw(st.integers(0, n), label="count")
    rows = data.draw(rational_rows(n, count), label="rows")
    try:
        want = oracle_sublattice(lat, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            sublattice(lat, rows)
        assert str(info.value) == str(exc)
    else:
        assert_same_lattice(sublattice(lat, rows), want)
