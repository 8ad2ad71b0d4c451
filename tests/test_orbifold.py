"""Orbifold ring: basis, weights, seeded products, derived tables."""
from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest

from parafusion.fusion import (
    FusionVector,
    canonical_label,
    conformal_weight,
    fuse_vectors,
    verify_associativity,
)
from parafusion.linalg import int_identity, mat_mul, mat_sub, transpose
from parafusion.orbifold import (
    OrbifoldTable,
    OrbLabel,
    derive_full_table,
    generator_fuse,
    orbifold_basis,
    orbifold_weight,
    sign_character,
    verify_collapse,
    verify_sigma_grading,
    verify_table,
)


def table_from_products(k, products):
    """An OrbifoldTable whose cells hold the label products ``products``."""
    basis = orbifold_basis(k)
    return OrbifoldTable(k, [
        [tuple(sorted((2 * z.j + z.eps, m) for z, m in products[x, y])) for y in basis]
        for x in basis
    ])


def test_basis_size_and_validation():
    for k in range(3, 10):
        basis = orbifold_basis(k)
        assert len(basis) == 2 * (k // 2 + 1)
        assert len(set(basis)) == len(basis)
        for x in basis:
            assert x.eps in (0, 1)
            assert 0 <= x.j <= k // 2
    with pytest.raises(ValueError):
        OrbLabel(3, 0, 5)  # j beyond floor(k/2)
    with pytest.raises(ValueError):
        OrbLabel(1, 2, 5)  # eps not 0/1


def test_orbifold_weight_offsets():
    for k in (3, 4, 5, 8):
        for x in orbifold_basis(k):
            base = conformal_weight(canonical_label(2 * x.j, x.j, k))
            got = orbifold_weight(x)
            if x.eps == 0:
                assert got == base
            elif x.j == 0:
                assert got == base + 3
            elif k % 2 == 0 and x.j == k // 2:
                assert got == base + 2
            else:
                assert got == base + 1


def test_weight_known_values():
    assert orbifold_weight(OrbLabel(0, 0, 5)) == 0
    assert orbifold_weight(OrbLabel(0, 1, 5)) == 3
    assert orbifold_weight(OrbLabel(1, 0, 5)) == Q(2, 7)
    assert orbifold_weight(OrbLabel(1, 1, 5)) == Q(2, 7) + 1
    assert orbifold_weight(OrbLabel(2, 1, 4)) == orbifold_weight(OrbLabel(2, 0, 4)) + 2


def test_sign_character():
    for k in (3, 4, 5):
        for x in orbifold_basis(k):
            assert sign_character(x) == (-1) ** (x.j + x.eps)


def test_generator_fuse_interior():
    k = 5
    gen = OrbLabel(1, 0, k)
    got = generator_fuse(gen, OrbLabel(1, 0, k)).as_dict()
    assert got == {OrbLabel(0, 0, k): 1, OrbLabel(1, 1, k): 1, OrbLabel(2, 0, k): 1}
    # the eps = 1 partner shifts every output sign
    got = generator_fuse(gen, OrbLabel(1, 1, k)).as_dict()
    assert got == {OrbLabel(0, 1, k): 1, OrbLabel(1, 0, k): 1, OrbLabel(2, 1, k): 1}


def test_generator_fuse_identity_and_bottom():
    k = 5
    gen = OrbLabel(1, 0, k)
    assert generator_fuse(gen, OrbLabel(0, 0, k)).as_dict() == {gen: 1}
    assert generator_fuse(gen, OrbLabel(0, 1, k)).as_dict() == {OrbLabel(1, 1, k): 1}
    # the sign generator (0,1) toggles eps everywhere
    sign = OrbLabel(0, 1, k)
    for x in orbifold_basis(k):
        assert generator_fuse(sign, x).as_dict() == {OrbLabel(x.j, 1 - x.eps, k): 1}


def test_generator_fuse_boundary():
    # odd level: the top-j row has two terms
    k = 5
    gen = OrbLabel(1, 0, k)
    got = generator_fuse(gen, OrbLabel(2, 0, k)).as_dict()
    assert got == {OrbLabel(1, 0, k): 1, OrbLabel(2, 1, k): 1}
    # even level: the top-j row has a single term
    k = 4
    gen = OrbLabel(1, 0, k)
    got = generator_fuse(gen, OrbLabel(2, 0, k)).as_dict()
    assert got == {OrbLabel(1, 0, k): 1}
    got = generator_fuse(gen, OrbLabel(2, 1, k)).as_dict()
    assert got == {OrbLabel(1, 1, k): 1}


def test_derived_tables_verify():
    for k in range(3, 9):
        table = derive_full_table(k)
        report = verify_table(table)
        assert report.passed, (k, report.failures[:3])
        grading = verify_sigma_grading(table)
        assert grading.passed, (k, grading.failures[:3])


def test_collapse_matches_parent_ring():
    for k in range(3, 9):
        table = derive_full_table(k)
        report = verify_collapse(table)
        assert report.passed, (k, report.failures[:3])


def test_collapse_catches_a_cell_moved_in_j():
    # The collapse sums eps away, so the mutation moves a term in j:
    # W[1,0] * W[1,0] = W[0,0] + W[1,1] + W[2,0] loses W[2,0] to W[1,0].
    k = 5
    table = derive_full_table(k)
    products = {(x, y): table.product(x, y) for x in table.basis for y in table.basis}
    x = OrbLabel(1, 0, k)
    products[(x, x)] = FusionVector.from_pairs(
        [(OrbLabel(0, 0, k), 1), (OrbLabel(1, 1, k), 1), (OrbLabel(1, 0, k), 1)]
    )
    broken = table_from_products(k, products)

    def eps_sum(t):
        return t.product(x, OrbLabel(1, 0, k)) + t.product(x, OrbLabel(1, 1, k))

    expected = ("collapse", x, 1, eps_sum(broken), eps_sum(table).as_dict())
    assert table.product(x, x) != products[(x, x)]
    assert verify_collapse(broken).failures == (expected,)


def test_k3_corrected_cell():
    # associativity forces a two-term product here
    table = derive_full_table(3)
    got = table.product(OrbLabel(1, 0, 3), OrbLabel(1, 1, 3))
    assert dict(got) == {OrbLabel(0, 1, 3): 1, OrbLabel(1, 0, 3): 1}


def test_table_symmetry_and_identity_rows():
    k = 6
    table = derive_full_table(k)
    e = OrbLabel(0, 0, k)
    for x in table.basis:
        assert dict(table.product(e, x)) == {x: 1}
        for y in table.basis:
            assert table.product(x, y) == table.product(y, x)


def test_sign_grading_holds_throughout():
    for k in (3, 4, 5, 6):
        table = derive_full_table(k)
        for x in table.basis:
            for y in table.basis:
                for z, m in table.product(x, y):
                    if m:
                        assert sign_character(x) * sign_character(y) == sign_character(z)


def test_sign_violation_reported_by_both_verifiers():
    k = 5
    table = derive_full_table(k)
    products = {(x, y): table.product(x, y) for x in table.basis for y in table.basis}
    x, y = OrbLabel(1, 0, k), OrbLabel(0, 0, k)
    products[(x, y)] = FusionVector.from_pairs([(OrbLabel(1, 1, k), 1)])
    broken = table_from_products(k, products)
    expected = ("sign_grading", x, y, OrbLabel(1, 1, k))
    assert verify_sigma_grading(broken).failures == (expected,)
    report = verify_table(broken)
    assert not report.passed
    assert expected in report.failures


def all_triples_associativity(table):
    """Test oracle: yield every basis triple (x, y, z) with (x·y)·z != x·(y·z)."""
    single = {lab: FusionVector.from_pairs([(lab, 1)]) for lab in table.basis}
    for x in table.basis:
        for y in table.basis:
            xy = table.product(x, y)
            for z in table.basis:
                left = fuse_vectors(xy, single[z], table.product)
                right = fuse_vectors(single[x], table.product(y, z), table.product)
                if left != right:
                    yield x, y, z


def associativity_failures(report):
    return [f for f in report.failures if f[0] == "associativity"]


def test_light_test_agrees_with_all_triples_oracle():
    for k in range(3, 9):
        table = derive_full_table(k)
        assert list(all_triples_associativity(table)) == [], k
        assert associativity_failures(verify_table(table)) == [], k


def bump_cell(table, x, y):
    """The table with 1 added to the first term of both cells (x, y), (y, x)."""
    products = {(a, b): table.product(a, b) for a in table.basis for b in table.basis}
    first, _ = products[(x, y)].terms[0]
    products[(x, y)] = products[(y, x)] = products[(x, y)] + FusionVector(((first, 1),))
    return table_from_products(table.k, products)


def test_light_test_catches_every_mutated_cell_off_the_generators():
    # No mutated cell involves W[0,0] or a generator, so the generator test
    # can only see it through the products x·g and g·y.
    k = 8
    table = derive_full_table(k)
    gens = {OrbLabel(0, 1, k), OrbLabel(1, 0, k)}
    cells = [
        (x, y)
        for x, y in combinations_with_replacement(table.basis, 2)
        if not {x, y} & (gens | {OrbLabel(0, 0, k)})
    ]
    assert len(cells) == 28
    for x, y in cells:
        broken = bump_cell(table, x, y)
        report = verify_table(broken)
        assert report.failures, (x, y)
        assert report.failures == tuple(associativity_failures(report)), (x, y)
        assert all(g in gens for _, _, g, _ in report.failures)
        assert next(all_triples_associativity(broken), None) is not None, (x, y)


def test_one_generator_does_not_span():
    k = 8
    table = derive_full_table(k)
    report = verify_associativity(table.basis, table.product, [OrbLabel(0, 1, k)])
    # W[0,1] reaches only itself and W[0,1]·W[0,1] = W[0,0]
    assert report.failures == (("generators_span", 2, len(table.basis)),)


def test_derived_tables_and_collapse_up_to_level_32():
    for k in [*range(3, 25), 32]:
        table = derive_full_table(k)  # raises unless verify_table passes
        report = verify_collapse(table)
        assert report.passed, (k, report.failures[:3])


def dense_derivation(k):
    """Test oracle: derive_full_table's operator recursion with dense
    linalg.mat_mul products, as the products of an OrbifoldTable."""
    basis = orbifold_basis(k)
    idx = {lab: t for t, lab in enumerate(basis)}

    def operator(gen):
        m = [[0] * len(basis) for _ in basis]
        for y in basis:
            for z, mult in generator_fuse(gen, y):
                m[idx[z]][idx[y]] = mult
        return m

    a1, a2 = operator(OrbLabel(0, 1, k)), operator(OrbLabel(1, 0, k))
    ops = {(0, 0): int_identity(len(basis)), (0, 1): a1, (1, 0): a2, (1, 1): mat_mul(a1, a2)}
    for j in range(1, k // 2):
        nxt = mat_sub(
            mat_sub(mat_mul(a2, ops[j, 0]), ops[j - 1, 0]), mat_mul(a1, ops[j, 0])
        )
        ops[j + 1, 0], ops[j + 1, 1] = nxt, mat_mul(a1, nxt)
    return {
        (x, y): FusionVector.from_pairs(zip(basis, column))
        for x in basis
        for y, column in zip(basis, transpose(ops[x.j, x.eps]))
    }


def test_sparse_derivation_matches_dense_recursion():
    for k in range(3, 25):
        table = derive_full_table(k)
        got = {(x, y): table.product(x, y) for x in table.basis for y in table.basis}
        assert got == dense_derivation(k), k


def with_cell(table, x, y, cell):
    """The table with the single cell x·y replaced by the index terms ``cell``."""
    cells = [list(row) for row in table.cells]
    cells[2 * x.j + x.eps][2 * y.j + y.eps] = cell
    return OrbifoldTable(table.k, cells)


def test_ring_failure_kinds_name_labels():
    k = 5
    table = derive_full_table(k)
    w10, w11, w20, w21 = (OrbLabel(j, e, k) for j, e in ((1, 0), (1, 1), (2, 0), (2, 1)))
    # W[2,0]·W[2,0] = W[0,0] + W[1,1], here with W[1,1] made negative.
    assert table.cells[4][4] == ((0, 1), (3, 1))
    cases = [
        (with_cell(table, w20, w20, ((0, 1), (3, -1))), "nonnegativity",
         [("nonnegativity", w20, w20)]),
        (with_cell(table, w11, w21, table.cells[4][4]), "symmetry",
         [("symmetry", w11, w21), ("symmetry", w21, w11)]),
        (with_cell(table, OrbLabel(0, 0, k), w10, ((2, 2),)), "identity", [("identity", w10)]),
    ]
    for broken, kind, expected in cases:
        report = verify_table(broken)
        assert [f for f in report.failures if f[0] == kind] == expected, kind


def test_malformed_table_is_a_value_error():
    k = 4
    cells = [list(row) for row in derive_full_table(k).cells]
    cells[3][2] = ((99, 1),)
    for verify in (verify_table, verify_sigma_grading):
        with pytest.raises(ValueError, match="expected 6 x 6 cells"):
            verify(OrbifoldTable(k, cells))
    with pytest.raises(ValueError, match="expected 6 x 6 cells"):
        verify_table(OrbifoldTable(k, derive_full_table(k).cells[:-1]))
