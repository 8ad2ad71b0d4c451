"""Orbifold ring: basis, weights, seeded products, derived tables."""
from fractions import Fraction as Q

import pytest

from parafusion.fusion import FusionVector, canonical_label, conformal_weight
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
        report = verify_collapse(k, table)
        assert report.passed, (k, report.failures[:3])


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
    broken = OrbifoldTable(k, products)
    expected = ("sign_grading", x, y, OrbLabel(1, 1, k))
    assert verify_sigma_grading(broken).failures == (expected,)
    report = verify_table(broken)
    assert not report.passed
    assert expected in report.failures
