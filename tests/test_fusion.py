"""Level-k fusion ring: labels, products, gradings, weights."""
import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafusion.fusion import (
    FusionVector,
    IrrLabel,
    LevelMismatchError,
    _canonical,
    _fusion_rule,
    all_labels,
    canonical_label,
    conformal_weight,
    from_tilde,
    fuse,
    fuse_vectors,
    is_sigma_type,
    minimal_model_weight,
    sigma_type_index,
    simple_current,
    theta_dual,
    to_tilde,
    twisted_conformal_weight,
    untwisted_coset_weight,
    verify_associativity,
    verify_based_ring,
    verify_character,
    verify_weight_one_tops,
    verify_zk_grading,
)


def test_canonical_label_identification():
    k = 5
    for i in range(k + 1):
        for j in range(k):
            lab = canonical_label(i, j, k)
            assert 0 <= lab.j < lab.i <= k
            # the identified partner canonicalizes to the same class
            partner = canonical_label(k - i, (j - i) % k, k)
            assert lab == partner


def test_identity_label():
    for k in range(2, 9):
        e = canonical_label(0, 0, k)
        assert (e.i, e.j) == (k, 0)


def test_label_validation():
    with pytest.raises(ValueError):
        IrrLabel(1, 1, 5)  # j >= i
    with pytest.raises(ValueError):
        IrrLabel(6, 0, 5)
    with pytest.raises(ValueError):
        canonical_label(7, 0, 5)
    with pytest.raises(ValueError):
        canonical_label(1, 0, 1)


def test_all_labels_count():
    for k in range(2, 10):
        labels = all_labels(k)
        assert len(labels) == k * (k + 1) // 2
        assert len(set(labels)) == len(labels)
        assert labels == sorted(labels)


def oracle_fuse(a, b):
    """Test oracle: the fusion rule with every candidate r, each term built
    by canonical_label and merged and ordered by FusionVector.from_pairs."""
    if a.k != b.k:
        raise LevelMismatchError(f"levels differ: {a.k} vs {b.k}")
    k = a.k
    s = 2 * a.j - a.i + 2 * b.j - b.i
    pairs = []
    for r in range(abs(a.i - b.i), min(a.i + b.i, 2 * k - a.i - b.i) + 1):
        if (a.i + b.i + r) % 2 == 0:
            pairs.append((canonical_label(r, (s + r) // 2, k), 1))
    return FusionVector.from_pairs(pairs)


def test_fuse_matches_oracle_on_every_pair():
    for k in range(2, 17):
        labels = all_labels(k)
        shared = {x: x for x in labels}
        for x in labels:
            for y in labels:
                got = fuse(x, y)
                assert got.terms == oracle_fuse(x, y).terms, (x, y)
                reprs = [repr(z) for z, _ in got]
                assert reprs == sorted(reprs)
                # fuse and all_labels hand out the same label objects
                assert all(shared[z] is z for z, _ in got), (x, y)


@settings(max_examples=200)
@given(st.data())
def test_fuse_matches_oracle_at_random_levels(data):
    def label(k):
        i = data.draw(st.integers(1, k))
        return IrrLabel(i, data.draw(st.integers(0, i - 1)), k)

    k = data.draw(st.integers(2, 200), label="k")
    a, b = label(k), label(k)
    assert fuse(a, b).terms == oracle_fuse(a, b).terms


def test_label_cache_fills_on_demand():
    # A table of every label at this level would hold 5 * 10^9 entries;
    # fuse may add only the labels it returns.
    k = 100_001
    a, b = canonical_label(70, 3, k), canonical_label(9, 5, k)
    before = _canonical.cache_info().currsize
    out = fuse(a, b)
    assert len(out) == 10
    assert _canonical.cache_info().currsize - before <= len(out)
    again = fuse(b, a)
    assert again == out
    assert all(x is y for (x, _), (y, _) in zip(again, out))
    assert _canonical.cache_info().currsize - before <= len(out)


def test_fuse_runs_the_rule_once_per_cell(monkeypatch):
    import parafusion.fusion as fusion_mod

    k = 7
    calls = []

    def counting_rule(i1, i2, c, k):
        calls.append((i1, i2, c, k))
        return _fusion_rule(i1, i2, c, k)

    monkeypatch.setattr(fusion_mod, "_fusion_rule", counting_rule)
    fusion_mod._fuse_cell.cache_clear()
    labels = all_labels(k)
    first = {}
    for _ in range(2):
        for x in labels:
            for y in labels:
                cell = (x.i, y.i, (x.j + y.j) % k)
                got = fuse(x, y)
                # Pairs in one cell share one vector, whose terms are the
                # tuples _canonical holds for their labels.
                assert first.setdefault(cell, got) is got, (x, y)
                assert all(t is _canonical(t[0].i, t[0].j, k)[2] for t in got.terms)
    assert sorted(calls) == sorted((i1, i2, c, k) for i1, i2, c in first)
    with pytest.raises(LevelMismatchError):
        fuse(canonical_label(1, 0, 5), canonical_label(1, 0, 6))
    assert len(calls) == len(first)


def test_fuse_known_example():
    a = canonical_label(1, 0, 5)
    got = fuse(a, a).as_dict()
    assert got == {
        canonical_label(5, 4, 5): 1,
        canonical_label(2, 0, 5): 1,
    }


def test_fuse_identity_and_commutativity():
    for k in (2, 3, 4, 5):
        e = canonical_label(0, 0, k)
        for x in all_labels(k):
            assert fuse(e, x).as_dict() == {x: 1}
            for y in all_labels(k):
                assert fuse(x, y) == fuse(y, x)


def test_fuse_associativity_small_levels():
    for k in (2, 3, 4):
        labels = all_labels(k)
        single = {x: FusionVector.from_pairs([(x, 1)]) for x in labels}
        for x, y, z in combinations_with_replacement(labels, 3):
            left = fuse_vectors(fuse(x, y), single[z])
            right = fuse_vectors(single[x], fuse(y, z))
            assert left == right, (k, x, y, z)


def test_light_test_computes_each_generator_product_once():
    k = 10
    labels = all_labels(k)
    gens = (canonical_label(1, 0, k), simple_current(1, k))
    calls = 0

    def counting_fuse(a, b):
        nonlocal calls
        calls += 1
        return fuse(a, b)

    assert verify_associativity(labels, counting_fuse, gens).passed
    # x·g and g·y once each per generator; then one call per term of x·g
    # against y and per term of g·y against x. The span certificate reuses
    # the x·g products and makes no call.
    n = len(labels)
    expected = 2 * len(gens) * n + 2 * n * sum(
        len(fuse(x, g)) for g in gens for x in labels
    )
    assert calls == expected == 17_270


def test_simple_current_alone_spans_only_its_orbit():
    for k in range(2, 7):
        labels = all_labels(k)
        report = verify_associativity(labels, fuse, [simple_current(1, k)])
        assert report.failures == (("generators_span", k, len(labels)),), k


@settings(max_examples=40)
@given(st.data())
def test_light_test_passes_only_associative_products(data):
    # Add one term to a symmetric pair of cells of the level-k ring. Light's
    # test is a proof, so it may pass only where all triples associate.
    k = data.draw(st.integers(3, 4), label="k")
    labels = all_labels(k)
    x, y, bump = (data.draw(st.sampled_from(labels)) for _ in range(3))

    def product(a, b):
        out = fuse(a, b)
        return out + FusionVector(((bump, 1),)) if {a, b} == {x, y} else out

    single = {lab: FusionVector(((lab, 1),)) for lab in labels}
    associative = all(
        fuse_vectors(product(a, b), single[c], product)
        == fuse_vectors(single[a], product(b, c), product)
        for a in labels for b in labels for c in labels
    )
    gens = (canonical_label(1, 0, k), simple_current(1, k))
    report = verify_associativity(labels, product, gens)
    assert associative or not report.passed


def test_fuse_multiplicity_free():
    for k in (2, 3, 5, 6):
        for x in all_labels(k):
            for y in all_labels(k):
                assert all(m == 1 for _, m in fuse(x, y))


def test_level_mismatch():
    levels = [((1, 0, 5), (1, 0, 6)), ((3, 1, 9), (1, 0, 8)), ((2, 0, 4), (2, 0, 40))]
    for a, b in levels:
        with pytest.raises(LevelMismatchError):
            fuse(canonical_label(*a), canonical_label(*b))
        with pytest.raises(LevelMismatchError):
            fuse(canonical_label(*b), canonical_label(*a))


def test_simple_current_action():
    for k in (3, 5, 8):
        for p in range(k):
            cur = simple_current(p, k)
            for x in all_labels(k):
                out = fuse(cur, x)
                assert len(out.as_dict()) == 1
                (lab, m), = out
                assert m == 1
                assert lab == canonical_label(x.i, x.j + p, k)
        # the currents form a cyclic group of order k
        assert simple_current(0, k) == canonical_label(0, 0, k)


def test_theta_dual_involution_and_sigma_fixed_points():
    for k in (3, 4, 5, 7):
        for x in all_labels(k):
            assert theta_dual(theta_dual(x)) == x
        for x in all_labels(k):
            if is_sigma_type(x):
                assert theta_dual(x) == x


def test_theta_dual_is_ring_automorphism():
    k = 5
    for x in all_labels(k):
        for y in all_labels(k):
            direct = fuse(theta_dual(x), theta_dual(y))
            mapped = FusionVector.from_pairs(
                [(theta_dual(z), m) for z, m in fuse(x, y)]
            )
            assert direct == mapped


def test_tilde_round_trip():
    for k in (3, 4, 5, 8):
        for x in all_labels(k):
            t = to_tilde(x)
            assert (t.i - t.l) % 2 == 0
            assert from_tilde(t) == x


def test_tilde_grading_additive():
    k = 6
    for x in all_labels(k):
        for y in all_labels(k):
            lx, ly = to_tilde(x).l, to_tilde(y).l
            for z, _ in fuse(x, y):
                assert to_tilde(z).l % k == (lx + ly) % k


def test_sigma_type_enumeration():
    for k in (3, 4, 5, 8):
        sigmas = [x for x in all_labels(k) if is_sigma_type(x)]
        assert len(sigmas) == k // 2 + 1
        expected = {canonical_label(2 * j, j, k) for j in range(k // 2 + 1)}
        assert set(sigmas) == expected
        indices = sorted(sigma_type_index(x) for x in sigmas)
        assert indices == list(range(k // 2 + 1))
        assert sigma_type_index(canonical_label(0, 0, k)) == 0
    with pytest.raises(ValueError):
        sigma_type_index(canonical_label(1, 0, 5))


def test_sigma_type_closed_forms_match_scan():
    # Oracle: label is sigma-type iff it equals canonical (2j, j) for some
    # j <= floor(k/2), and that j is its index.
    for k in range(2, 41):
        scan = {canonical_label(2 * j, j, k): j for j in range(k // 2 + 1)}
        for x in all_labels(k):
            assert is_sigma_type(x) == (x in scan), x
            if x in scan:
                assert sigma_type_index(x) == scan[x], x
            else:
                with pytest.raises(ValueError):
                    sigma_type_index(x)


def test_conformal_weight_values():
    assert conformal_weight(canonical_label(2, 1, 5)) == Q(2, 7)
    assert conformal_weight(canonical_label(2, 0, 5)) == Q(3, 35)
    for k in range(2, 12):
        assert conformal_weight(canonical_label(0, 0, k)) == 0
        for i in range(k + 1):
            assert conformal_weight(canonical_label(i, 0, k)) == Q(
                i * (k - i), 2 * k * (k + 2)
            )
        if k >= 2:
            assert conformal_weight(canonical_label(2, 1, k)) == Q(2, k + 2)


def test_conformal_weight_well_defined_on_classes():
    # both presentations of each class must give the same weight
    for k in (3, 5, 8):
        for i in range(k + 1):
            for j in range(k):
                lab = canonical_label(i, j, k)
                assert conformal_weight(lab) >= 0


def test_minimal_model_weights_known():
    assert minimal_model_weight(1, 1, 3) == Q(1, 2)
    assert minimal_model_weight(1, 2, 2) == Q(1, 16)
    assert minimal_model_weight(2, 1, 3) == Q(3, 5)
    assert minimal_model_weight(3, 3, 3) == Q(1, 15)
    with pytest.raises(ValueError):
        minimal_model_weight(2, 0, 1)
    with pytest.raises(ValueError):
        minimal_model_weight(2, 1, 5)


def test_twisted_weights():
    assert twisted_conformal_weight(3) == Q(1, 9)
    assert twisted_conformal_weight(5) == Q(1, 5)
    for p in (3, 5, 7, 9, 11):
        assert twisted_conformal_weight(p) == Q((p - 1) * (p + 1), 24 * p)


def test_untwisted_coset_weights():
    assert untwisted_coset_weight(1, 5) == Q(4, 5)
    assert untwisted_coset_weight(2, 5) == Q(6, 5)
    assert untwisted_coset_weight(0, 3) == 0


def test_zk_grading_passes():
    for k in range(2, 10):
        report = verify_zk_grading(k)
        assert report.passed, report.failures[:3]


def test_zk_grading_rejects_levels_below_two():
    for k in (0, 1):
        with pytest.raises(ValueError, match="level must be >= 2"):
            verify_zk_grading(k)


def test_zk_grading_catches_mutation():
    k = 5

    def mutant(i1, i2, c, level):
        out = _fusion_rule(i1, i2, c, level)
        if (i1, i2, c) == (1, 2, 0):
            (i, j), *rest = out
            bad = canonical_label(i, j + 1, level)
            return [(bad.i, bad.j)] + rest
        return out

    report = verify_zk_grading(k, rule=mutant)
    assert not report.passed
    (cell, term, grade, expected), = report.failures
    (i, j), *_ = _fusion_rule(1, 2, 0, k)
    assert cell == (1, 2, 0)
    assert term == canonical_label(i, j + 1, k)
    assert (grade - expected) % k == k - 2


def test_weight_one_tops_small():
    for k in range(3, 12):
        report = verify_weight_one_tops(k)
        assert report.passed
        assert all(total == 1 for _, total in report.sums)


def test_fusion_vector_algebra():
    k = 5
    x = canonical_label(1, 0, k)
    v = fuse(x, x)
    w = v + v
    assert w.total() == 2 * v.total()
    assert w[canonical_label(2, 0, k)] == 2
    assert v[canonical_label(3, 0, k)] == 0
    with pytest.raises(ValueError):
        FusionVector.from_pairs([(x, -1)])


# The group ring of Z/3 on indices 0, 1, 2: x·y = (x + y) mod 3.
Z3 = [[(((x + y) % 3, 1),) for y in range(3)] for x in range(3)]


def test_based_ring_check_reports_by_index():
    assert verify_based_ring(Z3, 3, (1,)).passed
    assert verify_based_ring(Z3, 3, (0,)).failures == (("generators_span", 1, 3),)
    cells = [list(row) for row in Z3]
    cells[1][2] = ((0, -1),)  # negative, and no longer equal to cells[2][1]
    cells[0][2] = ((1, 1), (2, 1))  # not the unit row
    failures = verify_based_ring(cells, 3, (1,)).failures
    assert failures[:6] == (
        ("identity", 2),
        ("symmetry", 0, 2),
        ("nonnegativity", 1, 2),
        ("symmetry", 1, 2),
        ("symmetry", 2, 0),
        ("symmetry", 2, 1),
    )
    assert {f[0] for f in failures[6:]} == {"associativity"}


def test_character_check_reports_by_index():
    # Z/3 has no sign character but the trivial one: with chi(1) = -1,
    # 1·2 = 2·1 = 0 and 2·2 = 1 break it.
    assert verify_character(Z3, (1, 1, 1)).passed
    assert verify_character(Z3, (1, -1, 1)).failures == (
        ("sign_grading", 1, 2, 0), ("sign_grading", 2, 1, 0), ("sign_grading", 2, 2, 1),
    )


@pytest.mark.parametrize("cells", [
    Z3[:2],  # a row missing
    [row[:2] for row in Z3],  # a column missing
    [Z3[0], Z3[1], (((3, 1),), ((0, 1),), ((1, 1),))],  # a term past the basis
    [Z3[0], Z3[1], (((-1, 1),), ((0, 1),), ((1, 1),))],  # a negative index
])
def test_malformed_cells_are_a_value_error(cells):
    shape = r"expected 3 x 3 cells with term indices in range\(3\)"
    with pytest.raises(ValueError, match=shape):
        verify_based_ring(cells, 3, (1,))
    with pytest.raises(ValueError, match="expected 3 x 3"):
        verify_character(cells, (1, 1, 1))
