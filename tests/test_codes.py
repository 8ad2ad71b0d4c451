"""Code-to-lattice gluing: the p=5, d=4 case study and its invariants."""
from fractions import Fraction as Q

import pytest

from parafusion.codes import (
    Code,
    build_ee8_pair,
    build_lattice,
    builtin_code,
    classify_weight4,
    classify_word,
    code_properties,
    codeword_weight,
    glue_form_report,
    k_inner,
    k_quadratic,
    load_code,
    nu_in_lattice,
    nu_orbit_sublattice,
    one_minus_nu_dual_equals_lattice,
    orbit_classification,
    shell4_count_by_cosets,
    span,
)
from parafusion.lattices import Isometry, rescale, root_lattice, shell, sublattice
from parafusion.linalg import det, mat


def test_k_inner_and_quadratic_small():
    # p=3 blocks have length 2 and Cartan [[2,-1],[-1,2]]
    assert k_inner((1, 0), (0, 1), 3) == 1
    assert k_inner((1, 0), (1, 0), 3) == 0
    assert k_quadratic((1, 0), 3) == 1
    assert k_quadratic((1, 1), 3) == 1
    assert k_quadratic((0, 0), 3) == 0
    with pytest.raises(ValueError):
        k_inner((1, 0, 0), (0, 1, 0), 3)


def test_quadratic_polarizes_to_inner():
    for p in (3, 5):
        n = p - 1
        vecs = [tuple((w >> i) & 1 for i in range(n)) for w in range(1 << n)]
        for u in vecs:
            for v in vecs:
                s = tuple((a + b) % 2 for a, b in zip(u, v))
                assert (
                    k_quadratic(s, p) + k_quadratic(u, p) + k_quadratic(v, p)
                ) % 2 == k_inner(u, v, p)


def test_code_validation():
    with pytest.raises(ValueError):
        Code(p=4, d=2, generators=())
    with pytest.raises(ValueError):
        Code(p=5, d=0, generators=())
    with pytest.raises(ValueError):
        Code(p=5, d=2, generators=((1, 0, 0),))  # wrong length
    with pytest.raises(ValueError):
        load_code({"p": 5, "d": 4})  # missing generators


def test_builtin_requires_known_name():
    with pytest.raises(ValueError):
        builtin_code("9Z")


def test_case_study_code_report():
    code = builtin_code("5B")
    rep = code_properties(code)
    assert rep.size == 256
    assert rep.dimension == 8
    assert rep.self_orthogonal
    assert rep.self_dual
    assert rep.totally_isotropic
    assert rep.nu_invariant
    assert rep.weight_distribution == ((0, 1), (4, 130), (6, 120), (8, 5))


def test_zero_word_weight():
    code = builtin_code("5B")
    assert codeword_weight(code, (0,) * 16) == 0


def test_classification_counts_and_oracle_agreement():
    code = builtin_code("5B")
    direct = classify_weight4(code)
    assert direct.counts == (("I", 5), ("II", 5), ("III", 60), ("IV", 60))
    orbit = orbit_classification(code)
    assert orbit.counts == direct.counts
    for (t1, words1), (t2, words2) in zip(direct.by_type, orbit.by_type):
        assert t1 == t2
        assert set(words1) == set(words2)


def test_classify_word_validation():
    code = builtin_code("5B")
    with pytest.raises(ValueError):
        classify_word(code, (0,) * 16)  # weight 0, not 4
    small = Code(p=3, d=2, generators=((1, 1, 1, 1),))
    with pytest.raises(ValueError):
        classify_word(small, (1, 1, 1, 1))


def test_built_lattice_shape():
    built = build_lattice(builtin_code("5B"))
    assert built.lattice.rank == 16
    assert built.lattice.det() == 625
    assert built.integral
    assert built.even
    assert built.lattice.is_even()


def test_no_norm_two_vectors():
    built = build_lattice(builtin_code("5B"))
    assert shell(built.lattice, 2) == []


def test_shell4_by_coset_convolution():
    assert shell4_count_by_cosets(builtin_code("5B")) == 2640


def test_glue_form_values():
    built = build_lattice(builtin_code("5B"))
    rep = glue_form_report(built)
    assert rep.passed
    assert rep.invariant_factors == (5, 5, 5, 5)
    assert rep.q_values == (4, 4, 4, 4)
    assert rep.q_double_values == (1, 1, 1, 1)
    for i in range(4):
        for j in range(4):
            assert rep.f_matrix[i][j] == (8 if i == j else 0)


def test_one_minus_nu_dual():
    built = build_lattice(builtin_code("5B"))
    assert one_minus_nu_dual_equals_lattice(built)


def test_nu_inside_lattice():
    built = build_lattice(builtin_code("5B"))
    m = nu_in_lattice(built)
    iso = Isometry(m, built.lattice)
    assert iso.order() == 5
    assert iso.is_fixed_point_free()
    assert iso.is_integral()


def sqrt2_a4_certificate(lat):
    """Find a basis of lat whose Gram is exactly the doubled A4 Cartan."""
    target = rescale(root_lattice("A", 4), 2).gram
    vecs = shell(lat, 4)
    chains = [[v] for v in vecs]
    for depth in range(1, 4):
        nxt = []
        for chain in chains:
            for v in vecs:
                ok = all(
                    lat.inner(chain[i], v) == target[i][depth] for i in range(depth)
                )
                if ok:
                    nxt.append(chain + [v])
        chains = nxt
    for chain in chains:
        if abs(det(mat(chain))) == 1:
            return chain
    return None


def test_orbit_sublattices_by_type():
    code = builtin_code("5B")
    built = build_lattice(code)
    rep = classify_weight4(code)
    by_type = dict(rep.by_type)
    for t in ("I", "II", "III"):
        lat = nu_orbit_sublattice(built, by_type[t][0])
        assert lat.rank == 4
        assert lat.is_even()
        assert lat.det() == 80
        assert shell(lat, 2) == []
        assert len(shell(lat, 4)) == 20
    lat = nu_orbit_sublattice(built, by_type["IV"][0])
    assert lat.rank == 4
    assert lat.det() == 125
    assert shell(lat, 2) == []
    assert len(shell(lat, 4)) == 10


def test_orbit_sublattice_is_rescaled_a4():
    # an explicit change of basis exhibits the type-II orbit lattice
    # as the doubled A4 lattice, not just a det-80 lookalike
    code = builtin_code("5B")
    built = build_lattice(code)
    by_type = dict(classify_weight4(code).by_type)
    lat = nu_orbit_sublattice(built, by_type["II"][0])
    chain = sqrt2_a4_certificate(lat)
    assert chain is not None
    assert sublattice(lat, chain).gram == rescale(root_lattice("A", 4), 2).gram


def test_ee8_pair_report():
    built = build_lattice(builtin_code("5B"))
    rep = build_ee8_pair(built)
    assert rep.passed, rep.failures
    assert rep.weight_enumerator == ((0, 1), (4, 14), (8, 1))
    assert len(rep.hamming_rows) == 4
    assert len(rep.m_rows) == 8  # rank-8 member inside the rank-16 ambient
    assert len(rep.mprime_rows) == 8
    assert all(len(r) == 16 for r in rep.m_rows)


def test_span_is_group():
    code = Code(p=3, d=2, generators=((1, 1, 0, 0), (0, 0, 1, 1)))
    words = span(code)
    assert len(words) == 4
    ws = set(words)
    for a in ws:
        for b in ws:
            assert tuple((x + y) % 2 for x, y in zip(a, b)) in ws


def test_code_rejects_bits_other_than_zero_and_one():
    for bad in (2, -1, True, 1.0, "1"):
        with pytest.raises(ValueError, match="generator 1 position 2"):
            Code(p=3, d=2, generators=((1, 0, 1, 0), (0, 1, bad, 1)))
    payload = {"p": 3, "d": 2, "generators": [[1, 2, 2, 2]]}
    with pytest.raises(ValueError, match="generator 0 position 1"):
        load_code(payload)
