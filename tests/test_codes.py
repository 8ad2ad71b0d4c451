"""Code-to-lattice gluing: the p=5, d=4 case study and its invariants."""
from collections import Counter
from fractions import Fraction as Q

import pytest

import parafusion.codes as codes_mod
from parafusion.codes import (
    Code,
    CodeReport,
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
    shell_count_by_cosets,
    span,
)
from parafusion.lattices import (
    Isometry,
    coxeter_nu,
    rescale,
    root_lattice,
    shell,
    sublattice,
)
from parafusion.linalg import det, f2_pack, mat


def test_k_inner_and_quadratic_small():
    # p=3 blocks have length 2 and Cartan [[2,-1],[-1,2]]
    assert k_inner((1, 0), (0, 1), 3) == 1
    assert k_inner((1, 0), (1, 0), 3) == 0
    assert k_quadratic((1, 0), 3) == 1
    assert k_quadratic((1, 1), 3) == 1
    assert k_quadratic((0, 0), 3) == 0
    with pytest.raises(ValueError):
        k_inner((1, 0, 0), (0, 1, 0), 3)


def _cartan_pairing(u, v, p):
    """The integer u A v^T of two blocks, A the A_{p-1} Cartan matrix: the
    reference the code's F2 form replaces."""
    n = p - 1
    a = root_lattice("A", n).gram
    return sum(int(u[i]) * int(a[i][j]) * int(v[j]) for i in range(n) for j in range(n))


def test_block_forms_match_the_integer_cartan_pairing():
    for p in (3, 5, 7):
        n = p - 1
        blocks = [tuple((w >> i) & 1 for i in range(n)) for w in range(1 << n)]
        for u in blocks:
            total = _cartan_pairing(u, u, p)
            assert total % 2 == 0
            assert k_quadratic(u, p) == total // 2 % 2
            for v in blocks:
                assert k_inner(u, v, p) == _cartan_pairing(u, v, p) % 2
    with pytest.raises(ValueError, match="blocks must have length 4"):
        k_quadratic((1, 0, 1), 5)
    with pytest.raises(ValueError, match="blocks must have length 4"):
        k_inner((1, 0, 1, 0), (1, 0, 1), 5)


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


def test_code_caps_hold_at_the_cap_and_refuse_one_past_it():
    cap_p, cap_d, cap_gens = codes_mod.MAX_P, codes_mod.MAX_D, codes_mod.MAX_GENERATORS
    row = (0,) * ((cap_p - 1) * cap_d)
    assert len(Code(p=cap_p, d=cap_d, generators=(row,) * cap_gens).generators) == cap_gens
    too_many = ((0, 0),) * (cap_gens + 1)
    for p, d, gens, message in (
        (cap_p + 2, 1, (), f"p must be <= {cap_p}, got {cap_p + 2}"),
        (3, cap_d + 1, (), f"d must be <= {cap_d}, got {cap_d + 1}"),
        (3, 1, too_many, f"at most {cap_gens} generators, got {cap_gens + 1}"),
    ):
        with pytest.raises(ValueError, match=message):
            Code(p=p, d=d, generators=gens)


def test_load_code_rejects_generators_that_are_not_bit_rows():
    for generators in (5, [5], [[1, 0], 5]):
        with pytest.raises(ValueError, match="list of bit rows"):
            load_code({"p": 3, "d": 1, "generators": generators})
        with pytest.raises(ValueError, match="list of bit rows"):
            Code(p=3, d=1, generators=generators)


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


def _reference_report(code):
    """The code's invariants by integer Cartan sums over tuple blocks and
    the integer block-cycling matrix, word by word."""
    n, p = code.block_len, code.p
    words = span(code)

    def pairing(x, y):
        return sum(
            _cartan_pairing(x[l * n : (l + 1) * n], y[l * n : (l + 1) * n], p)
            for l in range(code.d)
        )

    nu = coxeter_nu(p)

    def nu_word(w):
        return tuple(
            sum(w[l * n + i] * nu[i][j] for i in range(n)) % 2
            for l in range(code.d)
            for j in range(n)
        )

    gens, word_set = code.generators, set(words)
    self_orth = all(pairing(a, b) % 2 == 0 for a in gens for b in gens)
    dist = Counter(codeword_weight(code, w) for w in words)
    return CodeReport(
        size=len(words),
        dimension=len(words).bit_length() - 1,
        self_orthogonal=self_orth,
        self_dual=self_orth and len(words) == 2 ** (n * code.d // 2),
        totally_isotropic=all(pairing(w, w) // 2 % 2 == 0 for w in words),
        nu_invariant=all(nu_word(g) in word_set for g in gens),
        weight_distribution=tuple(sorted(dist.items())),
    )


def _flipped(code, i, j):
    gens = [list(g) for g in code.generators]
    gens[i][j] ^= 1
    return Code(p=code.p, d=code.d, generators=tuple(map(tuple, gens)))


def test_code_report_matches_the_integer_reference_under_every_bit_flip():
    code = builtin_code("5B")
    assert code_properties(code) == _reference_report(code)
    for i in range(len(code.generators)):
        for j in range(code.block_len * code.d):
            flipped = _flipped(code, i, j)
            assert code_properties(flipped) == _reference_report(flipped), (i, j)
    for small in (
        Code(p=3, d=1, generators=((1, 0),)),  # self-orthogonal, q = 1
        Code(p=3, d=2, generators=((1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1))),
        Code(p=3, d=2, generators=()),
    ):
        assert code_properties(small) == _reference_report(small)


def test_code_report_with_one_bit_flipped():
    code = builtin_code("5B")
    assert code_properties(_flipped(code, 0, 0)) == CodeReport(
        size=256,
        dimension=8,
        self_orthogonal=False,
        self_dual=False,
        totally_isotropic=False,
        nu_invariant=False,
        weight_distribution=(
            (0, 1), (3, 7), (4, 103), (5, 42), (6, 86), (7, 15), (8, 2),
        ),
    )
    # Still self-dual and totally isotropic, but no longer nu-invariant.
    assert code_properties(_flipped(code, 1, 12)) == CodeReport(
        size=256,
        dimension=8,
        self_orthogonal=True,
        self_dual=True,
        totally_isotropic=True,
        nu_invariant=False,
        weight_distribution=((0, 1), (4, 130), (6, 120), (8, 5)),
    )


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


def _group():
    return [(perm, a) for perm in codes_mod._alt4() for a in range(5)]


def _weight4_packed(code):
    return sorted(f2_pack(w) for _, ws in classify_weight4(code).by_type for w in ws)


def _bfs_orbits(code, words):
    """Orbits by closing a frontier under all 60 maps from every member:
    the reference the one-pass orbits replace."""
    seen, orbits = set(), set()
    for w in words:
        if w in seen:
            continue
        orbit, frontier = set(), [w]
        while frontier:
            x = frontier.pop()
            if x not in orbit:
                orbit.add(x)
                frontier.extend(codes_mod._act(code, g, a, x) for g, a in _group())
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def test_one_pass_orbits_equal_the_bfs_orbits(monkeypatch):
    code = builtin_code("5B")
    bfs = _bfs_orbits(code, _weight4_packed(code))
    assert sorted(map(len, bfs)) == [5, 5, 60, 60]
    act = codes_mod._act
    images: dict[int, set[int]] = {}

    def spy(code, perm, a, w):
        y = act(code, perm, a, w)
        images.setdefault(w, set()).add(y)
        return y

    monkeypatch.setattr(codes_mod, "_act", spy)
    report = orbit_classification(code)
    # one pass: each orbit is the 60 images of its first member
    assert set(map(frozenset, images.values())) == bfs
    assert len(images) == len(bfs)
    # on 5B each type is one orbit
    assert {frozenset(map(f2_pack, ws)) for _, ws in report.by_type} == bfs


def test_the_sixty_maps_compose_within_themselves_on_weight4_words():
    code = builtin_code("5B")
    words = _weight4_packed(code)
    index = {w: i for i, w in enumerate(words)}
    maps = {
        tuple(index[codes_mod._act(code, perm, a, w)] for w in words)
        for perm, a in _group()
    }
    assert len(maps) == 60
    for g in maps:
        for h in maps:
            assert tuple(g[i] for i in h) in maps


def test_code_rejects_p_and_d_that_are_not_int():
    for p, d in ((5.9, 4), (5, True), ("5", 4), (5, 4.0), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            Code(p=p, d=d, generators=())
        with pytest.raises(ValueError, match="must be an integer"):
            load_code({"p": p, "d": d, "generators": []})


def test_classify_word_validation():
    code = builtin_code("5B")
    with pytest.raises(ValueError):
        classify_word(code, (0,) * 16)  # weight 0, not 4
    word = (1, 0, 1, 0, 1, 0, 0, 0, 1) + (0,) * 7  # weight 4, not a known type
    with pytest.raises(ValueError) as info:
        classify_word(code, word)
    assert str(info.value) == (
        f"unclassifiable weight-4 word {word}: invariant ((0, 1, 1, 2), Fraction(-5, 2))"
    )
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


def test_shell6_direct_matches_coset_convolution():
    code = builtin_code("5B")
    built = build_lattice(code)
    vecs = shell(built.lattice, 6)
    assert len(vecs) == len(set(vecs)) == 41280
    gram = [[int(e) for e in row] for row in built.lattice.gram]
    for v in vecs:
        w = [sum(x * g for x, g in zip(v, col)) for col in gram]
        assert sum(x * y for x, y in zip(v, w)) == 6
    assert shell_count_by_cosets(code, 6) == 41280


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


def test_nu_in_lattice_inverts_the_basis_once(monkeypatch):
    import parafusion.codes as codes_mod

    built = build_lattice(builtin_code("5B"))
    basis = mat(built.basis)
    inverted = []
    real_inv = codes_mod.cleared_inverse

    def counting_inv(m):
        inverted.append(mat(m) == basis)
        return real_inv(m)

    monkeypatch.setattr(codes_mod, "cleared_inverse", counting_inv)
    assert one_minus_nu_dual_equals_lattice(built)
    assert build_ee8_pair(built).passed
    assert glue_form_report(built).passed
    assert inverted.count(True) == 1
    assert nu_in_lattice(built) is nu_in_lattice(built)


def test_nu_in_lattice_is_int_rows_built_with_no_fraction(monkeypatch):
    from parafusion.linalg import mat_inv, mat_mul

    built = build_lattice(builtin_code("5B"))
    made = []
    real = Q.__new__
    with monkeypatch.context() as m:
        m.setattr(Q, "__new__", lambda cls, *a, **kw: made.append(a) or real(cls, *a, **kw))
        nu = nu_in_lattice(built)
    assert made == []
    assert {type(x) for row in nu for x in row} == {int}
    b = mat(built.basis)
    assert nu == mat_mul(mat_mul(b, mat(codes_mod.nu_ambient_matrix(built.code))), mat_inv(b))


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


def test_the_5b_battery_never_builds_a_fraction_gram():
    # Every routine reads the cleared int pair; the public Fraction gram is
    # built on a first outside read only, so none of these builds it.
    codes_mod.ambient_lattice.cache_clear()
    code = builtin_code("5B")
    assert code_properties(code).self_orthogonal
    built = build_lattice(code)
    assert glue_form_report(built).passed
    assert one_minus_nu_dual_equals_lattice(built)
    assert classify_weight4(code) == orbit_classification(code)
    assert build_ee8_pair(built).passed
    for lat in (built.ambient, built.lattice):
        assert "gram" not in vars(lat)


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
