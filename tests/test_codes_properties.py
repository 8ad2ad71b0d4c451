"""The code battery on integers against the Fraction routes it replaced.

Block-coset norms are kept doubled as ``int``s, the glue form and the
(1 - nu) test read the ambient Gram without a basis inverse, and nu is
carried into the glued lattice over ``int``.  The routes below are the
earlier ``Fraction`` ones, kept as oracles, on small random codes.
"""
from fractions import Fraction as Q
from functools import lru_cache

from hypothesis import given
from hypothesis import strategies as st

from parafusion.codes import (
    Code,
    build_lattice,
    codeword_weight,
    glue_form_report,
    glue_vector_rows,
    nu_ambient_matrix,
    nu_in_lattice,
    one_minus_nu_dual_equals_lattice,
    shell_count_by_cosets,
    span,
)
from parafusion.lattices import coxeter_nu, discriminant_group, same_lattice, shell, sqrt2_a
from parafusion.linalg import (
    coset_minimum,
    enumerate_quadratic,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_sub,
)


@lru_cache(maxsize=None)
def _fraction_block_counts(p, block, norm):
    """Exact {norm: count} over the coset (1/2)beta(block) + sqrt(2)A_{p-1}."""
    counts = {}
    shift = tuple(Q(b, 2) for b in block)
    for _, n in enumerate_quadratic(sqrt2_a(p - 1).gram, norm, center=shift):
        counts[n] = counts.get(n, 0) + 1
    return counts


def fraction_shell_count(code, norm):
    """The convolution of per-block norm counts, summed as ``Fraction``s."""
    norm = Q(norm)
    total = 0
    for w in span(code):
        poly = {Q(0): 1}
        for b in code.blocks(w):
            nxt = {}
            for acc, c1 in poly.items():
                for block_norm, c2 in _fraction_block_counts(code.p, b, norm).items():
                    s = acc + block_norm
                    if s <= norm:
                        nxt[s] = nxt.get(s, 0) + c1 * c2
            poly = nxt
        total += poly.get(norm, 0)
    return total


def fraction_weight(code, word):
    """Sum over blocks of the minimal coset norm, as a ``Fraction``."""
    gram = sqrt2_a(code.p - 1).gram
    return sum(
        coset_minimum(gram, tuple(Q(b, 2) for b in block))[0]
        for block in code.blocks(word)
    )


def fraction_nu_in_lattice(built):
    """B·nu·B^{-1} on ``Fraction`` matrices."""
    b = mat(built.basis)
    m = mat_mul(mat_mul(b, mat(nu_ambient_matrix(built.code))), mat_inv(b))
    if any(e.denominator != 1 for row in m for e in row):
        raise ValueError("code is not invariant: nu does not preserve the lattice")
    return m


def fraction_one_minus_nu(built):
    """Whether G^{-1}(1 - nu) spans the lattice's own coordinates."""
    lat = built.lattice
    n = lat.rank
    image = mat_mul(mat_inv(lat.gram), mat_sub(identity(n), fraction_nu_in_lattice(built)))
    return same_lattice(image, identity(n))


def fraction_glue_form(built):
    """(f_matrix, q_values, q_double_values) through the glue vectors' own
    coordinates r·B^{-1}, and the discriminant's invariant factors."""
    p, lat = built.code.p, built.lattice
    lam = mat_mul(glue_vector_rows(built.code), mat_inv(mat(built.basis)))
    if any(e.denominator != 1 for row in mat_mul(lam, lat.gram) for e in row):
        raise AssertionError("glue vector is not in the dual lattice")
    factors = discriminant_group(lat).invariant_factors
    f = tuple(tuple(p * lat.inner(a, b) for b in lam) for a in lam)
    qs = [Q(p, 2) * lat.inner(a, a) for a in lam]
    q2s = [Q(p, 2) * lat.inner([2 * e for e in a], [2 * e for e in a]) for a in lam]
    if any(v.denominator != 1 for v in qs + q2s):
        raise AssertionError("q-values must be integral")
    return factors, f, tuple(int(v) % p for v in qs), tuple(int(v) % p for v in q2s)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _nu_images(p, d, row):
    """row, row·nu, ..., row·nu^(p-2) with nu acting on every block mod 2;
    they span a nu-invariant code, as 1 + nu + ... + nu^(p-1) = 0."""
    nu, n = coxeter_nu(p), p - 1
    out = [tuple(row)]
    for _ in range(p - 2):
        prev = out[-1]
        out.append(tuple(
            sum(prev[l * n + i] * nu[i][j] for i in range(n)) % 2
            for l in range(d) for j in range(n)
        ))
    return out


@st.composite
def small_codes(draw, max_generators=4):
    p = draw(st.sampled_from((3, 5, 7)))
    d = draw(st.integers(1, 3 if p < 7 else 2))
    row = st.lists(st.integers(0, 1), min_size=(p - 1) * d, max_size=(p - 1) * d)
    return Code(p=p, d=d, generators=draw(st.lists(row, max_size=max_generators)))


@given(small_codes())
def test_int_coset_path_matches_the_fraction_convolution_and_the_shell(code):
    lat = build_lattice(code).lattice
    for norm in (2, 4):
        by_cosets = shell_count_by_cosets(code, norm)
        assert by_cosets == fraction_shell_count(code, norm)
        assert by_cosets == len(shell(lat, norm))
    for word in span(code):
        assert codeword_weight(code, word) == fraction_weight(code, word)


@given(small_codes(max_generators=2), st.booleans())
def test_nu_glue_and_dual_routes_match_the_basis_inverse(code, close_under_nu):
    if close_under_nu:
        rows = [r for g in code.generators for r in _nu_images(code.p, code.d, g)]
        code = Code(p=code.p, d=code.d, generators=rows)
    built = build_lattice(code)
    assert outcome(nu_in_lattice, built) == outcome(fraction_nu_in_lattice, built)
    assert outcome(one_minus_nu_dual_equals_lattice, built) == outcome(
        fraction_one_minus_nu, built
    )
    rep = outcome(glue_form_report, built)
    if isinstance(rep, tuple):
        assert rep == outcome(fraction_glue_form, built)
    else:
        fields = rep.invariant_factors, rep.f_matrix, rep.q_values, rep.q_double_values
        assert fields == fraction_glue_form(built)
