"""Central extensions: cocycle bits, lifts, orders, commuting corrections."""
import random
from fractions import Fraction as Q
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafusion import central
from parafusion.central import (
    F2BilinearForm,
    F2QuadraticForm,
    Lift,
    b_g_form,
    bit_apply,
    commuting_lift,
    compose,
    functional_value,
    lift,
    lift_inverse,
    lift_order,
    lift_power,
    lift_power_sign,
    lift_power_sign_even_form,
    lifts_equal,
    mod2_matrix,
    mu_plus_mu_g_solve,
    quadratic_from_values,
    standard_epsilon,
    theta_lift,
)
from parafusion.lattices import (
    Isometry,
    Lattice,
    c_nu_radical,
    coxeter_nu,
    rescale,
    root_lattice,
    sqrt2_a,
    tau_isometry,
)
from parafusion.linalg import identity, int_identity, mat, mat_eq, mat_mul, mat_pow


def all_bits(n):
    return [tuple((w >> i) & 1 for i in range(n)) for w in range(1 << n)]


def neg_identity(n):
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


def test_standard_epsilon_rescaled_vanishes():
    for n in (2, 4, 6):
        eps = standard_epsilon(sqrt2_a(n))
        assert all(e == 0 for row in eps.matrix for e in row)


def test_every_lift_of_nu_on_sqrt2_a_has_order_k():
    # With the zero cocycle every eta is linear, and every nu-orbit sums
    # to 0 (nu has no eigenvalue 1), so eta summed over an orbit is 0.
    rng = random.Random(2021)
    for k in range(3, 33):
        lat = sqrt2_a(k - 1)
        eps = standard_epsilon(lat)
        for _ in range(3):
            eta = [rng.randrange(2) for _ in range(k - 1)]
            assert lift_order(lift(coxeter_nu(k), lat, eps, eta)) == k, (k, eta)


def test_standard_epsilon_a2_values():
    eps = standard_epsilon(root_lattice("A", 2))
    assert eps.matrix[0][0] == 1
    assert eps.matrix[1][1] == 1
    assert eps.matrix[1][0] == 1
    assert eps.matrix[0][1] == 0


def test_standard_epsilon_requires_even():
    odd = root_lattice("A", 1)
    assert odd.is_even()
    from parafusion.lattices import Lattice

    with pytest.raises(ValueError):
        standard_epsilon(Lattice([[1]]))


def test_epsilon_diagonal_is_half_norm():
    for lat in (root_lattice("A", 2), root_lattice("A", 3), root_lattice("D", 4)):
        eps = standard_epsilon(lat)
        for x in all_bits(lat.rank):
            assert eps.value(x, x) == (lat.norm(x) / 2) % 2


def test_epsilon_commutator_identity():
    for lat in (root_lattice("A", 2), root_lattice("D", 4)):
        eps = standard_epsilon(lat)
        for x in all_bits(lat.rank):
            for y in all_bits(lat.rank):
                assert (eps.value(x, y) + eps.value(y, x)) % 2 == lat.inner(x, y) % 2


def test_quadratic_form_polarization_identity():
    rng = random.Random(7)
    n = 4
    for _ in range(5):
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = b[j][i] = rng.randint(0, 1)
        q = F2QuadraticForm(
            tuple(rng.randint(0, 1) for _ in range(n)),
            F2BilinearForm(tuple(tuple(r) for r in b)),
        )
        for x in all_bits(n):
            for y in all_bits(n):
                s = tuple((a + c) % 2 for a, c in zip(x, y))
                bval = sum(
                    x[i] * y[j] * b[i][j] for i in range(n) for j in range(n)
                ) % 2
                assert (q.value(s) + q.value(x) + q.value(y)) % 2 == bval


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        F2QuadraticForm((0, 0), F2BilinearForm(((1, 0), (0, 0))))  # diag not 0
    with pytest.raises(ValueError):
        F2QuadraticForm((0, 0), F2BilinearForm(((0, 1), (0, 0))))  # not symmetric
    with pytest.raises(ValueError):
        F2QuadraticForm((0,), F2BilinearForm(((0, 0), (0, 0))))  # size mismatch


def test_quadratic_from_values_round_trip():
    q = F2QuadraticForm((1, 0, 1), F2BilinearForm(((0, 1, 0), (1, 0, 1), (0, 1, 0))))
    back = quadratic_from_values(q.value, 3)
    assert back.diagonal == q.diagonal
    assert back.polarization.matrix == q.polarization.matrix


def test_quadratic_from_values_rejects_cubic():
    with pytest.raises(AssertionError):
        quadratic_from_values(lambda x: x[0] * x[1] * x[2], 3)


def test_b_g_form_symmetric_zero_diagonal():
    lat = root_lattice("A", 4)
    eps = standard_epsilon(lat)
    b = b_g_form(eps, coxeter_nu(5))
    n = lat.rank
    for i in range(n):
        assert b.matrix[i][i] == 0
        for j in range(n):
            assert b.matrix[i][j] == b.matrix[j][i]


def test_lift_validation():
    lat = sqrt2_a(4)
    eps = standard_epsilon(lat)
    with pytest.raises(ValueError):
        lift(coxeter_nu(5), lat, eps, diagonal=[1, 0])  # wrong length
    with pytest.raises(ValueError):
        lift(identity(3), lat, eps)  # wrong size: not an isometry
    # eta polarization is forced
    wrong_eta = F2QuadraticForm(
        (0, 0, 0, 0),
        F2BilinearForm(
            tuple(
                tuple(1 if (i + j) % 2 else 0 for j in range(4)) for i in range(4)
            )
        ),
    )
    with pytest.raises(ValueError):
        Lift(lat, eps, coxeter_nu(5), wrong_eta)


def _zero_eta(n):
    return F2QuadraticForm((0,) * n, F2BilinearForm(((0,) * n,) * n))


def test_lift_rejects_a_base_that_is_not_an_isometry():
    lat = sqrt2_a(4)
    shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="matrix does not preserve the gram form"):
        lift(shear, lat, standard_epsilon(lat))


def test_lift_rejects_a_rational_isometry():
    # A reflection of (sqrt2 Z)^2 with denominators: an isometry, not integral.
    lat = Lattice([[2, 0], [0, 2]])
    eps = standard_epsilon(lat)
    r = ((Q(3, 5), Q(-4, 5)), (Q(-4, 5), Q(-3, 5)))
    with pytest.raises(ValueError, match="lift base must be an integral isometry"):
        Lift(lat, eps, r, _zero_eta(2))
    # A rational non-isometry fails the form check first.
    bent = ((Q(4, 5), Q(-4, 5)), r[1])
    with pytest.raises(ValueError, match="matrix does not preserve the gram form"):
        Lift(lat, eps, bent, _zero_eta(2))


def test_lift_rejects_an_int_non_isometry_with_a_consistent_eta():
    # M = 1 + 2·E_01 is the identity mod 2, so eps + eps^M vanishes and the
    # zero eta passes every mod-2 check; only the integer form check fails.
    lat = root_lattice("A", 4)
    eps = standard_epsilon(lat)
    m = ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert b_g_form(eps, m).matrix == _zero_eta(4).polarization.matrix
    with pytest.raises(ValueError, match="matrix does not preserve the gram form"):
        Lift(lat, eps, m, _zero_eta(4))


def test_composites_have_int_bases_and_are_checked():
    lat = sqrt2_a(4)
    eps = standard_epsilon(lat)
    nu_hat = lift(mat(coxeter_nu(5)), lat, eps, [1, 0, 1, 1])
    composites = (
        nu_hat,
        compose(nu_hat, nu_hat),
        lift_power(nu_hat, 3),
        lift_power(nu_hat, -2),
        lift_inverse(nu_hat),
    )
    for lf in composites:
        assert all(type(e) is int for row in lf.base for e in row)
    # A composite is validated, not trusted: corrupt one factor's base
    # behind the constructor's back and composing must fail.
    bad = lift(coxeter_nu(5), lat, eps)
    object.__setattr__(bad, "base", ((1, 1, 0, 0),) + bad.base[1:])
    with pytest.raises(ValueError, match="matrix does not preserve the gram form"):
        compose(nu_hat, bad)


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_composites_are_checked_without_a_type_scan(monkeypatch):
    lat = sqrt2_a(6)
    eps = standard_epsilon(lat)
    nu_hat = lift(coxeter_nu(7), lat, eps, [1, 0, 1, 1, 0, 0])
    scans = _count(monkeypatch, central, "clear_denominators")
    polarizations = _count(monkeypatch, central, "b_g_form")
    forms = _count(monkeypatch, Lattice, "preserves_form")
    for make in (lambda: compose(nu_hat, nu_hat), lambda: lift_inverse(nu_hat)):
        for calls in (scans, polarizations, forms):
            calls.clear()
        make()
        # No scan, and the form and the polarization are still checked.
        assert (scans, polarizations, forms) == ([], [1], [1])
    # lift_power squares from the lift itself: no scan for n >= 1, and
    # one for n = 0, the identity lift it returns.
    for n in (1, 6, 100):
        scans.clear()
        lift_power(nu_hat, n)
        assert scans == [], n
    scans.clear()
    lift_power(nu_hat, 0)
    assert scans == [1]
    # Outside rows are still cleared: a Fraction base becomes int rows.
    lf = Lift(lat, eps, mat(coxeter_nu(7)), nu_hat.eta)
    assert lf.base == coxeter_nu(7) and all(type(e) is int for row in lf.base for e in row)


def test_lift_power_sign_basics():
    lat = sqrt2_a(1)
    eps = standard_epsilon(lat)
    lf = lift(identity(1), lat, eps)
    assert lift_power_sign(lf, (1,), 1) == 0
    assert lift_power_sign(lf, (1,), 5) == 0
    marked = lift(identity(1), lat, eps, diagonal=[1])
    assert lift_power_sign(marked, (1,), 1) == 1
    assert lift_power_sign(marked, (1,), 2) == 0
    with pytest.raises(ValueError):
        lift_power_sign(lf, (1,), 0)


def test_even_form_matches_orbit_sum():
    rng = random.Random(11)
    for k in (4, 6, 8):
        lat = root_lattice("A", k - 1)  # unrescaled: nonzero cocycle bits
        eps = standard_epsilon(lat)
        for trial in range(3):
            diag = [rng.randint(0, 1) for _ in range(k - 1)]
            lf = lift(coxeter_nu(k), lat, eps, diagonal=diag)
            for x in all_bits(k - 1):
                assert lift_power_sign_even_form(lf, x, k) == lift_power_sign(
                    lf, x, k
                ), (k, diag, x)
    a3 = root_lattice("A", 3)
    lf = lift(coxeter_nu(4), a3, standard_epsilon(a3))
    with pytest.raises(ValueError):
        lift_power_sign_even_form(lf, (1, 0, 0), 3)  # odd n rejected


def test_lift_order_of_nu_hat():
    for k in range(3, 10):
        lat = sqrt2_a(k - 1)
        lf = lift(coxeter_nu(k), lat, standard_epsilon(lat))
        assert lift_order(lf) == k
    for k in (3, 5, 7, 9):
        lat = root_lattice("A", k - 1)
        lf = lift(coxeter_nu(k), lat, standard_epsilon(lat))
        assert lift_order(lf) == k


def test_lift_order_packs_only_the_basis_vectors(monkeypatch):
    # The base rows are packed once, when the lift is built; lift_order
    # then packs each basis vector it follows and nothing else.
    k = 13
    lat = sqrt2_a(k - 1)
    lf = lift(coxeter_nu(k), lat, standard_epsilon(lat))
    packed = []
    real_pack = central.f2_pack
    monkeypatch.setattr(
        central, "f2_pack", lambda bits: packed.append(bits) or real_pack(bits)
    )
    assert lift_order(lf) == k
    assert len(packed) == k - 1


def test_theta_lift_order_two():
    for lat in (sqrt2_a(4), root_lattice("A", 2), root_lattice("D", 4)):
        th = theta_lift(lat, standard_epsilon(lat))
        assert lift_order(th) == 2
        assert all(d == 0 for d in th.eta.diagonal)


def test_lift_order_doubling():
    lat = sqrt2_a(2)
    eps = standard_epsilon(lat)
    lf = lift(identity(2), lat, eps, diagonal=[1, 0])
    assert lift_order(lf) == 2  # base order 1, doubled by the marked basis sign


def test_mu_solve_round_trip():
    for k in (5, 7):
        g = coxeter_nu(k)
        gbar = mod2_matrix(g)
        n = k - 1
        for lam in all_bits(n):
            mu = mu_plus_mu_g_solve(g, lam)
            for x in all_bits(n):
                got = (
                    functional_value(mu, x) + functional_value(mu, bit_apply(x, gbar))
                ) % 2
                assert got == functional_value(lam, x)
    assert mu_plus_mu_g_solve(coxeter_nu(5), (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_mu_solve_singular():
    with pytest.raises(ValueError):
        mu_plus_mu_g_solve(neg_identity(2), (1, 0))  # I + I = 0 mod 2
    with pytest.raises(ValueError):
        mu_plus_mu_g_solve(coxeter_nu(5), (1, 0))  # wrong length


def test_compose_inverse_is_identity():
    lat = root_lattice("A", 4)
    eps = standard_epsilon(lat)
    lf = lift(coxeter_nu(5), lat, eps, diagonal=[1, 0, 1, 0])
    ident = lift(identity(4), lat, eps)
    assert lifts_equal(compose(lf, lift_inverse(lf)), ident)
    assert lifts_equal(compose(lift_inverse(lf), lf), ident)


def test_lift_power_consistency():
    lat = root_lattice("A", 4)
    eps = standard_epsilon(lat)
    lf = lift(coxeter_nu(5), lat, eps, diagonal=[1, 1, 0, 0])
    p2 = lift_power(lf, 2)
    for x in all_bits(4):
        assert p2.eta_value(x) == (
            lf.eta_value(x) + lf.eta_value(bit_apply(x, lf.base_mod2()))
        ) % 2
    assert lifts_equal(lift_power(lf, 0), lift(identity(4), lat, eps))


def test_commuting_lift_with_theta():
    # the unique lift of -1 commuting with nu-hat is theta
    for k in (5, 7):
        lat = sqrt2_a(k - 1)
        eps = standard_epsilon(lat)
        nu_hat = lift(coxeter_nu(k), lat, eps)
        phi = commuting_lift(neg_identity(k - 1), nu_hat, 1)
        assert lifts_equal(phi, theta_lift(lat, eps))


def test_commuting_lift_unrescaled():
    lat = root_lattice("A", 4)
    eps = standard_epsilon(lat)
    nu_hat = lift(coxeter_nu(5), lat, eps)
    phi = commuting_lift(neg_identity(4), nu_hat, 1)
    check = compose(lift_inverse(phi), compose(nu_hat, phi))
    assert lifts_equal(check, nu_hat)


def test_commuting_lift_tau():
    from parafusion.lattices import tau_isometry

    lat = sqrt2_a(4)
    eps = standard_epsilon(lat)
    nu_hat = lift(coxeter_nu(5), lat, eps)
    phi = commuting_lift(tau_isometry(5, 2), nu_hat, 3)
    check = compose(lift_inverse(phi), compose(nu_hat, phi))
    assert lifts_equal(check, lift_power(nu_hat, 3))
    with pytest.raises(ValueError):
        commuting_lift(tau_isometry(5, 2), nu_hat, 2)  # wrong exponent


# --- closed-form composition against the value oracle --------------------


@st.composite
def lift_lists(draw, count):
    """``count`` random lifts on one lattice (sqrt2 A_n or A_n, n <= 8):
    powers of nu, -1 or a tau, each with a random eta diagonal."""
    k = draw(st.integers(3, 9))
    n = k - 1
    lat = sqrt2_a(n) if draw(st.booleans()) else root_lattice("A", n)
    eps = standard_epsilon(lat)
    gens = [coxeter_nu(k), neg_identity(n)]
    gens += [tau_isometry(k, s) for s in range(2, k) if gcd(s, k) == 1]
    out = []
    for _ in range(count):
        g = mat_pow(mat(draw(st.sampled_from(gens))), draw(st.integers(0, k - 1)))
        diag = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        out.append(lift(g, lat, eps, diag))
    return out


@settings(max_examples=60)
@given(lift_lists(2))
def test_compose_matches_value_oracle(lifts):
    after, first = lifts
    fbar = first.base_mod2()
    oracle = quadratic_from_values(
        lambda x: (first.eta_value(x) + after.eta_value(bit_apply(x, fbar))) % 2,
        after.lattice.rank,
    )
    got = compose(after, first)
    assert got.eta == oracle
    assert mat_eq(got.base, mat_mul(first.base, after.base))


@settings(max_examples=60)
@given(lift_lists(1))
def test_lift_inverse_matches_value_oracle(lifts):
    (lf,) = lifts
    inv = lift_inverse(lf)
    inv_bar = inv.base_mod2()
    oracle = quadratic_from_values(
        lambda x: lf.eta_value(bit_apply(x, inv_bar)), lf.lattice.rank
    )
    assert inv.eta == oracle
    assert mat_eq(mat_mul(inv.base, lf.base), identity(lf.lattice.rank))


@settings(max_examples=60)
@given(lift_lists(3))
def test_compose_is_associative(lifts):
    a, b, c = lifts
    assert lifts_equal(compose(a, compose(b, c)), compose(compose(a, b), c))


def test_quadratic_from_values_is_small_n_only():
    with pytest.raises(ValueError):
        quadratic_from_values(lambda x: 0, 13)


# --- rational isometries --------------------------------------------------


def test_isometry_accepts_rational_reflection():
    # Reflection of Z^2 in v = (1, 2): x -> x - 2 (x.v / v.v) v.
    r = ((Q(3, 5), Q(-4, 5)), (Q(-4, 5), Q(-3, 5)))
    for lat in (Lattice(identity(2)), rescale(Lattice(identity(2)), Q(1, 3))):
        iso = Isometry(r, lat)
        assert iso.order() == 2
        assert not iso.is_integral()
        bent = ((Q(4, 5), Q(-4, 5)), r[1])
        with pytest.raises(ValueError):
            Isometry(bent, lat)


# --- powers by squaring, orders on the lift's own base -----------------------


def power_by_repeated_compose(lf, n):
    """The repeated-``compose`` loop ``lift_power`` replaced: |n| composes
    with lf, or with its inverse for n < 0."""
    if n < 0:
        lf, n = lift_inverse(lf), -n
    out = lift(identity(lf.lattice.rank), lf.lattice, lf.eps)
    for _ in range(n):
        out = compose(lf, out)
    return out


@settings(max_examples=30)
@given(st.integers(3, 9), st.data())
def test_lift_power_by_squaring_matches_repeated_compose(k, data):
    eta = data.draw(st.lists(st.integers(0, 1), min_size=k - 1, max_size=k - 1))
    lat = sqrt2_a(k - 1)
    nu_hat = lift(coxeter_nu(k), lat, standard_epsilon(lat), eta)
    for n in range(-3, 2 * k + 1):
        expected = power_by_repeated_compose(nu_hat, n)
        assert lifts_equal(lift_power(nu_hat, n), expected), n


def test_lift_power_composes_once_per_bit_and_per_squaring(monkeypatch):
    lat = sqrt2_a(6)
    nu_hat = lift(coxeter_nu(7), lat, standard_epsilon(lat), [1, 0, 1, 1, 0, 0])
    calls = []
    real = central.compose
    monkeypatch.setattr(central, "compose", lambda a, f: calls.append(1) or real(a, f))
    for n in range(1, 40):
        calls.clear()
        lift_power(nu_hat, n)
        assert len(calls) == bin(n).count("1") + n.bit_length() - 2, n


def dense_order(m):
    """Least n with m^n = 1, by dense ``Fraction`` powers."""
    power, n, cols = mat(m), 1, tuple(zip(*m))
    while not mat_eq(power, identity(len(m))):
        power = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in power)
        n += 1
    return n


def test_lift_order_reads_the_base_order_without_an_isometry(monkeypatch):
    built = []
    real = Isometry.__post_init__
    monkeypatch.setattr(
        Isometry, "__post_init__", lambda iso, rows: built.append(1) or real(iso, rows)
    )
    doubled = 0
    for k in range(3, 14):
        lat = sqrt2_a(k - 1)
        eps = standard_epsilon(lat)
        s = next(s for s in range(2, k) if gcd(s, k) == 1)
        gens = (coxeter_nu(k), tau_isometry(k, s), neg_identity(k - 1), identity(k - 1))
        for g, marked in product(gens, (0, 1)):
            lf, m = lift(g, lat, eps, [marked] + [0] * (k - 2)), dense_order(g)
            # the m-th power has base 1, so its eta is linear: its diagonal
            # holds the central signs on the basis
            signs = power_by_repeated_compose(lf, m).eta.diagonal
            assert lift_order(lf) == (2 * m if any(signs) else m), (k, g, marked)
            doubled += any(signs)
    assert built == [] and doubled
    tau = tau_isometry(7, 3)
    assert Isometry(tau, sqrt2_a(6)).order() == dense_order(tau)


def test_the_lift_calculus_reads_only_the_int_gram():
    # sqrt(2)A_{k-1} is even, so its cocycle, lifts and radical need no
    # Fraction Gram; a regression that reads one builds it on the lattice.
    for k in (3, 7, 13):
        lat = sqrt2_a(k - 1)
        eps = standard_epsilon(lat)
        nu_hat = lift(coxeter_nu(k), lat, eps)
        assert lift_order(nu_hat) == k
        assert "gram" not in vars(lat)
        assert c_nu_radical(lat, coxeter_nu(k), k) == int_identity(k - 1)
        assert "gram" not in vars(lat)


def test_compose_across_lattice_objects_reads_only_the_int_grams():
    # Lifts on two Lattice objects with one Gram compose without building
    # either Fraction Gram; lifts on distinct Grams are refused.
    a, b = sqrt2_a(4), sqrt2_a(4)
    lf_a = lift(coxeter_nu(5), a, standard_epsilon(a), diagonal=[1, 0, 0, 1])
    lf_b = lift(coxeter_nu(5), b, standard_epsilon(b), diagonal=[1, 0, 0, 1])
    assert lifts_equal(compose(lf_a, lf_b), compose(lf_a, lf_a))
    assert "gram" not in vars(a) and "gram" not in vars(b)
    c = rescale(a, 2)
    lf_c = lift(coxeter_nu(5), c, standard_epsilon(c))
    with pytest.raises(ValueError, match="lifts live on different lattices"):
        compose(lf_c, lf_a)
