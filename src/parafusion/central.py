"""Mod-2 quadratic/bilinear calculus for lifts to the lattice central extension.

An even lattice L carries a standard 2-cocycle given by a bit matrix E
with eps(x, y) = x E y^T mod 2.  A lift of an isometry g is the pair
(g, eta) where eta is a mod-2 quadratic form on L/2L whose polarization
is eps + eps^g; powers, orders, compositions, and commuting lifts reduce
to exact bit arithmetic.

Lifts compose in closed form: x -> eta(x F) is the quadratic form with
eta on the rows of F as its diagonal and F B F^T as its polarization
(``pullback``), so no composite is rebuilt from its values.
``quadratic_from_values`` does that rebuilding on all 2^n points, and is
kept as a small-n oracle for checking the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .lattices import Isometry, Lattice
from .linalg import int_mat, mat, mat_eq, mat_inv, mat_mul, mat_pow, transpose, vec

Bits = tuple[int, ...]
BitMat = tuple[Bits, ...]


def mod2_matrix(m: Sequence[Sequence]) -> BitMat:
    return tuple(tuple(int(e) % 2 for e in row) for row in m)


def bit_apply(x: Bits, m: BitMat) -> Bits:
    """Row vector times bit matrix over F2."""
    n = len(m[0])
    return tuple(
        sum(x[i] * m[i][j] for i in range(len(x))) % 2 for j in range(n)
    )


def f2_solve_unique(a: BitMat, b: Bits) -> Bits:
    """Unique solution x of A x = b over F2; raises on a singular system."""
    n = len(a)
    rows = [list(a[i]) + [b[i]] for i in range(n)]
    piv_col_of_row = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = [(u + v) % 2 for u, v in zip(rows[i], rows[r])]
        piv_col_of_row.append(c)
        r += 1
    if r < n:
        raise ValueError("singular F2 system; fixed-point-free odd order required")
    x = [0] * n
    for row_i, c in enumerate(piv_col_of_row):
        x[c] = rows[row_i][n]
    return tuple(x)


@dataclass(frozen=True)
class F2BilinearForm:
    """Bit matrix B with value(x, y) = x B y^T mod 2."""

    matrix: BitMat

    def value(self, x: Bits, y: Bits) -> int:
        return sum(
            x[i] * self.matrix[i][j] * y[j]
            for i in range(len(x))
            for j in range(len(y))
        ) % 2

    def __add__(self, other: "F2BilinearForm") -> "F2BilinearForm":
        return F2BilinearForm(
            tuple(
                tuple((a + b) % 2 for a, b in zip(ra, rb))
                for ra, rb in zip(self.matrix, other.matrix)
            )
        )

    def conjugate(self, g_mod2: BitMat) -> "F2BilinearForm":
        """Pullback along g: value(x g, y g), i.e. matrix g E g^T."""
        m = mat_mul(mat_mul(g_mod2, self.matrix), transpose(g_mod2))
        return F2BilinearForm(mod2_matrix(m))


@dataclass(frozen=True)
class F2QuadraticForm:
    """q(x) = sum_i d_i x_i + sum_{i<j} x_i x_j B[i][j] over F2.

    The polarization matrix is symmetric with zero diagonal, so the
    upper triangle used in the expansion determines the form.
    """

    diagonal: Bits
    polarization: F2BilinearForm

    def __post_init__(self):
        b = self.polarization.matrix
        n = len(self.diagonal)
        if len(b) != n:
            raise ValueError("diagonal and polarization sizes differ")
        for i in range(n):
            if b[i][i] != 0:
                raise ValueError("polarization must have zero diagonal")
            for j in range(n):
                if b[i][j] != b[j][i]:
                    raise ValueError("polarization must be symmetric")

    def value(self, x: Bits) -> int:
        n = len(self.diagonal)
        total = sum(self.diagonal[i] * x[i] for i in range(n))
        b = self.polarization.matrix
        total += sum(
            x[i] * x[j] * b[i][j] for i in range(n) for j in range(i + 1, n)
        )
        return total % 2


def quadratic_from_values(values, n: int) -> F2QuadraticForm:
    """Canonicalize a callable on F2^n into (diagonal, polarization) form.

    The reconstruction is exact only for quadratic inputs, so it is
    cross-checked on all 2^n points.  That is exponential in n, so this
    is an oracle for small n (at most 12); larger n raises ``ValueError``.
    """
    if n > 12:
        raise ValueError(f"exhaustive check needs n <= 12, got {n}")
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    diag = tuple(values(e) % 2 for e in basis)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair = tuple((basis[i][t] + basis[j][t]) % 2 for t in range(n))
            b[i][j] = b[j][i] = (values(pair) + diag[i] + diag[j]) % 2
    form = F2QuadraticForm(diag, F2BilinearForm(tuple(tuple(r) for r in b)))
    for w in range(1 << n):
        x = tuple((w >> i) & 1 for i in range(n))
        if form.value(x) != values(x) % 2:
            raise AssertionError("callable is not a quadratic form")
    return form


def pullback(q: F2QuadraticForm, f: BitMat) -> F2QuadraticForm:
    """The form x -> q(x f): q on the rows of f as its diagonal, and
    f B f^T as its polarization."""
    diagonal = tuple(q.value(row) for row in f)
    return F2QuadraticForm(diagonal, q.polarization.conjugate(f))


def standard_epsilon(lat: Lattice) -> F2BilinearForm:
    """The standard cocycle bit matrix: half-norms on the diagonal, Gram
    entries below it, zeros above."""
    if not lat.is_even():
        raise ValueError("standard cocycle needs an even lattice")
    n = lat.rank
    g = lat.gram
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(int(g[i][i] / 2) % 2)
            elif i > j:
                row.append(int(g[i][j]) % 2)
            else:
                row.append(0)
        rows.append(tuple(row))
    return F2BilinearForm(tuple(rows))


def b_g_form(eps: F2BilinearForm, g_matrix: Sequence[Sequence]) -> F2BilinearForm:
    """Polarization eps + eps^g of any lift of g; symmetric, zero diagonal."""
    gbar = mod2_matrix(g_matrix)
    out = eps + eps.conjugate(gbar)
    b = out.matrix
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise AssertionError("b_g diagonal must vanish for an isometry")
        for j in range(n):
            if b[i][j] != b[j][i]:
                raise AssertionError("b_g must be symmetric for an isometry")
    return out


@dataclass(frozen=True)
class Lift:
    """Lift (g, eta) of an isometry g to the central extension."""

    lattice: Lattice
    eps: F2BilinearForm
    base: tuple
    eta: F2QuadraticForm

    def __post_init__(self):
        m = mat(self.base)
        object.__setattr__(self, "base", m)
        iso = Isometry(m, self.lattice)
        if not iso.is_integral():
            raise ValueError("lift base must be an integral isometry")
        expected = b_g_form(self.eps, m)
        if self.eta.polarization.matrix != expected.matrix:
            raise ValueError("eta polarization must equal eps + eps^g")

    def base_mod2(self) -> BitMat:
        return mod2_matrix(self.base)

    def eta_value(self, x: Bits) -> int:
        return self.eta.value(tuple(int(e) % 2 for e in x))


def lift(
    g_matrix: Sequence[Sequence],
    lat: Lattice,
    eps: F2BilinearForm,
    diagonal: Optional[Sequence[int]] = None,
) -> Lift:
    """Lift of g with the given eta diagonal (default all-zero)."""
    n = lat.rank
    if diagonal is None:
        diagonal = [0] * n
    if len(diagonal) != n:
        raise ValueError(f"diagonal length {len(diagonal)} != rank {n}")
    eta = F2QuadraticForm(
        tuple(int(d) % 2 for d in diagonal), b_g_form(eps, g_matrix)
    )
    return Lift(lat, eps, mat(g_matrix), eta)


def lift_power_sign(lf: Lift, alpha: Sequence, n: int) -> int:
    """Exponent of the central element in lf^n applied to e^alpha:
    sum of eta over the g-orbit prefix of alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gbar = lf.base_mod2()
    x = tuple(int(e) % 2 for e in alpha)
    total = 0
    for _ in range(n):
        total += lf.eta_value(x)
        x = bit_apply(x, gbar)
    return total % 2


def lift_power_sign_even_form(lf: Lift, alpha: Sequence, n: int) -> int:
    """Even-n closed form: eta(sum of the orbit) + <alpha, g^{n/2} alpha> mod 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    gbar = lf.base_mod2()
    x = tuple(int(e) % 2 for e in alpha)
    acc = tuple([0] * len(x))
    for _ in range(n):
        acc = tuple((a + b) % 2 for a, b in zip(acc, x))
        x = bit_apply(x, gbar)
    half = mat_pow(mat(lf.base), n // 2)
    ga = tuple(int(e) for e in vec(alpha))
    pair = lf.lattice.inner(vec(alpha), tuple(sum(ga[i] * half[i][j] for i in range(len(ga))) for j in range(len(ga))))
    if pair.denominator != 1:
        raise AssertionError("integral lattice pairing expected")
    return (lf.eta_value(acc) + int(pair)) % 2


def lift_order(lf: Lift, cap: int = 512) -> int:
    """Order of the lift: the base order m, doubled when the m-th power
    picks up the central sign on some basis vector."""
    iso = Isometry(lf.base, lf.lattice)
    m = iso.order(cap=cap)
    n = lf.lattice.rank
    for i in range(n):
        e_i = tuple(1 if j == i else 0 for j in range(n))
        if lift_power_sign(lf, e_i, m):
            return 2 * m
    return m


def compose(after: Lift, first: Lift) -> Lift:
    """Lift of the composite map (apply ``first``, then ``after``).

    Its eta is x -> eta_first(x) + eta_after(x first-bar), summed as
    diagonals and as polarizations."""
    if after.lattice is not first.lattice and after.lattice.gram != first.lattice.gram:
        raise ValueError("lifts live on different lattices")
    base = mat_mul(int_mat(first.base), int_mat(after.base))
    moved = pullback(after.eta, first.base_mod2())
    eta = F2QuadraticForm(
        tuple((a + b) % 2 for a, b in zip(first.eta.diagonal, moved.diagonal)),
        first.eta.polarization + moved.polarization,
    )
    return Lift(after.lattice, after.eps, base, eta)


def lift_inverse(lf: Lift) -> Lift:
    base = mat_inv(lf.base)
    if any(e.denominator != 1 for row in base for e in row):
        raise ValueError("base isometry is not invertible over the integers")
    return Lift(lf.lattice, lf.eps, base, pullback(lf.eta, mod2_matrix(base)))


def lift_power(lf: Lift, n: int) -> Lift:
    if n < 0:
        return lift_power(lift_inverse(lf), -n)
    out = lift(
        tuple(
            tuple(1 if i == j else 0 for j in range(lf.lattice.rank))
            for i in range(lf.lattice.rank)
        ),
        lf.lattice,
        lf.eps,
    )
    for _ in range(n):
        out = compose(lf, out)
    return out


def lifts_equal(a: Lift, b: Lift) -> bool:
    return (
        mat_eq(mat(a.base), mat(b.base))
        and a.eta.diagonal == b.eta.diagonal
        and a.eta.polarization.matrix == b.eta.polarization.matrix
    )


def theta_lift(lat: Lattice, eps: F2BilinearForm) -> Lift:
    """The order-2 lift of -1 with vanishing eta."""
    n = lat.rank
    neg = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    return lift(neg, lat, eps)


def mu_plus_mu_g_solve(g_matrix: Sequence[Sequence], lam: Sequence[int]) -> Bits:
    """The unique linear functional mu with mu + mu o g = lambda over F2.

    With functionals as coefficient columns this is (I + gbar) m = lambda;
    the system is invertible exactly when g is fixed point free of odd
    order on L/2L, and a singular system raises.
    """
    gbar = mod2_matrix(g_matrix)
    n = len(gbar)
    lam_bits = tuple(int(e) % 2 for e in lam)
    if len(lam_bits) != n:
        raise ValueError(f"functional length {len(lam_bits)} != rank {n}")
    a = tuple(
        tuple((gbar[i][j] + (1 if i == j else 0)) % 2 for j in range(n))
        for i in range(n)
    )
    return f2_solve_unique(a, lam_bits)


def functional_value(mu: Bits, x: Bits) -> int:
    return sum(m * xi for m, xi in zip(mu, x)) % 2


def commuting_lift(f_matrix: Sequence[Sequence], g_lift: Lift, m: int) -> Lift:
    """The unique lift of f with phi^{-1} ghat phi = ghat^m.

    Requires the lattice-level relation f^{-1} g f = g^m and g fixed
    point free of odd order; the correction is the unique mu solving
    mu + mu o g^m = lambda for the mismatch functional lambda.
    """
    lat = g_lift.lattice
    n = lat.rank
    f = mat(f_matrix)
    f_inv = mat_inv(f)
    lhs = mat_mul(mat_mul(f, g_lift.base), f_inv)
    gm = mat_pow(mat(g_lift.base), m)
    if not mat_eq(lhs, gm):
        raise ValueError("relation f^{-1} g f = g^m fails on the lattice")
    xi = lift(f, lat, g_lift.eps)
    zeta = lift_power(g_lift, m).eta
    fbar = mod2_matrix(f)
    hbar = mod2_matrix(gm)

    def lam_fn(x: Bits) -> int:
        return (
            zeta.value(x)
            + g_lift.eta_value(bit_apply(x, fbar))
            + xi.eta_value(x)
            + xi.eta_value(bit_apply(x, hbar))
        ) % 2

    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    lam = tuple(lam_fn(e) for e in basis)
    for i in range(n):
        for j in range(i + 1, n):
            pair = tuple((basis[i][t] + basis[j][t]) % 2 for t in range(n))
            if lam_fn(pair) != (lam[i] + lam[j]) % 2:
                raise AssertionError("mismatch functional is not linear")
    mu = mu_plus_mu_g_solve(gm, lam)
    corrected = tuple((d + b) % 2 for d, b in zip(xi.eta.diagonal, mu))
    phi = lift(f, lat, g_lift.eps, corrected)
    check = compose(lift_inverse(phi), compose(g_lift, phi))
    if not lifts_equal(check, lift_power(g_lift, m)):
        raise AssertionError("constructed lift fails the conjugation relation")
    return phi
