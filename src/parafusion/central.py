"""Mod-2 quadratic/bilinear calculus for lifts to the lattice central extension.

An even lattice L carries a standard 2-cocycle given by a bit matrix E
with eps(x, y) = x E y^T mod 2.  A lift of an isometry g is the pair
(g, eta) where eta is a mod-2 quadratic form on L/2L whose polarization
is eps + eps^g; powers (by squaring), orders, compositions and commuting
lifts reduce to exact bit arithmetic on forms held as rows packed into
ints (``linalg``'s F2 section), which ``matrix`` unpacks to 0/1 tuples.

Lifts compose in closed form: x -> eta(x F) is the quadratic form with
eta on the rows of F as its diagonal and F B F^T as its polarization
(``pullback``), so no composite is rebuilt from its values.
``quadratic_from_values`` does that rebuilding on all 2^n points, and is
kept as a small-n oracle for checking the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .lattices import Lattice, _order
from .linalg import (
    IntMat, clear_denominators, cleared_inverse, f2_echelon, f2_pack, f2_row_mul,
    f2_unpack, int_identity, int_mat, int_mat_mul, mat_pow, mat_scale, row_mul,
)

Bits = tuple[int, ...]
BitMat = tuple[Bits, ...]


def mod2_matrix(m: Sequence[Sequence]) -> BitMat:
    return tuple(tuple(int(e) % 2 for e in row) for row in m)


def bit_apply(x: Bits, m: BitMat) -> Bits:
    """Row vector times bit matrix over F2."""
    return f2_unpack(f2_row_mul(f2_pack(x), [f2_pack(r) for r in m]), len(m[0]))


def f2_solve_unique(a: BitMat, b: Bits) -> Bits:
    """Unique solution x of A x = b over F2; raises on a singular system.

    Forward echelon on the rows of (A | b), b at bit n, then
    back-substitution from the last pivot down."""
    n = len(a)
    echelon = f2_echelon(f2_pack(row) | (int(bi) & 1) << n for row, bi in zip(a, b))
    pivots = [(r & -r).bit_length() - 1 for r in echelon]
    if len(echelon) < n or any(p >= n for p in pivots):
        raise ValueError("singular F2 system; fixed-point-free odd order required")
    x = 0
    for p, r in sorted(zip(pivots, echelon), reverse=True):
        x |= (((r >> n) + (r & x).bit_count()) & 1) << p
    return f2_unpack(x, n)


def _require_alternating(rows: Sequence[int], error, diagonal: str, symmetric: str):
    """Raise ``error`` with the message for the first fault, row by row,
    that keeps the packed rows from being symmetric with zero diagonal."""
    for i, r in enumerate(rows):
        if r >> i & 1:
            raise error(diagonal)
        if r != sum((s >> i & 1) << j for j, s in enumerate(rows)):
            raise error(symmetric)


@dataclass(frozen=True, init=False)
class F2BilinearForm:
    """Square bit matrix B, value(x, y) = x B y^T mod 2, held as packed rows."""

    _rows: tuple[int, ...]

    def __init__(self, matrix: Sequence[Sequence[int]]):
        if any(len(row) != len(matrix) for row in matrix):
            raise ValueError("bilinear form matrix must be square")
        object.__setattr__(self, "_rows", tuple(map(f2_pack, matrix)))

    @classmethod
    def _packed(cls, rows: Iterable[int]) -> "F2BilinearForm":
        form = cls.__new__(cls)
        object.__setattr__(form, "_rows", tuple(rows))
        return form

    @property
    def matrix(self) -> BitMat:
        return tuple(f2_unpack(r, len(self._rows)) for r in self._rows)

    def value(self, x: Bits, y: Bits) -> int:
        return (f2_row_mul(f2_pack(x), self._rows) & f2_pack(y)).bit_count() & 1

    def __add__(self, other: "F2BilinearForm") -> "F2BilinearForm":
        if len(self._rows) != len(other._rows):
            raise ValueError("bilinear forms of different sizes")
        return F2BilinearForm._packed(a ^ b for a, b in zip(self._rows, other._rows))

    def conjugate(self, g: Sequence) -> "F2BilinearForm":
        """Pullback along g: value(x g, y g), i.e. matrix g B g^T; g is
        integer rows, or rows already packed mod 2."""
        g = [r if type(r) is int else f2_pack(r) for r in g]
        gb = [f2_row_mul(a, self._rows) for a in g]
        return F2BilinearForm._packed(
            sum(((a & b).bit_count() & 1) << j for j, b in enumerate(g)) for a in gb
        )


@dataclass(frozen=True)
class F2QuadraticForm:
    """q(x) = sum_i d_i x_i + sum_{i<j} x_i x_j B[i][j] over F2.

    The polarization matrix is symmetric with zero diagonal, so the
    upper triangle used in the expansion determines the form.
    """

    diagonal: Bits
    polarization: F2BilinearForm
    # The packed diagonal, and the polarization rows above the diagonal.
    _diag: int = field(init=False, repr=False, compare=False)
    _upper: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.polarization._rows
        if len(rows) != len(self.diagonal):
            raise ValueError("diagonal and polarization sizes differ")
        _require_alternating(
            rows, ValueError, "polarization must have zero diagonal",
            "polarization must be symmetric",
        )
        object.__setattr__(self, "_diag", f2_pack(self.diagonal))
        upper = (r >> i + 1 << i + 1 for i, r in enumerate(rows))
        object.__setattr__(self, "_upper", tuple(upper))

    def value(self, x: Bits) -> int:
        return self._packed_value(f2_pack(x))

    def _packed_value(self, x: int) -> int:
        # sum_i d_i x_i + sum_{i<j} x_i B_ij x_j = (d + x U) . x, U = upper(B)
        return ((self._diag ^ f2_row_mul(x, self._upper)) & x).bit_count() & 1


def quadratic_from_values(values, n: int) -> F2QuadraticForm:
    """Canonicalize a callable on F2^n into (diagonal, polarization) form.

    The reconstruction is exact only for quadratic inputs, so it is
    cross-checked on all 2^n points.  That is exponential in n, so this
    is an oracle for small n (at most 12); larger n raises ``ValueError``.
    """
    if n > 12:
        raise ValueError(f"exhaustive check needs n <= 12, got {n}")
    diag = tuple(values(f2_unpack(1 << i, n)) % 2 for i in range(n))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair = f2_unpack(1 << i | 1 << j, n)
            b[i][j] = b[j][i] = (values(pair) + diag[i] + diag[j]) % 2
    form = F2QuadraticForm(diag, F2BilinearForm(tuple(tuple(r) for r in b)))
    for w in range(1 << n):
        x = f2_unpack(w, n)
        if form.value(x) != values(x) % 2:
            raise AssertionError("callable is not a quadratic form")
    return form


def pullback(q: F2QuadraticForm, f: Sequence[int]) -> F2QuadraticForm:
    """The form x -> q(x f), f given by packed rows: q on the rows of f as
    its diagonal, and f B f^T as its polarization."""
    diagonal = tuple(map(q._packed_value, f))
    return F2QuadraticForm(diagonal, q.polarization.conjugate(f))


def standard_epsilon(lat: Lattice) -> F2BilinearForm:
    """The standard cocycle bit matrix: half-norms on the diagonal, Gram
    entries below it, zeros above."""
    if not lat.is_even():
        raise ValueError("standard cocycle needs an even lattice")
    g = lat._int_gram
    return F2BilinearForm(mod2_matrix(
        [g[i][i] // 2 if i == j else g[i][j] if i > j else 0 for j in range(lat.rank)]
        for i in range(lat.rank)
    ))


def b_g_form(eps: F2BilinearForm, g_matrix: Sequence[Sequence]) -> F2BilinearForm:
    """Polarization eps + eps^g of any lift of g (rows as ``conjugate``
    takes them); symmetric, zero diagonal."""
    out = eps + eps.conjugate(g_matrix)
    _require_alternating(
        out._rows, AssertionError, "b_g diagonal must vanish for an isometry",
        "b_g must be symmetric for an isometry",
    )
    return out


@dataclass(frozen=True)
class Lift:
    """Lift (g, eta) of an isometry g to the central extension; the base
    is given as exact rows and stored as ``int`` rows, and packed mod 2."""

    lattice: Lattice
    eps: F2BilinearForm
    base: IntMat
    eta: F2QuadraticForm
    _rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set(*clear_denominators(self.base))

    @classmethod
    def _from_pair(cls, lat: Lattice, eps: F2BilinearForm, s: int, base: IntMat, eta) -> "Lift":
        """The lift on the cleared pair (s, ``int`` rows base), unscanned."""
        lf = cls.__new__(cls)
        vars(lf).update(lattice=lat, eps=eps, eta=eta, _powers={})
        lf._set(s, base)
        return lf

    def _set(self, s: int, m: IntMat):
        # Every lift, composites included, is checked in full, over int.
        if not self.lattice.preserves_form(m, s):
            raise ValueError("matrix does not preserve the gram form")
        if s != 1:
            raise ValueError("lift base must be an integral isometry")
        vars(self).update(base=m, _rows=tuple(map(f2_pack, m)))
        if self.eta.polarization != b_g_form(self.eps, self._rows):
            raise ValueError("eta polarization must equal eps + eps^g")

    def base_mod2(self) -> BitMat:
        return mod2_matrix(self.base)

    def eta_value(self, x: Bits) -> int:
        return self.eta.value(x)


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
    return Lift(lat, eps, g_matrix, eta)


def lift_power_sign(lf: Lift, alpha: Sequence, n: int) -> int:
    """Exponent of the central element in lf^n applied to e^alpha:
    sum of eta over the g-orbit prefix of alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = f2_pack(alpha)
    total = 0
    for _ in range(n):
        total += lf.eta._packed_value(x)
        x = f2_row_mul(x, lf._rows)
    return total % 2


def lift_power_sign_even_form(lf: Lift, alpha: Sequence, n: int) -> int:
    """Even-n closed form: eta(sum of the orbit) + <alpha, g^{n/2} alpha> mod 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    x = f2_pack(alpha)
    acc = 0
    for _ in range(n):
        acc ^= x
        x = f2_row_mul(x, lf._rows)
    if n // 2 not in lf._powers:  # g^{n/2}, taken once per lift
        lf._powers[n // 2] = mat_pow(lf.base, n // 2)
    pair = lf.lattice.inner(alpha, row_mul(alpha, lf._powers[n // 2]))
    if pair.denominator != 1:
        raise AssertionError("integral lattice pairing expected")
    return (lf.eta._packed_value(acc) + int(pair)) % 2


def lift_order(lf: Lift, cap: int = 512) -> int:
    """Order of the lift: the base order m, doubled when the m-th power
    picks up the central sign on some basis vector; on the checked base."""
    m = _order(1, lf.base, cap)
    for e_i in int_identity(lf.lattice.rank):
        if lift_power_sign(lf, e_i, m):
            return 2 * m
    return m


def compose(after: Lift, first: Lift) -> Lift:
    """Lift of the composite map (apply ``first``, then ``after``).

    Its eta is x -> eta_first(x) + eta_after(x first-bar), summed as
    diagonals and as polarizations."""
    a, b = after.lattice, first.lattice
    if a is not b and (a._scale, a._int_gram) != (b._scale, b._int_gram):
        raise ValueError("lifts live on different lattices")
    base = int_mat_mul(first.base, after.base)
    moved = pullback(after.eta, first._rows)
    eta = F2QuadraticForm(
        tuple(a ^ b for a, b in zip(first.eta.diagonal, moved.diagonal)),
        first.eta.polarization + moved.polarization,
    )
    return Lift._from_pair(after.lattice, after.eps, 1, base, eta)


def lift_inverse(lf: Lift) -> Lift:
    s, base = cleared_inverse(lf.base)  # s = 1, as det(base) = ±1
    eta = pullback(lf.eta, tuple(map(f2_pack, base)))
    return Lift._from_pair(lf.lattice, lf.eps, s, base, eta)


def lift_power(lf: Lift, n: int) -> Lift:
    """lf^n by squaring lf itself, as powers of one lift commute."""
    if n < 0:
        return lift_power(lift_inverse(lf), -n)
    if n <= 1:
        return lf if n else lift(int_identity(lf.lattice.rank), lf.lattice, lf.eps)
    half = lift_power(lf, n // 2)
    square = compose(half, half)
    return compose(lf, square) if n % 2 else square


def lifts_equal(a: Lift, b: Lift) -> bool:
    return a.base == b.base and a.eta == b.eta


def theta_lift(lat: Lattice, eps: F2BilinearForm) -> Lift:
    """The order-2 lift of -1 with vanishing eta."""
    return lift(mat_scale(int_identity(lat.rank), -1), lat, eps)


def mu_plus_mu_g_solve(g_matrix: Sequence[Sequence], lam: Sequence[int]) -> Bits:
    """The unique linear functional mu with mu + mu o g = lambda over F2.

    With functionals as coefficient columns this is (I + gbar) m = lambda;
    the system is invertible exactly when g is fixed point free of odd
    order on L/2L, and a singular system raises.
    """
    n = len(g_matrix)
    if len(lam) != n:
        raise ValueError(f"functional length {len(lam)} != rank {n}")
    a = [f2_unpack(f2_pack(row) ^ 1 << i, n) for i, row in enumerate(g_matrix)]
    return f2_solve_unique(a, lam)


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
    f = int_mat(f_matrix)
    g_lift_m = lift_power(g_lift, m)
    if int_mat_mul(f, g_lift.base) != int_mat_mul(g_lift_m.base, f):
        raise ValueError("relation f^{-1} g f = g^m fails on the lattice")
    xi = lift(f, lat, g_lift.eps)
    fbar, hbar = xi._rows, g_lift_m._rows

    def lam_fn(x: int) -> int:
        return (
            g_lift_m.eta._packed_value(x)
            + g_lift.eta._packed_value(f2_row_mul(x, fbar))
            + xi.eta._packed_value(x)
            + xi.eta._packed_value(f2_row_mul(x, hbar))
        ) % 2

    lam = tuple(lam_fn(1 << i) for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if lam_fn(1 << i | 1 << j) != (lam[i] + lam[j]) % 2:
                raise AssertionError("mismatch functional is not linear")
    mu = mu_plus_mu_g_solve(g_lift_m.base, lam)
    phi = lift(f, lat, g_lift.eps, mu)  # xi's eta diagonal is all zero
    check = compose(lift_inverse(phi), compose(g_lift, phi))
    if not lifts_equal(check, g_lift_m):
        raise AssertionError("constructed lift fails the conjugation relation")
    return phi
