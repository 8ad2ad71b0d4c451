"""Exact positive-definite lattice arithmetic over the rationals.

Lattices are Gram-intrinsic: a lattice is its Gram matrix, and vectors
are coordinate rows in the lattice's own basis.  A rescaling by sqrt(2)
is therefore just a Gram doubling, and no irrational coordinates ever
appear.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import linalg
from .linalg import (
    Mat,
    clear_denominators,
    cleared_inverse,
    coset_minimum,
    det,
    dot,
    hnf,
    identity,
    int_identity,
    int_ldl,
    int_mat_mul,
    int_size_reduce_basis,
    integer_row_kernel,
    invariant_factors,
    is_symmetric,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    row_mul,
    shell_vectors,
    snf,
    transpose,
    vec,
)

Q = Fraction


class Lattice:
    """Positive-definite lattice given by an exact rational Gram matrix.

    Its denominators are cleared once, into gram = _int_gram / _scale in
    lowest terms; every routine here reads that pair over ``int``, and the
    ``Fraction`` ``gram`` is built only on a first outside read.  Derived
    lattices are built from their ``int`` pair by ``_from_pair``, unscanned."""

    def __init__(self, gram: Sequence[Sequence]):
        self._set(*clear_denominators(gram))

    @classmethod
    def _from_pair(cls, s: int, g: linalg.IntMat) -> "Lattice":
        """The lattice of Gram g/s, for ``int`` rows g and s > 0."""
        c = math.gcd(s, *(x for row in g for x in row))
        lat = cls.__new__(cls)
        lat._set(s // c, tuple(tuple(x // c for x in row) for row in g))
        return lat

    def _set(self, s: int, g: linalg.IntMat):
        self._scale, self._int_gram = s, g
        if not is_symmetric(g):
            raise ValueError("gram matrix must be symmetric")
        d, _ = int_ldl(g)  # raises unless positive definite
        self._det = d[-1] if d else 1  # det(g), the last leading minor

    @cached_property
    def gram(self) -> Mat:
        return tuple(tuple(Q(x, self._scale) for x in row) for row in self._int_gram)

    @property
    def rank(self) -> int:
        return len(self._int_gram)

    def det(self) -> Fraction:
        return Q(self._det, self._scale**self.rank)

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        sx, (cx,) = clear_denominators((x,))
        sy, (cy,) = clear_denominators((y,))
        ip = sum(v * dot(g, cy) for v, g in zip(cx, self._int_gram) if v)
        return Fraction(ip, sx * sy * self._scale)

    def norm(self, x: Sequence) -> Fraction:
        return self.inner(x, x)

    def is_integral(self) -> bool:
        return self._scale == 1

    def preserves_form(self, big_m: linalg.IntMat, s: int = 1) -> bool:
        """Whether the map M/s preserves the form: M·G·M^T = s^2·G over
        ``int``, for G the cleared Gram."""
        g = self._int_gram
        image = int_mat_mul(int_mat_mul(big_m, g), transpose(big_m))
        return mat_eq(image, g if s == 1 else mat_scale(g, s * s))

    def is_even(self) -> bool:
        return self.is_integral() and all(r[i] % 2 == 0 for i, r in enumerate(self._int_gram))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det()})"


def sublattice(parent: Lattice, basis_rows: Sequence[Sequence]) -> Lattice:
    """Lattice spanned by the given coordinate rows over the parent; each
    row must have the parent's rank as its width."""
    t, b = clear_denominators(basis_rows)
    g = int_mat_mul(int_mat_mul(b, parent._int_gram), transpose(b))
    return Lattice._from_pair(t * t * parent._scale, g)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice, with basis gram^{-1} in the original coordinates."""
    t, inv = cleared_inverse(lat._int_gram)
    return Lattice._from_pair(t, mat_scale(inv, lat._scale))


def rescale(lat: Lattice, c) -> Lattice:
    """Same abstract basis with the form scaled by c > 0; c=2 models sqrt(2)L."""
    c = Q(c)
    if c <= 0:
        raise ValueError(f"scale must be positive, got {c}")
    g = mat_scale(lat._int_gram, c.numerator)
    return Lattice._from_pair(lat._scale * c.denominator, g)


def tensor(a: Lattice, b: Lattice) -> Lattice:
    """Tensor product lattice; Gram is the Kronecker product."""
    g = [[x * y for x in ra for y in rb] for ra in a._int_gram for rb in b._int_gram]
    return Lattice._from_pair(a._scale * b._scale, g)


def tensor_vector(x: Sequence, y: Sequence) -> tuple:
    """Coordinates of the decomposable vector x (x) y in a tensor lattice."""
    return tuple(Q(xi) * Q(yj) for xi in x for yj in y)


def _cartan_a(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def root_lattice(family: str, n: int) -> Lattice:
    """Root lattice of type A_n, D_n, or E_n with the Cartan-matrix Gram."""
    if family not in ("A", "D", "E"):
        raise ValueError(f"unknown family {family!r}; expected A, D, or E")
    if family == "A" and n < 1:
        raise ValueError(f"A_n needs n >= 1, got {n}")
    if family == "D" and n < 4:
        raise ValueError(f"D_n needs n >= 4, got {n}")
    if family == "E" and n not in (6, 7, 8):
        raise ValueError(f"E_n needs n in 6..8, got {n}")
    g = _cartan_a(n)
    if family != "A":
        # D: the last node forks off node n-3; E: it branches off node 2.
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        fork = n - 3 if family == "D" else 2
        g[n - 1][fork] = g[fork][n - 1] = -1
    return Lattice._from_pair(1, g)


def _order(s: int, big_m: linalg.IntMat, cap: int) -> int:
    """Least n <= cap with (M/s)^n = 1, checked over int as M^n = s^n·I."""
    p, scale = big_m, s
    for n in range(1, cap + 1):
        if all(x == scale * (i == j) for i, r in enumerate(p) for j, x in enumerate(r)):
            return n
        p, scale = int_mat_mul(big_m, p), scale * s
    raise ValueError(f"order exceeds cap {cap}")


@dataclass(frozen=True, eq=False)
class Isometry:
    """Gram-preserving linear map, given by its matrix of row images.

    Like ``Lattice`` it clears the rows once, into matrix = _int_matrix /
    _scale in lowest terms, and works on that pair over ``int``; the
    ``Fraction`` ``matrix`` is built only on a first outside read."""

    rows: InitVar[Sequence[Sequence]]
    lattice: Lattice

    def __post_init__(self, rows):
        s, m = clear_denominators(rows)
        if not self.lattice.preserves_form(m, s):
            raise ValueError("matrix does not preserve the gram form")
        object.__setattr__(self, "_scale", s)
        object.__setattr__(self, "_int_matrix", m)

    @cached_property
    def matrix(self) -> Mat:
        return tuple(tuple(Q(x, self._scale) for x in row) for row in self._int_matrix)

    def is_integral(self) -> bool:
        return self._scale == 1

    def apply(self, x: Sequence) -> tuple:
        return row_mul(vec(x), self.matrix)

    def order(self, cap: int = 512) -> int:
        """Least n <= cap with m^n = 1, checked exactly (``_order``)."""
        return _order(self._scale, self._int_matrix, cap)

    def is_fixed_point_free(self) -> bool:
        """Whether det(s·I - M) != 0, for m = M/s."""
        s, m = self._scale, self._int_matrix
        return det(mat_sub(mat_scale(int_identity(len(m)), s), m)) != 0


@dataclass(frozen=True)
class DiscriminantGroup:
    """L*/L with generators lifted to L* (coordinates in L's basis)."""

    invariant_factors: tuple[int, ...]
    generator_coords: tuple[tuple, ...]
    q_values: Optional[tuple[int, ...]]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Invariant factors and lifted generators of L*/L, with q-values.

    Writing UGV = D in Smith normal form, the class generators lift to
    the rows of D^{-1}U in L's own basis.  For an even lattice of odd
    exponent m the quadratic form is (m/2)<g,g> mod m.
    """
    if not lat.is_integral():
        raise ValueError("discriminant group needs an integral lattice")
    d, u, _ = snf(lat._int_gram)
    n = lat.rank
    kept = [(d[i][i], u[i]) for i in range(n) if d[i][i] > 1]
    factors = [di for di, _ in kept]
    gens = [tuple(Q(e, di) for e in ui) for di, ui in kept]
    if math.prod(d[i][i] for i in range(n)) != lat.det():
        raise AssertionError("invariant factors do not multiply to det")
    q_values = None
    if factors and lat.is_even() and factors[-1] % 2 == 1:
        m = factors[-1]
        vals = []
        # q(u/d) = (m/2)·uGu^T/d^2, over int
        for (di, ui), ug in zip(kept, int_mat_mul([ui for _, ui in kept], lat._int_gram)):
            num, den = m * dot(ug, ui), 2 * di * di
            if num % den:
                raise AssertionError(f"q-value {Q(num, den)} not integral at exponent {m}")
            vals.append(num // den % m)
        q_values = tuple(vals)
    return DiscriminantGroup(tuple(factors), tuple(gens), q_values)


def _require_integer_rows(rows: Sequence[Sequence], what: str) -> linalg.IntMat:
    s, m = clear_denominators(rows)
    if s != 1:
        bad = next(x for row in m for x in row if x % s)
        raise ValueError(f"{what} has non-integer coordinate {Q(bad, s)}")
    return m


def annihilator(lat: Lattice, a_rows: Sequence[Sequence]) -> linalg.IntMat:
    """HNF basis of {x in L : <x, a> = 0 for all rows a}."""
    a = _require_integer_rows(a_rows, "sublattice")
    out = hnf(integer_row_kernel(int_mat_mul(lat._int_gram, transpose(a))))
    if len(out) + len(hnf(a)) != lat.rank:
        raise AssertionError("annihilator rank defect")
    return out


def _rssd_coefficients(lat: Lattice, a_rows: Sequence[Sequence]):
    """(S, N, C) for S the HNF of the rows, N their annihilator and C =
    2·[S; N]^{-1}, or C = None where that is not integral.

    Row i of C writes 2e_i over the basis [S; N] of the span plus its
    annihilator, so the sublattice is RSSD exactly when C is integral.
    [S; N] is square: the annihilator has the complementary rank.
    """
    a = _require_integer_rows(a_rows, "sublattice")
    if any(len(row) != lat.rank for row in a):
        raise ValueError(f"sublattice rows must have width {lat.rank}")
    sa, sn = hnf(a), annihilator(lat, a)
    s, inv = cleared_inverse(sa + sn)  # C = 2·inv/s, integral iff s | 2
    return sa, sn, (mat_scale(inv, 2 // s) if 2 % s == 0 else None)


def is_rssd(lat: Lattice, a_rows: Sequence[Sequence]) -> bool:
    """Whether 2L lies in the integer span of the rows plus their annihilator."""
    return _rssd_coefficients(lat, a_rows)[2] is not None


def rssd_involution(lat: Lattice, a_rows: Sequence[Sequence]) -> Isometry:
    """The involution acting as -1 on the rows' span and +1 on its annihilator.

    Writing 2e_i = alpha_i + beta_i over the span and the annihilator, row i
    is e_i - alpha_i, and alpha_i is row i of C's span block times S.
    """
    sa, sn, c = _rssd_coefficients(lat, a_rows)
    if c is None:
        raise ValueError("sublattice is not RSSD; no integral involution")
    n = lat.rank
    alpha = int_mat_mul([row[: len(sa)] for row in c], sa) if sa else ((0,) * n,) * n
    t = mat_sub(int_identity(n), alpha)
    if int_mat_mul(t, t) != int_identity(n):
        raise AssertionError("involution does not square to identity")
    if int_mat_mul(sa, t) != mat_scale(sa, -1):
        raise AssertionError("involution is not -1 on the sublattice")
    if int_mat_mul(sn, t) != sn:
        raise AssertionError("involution is not +1 on the annihilator")
    return Isometry(t, lat)


def shell(lat: Lattice, norm) -> list[tuple[int, ...]]:
    """All lattice vectors of the exact given norm, as coordinate rows."""
    norm = Q(norm)
    if norm < 0:
        raise ValueError(f"norm must be >= 0, got {norm}")
    if lat.rank <= 4:
        return shell_vectors(lat._int_gram, norm * lat._scale)
    g2, u = int_size_reduce_basis(lat._int_gram)
    vecs = shell_vectors(g2, norm * lat._scale)
    if u == int_identity(lat.rank):
        return vecs
    cols = tuple(zip(*u))
    return [tuple(sum(map(mul, x, col)) for col in cols) for x in vecs]


def coset_min_norm(lat: Lattice, shift: Sequence) -> Fraction:
    """Minimal norm over the coset shift + L."""
    return coset_minimum(lat._int_gram, vec(shift))[0] / lat._scale


def coxeter_nu(k: int) -> linalg.IntMat:
    """Order-k fixed-point-free isometry of (sqrt2)A_{k-1} cycling the roots."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = k - 1
    shift = tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n - 1))
    return shift + ((-1,) * n,)


def sqrt2_a(n: int) -> Lattice:
    """The doubled root lattice sqrt(2)A_n."""
    if n < 1:
        raise ValueError(f"A_n needs n >= 1, got {n}")
    return Lattice._from_pair(1, mat_scale(_cartan_a(n), 2))


def tau_isometry(k: int, s: int) -> linalg.IntMat:
    """Isometry of (sqrt2)A_{k-1} induced by t -> s*t mod k on the cycled
    root indices; it normalizes the cycle with tau^{-1} nu tau = nu^{s^{-1}}."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if math.gcd(s, k) != 1:
        raise ValueError(f"s={s} must be invertible mod {k}")
    n = k - 1

    def alpha_diff(a: int, b: int) -> tuple[int, ...]:
        # alpha_a - alpha_b in the basis b_i = alpha_i - alpha_{i+1}.
        return tuple(int(a <= t < b) - int(b <= t < a) for t in range(n))

    rows = [alpha_diff((s * i) % k, (s * (i + 1)) % k) for i in range(n)]
    gram = mat_scale(_cartan_a(n), 2)  # (sqrt2)A_{k-1}, over int
    if int_mat_mul(int_mat_mul(rows, gram), transpose(rows)) != gram:
        raise ValueError("matrix does not preserve the gram form")
    return tuple(rows)


def quotient_invariants(lat: Lattice, s_rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Invariant factors of L/S for a full-rank sublattice S, 1s included;
    S has full rank when it has lat.rank nonzero invariant factors."""
    invs = invariant_factors(_require_integer_rows(s_rows, "sublattice"))
    if len(invs) != lat.rank:
        raise ValueError("sublattice is not full rank")
    return invs


def dual_quotient_invariants(lat: Lattice, s_rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Invariant factors of S*/L* for a full-rank sublattice S of L.

    In L's coordinates S* has basis (G S^T)^{-1} and L* has basis G^{-1},
    so the transition matrix of L* over S* is G^{-1}·(G S^T) = S^T, with
    no inverse to take; its SNF gives the quotient, and its rank.
    """
    s = _require_integer_rows(s_rows, "sublattice")
    invs = invariant_factors(transpose(s))
    if len(s) != lat.rank or len(invs) != lat.rank:
        raise ValueError("sublattice basis must be square of full rank")
    return invs


def lattice_intersection(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> Mat:
    """Canonical (HNF) basis of the intersection of two rational lattices.

    Both inputs are coordinate rows over a common basis; solutions of
    x A + y B = 0 with integral x, y are the integer kernel of s·[A; B],
    cleared once, and each x·(s·A) is multiplied over ``int``.
    """
    a = tuple(map(tuple, rows_a))
    s, m = clear_denominators(a + tuple(map(tuple, rows_b)))
    vecs = int_mat_mul([x[: len(a)] for x in integer_row_kernel(m)], m[: len(a)])
    return tuple(tuple(Q(e, s) for e in row) for row in hnf(vecs))


def same_lattice(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> bool:
    """Exact equality of the spanned lattices over a common basis: with the
    rows cleared to (s, s·A) and (t, t·B), t·HNF(s·A) = s·HNF(t·B)."""
    (s, a), (t, b) = clear_denominators(rows_a), clear_denominators(rows_b)
    return mat_scale(hnf(a), t) == mat_scale(hnf(b), s)


def c_nu_radical(lat: Lattice, nu: Sequence[Sequence], p: int) -> linalg.IntMat:
    """Radical of the mod-2p alternating form attached to an integral,
    fixed-point-free isometry of order p, for any odd p >= 3 (p need not
    be prime), cross-checked against L intersect (1-nu)L*.

    The form is C[i][j] = 2 * sum_{m=1}^{p-1} m <nu^m e_i, e_j> mod 2p,
    accumulated over ``int``; its radical is the projection of the integer
    kernel of [C; 2p*I].
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")
    if not lat.is_integral():
        raise ValueError("needs an integral lattice")
    iso = Isometry(nu, lat)
    if not iso.is_integral():
        raise ValueError("isometry must be integral")
    if iso.order(cap=2 * p) != p:
        raise ValueError(f"isometry does not have order {p}")
    if not iso.is_fixed_point_free():
        raise ValueError("isometry has nonzero fixed points")
    n, m = lat.rank, iso._int_matrix
    weighted = [[0] * n for _ in range(n)]  # sum_m m·nu^m, mod 2p
    power = m
    for step in range(1, p):
        for w_row, p_row in zip(weighted, power):
            for j, e in enumerate(p_row):
                w_row[j] = (w_row[j] + step * e) % (2 * p)
        power = int_mat_mul(power, m)
    c = [[2 * e % (2 * p) for e in row] for row in int_mat_mul(weighted, lat._int_gram)]
    stacked = tuple(tuple(row) for row in c) + tuple(
        tuple(2 * p if j == i else 0 for j in range(n)) for i in range(n)
    )
    ker = integer_row_kernel(stacked)
    radical = hnf([row[:n] for row in ker])

    # s·(L intersect (1-nu)L*) = sL intersect g(1-nu), for G^{-1} = g/s
    s, g = cleared_inverse(lat._int_gram)
    cross = lattice_intersection(
        mat_scale(int_identity(n), s), int_mat_mul(g, mat_sub(int_identity(n), m))
    )
    if mat_scale(radical, s) != cross:
        raise AssertionError("radical disagrees with L intersect (1-nu)L*")
    return radical


def r_cap_p_dual_index(root: Lattice, p: int) -> int:
    """Index of pR inside R intersect pR*, via the SNF of the transition."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")
    n = root.rank
    t_rows = lattice_intersection(
        identity(n), mat_scale(mat_inv(root._int_gram), p * root._scale)
    )
    p_rows = mat_scale(identity(n), p)
    trans = mat_mul(p_rows, mat_inv(t_rows))
    return math.prod(invariant_factors(_require_integer_rows(trans, "index transition")))


def reflection(root_lat: Lattice, root: Sequence) -> Isometry:
    """Reflection x -> x - <x, root> root in a norm-2 vector."""
    r = vec(root)
    if root_lat.norm(r) != 2:
        raise ValueError(f"reflection needs a norm-2 vector, got norm {root_lat.norm(r)}")
    n = root_lat.rank
    pair = [x / root_lat._scale for x in row_mul(r, root_lat._int_gram)]  # <e_i, root>
    t = tuple(tuple(Q(int(i == j)) - pair[i] * r[j] for j in range(n)) for i in range(n))
    if not mat_eq(mat_mul(t, t), identity(n)):
        raise AssertionError("reflection does not square to identity")
    return Isometry(t, root_lat)


def weyl_vector(k: int) -> tuple:
    """Coordinates in sqrt(2)A_{k-1} of the doubled half-sum of positive roots.

    The vector r satisfies <r, b_i> = 2 for every basis vector, so its
    pairings against the lattice stay rational with no radicals.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    t, row = _weyl_vector(sqrt2_a(k - 1))
    return tuple(Q(x, t) for x in row)


def _weyl_vector(lat: Lattice) -> tuple[int, tuple[int, ...]]:
    # (t, t·r) for r = 2·(1, ..., 1)·G^{-1}, G = g/s and g^{-1} = inv/t
    t, inv = cleared_inverse(lat._int_gram)
    return t, int_mat_mul(((2 * lat._scale,) * lat.rank,), inv)[0]


def _weyl_pairings(k: int) -> tuple[Lattice, linalg.IntMat, tuple[int, ...]]:
    """sqrt(2)A_{k-1}, S = 1 - nu and the pairing row r·G·S^T / 2."""
    lat = sqrt2_a(k - 1)
    s = mat_sub(int_identity(k - 1), coxeter_nu(k))
    t, row = _weyl_vector(lat)
    d = 2 * t * lat._scale  # r·G·S^T / 2 = (t·r)·g·S^T / d
    pairings = int_mat_mul(int_mat_mul((row,), lat._int_gram), transpose(s))[0]
    if any(e % d for e in pairings):
        raise AssertionError("pairing row not integral")
    return lat, s, tuple(e // d for e in pairings)


def weyl_pairing_row(k: int) -> tuple[int, ...]:
    """Normalized pairings <r, (1-nu) b_i>/2; comes out as (0, ..., 0, k)."""
    return _weyl_pairings(k)[2]


@dataclass(frozen=True)
class WeylReport:
    k: int
    passed: bool
    pairing_row: tuple[int, ...]
    dual_membership: bool
    dual_quotient: tuple[int, ...]


def verify_weyl(k: int) -> WeylReport:
    """Check the pairing row, the dual membership of r/2k, and the order-k
    quotient ((1-nu)N)*/N*."""
    lat, s, row = _weyl_pairings(k)
    row_ok = row == tuple([0] * (k - 2) + [k])
    # <r/2k, (1-nu) b_i> is the pairing row over k.
    member = all(e % k == 0 for e in row)
    inv = dual_quotient_invariants(lat, s)
    order = math.prod(inv)
    return WeylReport(
        k=k,
        passed=row_ok and member and order == k,
        pairing_row=row,
        dual_membership=member,
        dual_quotient=inv,
    )
