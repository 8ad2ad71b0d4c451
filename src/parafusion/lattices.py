"""Exact positive-definite lattice arithmetic over the rationals.

Lattices are Gram-intrinsic: a lattice is its Gram matrix, and vectors
are coordinate rows in the lattice's own basis.  A rescaling by sqrt(2)
is therefore just a Gram doubling, and no irrational coordinates ever
appear.  Sublattices carry a parent pointer plus the coordinate matrix
of their basis in the parent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .linalg import (
    Mat,
    clear_denominators,
    coset_minimum,
    det,
    dot,
    hnf,
    identity,
    int_identity,
    int_mat,
    integer_row_kernel,
    invariant_factors,
    is_symmetric,
    ldl,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    rank,
    rational_hnf,
    row_mul,
    shell_vectors,
    size_reduce_basis,
    snf,
    solve_left,
    transpose,
    vec,
)

Q = Fraction


class Lattice:
    """Positive-definite lattice given by an exact rational Gram matrix."""

    def __init__(
        self,
        gram: Sequence[Sequence],
        parent: Optional["Lattice"] = None,
        parent_basis: Optional[Sequence[Sequence]] = None,
    ):
        g = mat(gram)
        if not is_symmetric(g):
            raise ValueError("gram matrix must be symmetric")
        ldl(g)  # raises on non-positive-definite input
        if (parent is None) != (parent_basis is None):
            raise ValueError("parent and parent_basis must be given together")
        if parent is not None:
            b = mat(parent_basis)
            expected = mat_mul(mat_mul(b, parent.gram), transpose(b))
            if not mat_eq(expected, g):
                raise ValueError("gram does not match parent_basis over parent")
            self.parent_basis: Optional[Mat] = b
        else:
            self.parent_basis = None
        self.gram: Mat = g
        self.parent = parent

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return det(self.gram)

    def inner(self, x: Sequence, y: Sequence) -> Fraction:
        return dot(row_mul(vec(x), self.gram), vec(y))

    def norm(self, x: Sequence) -> Fraction:
        return self.inner(x, x)

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.gram for e in row)

    def is_even(self) -> bool:
        return self.is_integral() and all(
            self.gram[i][i] % 2 == 0 for i in range(self.rank)
        )

    def to_parent(self, x: Sequence) -> tuple:
        """Coordinates of a vector of this lattice in the parent's basis."""
        if self.parent_basis is None:
            raise ValueError("lattice has no parent")
        return row_mul(vec(x), self.parent_basis)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det()})"


def sublattice(parent: Lattice, basis_rows: Sequence[Sequence]) -> Lattice:
    """Lattice spanned by the given coordinate rows over the parent."""
    b = mat(basis_rows)
    g = mat_mul(mat_mul(b, parent.gram), transpose(b))
    return Lattice(g, parent=parent, parent_basis=b)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice, with basis gram^{-1} in the original coordinates."""
    ginv = mat_inv(lat.gram)
    return Lattice(ginv, parent=lat, parent_basis=ginv)


def rescale(lat: Lattice, c) -> Lattice:
    """Same abstract basis with the form scaled by c > 0; c=2 models sqrt(2)L."""
    c = Q(c)
    if c <= 0:
        raise ValueError(f"scale must be positive, got {c}")
    return Lattice(mat_scale(lat.gram, c))


def tensor(a: Lattice, b: Lattice) -> Lattice:
    """Tensor product lattice; Gram is the Kronecker product."""
    na, nb = a.rank, b.rank
    g = [
        [a.gram[i][k] * b.gram[j][l] for k in range(na) for l in range(nb)]
        for i in range(na)
        for j in range(nb)
    ]
    return Lattice(g)


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
    if family == "A":
        if n < 1:
            raise ValueError(f"A_n needs n >= 1, got {n}")
        return Lattice(_cartan_a(n))
    if family == "D":
        if n < 4:
            raise ValueError(f"D_n needs n >= 4, got {n}")
        g = _cartan_a(n)
        # Fork: last node attaches to node n-3 instead of n-2.
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        g[n - 1][n - 3] = g[n - 3][n - 1] = -1
        return Lattice(g)
    if family == "E":
        if n not in (6, 7, 8):
            raise ValueError(f"E_n needs n in 6..8, got {n}")
        g = _cartan_a(n)
        # Branch node: node n-1 attaches to node 2 of the A-chain 0..n-2.
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        g[n - 1][2] = g[2][n - 1] = -1
        return Lattice(g)
    raise ValueError(f"unknown family {family!r}; expected A, D, or E")


@dataclass(frozen=True)
class Isometry:
    """Gram-preserving linear map, as a matrix of row images."""

    matrix: Mat
    lattice: Lattice

    def __post_init__(self):
        m = mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        g = self.lattice.gram
        if not mat_eq(mat_mul(mat_mul(m, g), transpose(m)), g):
            raise ValueError("matrix does not preserve the gram form")

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.matrix for e in row)

    def apply(self, x: Sequence) -> tuple:
        return row_mul(vec(x), self.matrix)

    def order(self, cap: int = 512) -> int:
        p = self.matrix
        ident = identity(self.lattice.rank)
        for n in range(1, cap + 1):
            if mat_eq(p, ident):
                return n
            p = mat_mul(p, self.matrix)
        raise ValueError(f"order exceeds cap {cap}")

    def is_fixed_point_free(self) -> bool:
        return det(mat_sub(identity(self.lattice.rank), self.matrix)) != 0


@dataclass(frozen=True)
class DiscriminantGroup:
    """L*/L with generators lifted to L* (coordinates in L's basis)."""

    invariant_factors: tuple[int, ...]
    generator_coords: tuple[tuple, ...]
    q_values: Optional[tuple[int, ...]]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

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
    g_int = int_mat(lat.gram)
    d, u, _ = snf(g_int)
    n = lat.rank
    factors = []
    gens = []
    for i in range(n):
        di = d[i][i]
        if di > 1:
            factors.append(di)
            gens.append(tuple(Q(e, di) for e in u[i]))
    total = 1
    for f in invariant_factors(g_int):
        total *= f
    if total != lat.det():
        raise AssertionError("invariant factors do not multiply to det")
    q_values = None
    if factors and lat.is_even() and factors[-1] % 2 == 1:
        m = factors[-1]
        vals = []
        for gen in gens:
            v = Q(m, 2) * lat.inner(gen, gen)
            if v.denominator != 1:
                raise AssertionError(f"q-value {v} not integral at exponent {m}")
            vals.append(int(v) % m)
        q_values = tuple(vals)
    return DiscriminantGroup(tuple(factors), tuple(gens), q_values)


def _require_integer_rows(rows: Mat, what: str) -> linalg.IntMat:
    for r in rows:
        for e in r:
            if Q(e).denominator != 1:
                raise ValueError(f"{what} has non-integer coordinate {e}")
    return int_mat(rows)


def annihilator(lat: Lattice, a_rows: Sequence[Sequence]) -> linalg.IntMat:
    """HNF basis of {x in L : <x, a> = 0 for all rows a}."""
    a = mat(a_rows)
    _require_integer_rows(a, "sublattice")
    _, m_int = clear_denominators(mat_mul(lat.gram, transpose(a)))
    ker = integer_row_kernel(m_int)
    out = hnf(ker)
    if len(out) + rank(a) != lat.rank:
        raise AssertionError("annihilator rank defect")
    return out


def is_rssd(lat: Lattice, a_rows: Sequence[Sequence]) -> bool:
    """Whether 2L lies in the integer span of the rows plus their annihilator."""
    a = _require_integer_rows(mat(a_rows), "sublattice")
    ann = annihilator(lat, a)
    span = hnf(tuple(a) + tuple(ann))
    if len(span) != lat.rank:
        return False
    for i in range(lat.rank):
        target = tuple(2 if j == i else 0 for j in range(lat.rank))
        y = solve_left(span, target)
        if y is None or any(c.denominator != 1 for c in y):
            return False
    return True


def rssd_involution(lat: Lattice, a_rows: Sequence[Sequence]) -> Isometry:
    """The involution acting as -1 on the rows' span and +1 on its annihilator."""
    a = _require_integer_rows(mat(a_rows), "sublattice")
    sa = hnf(a)
    sn = annihilator(lat, a)
    basis = tuple(sa) + tuple(sn)
    n = lat.rank
    if len(basis) != n:
        raise ValueError("span plus annihilator does not have full rank")
    rows = []
    for i in range(n):
        target = tuple(2 if j == i else 0 for j in range(n))
        y = solve_left(basis, target)
        if y is None or any(c.denominator != 1 for c in y):
            raise ValueError("sublattice is not RSSD; no integral involution")
        alpha = row_mul(y[: len(sa)], mat(sa)) if sa else tuple([Q(0)] * n)
        e_i = tuple(Q(1) if j == i else Q(0) for j in range(n))
        rows.append(tuple(e_i[j] - alpha[j] for j in range(n)))
    t = tuple(rows)
    if any(e.denominator != 1 for row in t for e in row):
        raise AssertionError("involution matrix not integral")
    if not mat_eq(mat_mul(t, t), identity(n)):
        raise AssertionError("involution does not square to identity")
    for row_a in sa:
        if row_mul(vec(row_a), t) != tuple(-Q(e) for e in row_a):
            raise AssertionError("involution is not -1 on the sublattice")
    for row_b in sn:
        if row_mul(vec(row_b), t) != vec(row_b):
            raise AssertionError("involution is not +1 on the annihilator")
    return Isometry(t, lat)


def shell(lat: Lattice, norm) -> list[tuple[int, ...]]:
    """All lattice vectors of the exact given norm, as coordinate rows."""
    norm = Q(norm)
    if norm < 0:
        raise ValueError(f"norm must be >= 0, got {norm}")
    if norm == 0:
        return [tuple([0] * lat.rank)]
    if lat.rank > 4:
        g2, u = size_reduce_basis(lat.gram)
        return [
            tuple(int(e) for e in row_mul(vec(x), mat(u)))
            for x in shell_vectors(g2, norm)
        ]
    return shell_vectors(lat.gram, norm)


def coset_min_norm(lat: Lattice, shift: Sequence) -> Fraction:
    """Minimal norm over the coset shift + L."""
    return coset_minimum(lat.gram, vec(shift))[0]


def coset_minimizers(lat: Lattice, shift: Sequence) -> tuple[Fraction, list]:
    """Minimal coset norm together with all lattice offsets attaining it."""
    return coset_minimum(lat.gram, vec(shift))


def coxeter_nu(k: int) -> linalg.IntMat:
    """Order-k fixed-point-free isometry of (sqrt2)A_{k-1} cycling the roots."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = k - 1
    rows = []
    for i in range(n - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(n)))
    rows.append(tuple([-1] * n))
    return tuple(rows)


def sqrt2_a(n: int) -> Lattice:
    """The doubled root lattice sqrt(2)A_n."""
    return rescale(root_lattice("A", n), 2)


def tau_isometry(k: int, s: int) -> linalg.IntMat:
    """Isometry of (sqrt2)A_{k-1} induced by t -> s*t mod k on the cycled
    root indices; it normalizes the cycle with tau^{-1} nu tau = nu^{s^{-1}}."""
    if math.gcd(s, k) != 1:
        raise ValueError(f"s={s} must be invertible mod {k}")
    n = k - 1

    def alpha_diff(a: int, b: int) -> tuple[int, ...]:
        # alpha_a - alpha_b in the basis b_i = alpha_i - alpha_{i+1}.
        row = [0] * n
        if a < b:
            for t in range(a, b):
                row[t] += 1
        else:
            for t in range(b, a):
                row[t] -= 1
        return tuple(row)

    rows = [alpha_diff((s * i) % k, (s * (i + 1)) % k) for i in range(n)]
    lat = sqrt2_a(n)
    Isometry(mat(rows), lat)  # validates gram preservation
    return tuple(rows)


def quotient_invariants(lat: Lattice, s_rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Invariant factors of L/S for a full-rank sublattice S, 1s included."""
    s = _require_integer_rows(mat(s_rows), "sublattice")
    if rank(s) != lat.rank:
        raise ValueError("sublattice is not full rank")
    return invariant_factors(s)


def dual_quotient_invariants(lat: Lattice, s_rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Invariant factors of S*/L* for a full-rank sublattice S of L.

    S* is computed in L's coordinates as (G S^T)^{-1}; the transition
    matrix of L* over S* must be integral and its SNF gives the quotient.
    """
    s = mat(s_rows)
    if len(s) != lat.rank or rank(s) != lat.rank:
        raise ValueError("sublattice basis must be square of full rank")
    b_sub_dual = mat_inv(mat_mul(lat.gram, transpose(s)))
    b_dual = mat_inv(lat.gram)
    trans = mat_mul(b_dual, mat_inv(b_sub_dual))
    c = _require_integer_rows(trans, "dual transition")
    return invariant_factors(c)


def lattice_intersection(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> Mat:
    """Canonical (HNF) basis of the intersection of two rational lattices.

    Both inputs are coordinate rows over a common basis; solutions of
    x A = y B with integral x, y are found through an integer kernel.
    """
    a, b = mat(rows_a), mat(rows_b)
    stacked = tuple(a) + tuple(tuple(-e for e in row) for row in b)
    _, m_int = clear_denominators(stacked)
    ker = integer_row_kernel(m_int)
    vecs = [row_mul(vec(x[: len(a)]), a) for x in ker]
    if not vecs:
        return ()
    return rational_hnf(vecs)


def same_lattice(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> bool:
    """Exact equality of the spanned lattices over a common basis."""
    return rational_hnf(mat(rows_a)) == rational_hnf(mat(rows_b))


def c_nu_radical(lat: Lattice, nu: Sequence[Sequence], p: int) -> linalg.IntMat:
    """Radical of the mod-2p alternating form attached to a fixed-point-free
    order-p isometry, cross-checked against L intersect (1-nu)L*.

    The form is C[i][j] = 2 * sum_{m=1}^{p-1} m <nu^m e_i, e_j> mod 2p;
    its radical is the projection of the integer kernel of [C; 2p*I].
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    if not lat.is_integral():
        raise ValueError("needs an integral lattice")
    iso = Isometry(mat(nu), lat)
    if not iso.is_integral():
        raise ValueError("isometry must be integral")
    if iso.order(cap=2 * p) != p:
        raise ValueError(f"isometry does not have order {p}")
    if not iso.is_fixed_point_free():
        raise ValueError("isometry has nonzero fixed points")
    n = lat.rank
    m = mat(nu)
    c = [[0] * n for _ in range(n)]
    power = m
    for step in range(1, p):
        pg = mat_mul(power, lat.gram)
        for i in range(n):
            for j in range(n):
                c[i][j] = (c[i][j] + 2 * step * int(pg[i][j])) % (2 * p)
        power = mat_mul(power, m)
    stacked = tuple(tuple(row) for row in c) + tuple(
        tuple(2 * p if j == i else 0 for j in range(n)) for i in range(n)
    )
    ker = integer_row_kernel(stacked)
    radical = hnf([row[:n] for row in ker])

    dual_rows = mat_mul(
        mat_inv(lat.gram), mat_sub(identity(n), m)
    )
    cross = lattice_intersection(identity(n), dual_rows)
    if rational_hnf(radical) != cross:
        raise AssertionError("radical disagrees with L intersect (1-nu)L*")
    return radical


def r_cap_p_dual_index(root: Lattice, p: int) -> int:
    """Index of pR inside R intersect pR*, via the SNF of the transition."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    n = root.rank
    t_rows = lattice_intersection(
        identity(n), mat_scale(mat_inv(root.gram), p)
    )
    p_rows = mat_scale(identity(n), p)
    trans = mat_mul(p_rows, mat_inv(t_rows))
    c = _require_integer_rows(trans, "index transition")
    out = 1
    for f in invariant_factors(c):
        out *= f
    return out


def reflection(root_lat: Lattice, root: Sequence) -> Isometry:
    """Reflection x -> x - <x, root> root in a norm-2 vector."""
    r = vec(root)
    if root_lat.norm(r) != 2:
        raise ValueError(f"reflection needs a norm-2 vector, got norm {root_lat.norm(r)}")
    n = root_lat.rank
    pair = row_mul(r, root_lat.gram)  # <e_i, root> as i varies
    rows = []
    for i in range(n):
        rows.append(
            tuple((Q(1) if j == i else Q(0)) - pair[i] * r[j] for j in range(n))
        )
    t = tuple(rows)
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
    lat = sqrt2_a(k - 1)
    target = tuple([Q(2)] * (k - 1))
    return row_mul(target, mat_inv(lat.gram))


def weyl_pairing_row(k: int) -> tuple[int, ...]:
    """Normalized pairings <r, (1-nu) b_i>/2; comes out as (0, ..., 0, k)."""
    lat = sqrt2_a(k - 1)
    r = weyl_vector(k)
    m = mat(coxeter_nu(k))
    s = mat_sub(identity(k - 1), m)
    row = row_mul(row_mul(r, lat.gram), transpose(s))
    out = tuple(e / 2 for e in row)
    if any(e.denominator != 1 for e in out):
        raise AssertionError("pairing row not integral")
    return tuple(int(e) for e in out)


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
    lat = sqrt2_a(k - 1)
    n = k - 1
    row = weyl_pairing_row(k)
    row_ok = row == tuple([0] * (n - 1) + [k])
    r = weyl_vector(k)
    m = mat(coxeter_nu(k))
    s = mat_sub(identity(n), m)
    x = tuple(e / (2 * k) for e in r)
    pairings = row_mul(row_mul(x, lat.gram), transpose(s))
    member = all(e.denominator == 1 for e in pairings)
    inv = dual_quotient_invariants(lat, s)
    order = 1
    for f in inv:
        order *= f
    return WeylReport(
        k=k,
        passed=row_ok and member and order == k,
        pairing_row=row,
        dual_membership=member,
        dual_quotient=inv,
    )
