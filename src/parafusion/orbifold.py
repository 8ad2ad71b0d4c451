"""Orbifold subring spanned by the sigma-type classes at level k.

Basis labels are (j, eps) with 0 <= j <= floor(k/2) and eps in {0, 1};
the identity is (0, 0).  The full multiplication table is not postulated:
it is rederived from the two generator rows (0, 1) and (1, 0) by operator
recursion and then subjected to ring self-checks, including consistency
with the parafermion fusion ring under the two-to-one collapse
(j, 0) + (j, 1) -> sigma-type class with index j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fusion import (
    FusionVector,
    canonical_label,
    fuse,
    is_sigma_type,
    sigma_type_index,
)
from .linalg import int_identity, mat_mul, mat_sub

Q = Fraction


@dataclass(frozen=True, order=True)
class OrbLabel:
    """Basis label (j, eps) of the orbifold subring at level k."""

    j: int
    eps: int
    k: int

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"level must be >= 3, got {self.k}")
        if not (0 <= self.j <= self.k // 2):
            raise ValueError(f"j={self.j} outside [0,{self.k // 2}]")
        if self.eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {self.eps}")

    def __repr__(self):
        return f"W[{self.j},{self.eps}]"


def orbifold_basis(k: int) -> list[OrbLabel]:
    """The 2*(floor(k/2)+1) basis labels, lexicographically sorted."""
    return sorted(OrbLabel(j, e, k) for j in range(k // 2 + 1) for e in (0, 1))


def orbifold_weight(label: OrbLabel) -> Fraction:
    """Lowest conformal weight of the (j, eps) module.

    The eps = 0 weight j(j+1)/(k+2) matches the sigma-type weight in the
    parafermion ring; eps = 1 shifts it by 3 (vacuum), by 2 (top label at
    even k), and by 1 otherwise.
    """
    j, k = label.j, label.k
    h = Q(j * (j + 1), k + 2)
    if label.eps == 0:
        return h
    if j == 0:
        return h + 3
    if k % 2 == 0 and j == k // 2:
        return h + 2
    return h + 1


def sign_character(label: OrbLabel) -> int:
    """Value (-1)^(j+eps) of the Z2 grading character."""
    return -1 if (label.j + label.eps) % 2 else 1


def generator_fuse(gen: OrbLabel, x: OrbLabel) -> FusionVector:
    """Product of a generator (0,1) or (1,0) with any basis label.

    These two rows are the seed data; everything else is derived.
    """
    k = gen.k
    if k != x.k:
        raise ValueError(f"levels differ: {gen.k} vs {x.k}")
    top = k // 2
    if (gen.j, gen.eps) == (0, 1):
        return FusionVector.from_pairs([(OrbLabel(x.j, 1 - x.eps, k), 1)])
    if (gen.j, gen.eps) != (1, 0):
        raise ValueError(f"{gen} is not a generator; use (0,1) or (1,0)")
    j = x.j
    if j == 0:
        outs = [(1, 0)]
    elif j <= top - 1:
        outs = [(j - 1, 0), (j, 1), (j + 1, 0)]
    elif k % 2 == 1:  # j == top, odd level
        outs = [(j - 1, 0), (j, 1)]
    else:  # j == k/2, even level
        outs = [(j - 1, 0)]
    shift = x.eps
    return FusionVector.from_pairs(
        [(OrbLabel(jj, (ee + shift) % 2, k), 1) for jj, ee in outs]
    )


class OrbifoldTable:
    """Full multiplication table over the orbifold basis at level k."""

    def __init__(self, k: int, products: dict):
        self.k = k
        self.basis = orbifold_basis(k)
        self._products = products

    def product(self, x: OrbLabel, y: OrbLabel) -> FusionVector:
        return self._products[(x, y)]

    def product_vector(self, v: FusionVector, w: FusionVector) -> FusionVector:
        pairs = []
        for x, mx in v:
            for y, my in w:
                for z, mz in self.product(x, y):
                    pairs.append((z, mx * my * mz))
        return FusionVector.from_pairs(pairs)


def derive_full_table(k: int, validate: bool = True) -> OrbifoldTable:
    """Derive the table from the generator rows by operator recursion.

    Multiplication operators act on the basis; columns hold the product
    coordinates.  The (1,0) row at 1 <= j <= top-1 is solved for the
    operator of (j+1, 0), and (0,1) shifts eps.
    """
    basis = orbifold_basis(k)
    n = len(basis)
    idx = {lab: t for t, lab in enumerate(basis)}
    top = k // 2

    def gen_matrix(gen: OrbLabel):
        m = [[0] * n for _ in range(n)]
        for y in basis:
            for out, mult in generator_fuse(gen, y):
                m[idx[out]][idx[y]] += mult
        return tuple(tuple(row) for row in m)

    a1 = gen_matrix(OrbLabel(0, 1, k))
    a2 = gen_matrix(OrbLabel(1, 0, k))
    ops = {
        OrbLabel(0, 0, k): int_identity(n),
        OrbLabel(0, 1, k): a1,
        OrbLabel(1, 0, k): a2,
        OrbLabel(1, 1, k): mat_mul(a1, a2),
    }
    for j in range(1, top):
        nxt = mat_sub(
            mat_sub(mat_mul(a2, ops[OrbLabel(j, 0, k)]), ops[OrbLabel(j - 1, 0, k)]),
            mat_mul(a1, ops[OrbLabel(j, 0, k)]),
        )
        ops[OrbLabel(j + 1, 0, k)] = nxt
        ops[OrbLabel(j + 1, 1, k)] = mat_mul(a1, nxt)

    products = {}
    for x in basis:
        mx = ops[x]
        for y in basis:
            c = idx[y]
            products[(x, y)] = FusionVector.from_pairs(
                [(z, mx[idx[z]][c]) for z in basis if mx[idx[z]][c]]
            )
    table = OrbifoldTable(k, products)
    if validate:
        report = verify_table(table)
        if not report.passed:
            raise AssertionError(
                f"derived table at level {k} fails self-checks: {report.failures}"
            )
    return table


@dataclass(frozen=True)
class TableReport:
    k: int
    passed: bool
    failures: tuple[tuple, ...]


def verify_table(table: OrbifoldTable) -> TableReport:
    """Run every internal self-check on a derived table."""
    k = table.k
    basis = table.basis
    failures = []

    n = len(basis)
    idx = {lab: t for t, lab in enumerate(basis)}

    def op_of(x):
        m = [[0] * n for _ in range(n)]
        for y in basis:
            for z, mult in table.product(x, y):
                m[idx[z]][idx[y]] = mult
        return tuple(tuple(row) for row in m)

    a1 = op_of(OrbLabel(0, 1, k))
    a2 = op_of(OrbLabel(1, 0, k))
    if mat_mul(a1, a2) != mat_mul(a2, a1):
        failures.append(("generator_commutation",))

    for x in basis:
        for y in basis:
            vec = table.product(x, y)
            if any(m < 0 for _, m in vec):
                failures.append(("nonnegativity", x, y, vec))
            if vec != table.product(y, x):
                failures.append(("symmetry", x, y))
        ident = table.product(OrbLabel(0, 0, k), x)
        if ident.as_dict() != {x: 1}:
            failures.append(("identity", x, ident))

    for gen in (OrbLabel(0, 1, k), OrbLabel(1, 0, k)):
        for y in basis:
            if table.product(gen, y) != generator_fuse(gen, y):
                failures.append(("generator_row", gen, y))

    failures.extend(verify_sigma_grading(table).failures)

    single = {lab: FusionVector.from_pairs([(lab, 1)]) for lab in basis}
    for x in basis:
        for y in basis:
            xy = table.product(x, y)
            for z in basis:
                left = table.product_vector(xy, single[z])
                right = table.product_vector(single[x], table.product(y, z))
                if left != right:
                    failures.append(("associativity", x, y, z))

    return TableReport(k=k, passed=not failures, failures=tuple(failures))


def verify_sigma_grading(table: OrbifoldTable) -> TableReport:
    """Check the sign character multiplies along every nonzero product."""
    failures = []
    for x in table.basis:
        for y in table.basis:
            for z, m in table.product(x, y):
                if m and sign_character(x) * sign_character(y) != sign_character(z):
                    failures.append(("sign_grading", x, y, z))
    return TableReport(k=table.k, passed=not failures, failures=tuple(failures))


def sigma_label(j: int, k: int):
    """Canonical parafermion label of the sigma-type class with index j."""
    if not (0 <= j <= k // 2):
        raise ValueError(f"j={j} outside [0,{k // 2}]")
    return canonical_label(2 * j, j, k)


@dataclass(frozen=True)
class CollapseReport:
    k: int
    passed: bool
    failures: tuple[tuple, ...]


def verify_collapse(k: int, table: OrbifoldTable | None = None) -> CollapseReport:
    """Check the table against the parafermion ring under the 2:1 collapse.

    Sigma-type classes fuse to sigma-type classes; for each pair the
    eps-summed orbifold product must equal the parafermion product with
    every index j expanded to (j,0) + (j,1).
    """
    if table is None:
        table = derive_full_table(k)
    top = k // 2
    failures = []
    for j1 in range(top + 1):
        x = sigma_label(j1, k)
        for j2 in range(top + 1):
            y = sigma_label(j2, k)
            expected: dict[OrbLabel, int] = {}
            for lab, m in fuse(x, y):
                if not is_sigma_type(lab):
                    failures.append(("non_sigma_output", x, y, lab))
                    continue
                w = sigma_type_index(lab)
                for e in (0, 1):
                    key = OrbLabel(w, e, k)
                    expected[key] = expected.get(key, 0) + m
            for e1 in (0, 1):
                left = OrbLabel(j1, e1, k)
                got = (
                    table.product(left, OrbLabel(j2, 0, k))
                    + table.product(left, OrbLabel(j2, 1, k))
                )
                if got.as_dict() != expected:
                    failures.append(("collapse", left, j2, got, expected))
    return CollapseReport(k=k, passed=not failures, failures=tuple(failures))
