"""Orbifold subring spanned by the sigma-type classes at level k.

Basis labels are (j, eps) with 0 <= j <= floor(k/2) and eps in {0, 1};
the identity is (0, 0).  The full multiplication table is not postulated:
it is rederived from the two generator rows (0, 1) and (1, 0) by cell
recursion, then checked on its index cells by the shared based-ring and
sign-character checks of ``fusion``, and against the parafermion fusion
ring under the two-to-one collapse (j, 0) + (j, 1) -> sigma-type class j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fusion import (
    FusionVector,
    Report,
    canonical_label,
    fuse,
    is_sigma_type,
    sigma_type_index,
    verify_based_ring,
    verify_character,
)

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


def _generator_cell(g: int, y: int, k: int) -> tuple:
    """Terms (index, 1) of W[0,1] (g = 1) or W[1,0] (g = 2) times the basis
    index y = 2j + eps, in index order.  These two rows are the seed data;
    everything else is derived."""
    if g == 1:
        return ((y ^ 1, 1),)
    j, top = y // 2, k // 2
    if j == 0:
        outs = [(1, 0)]
    elif j <= top - 1:
        outs = [(j - 1, 0), (j, 1), (j + 1, 0)]
    elif k % 2 == 1:  # j == top, odd level
        outs = [(j - 1, 0), (j, 1)]
    else:  # j == k/2, even level
        outs = [(j - 1, 0)]
    return tuple((2 * jj + (ee + y) % 2, 1) for jj, ee in outs)


def generator_fuse(gen: OrbLabel, x: OrbLabel) -> FusionVector:
    """Product of a generator (0,1) or (1,0) with any basis label."""
    if gen.k != x.k:
        raise ValueError(f"levels differ: {gen.k} vs {x.k}")
    if (gen.j, gen.eps) not in ((0, 1), (1, 0)):
        raise ValueError(f"{gen} is not a generator; use (0,1) or (1,0)")
    cell = _generator_cell(2 * gen.j + gen.eps, 2 * x.j + x.eps, x.k)
    return FusionVector.from_pairs((OrbLabel(z // 2, z % 2, x.k), m) for z, m in cell)


class OrbifoldTable:
    """Multiplication table at level k on the basis indices 2j + eps: cells[x][y]
    holds the nonzero (index, mult) terms of x·y, in index order."""

    def __init__(self, k: int, cells):
        self.k, self.basis, self.cells = k, orbifold_basis(k), cells

    def product(self, x: OrbLabel, y: OrbLabel) -> FusionVector:
        cell = self.cells[2 * x.j + x.eps][2 * y.j + y.eps]
        return FusionVector.from_pairs((self.basis[z], m) for z, m in cell)


def derive_full_table(k: int) -> OrbifoldTable:
    """Derive the table from the generator rows by cell recursion, then run
    ``verify_table`` on it.

    cells[x][y] holds x·y, so a generator g times x·y sums the cells
    cells[g][z] over the terms z of x·y.  The (1,0) row at 1 <= j <= top-1
    is solved for W[j+1,0]·y, and (0,1) shifts eps.
    """
    n = len(orbifold_basis(k))  # raises for k < 3
    cells = [[((y, 1),) for y in range(n)]]  # row 0: the unit
    cells += [[_generator_cell(g, y, k) for y in range(n)] for g in (1, 2)]

    def row(*parts) -> list:  # the cells of the sum of sign·(g·src[y]) over (g, sign, src)
        out = []
        for y in range(n):
            acc: dict[int, int] = {}
            for g, sign, src in parts:
                for z, m in src[y]:
                    for w, mw in cells[g][z]:
                        acc[w] = acc.get(w, 0) + sign * m * mw
            out.append(tuple(sorted([(w, m) for w, m in acc.items() if m])))
        return out

    cells.append(row((1, 1, cells[2])))  # W[1,1] = W[0,1]·W[1,0]
    for j in range(1, k // 2):
        prev, cur = cells[2 * j - 2], cells[2 * j]
        nxt = row((2, 1, cur), (1, -1, cur), (0, -1, prev))
        cells += [nxt, row((1, 1, nxt))]
    table = OrbifoldTable(k, cells)
    report = verify_table(table)
    if not report.passed:
        raise AssertionError(f"derived table at level {k} fails self-checks: {report.failures}")
    return table


def verify_table(table: OrbifoldTable) -> Report:
    """Run every self-check on a derived table: the based-ring axioms (Light's test
    on W[0,1], W[1,0]), the sign grading and the seed generator rows."""
    cells, basis = table.cells, table.basis
    ring = verify_based_ring(cells, len(basis), (1, 2))  # raises on a malformed table
    failures = [("generator_row", basis[g], basis[y]) for g in (1, 2)
                for y, cell in enumerate(cells[g]) if cell != _generator_cell(g, y, table.k)]
    failures += verify_sigma_grading(table).failures + ring.relabel(basis).failures
    return Report(tuple(failures))


def verify_sigma_grading(table: OrbifoldTable) -> Report:
    """Check the sign character multiplies along every nonzero product."""
    basis = table.basis
    return verify_character(table.cells, [sign_character(x) for x in basis]).relabel(basis)


def sigma_label(j: int, k: int):
    """Canonical parafermion label of the sigma-type class with index j."""
    if not (0 <= j <= k // 2):
        raise ValueError(f"j={j} outside [0,{k // 2}]")
    return canonical_label(2 * j, j, k)


def verify_collapse(table: OrbifoldTable) -> Report:
    """Check the table against the parafermion ring under the 2:1 collapse.

    Sigma-type classes fuse to sigma-type classes; for each pair the
    eps-summed orbifold product must equal the parafermion product with
    every index j expanded to (j,0) + (j,1).
    """
    k, top = table.k, table.k // 2
    failures = []
    for j1 in range(top + 1):
        x = sigma_label(j1, k)
        for j2 in range(top + 1):
            y = sigma_label(j2, k)
            expected: dict[int, int] = {}
            for lab, m in fuse(x, y):
                if not is_sigma_type(lab):
                    failures.append(("non_sigma_output", x, y, lab))
                    continue
                w = sigma_type_index(lab)
                for e in (0, 1):
                    expected[2 * w + e] = expected.get(2 * w + e, 0) + m
            for e1 in (0, 1):
                got: dict[int, int] = {}
                row = table.cells[2 * j1 + e1]
                for z, m in row[2 * j2] + row[2 * j2 + 1]:
                    got[z] = got.get(z, 0) + m
                if got != expected:
                    left = OrbLabel(j1, e1, k)
                    failures.append((
                        "collapse", left, j2,
                        table.product(left, OrbLabel(j2, 0, k))
                        + table.product(left, OrbLabel(j2, 1, k)),
                        {table.basis[z]: m for z, m in expected.items()},
                    ))
    return Report(tuple(failures))
