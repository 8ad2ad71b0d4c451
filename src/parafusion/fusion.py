"""Parafermion fusion ring at level k, with exact rational weights.

Irreducibles are labelled by pairs (i, j) with 0 <= i <= k and j mod k,
subject to the identification (i, j) ~ (k-i, j-i).  The canonical
representative has 0 <= j < i <= k; the identity is (k, 0).  The
equivalent "tilde" labelling (i, l) with l = i - 2j mod 2k makes the
mod-k grading of the fusion product visible.  The based-ring checks
read any ring given as index cells, as the orbifold ring and U are.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import hnf


class LevelMismatchError(ValueError):
    """Operands live at different levels k."""


@dataclass(frozen=True, order=True)
class IrrLabel:
    """Canonical label (i, j) of an irreducible at level k."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"level must be >= 2, got {self.k}")
        if not (0 <= self.j < self.i <= self.k):
            raise ValueError(
                f"({self.i},{self.j}) is not canonical at level {self.k}; "
                "use canonical_label()"
            )

    def __repr__(self):
        return f"M[{self.i},{self.j}]"


@dataclass(frozen=True)
class TildeLabel:
    """Grading-adapted label (i, l), l = i - 2j mod 2k; i and l share parity."""

    i: int
    l: int
    k: int

    def __post_init__(self):
        if not (0 <= self.i <= self.k):
            raise ValueError(f"i={self.i} outside [0,{self.k}]")
        if not (0 <= self.l < 2 * self.k):
            raise ValueError(f"l={self.l} not reduced mod {2 * self.k}")
        if (self.i - self.l) % 2 != 0:
            raise ValueError(f"i={self.i} and l={self.l} must have equal parity")


@dataclass(frozen=True)
class FusionVector:
    """Finitely supported multiplicity vector over hashable labels."""

    terms: tuple[tuple[object, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[object, int]]) -> "FusionVector":
        acc: dict = {}
        for label, mult in pairs:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                acc[label] = acc.get(label, 0) + mult
        return FusionVector(tuple(sorted(acc.items(), key=lambda t: repr(t[0]))))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __getitem__(self, label) -> int:
        return self.as_dict().get(label, 0)

    def __iter__(self) -> Iterator[tuple[object, int]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "FusionVector") -> "FusionVector":
        return FusionVector.from_pairs(self.terms + other.terms)

    def total(self) -> int:
        return sum(m for _, m in self.terms)


def canonical_label(i: int, j: int, k: int) -> IrrLabel:
    """Reduce (i, j) to canonical form: 0 <= j < i <= k, identity (k, 0)."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if not (0 <= i <= k):
        raise ValueError(f"i={i} outside [0,{k}]")
    j %= k
    if j >= i:
        i, j = k - i, j - i
    return IrrLabel(i, j, k)


@lru_cache(maxsize=None)
def _canonical(i: int, j: int, k: int) -> tuple[str, IrrLabel, tuple[IrrLabel, int]]:
    """(repr, label, (label, 1)) of a canonical pair 0 <= j < i <= k, built
    once and shared by ``fuse`` and ``all_labels``; every cached fusion cell
    holds the same term tuple.  Filled on demand: a table of every label per
    level would be O(k^2)."""
    label = canonical_label(i, j, k)
    return repr(label), label, (label, 1)


def all_labels(k: int) -> list[IrrLabel]:
    """All k(k+1)/2 canonical labels at level k, sorted."""
    return [_canonical(i, j, k)[1] for i in range(1, k + 1) for j in range(i)]


def to_tilde(label: IrrLabel) -> TildeLabel:
    return TildeLabel(label.i, (label.i - 2 * label.j) % (2 * label.k), label.k)


def from_tilde(t: TildeLabel) -> IrrLabel:
    # Solve 2j = i - l mod 2k, i.e. j = (i - l)/2 mod k.
    j = ((t.i - t.l) // 2) % t.k
    return canonical_label(t.i, j, t.k)


def _same_level(a: IrrLabel, b: IrrLabel) -> int:
    if a.k != b.k:
        raise LevelMismatchError(f"levels differ: {a.k} vs {b.k}")
    return a.k


def _fusion_rule(i1: int, i2: int, c: int, k: int) -> list[tuple[int, int]]:
    """Canonical (i, j) terms of M[i1,j1]·M[i2,j2], c = j1+j2 mod k: truncated
    Clebsch–Gordan |i1-i2| <= r <= min(i1+i2, 2k-i1-i2), r = i1+i2 mod 2, and
    the Z_2k charge j = (2c-i1-i2+r)/2 mod k, identified as in canonical_label
    when j >= r.  Multiplicity-free: distinct r give distinct classes."""
    s = 2 * c - i1 - i2
    out = []
    for r in range(abs(i1 - i2), min(i1 + i2, 2 * k - i1 - i2) + 1, 2):
        j = (s + r) // 2 % k
        out.append((r, j) if j < r else (k - r, j - r))
    return out


@lru_cache(maxsize=None)
def _fuse_cell(i1: int, i2: int, c: int, k: int) -> FusionVector:
    """``_fusion_rule`` on the cell (i1, i2, c) as cached label terms, in repr order."""
    found = sorted([_canonical(i, j, k) for i, j in _fusion_rule(i1, i2, c, k)])
    # From a list, not a generator: a resized tuple's oversize block stays
    # in the free lists and raises peak RSS.
    return FusionVector(tuple([term for _, _, term in found]))


def fuse(a: IrrLabel, b: IrrLabel) -> FusionVector:
    """Fusion product of two irreducibles.  It depends only on the cell
    (a.i, b.i, (a.j + b.j) mod k), so each cell asked for is built once and
    every later product in it returns the same vector."""
    k = _same_level(a, b)
    return _fuse_cell(a.i, b.i, (a.j + b.j) % k, k)


def fuse_vectors(
    va: FusionVector,
    vb: FusionVector,
    product: Callable[[object, object], FusionVector] = fuse,
) -> FusionVector:
    """Bilinear extension of ``product`` on basis labels (by default
    ``fuse``) to multiplicity vectors."""
    pairs = []
    for x, mx in va:
        for y, my in vb:
            for z, mz in product(x, y):
                pairs.append((z, mx * my * mz))
    return FusionVector.from_pairs(pairs)


def simple_current(p: int, k: int) -> IrrLabel:
    """The invertible label (k, p); fusing with it sends (i, j) to (i, j+p)."""
    return canonical_label(k, p, k)


def theta_dual(label: IrrLabel) -> IrrLabel:
    """Pullback along the charge-conjugation automorphism: (i, j) -> (i, i-j)."""
    if label.k < 3:
        raise ValueError("charge conjugation needs level >= 3")
    return canonical_label(label.i, label.i - label.j, label.k)


def conformal_weight(label: IrrLabel) -> Fraction:
    """Lowest conformal weight of the irreducible, as an exact rational.

    The closed form is valid for any presentation with 0 <= j <= i <= k;
    the canonical presentation always qualifies, and whenever the
    alternate presentation (k-i, j-i mod k) also qualifies the two
    values are computed and checked to agree.
    """
    k = label.k

    def weight_from(i: int, j: int) -> Fraction:
        m = i - 2 * j
        num = k * m - m * m + 2 * k * (i - j + 1) * j
        return Fraction(num, 2 * k * (k + 2))

    h = weight_from(label.i, label.j)
    alt_i, alt_j = k - label.i, (label.j - label.i) % k
    if 0 <= alt_j <= alt_i <= k:
        h_alt = weight_from(alt_i, alt_j)
        if h_alt != h:
            raise AssertionError(
                f"weight disagrees between presentations of {label}: {h} vs {h_alt}"
            )
    if h < 0:
        raise AssertionError(f"negative weight for {label}")
    return h


def is_sigma_type(label: IrrLabel) -> bool:
    """True iff the label is (2j, j) for some 0 <= j <= floor(k/2).

    Canonical (2j, j) is (2j, j) itself for j >= 1 and (k, 0) for j = 0.
    """
    return label.i == 2 * label.j or (label.i, label.j) == (label.k, 0)


def sigma_type_index(label: IrrLabel) -> int:
    """The j with label = canonical (2j, j); raises if not sigma-type."""
    if not is_sigma_type(label):
        raise ValueError(f"{label} is not sigma-type")
    return label.j


@dataclass(frozen=True)
class Report:
    """Verdict of a ring verifier: the failures it found, as tuples that
    name the check and the labels or cells involved."""

    failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_associativity(basis: Sequence, product: Callable, gens: Sequence) -> Report:
    """Exact associativity proof by Light's test (Clifford–Preston I, §1.2).

    ``product(x, y)`` yields the (z, mult) terms of x·y on a hashable basis.
    The g with (x·g)·y = x·(g·y) for all x, y form a subalgebra, so testing
    each generator (failing as ("associativity", x, g, y)) suffices once the
    products kept while independent reach rank n ("generators_span", r, n).
    """

    def times(u, v, prod: Callable = product) -> dict:
        acc: dict = {}  # sum of mx·my·(x·y) over the terms of u and v
        for x, mx in u:
            for y, my in v:
                for z, mz in prod(x, y):
                    acc[z] = acc.get(z, 0) + mx * my * mz
        return {z: m for z, m in acc.items() if m}

    xg = {(x, g): product(x, g) for g in gens for x in basis}
    gy = {(g, y): product(g, y) for g in gens for y in basis}
    failures = [
        ("associativity", x, g, y)
        for g in gens for x in basis for y in basis
        if times(xg[x, g], ((y, 1),)) != times(((x, 1),), gy[g, y])
    ]
    pivots, reached = [], [{g: 1} for g in gens]
    for v in reached:
        row = v
        for lab, p, _ in pivots:  # each pivot row is zero at the earlier pivots
            if row.get(lab):
                c, d = row[lab], p[lab]
                row = {x: d * row.get(x, 0) - c * p.get(x, 0) for x in row | p}
                row = {x: m for x, m in row.items() if m}
        if row:
            pivots.append((next(iter(row)), row, v))
            reached.extend(times(v.items(), ((g, 1),), lambda x, h: xg[x, h]) for g in gens)
    r = len(hnf([[w.get(x, 0) for x in basis] for _, _, w in pivots]))  # rank over Z
    if r != len(basis):
        failures.append(("generators_span", r, len(basis)))
    return Report(tuple(failures))


def _check_cells(cells, n: int) -> None:
    """Raise ValueError unless the cells are n × n and their terms lie in range(n)."""
    if {len(cells), *map(len, cells)} != {n} or any(
        c and (c[0][0] < 0 or c[-1][0] >= n) for row in cells for c in row
    ):
        raise ValueError(f"expected {n} x {n} cells with term indices in range({n})")


def verify_based_ring(cells, n: int, gens: Sequence[int]) -> Report:
    """Based-ring axioms (EGNO, *Tensor Categories*, ch. 3) on n × n index
    cells, cells[x][y] the index-ordered (z, m) terms of x·y and 0 the unit:
    ("nonnegativity", x, y), ("symmetry", x, y), ("identity", x), Light's test."""
    _check_cells(cells, n)
    failures = [("identity", x) for x in range(n) if cells[0][x] != ((x, 1),)]
    for x, row in enumerate(cells):
        for y, cell in enumerate(row):
            if any(m < 0 for _, m in cell):
                failures.append(("nonnegativity", x, y))
            if cell != cells[y][x]:
                failures.append(("symmetry", x, y))
    light = verify_associativity(range(n), lambda x, y: cells[x][y], gens)
    return Report((*failures, *light.failures))


def verify_character(cells, chi: Sequence[int]) -> Report:
    """Check chi[x]·chi[y] = chi[z] (chi: index -> ±1) for each nonzero term z
    of x·y on len(chi)-square index cells, failing as ("sign_grading", x, y, z)."""
    _check_cells(cells, len(chi))
    return Report(tuple(
        ("sign_grading", x, y, z)
        for x, row in enumerate(cells) for y, cell in enumerate(row)
        for z, m in cell if m and chi[x] * chi[y] != chi[z]
    ))


def verify_zk_grading(k: int, rule: Callable = _fusion_rule) -> Report:
    """Check the additive mod-k grading l_out = l1 + l2 of the fusion product.

    Also confirms the label identification (i, l) ~ (k-i, k+l) preserves
    l mod k, so the grading is well defined on canonical classes.  The rule
    sees a pair only as its cell (i1, i2, c = j1 + j2 mod k), where
    l1 + l2 = i1 + i2 - 2c mod k, so each of the k^3 cells is checked once;
    ``rule`` is injectable so that mutation tests can break it.
    """
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    failures = []
    two_k = 2 * k
    pairs = [(i, j, (i - 2 * j) % two_k) for i in range(1, k + 1) for j in range(i)]
    for i, j, l in pairs:
        # Both presentations of (i, j) must carry the same grade mod k.
        l_alt = (k - i - 2 * ((j - i) % k)) % two_k
        if (l - l_alt) % k != 0:
            failures.append((canonical_label(i, j, k), "presentation", l, l_alt))
    for i1, i2, c in itertools.product(range(1, k + 1), range(1, k + 1), range(k)):
        grade = (i1 + i2 - 2 * c) % k
        for i, j in rule(i1, i2, c, k):
            if (i - 2 * j - grade) % k != 0:
                failures.append(((i1, i2, c), canonical_label(i, j, k), (i - 2 * j) % k, grade))
    return Report(tuple(failures))


def minimal_model_weight(m: int, r: int, s: int) -> Fraction:
    """Conformal weight h_{r,s} in the m-th unitary Virasoro minimal model."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (1 <= r <= m + 1):
        raise ValueError(f"r={r} outside [1,{m + 1}]")
    if not (1 <= s <= m + 2):
        raise ValueError(f"s={s} outside [1,{m + 2}]")
    return Fraction((r * (m + 3) - s * (m + 2)) ** 2 - 1, 4 * (m + 2) * (m + 3))


@dataclass(frozen=True)
class WeightOneReport:
    k: int
    passed: bool
    sums: tuple[tuple[int, Fraction], ...]


def verify_weight_one_tops(k: int) -> WeightOneReport:
    """Check h^p_{1,3} + sum_{m=p+1}^{k-1} h^m_{3,3} + h(M[2,1]) = 1 for all p.

    The branching sum telescopes to k/(k+2) and the sigma-type weight
    h(M[2,1]) = 2/(k+2) tops it up to exactly 1.
    """
    if k < 3:
        raise ValueError("needs level >= 3")
    h21 = conformal_weight(canonical_label(2, 1, k))
    sums = []
    for p in range(1, k):
        total = minimal_model_weight(p, 1, 3)
        for m in range(p + 1, k):
            total += minimal_model_weight(m, 3, 3)
        sums.append((p, total + h21))
    return WeightOneReport(
        k=k, passed=all(s == 1 for _, s in sums), sums=tuple(sums)
    )


def twisted_conformal_weight(p: int) -> Fraction:
    """Lowest weight (p-1)(p+1)/(24p) of the order-p twisted sector; never an integer."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")
    total = sum(i * (p - i) for i in range(1, p)) * Fraction(1, 4 * p * p)
    closed = Fraction((p - 1) * (p + 1), 24 * p)
    if total != closed:
        raise AssertionError(f"weight sum {total} != closed form {closed}")
    if total.denominator == 1:
        raise AssertionError(f"twisted weight {total} unexpectedly integral")
    return total


def untwisted_coset_weight(j: int, p: int) -> Fraction:
    """Weight j(p-j)/p of the j-th untwisted coset block."""
    if not (0 <= j <= p - 1):
        raise ValueError(f"j={j} outside [0,{p - 1}]")
    return Fraction(j * (p - j), p)
