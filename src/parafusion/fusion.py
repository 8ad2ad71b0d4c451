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
        # Hashed and printed once: labels key every fusion dict and sort.
        object.__setattr__(self, "_hash", hash((self.i, self.j, self.k)))
        object.__setattr__(self, "_repr", f"M[{self.i},{self.j}]")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._repr


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
        return FusionVector(tuple(sorted(acc.items(), key=_by_repr)))

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


def _by_repr(term: tuple[object, int]) -> str:
    return repr(term[0])


def canonical_label(i: int, j: int, k: int) -> IrrLabel:
    """Reduce (i, j) to canonical form: 0 <= j < i <= k, identity (k, 0)."""
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    if not (0 <= i <= k):
        raise ValueError(f"i={i} outside [0,{k}]")
    j %= k
    if j >= i:
        i, j = k - i, j - i
    return _canonical(i, j, k)[0]


@lru_cache(maxsize=None)
def _canonical(i: int, j: int, k: int) -> tuple[IrrLabel, tuple[IrrLabel, int]]:
    """(label, (label, 1)) of a canonical pair 0 <= j < i <= k, built once and
    handed out by ``canonical_label``, ``fuse`` and ``all_labels``; every cached
    cell holds the same term tuple.  Filled on demand: all labels are O(k^2)."""
    label = IrrLabel(i, j, k)
    return label, (label, 1)


def all_labels(k: int) -> list[IrrLabel]:
    """All k(k+1)/2 canonical labels at level k, sorted."""
    return [_canonical(i, j, k)[0] for i in range(1, k + 1) for j in range(i)]


def to_tilde(label: IrrLabel) -> TildeLabel:
    return TildeLabel(label.i, (label.i - 2 * label.j) % (2 * label.k), label.k)


def from_tilde(t: TildeLabel) -> IrrLabel:
    # Solve 2j = i - l mod 2k, i.e. j = (i - l)/2 mod k.
    j = ((t.i - t.l) // 2) % t.k
    return canonical_label(t.i, j, t.k)


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
    # From a list, not a generator: a resized tuple's oversize block stays
    # in the free lists and raises peak RSS.
    found = [_canonical(i, j, k)[1] for i, j in _fusion_rule(i1, i2, c, k)]
    return FusionVector(tuple(sorted(found, key=_by_repr)))


def fuse(a: IrrLabel, b: IrrLabel) -> FusionVector:
    """Fusion product of two irreducibles.  It depends only on the cell
    (a.i, b.i, (a.j + b.j) mod k), so each cell asked for is built once and
    every later product in it returns the same vector."""
    k = a.k
    if b.k != k:
        raise LevelMismatchError(f"levels differ: {k} vs {b.k}")
    return _fuse_cell(a.i, b.i, (a.j + b.j) % k, k)


def fuse_vectors(
    va: FusionVector,
    vb: FusionVector,
    product: Callable[[object, object], FusionVector] = fuse,
) -> FusionVector:
    """Bilinear extension of ``product`` on basis labels (by default
    ``fuse``) to multiplicity vectors."""
    acc: dict = {}  # from_pairs' loop, inline: no generator step per term
    for x, mx in va:
        for y, my in vb:
            for z, mz in product(x, y):
                m = mx * my * mz
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    acc[z] = acc.get(z, 0) + m
    return FusionVector(tuple(sorted(acc.items(), key=_by_repr)))


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

    def relabel(self, basis: Sequence) -> "Report":
        """Index failures read as basis labels ("generators_span" holds counts)."""
        return Report(tuple(f if f[0] == "generators_span" else (f[0], *(basis[t] for t in f[1:]))
                            for f in self.failures))


def _light_test(cells, gens: Sequence[int]) -> list[tuple]:
    """Light's test (Clifford–Preston I, §1.2) on n × n index cells of distinct
    terms: the g with (x·g)·y = x·(g·y) for all x, y form a subalgebra, so each
    generator is tested (("associativity", x, g, y)) and the products kept while
    independent must reach rank n (("generators_span", r, n)).  A cell is packed
    into one int, w bits per index: with T terms per cell and |m| <= M, every field
    of either side is within ±T·M² < 2^(w-1), so int equality is vector equality."""
    n, flat = len(cells), list(itertools.chain.from_iterable(cells))
    big = max(map(len, flat), default=0) * max((abs(m) for c in flat for _, m in c), default=0) ** 2
    w = big.bit_length() + 2
    packed = [[sum([m << w * z for z, m in cell]) for cell in row] for row in cells]
    failures, zero = [], [0] * n
    for g in gens:
        for x in range(n):
            px = packed[x]
            left = [sum(c) for c in zip(zero, *([m * p for p in packed[z]] for z, m in cells[x][g]))]
            failures += [("associativity", x, g, y) for y, gy in enumerate(cells[g])
                         if left[y] != sum([m * px[v] for v, m in gy])]

    def times(v: dict, g: int) -> dict:  # v·g, zeros dropped
        acc: dict = {}
        for x, mx in v.items():
            for z, mz in cells[x][g]:
                acc[z] = acc.get(z, 0) + mx * mz
        return {z: m for z, m in acc.items() if m}

    pivots, reached = [], [{g: 1} for g in gens]
    for v in reached:
        row = v
        for lab, p in pivots:  # each pivot row is zero at the earlier pivots
            if row.get(lab):
                c, d = row[lab], p[lab]
                row = {x: d * row.get(x, 0) - c * p.get(x, 0) for x in row | p}
                row = {x: m for x, m in row.items() if m}
        if row:  # v is independent of the kept vectors, so len(pivots) is their rank
            pivots.append((next(iter(row)), row))
            reached.extend(times(v, g) for g in gens)
    if len(pivots) != n:
        failures.append(("generators_span", len(pivots), n))
    return failures


def verify_associativity(basis: Sequence, product: Callable, gens: Sequence) -> Report:
    """Exact associativity proof by Light's test (``_light_test``) on a hashable
    basis: ``product(x, y)`` yields the (z, mult) terms of x·y and is called
    once per pair.  A term outside the basis raises ValueError."""
    index = {b: i for i, b in enumerate(basis)}
    if not index.keys() >= set(gens):
        raise ValueError(f"generators {list(gens)} are not all in the basis")

    def cell(x, y) -> tuple:
        acc: dict = {}
        for z, m in product(x, y):
            if z not in index:
                raise ValueError(f"{x!r}·{y!r} has the term {z!r} outside the basis")
            acc[index[z]] = acc.get(index[z], 0) + m
        return tuple(acc.items())

    cells = [[cell(x, y) for y in basis] for x in basis]
    return Report(tuple(_light_test(cells, [index[g] for g in gens]))).relabel(basis)


def _check_cells(cells, n: int) -> None:
    """Raise ValueError unless the cells are n × n and the term indices of each
    cell increase strictly within range(n)."""
    if {len(cells), *map(len, cells)} != {n} or not all(
        -1 < a < b for c in itertools.chain.from_iterable(cells)
        for (a, _), (b, _) in zip(c, (*c[1:], (n, 0)))  # index n caps each cell
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
    return Report((*failures, *_light_test(cells, gens)))


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
    # tails[p - 1] = sum_{m=p+1}^{k-1} h^m_{3,3}, grown once from p = k-1 down
    h33 = [minimal_model_weight(m, 3, 3) for m in range(k - 1, 1, -1)]
    tails = [*itertools.accumulate(h33, initial=Fraction(0))][::-1]
    sums = tuple((p, minimal_model_weight(p, 1, 3) + tail + h21) for p, tail in zip(range(1, k), tails))
    return WeightOneReport(k=k, passed=all(s == 1 for _, s in sums), sums=sums)


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
