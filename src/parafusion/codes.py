"""Code lattices glued from cosets of (sqrt2)A_{p-1} blocks.

A codeword is d blocks of p-1 bits; each block u names the coset
(1/2)beta(u) + sqrt(2)A_{p-1}.  The mod-2 quadratic space structure on
blocks, coset weights by exact closest-vector enumeration, the glued
lattice L_C, and the p = 5 case study (weight-4 word classification,
the glue discriminant form, and the pair of sqrt(2)E8 sublattices whose
involutions compose to the block-cycling isometry) all live here.

Internal coordinates: the ambient lattice is ((1/2)N)^d with N the
doubled A_{p-1} block, so codeword bits are literally coordinates and
every basis matrix is integral.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import permutations
from typing import Optional, Sequence

from .lattices import (
    Isometry,
    Lattice,
    coxeter_nu,
    discriminant_group,
    lattice_intersection,
    root_lattice,
    rssd_involution,
    same_lattice,
    shell,
    sqrt2_a,
    sublattice,
)
from .linalg import (
    coset_minimum,
    enumerate_quadratic,
    hnf,
    identity,
    int_mat,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_sub,
    rational_hnf,
    row_mul,
    solve_left,
    transpose,
    vec,
)

Q = Fraction
Bits = tuple[int, ...]


@dataclass(frozen=True)
class Code:
    """Binary code whose words name cosets over d blocks of length p-1."""

    p: int
    d: int
    generators: tuple[Bits, ...]

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"p must be odd and >= 3, got {self.p}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        n = (self.p - 1) * self.d
        gens = tuple(tuple(g) for g in self.generators)
        for i, g in enumerate(gens):
            if len(g) != n:
                raise ValueError(f"generator length {len(g)} != {n}")
            for j, b in enumerate(g):
                if type(b) is not int or b not in (0, 1):
                    raise ValueError(
                        f"generator {i} position {j}: bit {b!r} is not 0 or 1"
                    )
        object.__setattr__(self, "generators", gens)

    @property
    def block_len(self) -> int:
        return self.p - 1

    def blocks(self, word: Bits) -> tuple[Bits, ...]:
        m = self.block_len
        return tuple(word[i * m : (i + 1) * m] for i in range(self.d))


def _cartan(p: int):
    return root_lattice("A", p - 1).gram


def k_inner(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Mod-2 pairing u A v^T of two blocks, A the A_{p-1} Cartan matrix."""
    n = p - 1
    if len(u) != n or len(v) != n:
        raise ValueError(f"blocks must have length {n}")
    a = _cartan(p)
    total = sum(
        int(u[i]) * int(a[i][j]) * int(v[j]) for i in range(n) for j in range(n)
    )
    return total % 2


def k_quadratic(u: Sequence[int], p: int) -> int:
    """Mod-2 value (1/2) u A u^T of a block; polarizes to k_inner."""
    n = p - 1
    if len(u) != n:
        raise ValueError(f"block must have length {n}")
    a = _cartan(p)
    total = sum(
        int(u[i]) * int(a[i][j]) * int(u[j]) for i in range(n) for j in range(n)
    )
    if total % 2:
        raise AssertionError("uAu^T should be even")
    return (total // 2) % 2


def nu_block_bits(p: int) -> tuple[Bits, ...]:
    """The block-cycling isometry reduced mod 2 on block bit rows."""
    return tuple(tuple(e % 2 for e in row) for row in coxeter_nu(p))


def apply_nu_word(code: Code, word: Bits) -> Bits:
    m = nu_block_bits(code.p)
    n = code.block_len
    out = []
    for b in code.blocks(word):
        out.extend(
            sum(b[i] * m[i][j] for i in range(n)) % 2 for j in range(n)
        )
    return tuple(out)


def word_inner(code: Code, c1: Bits, c2: Bits) -> int:
    return sum(
        k_inner(b1, b2, code.p) for b1, b2 in zip(code.blocks(c1), code.blocks(c2))
    ) % 2


def word_q(code: Code, word: Bits) -> int:
    return sum(k_quadratic(b, code.p) for b in code.blocks(word)) % 2


def _f2_basis(rows: Sequence[Bits]) -> list[Bits]:
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        r = list(row)
        for b, pv in zip(basis, pivots):
            if r[pv]:
                r = [(x + y) % 2 for x, y in zip(r, b)]
        p = next((i for i, x in enumerate(r) if x), None)
        if p is not None:
            basis.append(r)
            pivots.append(p)
    return [tuple(b) for b in basis]


def _f2_span(basis: Sequence[Bits], n: int) -> list[Bits]:
    """All 2^len(basis) F2 combinations of the length-n basis rows."""
    words = []
    for mask in range(1 << len(basis)):
        w = [0] * n
        for i, row in enumerate(basis):
            if (mask >> i) & 1:
                w = [(a + b) % 2 for a, b in zip(w, row)]
        words.append(tuple(w))
    return words


@lru_cache(maxsize=None)
def span(code: Code) -> tuple[Bits, ...]:
    """All codewords, enumerated from an F2 basis of the generators."""
    basis = _f2_basis(code.generators)
    return tuple(sorted(_f2_span(basis, (code.p - 1) * code.d)))


def code_dim(code: Code) -> int:
    return len(_f2_basis(code.generators))


@lru_cache(maxsize=None)
def _block_coset_data(p: int, block: Bits):
    """Exact (min_norm, minimizer_count, norm_counts up to 4) for the coset
    (1/2)beta(block) + sqrt(2)A_{p-1}."""
    lat = sqrt2_a(p - 1)
    shift = vec(Q(b, 2) for b in block)
    mn, mins = coset_minimum(lat.gram, shift)
    counts: dict[Fraction, int] = {}
    for _, norm in enumerate_quadratic(lat.gram, Q(4), center=shift):
        counts[norm] = counts.get(norm, 0) + 1
    return mn, len(mins), counts


def codeword_weight(code: Code, word: Bits) -> int:
    """Sum over blocks of the minimal coset norm; an exact integer here."""
    total = Q(0)
    for b in code.blocks(word):
        total += _block_coset_data(code.p, b)[0]
    if total.denominator != 1:
        raise AssertionError(f"non-integral weight {total}")
    return int(total)


@dataclass(frozen=True)
class CodeReport:
    size: int
    dimension: int
    self_orthogonal: bool
    self_dual: bool
    totally_isotropic: bool
    nu_invariant: bool
    weight_distribution: tuple[tuple[int, int], ...]


def code_properties(code: Code) -> CodeReport:
    """Exact enumeration of the span and all declared invariants."""
    words = span(code)
    word_set = set(words)
    self_orth = all(
        word_inner(code, a, b) == 0 for a in code.generators for b in code.generators
    )
    isotropic = all(word_q(code, w) == 0 for w in words)
    nu_inv = all(apply_nu_word(code, g) in word_set for g in code.generators)
    dist: dict[int, int] = {}
    for w in words:
        dist[codeword_weight(code, w)] = dist.get(codeword_weight(code, w), 0) + 1
    half_dim = (code.p - 1) * code.d // 2
    return CodeReport(
        size=len(words),
        dimension=code_dim(code),
        self_orthogonal=self_orth,
        self_dual=self_orth and len(words) == 2**half_dim,
        totally_isotropic=isotropic,
        nu_invariant=nu_inv,
        weight_distribution=tuple(sorted(dist.items())),
    )


# The p = 5, d = 4 weight-4 word types, keyed by
# (sorted per-block weights, <beta(c)/2, nu beta(c)/2>).
_TYPE_KEYS = {
    ((1, 1, 1, 1), Q(-2)): "I",
    ((1, 1, 1, 1), Q(0)): "II",
    ((0, 1, 1, 2), Q(-2)): "III",
    ((1, 1, 1, 1), Q(-1)): "IV",
}


def ambient_lattice(code: Code) -> Lattice:
    """((1/2)N)^d: block Gram is half the A_{p-1} Cartan matrix."""
    n = code.p - 1
    a = _cartan(code.p)
    size = n * code.d
    g = [[Q(0)] * size for _ in range(size)]
    for l in range(code.d):
        for i in range(n):
            for j in range(n):
                g[l * n + i][l * n + j] = a[i][j] / 2
    return Lattice(g)


def nu_ambient_matrix(code: Code):
    """Blockwise block-cycling isometry on the ambient coordinates."""
    n = code.p - 1
    m = coxeter_nu(code.p)
    size = n * code.d
    rows = [[0] * size for _ in range(size)]
    for l in range(code.d):
        for i in range(n):
            for j in range(n):
                rows[l * n + i][l * n + j] = m[i][j]
    return tuple(tuple(r) for r in rows)


def classify_word(code: Code, word: Bits) -> str:
    """Type of a weight-4 word in the p=5, d=4 configuration."""
    if (code.p, code.d) != (5, 4):
        raise ValueError("classification is defined for p=5, d=4")
    if codeword_weight(code, word) != 4:
        raise ValueError("classification applies to weight-4 words")
    blocks_w = tuple(
        sorted(int(_block_coset_data(code.p, b)[0]) for b in code.blocks(word))
    )
    amb = ambient_lattice(code)
    nu = nu_ambient_matrix(code)
    v = vec(word)
    pairing = amb.inner(v, row_mul(v, mat(nu)))
    key = (blocks_w, pairing)
    if key not in _TYPE_KEYS:
        raise ValueError(f"unclassifiable weight-4 word {word}: invariant {key}")
    return _TYPE_KEYS[key]


@dataclass(frozen=True)
class ClassificationReport:
    counts: tuple[tuple[str, int], ...]
    by_type: tuple[tuple[str, tuple[Bits, ...]], ...]


def classify_weight4(code: Code) -> ClassificationReport:
    """Classify every weight-4 word by the invariant pair."""
    buckets: dict[str, list[Bits]] = {"I": [], "II": [], "III": [], "IV": []}
    for w in span(code):
        if any(w) and codeword_weight(code, w) == 4:
            buckets[classify_word(code, w)].append(w)
    return ClassificationReport(
        counts=tuple((t, len(v)) for t, v in sorted(buckets.items())),
        by_type=tuple((t, tuple(v)) for t, v in sorted(buckets.items())),
    )


def _alt4() -> list[tuple[int, ...]]:
    return [p for p in permutations(range(4)) if _perm_sign(p) == 1]


def _perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def orbit_classification(code: Code) -> ClassificationReport:
    """Independent oracle: orbits of weight-4 words under the group
    generated by the block-cycling map and even block permutations."""
    if (code.p, code.d) != (5, 4):
        raise ValueError("orbit oracle is defined for p=5, d=4")
    words = [
        w for w in span(code) if any(w) and codeword_weight(code, w) == 4
    ]
    word_set = set(words)
    n = code.block_len

    def act(perm: tuple[int, ...], nu_power: int, w: Bits) -> Bits:
        x = w
        for _ in range(nu_power):
            x = apply_nu_word(code, x)
        bl = code.blocks(x)
        out: list[int] = []
        for l in range(code.d):
            out.extend(bl[perm[l]])
        return tuple(out)

    group = [(perm, a) for perm in _alt4() for a in range(code.p)]
    seen: set[Bits] = set()
    orbits: list[list[Bits]] = []
    for w in words:
        if w in seen:
            continue
        orbit = set()
        frontier = [w]
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            for perm, a in group:
                y = act(perm, a, x)
                if y not in word_set:
                    raise AssertionError("group action leaves the code")
                if y not in orbit:
                    frontier.append(y)
        seen |= orbit
        orbits.append(sorted(orbit))
    buckets: dict[str, list[Bits]] = {"I": [], "II": [], "III": [], "IV": []}
    for orbit in orbits:
        types = {classify_word(code, w) for w in orbit}
        if len(types) != 1:
            raise AssertionError("orbit spans multiple types")
        buckets[types.pop()].extend(orbit)
    return ClassificationReport(
        counts=tuple((t, len(v)) for t, v in sorted(buckets.items())),
        by_type=tuple((t, tuple(sorted(v))) for t, v in sorted(buckets.items())),
    )


@dataclass(frozen=True)
class BuiltLattice:
    code: Code
    ambient: Lattice
    basis: tuple  # integer rows over the ambient coordinates
    lattice: Lattice
    integral: bool
    even: bool


def build_lattice(code: Code) -> BuiltLattice:
    """The union of the codeword cosets as a lattice.

    The basis is the HNF of the block lattices N^d (rows 2I in ambient
    coordinates) together with the generator bit rows.
    """
    amb = ambient_lattice(code)
    size = amb.rank
    rows = [tuple(2 if j == i else 0 for j in range(size)) for i in range(size)]
    rows.extend(code.generators)
    basis = hnf(rows)
    lat = sublattice(amb, basis)
    return BuiltLattice(
        code=code,
        ambient=amb,
        basis=basis,
        lattice=lat,
        integral=lat.is_integral(),
        even=lat.is_even(),
    )


def nu_in_lattice(built: BuiltLattice):
    """The block-cycling isometry in the glued lattice's own coordinates."""
    b = mat(built.basis)
    nu = mat(nu_ambient_matrix(built.code))
    m = mat_mul(mat_mul(b, nu), mat_inv(b))
    if any(e.denominator != 1 for row in m for e in row):
        raise ValueError("code is not invariant: nu does not preserve the lattice")
    Isometry(m, built.lattice)
    return m


def shell4_count_by_cosets(code: Code) -> int:
    """Number of norm-4 vectors of the glued lattice, by convolving exact
    per-block coset norm counts over all codewords."""
    total = 0
    for w in span(code):
        poly = {Q(0): 1}
        for b in code.blocks(w):
            counts = _block_coset_data(code.p, b)[2]
            nxt: dict[Fraction, int] = {}
            for acc, c1 in poly.items():
                for norm, c2 in counts.items():
                    s = acc + norm
                    if s <= 4:
                        nxt[s] = nxt.get(s, 0) + c1 * c2
            poly = nxt
        total += poly.get(Q(4), 0)
    return total


def glue_vector_rows(code: Code):
    """The d glue generators: per block, (2/5)(1, 2, ..., p-1) in ambient
    coordinates, zero elsewhere; they generate the discriminant of the
    p = 5 case-study lattice."""
    n = code.block_len
    size = n * code.d
    rows = []
    for l in range(code.d):
        row = [Q(0)] * size
        for i in range(n):
            row[l * n + i] = Q(2 * (i + 1), code.p)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class GlueFormReport:
    passed: bool
    invariant_factors: tuple[int, ...]
    f_matrix: tuple
    q_values: tuple[int, ...]
    q_double_values: tuple[int, ...]


def glue_form_report(built: BuiltLattice) -> GlueFormReport:
    """Discriminant data of the glued lattice through the named glue
    vectors: dual membership, the mod-p pairing matrix, and q-values."""
    p = built.code.p
    lat = built.lattice
    b = mat(built.basis)
    b_inv = mat_inv(b)
    lam_rows = [row_mul(vec(r), b_inv) for r in glue_vector_rows(built.code)]
    for lam in lam_rows:
        pairings = row_mul(lam, lat.gram)
        if any(e.denominator != 1 for e in pairings):
            raise AssertionError("glue vector is not in the dual lattice")
    disc = discriminant_group(lat)
    f_rows = []
    q_vals = []
    q2_vals = []
    for li in lam_rows:
        f_rows.append(
            tuple(p * lat.inner(li, lj) for lj in lam_rows)
        )
        qv = Q(p, 2) * lat.inner(li, li)
        q2 = Q(p, 2) * lat.inner(tuple(2 * e for e in li), tuple(2 * e for e in li))
        if qv.denominator != 1 or q2.denominator != 1:
            raise AssertionError("q-values must be integral")
        q_vals.append(int(qv) % p)
        q2_vals.append(int(q2) % p)
    expected_f = tuple(
        tuple(Q(8) if i == j else Q(0) for j in range(built.code.d))
        for i in range(built.code.d)
    )
    passed = (
        disc.invariant_factors == tuple([p] * built.code.d)
        and tuple(f_rows) == expected_f
        and all(v == 4 for v in q_vals)
        and all(v == 1 for v in q2_vals)
    )
    return GlueFormReport(
        passed=passed,
        invariant_factors=disc.invariant_factors,
        f_matrix=tuple(f_rows),
        q_values=tuple(q_vals),
        q_double_values=tuple(q2_vals),
    )


def one_minus_nu_dual_equals_lattice(built: BuiltLattice) -> bool:
    """Whether (1 - nu) maps the dual lattice onto the lattice itself."""
    lat = built.lattice
    n = lat.rank
    m = nu_in_lattice(built)
    image_rows = mat_mul(mat_inv(lat.gram), mat_sub(identity(n), m))
    return same_lattice(image_rows, identity(n))


def nu_orbit_sublattice(built: BuiltLattice, word: Bits) -> Lattice:
    """Sublattice spanned by the block-cycling orbit of a codeword vector."""
    nu = mat(nu_ambient_matrix(built.code))
    rows = []
    v = vec(word)
    for _ in range(built.code.p - 1):
        rows.append(v)
        v = row_mul(v, nu)
    return sublattice(built.ambient, rows)


@dataclass(frozen=True)
class EE8Report:
    passed: bool
    m_rows: tuple
    mprime_rows: tuple
    hamming_rows: tuple
    weight_enumerator: tuple[tuple[int, int], ...]
    failures: tuple[str, ...]


def _half_vector_rows():
    """Ambient bit rows of the four extra generators of the first
    sqrt(2)E8 member: gamma/2 and delta/2 diagonals plus two mixed rows."""
    blocks = {
        "g": (1, 0, 0, 0),  # gamma/2 = beta1/2
        "d": (0, 0, 1, 1),  # delta/2 = (beta3+beta4)/2
        "gd": (1, 0, 1, 1),
        "0": (0, 0, 0, 0),
    }

    def word(pattern):
        out = []
        for key in pattern:
            out.extend(blocks[key])
        return tuple(out)

    return (
        word("gggg"),
        word("dddd"),
        word(["g", "d", "gd", "0"]),
        word(["d", "gd", "g", "0"]),
    )


def build_ee8_pair(built: BuiltLattice) -> EE8Report:
    """The two sqrt(2)E8 sublattices whose RSSD involutions compose to nu.

    The first is spanned by the eight gamma/delta block rows plus four
    half-vectors; the second is its image under nu^2.  All invariant
    checks (even, det 256, minimum 4, 240 norm-4 vectors, empty norm-6
    shell, the [8,4,4] glue code, sum and intersection with the glued
    lattice) are run here.
    """
    code = built.code
    if (code.p, code.d) != (5, 4):
        raise ValueError("the dihedral pair is defined for p=5, d=4")
    failures = []
    size = built.ambient.rank
    f_rows = []
    for l in range(4):
        gamma = [0] * size
        gamma[l * 4] = 2
        delta = [0] * size
        delta[l * 4 + 2] = 2
        delta[l * 4 + 3] = 2
        f_rows.append(tuple(gamma))
        f_rows.append(tuple(delta))
    m_rows = hnf(tuple(f_rows) + _half_vector_rows())
    nu2 = mat_pow(mat(nu_ambient_matrix(code)), 2)
    mprime_rows = hnf(
        [tuple(int(e) for e in row_mul(vec(r), nu2)) for r in m_rows]
    )

    for name, rows in (("M", m_rows), ("M'", mprime_rows)):
        lat = sublattice(built.ambient, rows)
        if not lat.is_even():
            failures.append(f"{name} not even")
        if lat.det() != 256:
            failures.append(f"{name} det {lat.det()} != 256")
        if shell(lat, 2):
            failures.append(f"{name} has norm-2 vectors")
        if len(shell(lat, 4)) != 240:
            failures.append(f"{name} norm-4 count != 240")
        if shell(lat, 6):
            failures.append(f"{name} has norm-6 vectors")

    # Glue code M/F: per block the coordinates are (x, 0, y, y); the
    # Hamming word is (x mod 2 per block, then y mod 2 per block).
    hamming = []
    for row in m_rows:
        xs, ys = [], []
        for l in range(4):
            a, b, c, d = row[l * 4 : l * 4 + 4]
            if b != 0:
                failures.append(f"unexpected second coordinate in M row {row}")
            if (c - d) % 2 != 0:
                failures.append(f"block y-coordinates differ mod 2 in {row}")
            xs.append(a % 2)
            ys.append(c % 2)
        hamming.append(tuple(xs + ys))
    ham_basis = _f2_basis(hamming)
    if len(ham_basis) != 4:
        failures.append(f"glue code dimension {len(ham_basis)} != 4")
    enum: dict[int, int] = {}
    for w in _f2_span(ham_basis, 8):
        enum[sum(w)] = enum.get(sum(w), 0) + 1
    if enum != {0: 1, 4: 14, 8: 1}:
        failures.append(f"glue code weight enumerator {sorted(enum.items())}")
    if any(
        sum(a * b for a, b in zip(u, v)) % 2 for u in ham_basis for v in ham_basis
    ):
        failures.append("glue code not self-orthogonal")

    if not same_lattice(
        tuple(m_rows) + tuple(mprime_rows), built.basis
    ):
        failures.append("M + M' != glued lattice")
    inter = lattice_intersection(m_rows, mprime_rows)
    if len(inter) != 0:
        failures.append("M intersect M' nonzero")

    # Involutions: coordinates of M and M' over the glued lattice.
    b = mat(built.basis)
    b_inv = mat_inv(b)
    m_in_lc = [row_mul(vec(r), b_inv) for r in m_rows]
    mp_in_lc = [row_mul(vec(r), b_inv) for r in mprime_rows]
    for rows in (m_in_lc, mp_in_lc):
        if any(e.denominator != 1 for r in rows for e in r):
            failures.append("E8 member not inside the glued lattice")
    t_m = rssd_involution(built.lattice, m_in_lc).matrix
    t_mp = rssd_involution(built.lattice, mp_in_lc).matrix
    nu_lc = nu_in_lattice(built)
    if not mat_eq(mat_mul(t_mp, t_m), mat(nu_lc)):
        failures.append("t_M t_M' != nu")

    return EE8Report(
        passed=not failures,
        m_rows=tuple(m_rows),
        mprime_rows=tuple(mprime_rows),
        hamming_rows=tuple(ham_basis),
        weight_enumerator=tuple(sorted(enum.items())),
        failures=tuple(failures),
    )


def load_code(payload: dict) -> Code:
    try:
        return Code(
            p=int(payload["p"]),
            d=int(payload["d"]),
            generators=tuple(tuple(g) for g in payload["generators"]),
        )
    except KeyError as exc:
        raise ValueError(f"code JSON missing field {exc}") from exc


def builtin_code(name: str = "5B") -> Code:
    if name != "5B":
        raise ValueError(f"unknown builtin code {name!r}")
    data = resources.files("parafusion").joinpath("golden/code_5b.json")
    return load_code(json.loads(data.read_text()))
