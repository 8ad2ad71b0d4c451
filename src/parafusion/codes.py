"""Code lattices glued from cosets of (sqrt2)A_{p-1} blocks.

A codeword is d blocks of p-1 bits; each block u names the coset
(1/2)beta(u) + sqrt(2)A_{p-1}.  The code's mod-2 space is one
``F2QuadraticForm`` on codewords packed once (``linalg``'s F2 section).
Coset weights come from exact closest-vector enumeration, kept doubled
as ``int``s.  The glued lattice L_C and the p = 5 case study (weight-4
word classification, with an orbit oracle that takes one pass per orbit;
the glue discriminant form; the pair of sqrt(2)E8 sublattices whose
involutions compose to the block-cycling isometry) all live here.

Internal coordinates: the ambient lattice is ((1/2)N)^d with N the
doubled A_{p-1} block, so codeword bits are literally coordinates and
every basis matrix is integral.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations, permutations
from typing import Sequence

from .central import F2BilinearForm, F2QuadraticForm, mod2_matrix, pullback
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
    clear_denominators,
    cleared_inverse,
    coset_minimum,
    enumerate_quadratic,
    f2_echelon,
    f2_pack,
    f2_row_mul,
    f2_span,
    f2_unpack,
    hnf,
    int_identity,
    int_mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    row_mul,
    transpose,
    vec,
)

Q = Fraction
Bits = tuple[int, ...]

# Caps on a code, timed beside cli.MAX_LEVEL: the battery's cost grows with p
# (coset minima in dimension p - 1), with the rank (p - 1)·d of the ambient
# lattice and with the 2^dim codewords, dim <= the number of generators.
MAX_P, MAX_D, MAX_GENERATORS = 13, 16, 16


@dataclass(frozen=True)
class Code:
    """Binary code whose words name cosets over d blocks of length p-1."""

    p: int
    d: int
    generators: tuple[Bits, ...]

    def __post_init__(self):
        for name in ("p", "d"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"p must be odd and >= 3, got {self.p}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        for name, value, cap in (("p", self.p, MAX_P), ("d", self.d, MAX_D)):
            if value > cap:
                raise ValueError(f"{name} must be <= {cap}, got {value}")
        n = (self.p - 1) * self.d
        try:
            gens = tuple(self.generators)
            if len(gens) > MAX_GENERATORS:
                raise ValueError(f"at most {MAX_GENERATORS} generators, got {len(gens)}")
            gens = tuple(map(tuple, gens))
        except TypeError:
            raise ValueError("generators must be a list of bit rows") from None
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


@lru_cache(maxsize=None)
def _cartan(p: int):
    return root_lattice("A", p - 1)._int_gram


def _block_diagonal(block: Sequence[Sequence], d: int) -> tuple:
    """d copies of the square matrix ``block`` down the diagonal."""
    n = len(block)
    return tuple(
        (0,) * (l * n) + tuple(row) + (0,) * ((d - 1 - l) * n)
        for l in range(d)
        for row in block
    )


@lru_cache(maxsize=None)
def _form(p: int, d: int) -> F2QuadraticForm:
    """q(u) = (1/2) u A u^T mod 2 on d blocks, A the A_{p-1} Cartan matrix
    per block: sum u_i + sum u_i u_{i+1}, so the diagonal is all 1 and
    the polarization u A v^T is A mod 2."""
    a = mod2_matrix(_block_diagonal(_cartan(p), d))
    return F2QuadraticForm((1,) * len(a), F2BilinearForm(a))


def _block_form(p: int, *blocks: Sequence[int]) -> F2QuadraticForm:
    """The one-block form, once every block has length p - 1."""
    if any(len(b) != p - 1 for b in blocks):
        raise ValueError(f"blocks must have length {p - 1}")
    return _form(p, 1)


def k_inner(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Mod-2 pairing u A v^T of two blocks."""
    return _block_form(p, u, v).polarization.value(u, v)


def k_quadratic(u: Sequence[int], p: int) -> int:
    """Mod-2 value (1/2) u A u^T of a block; polarizes to k_inner."""
    return _block_form(p, u).value(u)


@lru_cache(maxsize=None)
def _nu_power_rows(p: int) -> tuple[tuple[int, ...], ...]:
    """Packed block rows of nu^a mod 2, for a = 0, ..., p - 1."""
    nu = [f2_pack(r) for r in coxeter_nu(p)]
    powers = [tuple(1 << i for i in range(p - 1))]
    for _ in range(p - 1):
        powers.append(tuple(f2_row_mul(r, nu) for r in powers[-1]))
    return tuple(powers)


def _act(code: Code, perm: Sequence[int], nu_power: int, word: int) -> int:
    """nu^a on every block of a packed word, then block l taken from
    block perm[l]: one packed product per block."""
    n = code.block_len
    rows = _nu_power_rows(code.p)[nu_power]
    mask = (1 << n) - 1
    out = 0
    for l, src in enumerate(perm):
        out |= f2_row_mul(word >> (src * n) & mask, rows) << (l * n)
    return out


@lru_cache(maxsize=None)
def _packed(code: Code) -> tuple[tuple[int, ...], dict[int, Bits]]:
    """A packed F2 echelon basis of the generators, and every codeword,
    packed, with its bits."""
    basis = tuple(f2_echelon(map(f2_pack, code.generators)))
    n = code.block_len * code.d
    return basis, {w: f2_unpack(w, n) for w in f2_span(basis)}


@lru_cache(maxsize=None)
def span(code: Code) -> tuple[Bits, ...]:
    """All codewords, enumerated from an F2 basis of the generators."""
    return tuple(sorted(_packed(code)[1].values()))


@lru_cache(maxsize=None)
def _block_gram(p: int):
    """Twice the Gram 2A of sqrt(2)A_{p-1}, the lattice under each block's cosets:
    it doubles their norms, to integers, as (u/2)·4A·(u/2)^T = uAu^T is one."""
    return mat_scale(sqrt2_a(p - 1)._int_gram, 2)


@lru_cache(maxsize=None)
def _block_norm_counts(p: int, block: Bits, bound: int) -> Counter:
    """{2·norm: count} over the vectors of norm <= bound/2 in the coset
    (1/2)beta(block) + sqrt(2)A_{p-1}."""
    shift = vec(Q(b, 2) for b in block)
    return Counter(int(n) for _, n in enumerate_quadratic(_block_gram(p), bound, shift))


@lru_cache(maxsize=None)
def _block_min(p: int, block: Bits) -> int:
    """Twice the minimal norm of the coset (1/2)beta(block) + sqrt(2)A_{p-1}."""
    return int(coset_minimum(_block_gram(p), vec(Q(b, 2) for b in block))[0])


def codeword_weight(code: Code, word: Bits) -> int:
    """Sum over blocks of the minimal coset norm; an exact integer here."""
    twice = sum(_block_min(code.p, b) for b in code.blocks(word))
    if twice % 2:
        raise AssertionError(f"non-integral weight {Q(twice, 2)}")
    return twice // 2


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
    """Exact enumeration of the span and all declared invariants.

    The code's form pulled back to its basis vanishes iff the code is
    totally isotropic; its polarization vanishes iff self-orthogonal."""
    basis, words = _packed(code)
    on_code = pullback(_form(code.p, code.d), basis)
    self_orth = not any(map(any, on_code.polarization.matrix))
    nu_inv = all(_act(code, range(code.d), 1, b) in words for b in basis)
    dist = Counter(codeword_weight(code, w) for w in words.values())
    half_dim = (code.p - 1) * code.d // 2
    return CodeReport(
        size=len(words),
        dimension=len(basis),
        self_orthogonal=self_orth,
        self_dual=self_orth and len(words) == 2**half_dim,
        totally_isotropic=self_orth and not any(on_code.diagonal),
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


@lru_cache(maxsize=None)
def ambient_lattice(code: Code) -> Lattice:
    """((1/2)N)^d: block Gram is half the A_{p-1} Cartan matrix."""
    return Lattice._from_pair(2, _block_diagonal(_cartan(code.p), code.d))


@lru_cache(maxsize=None)
def nu_ambient_matrix(code: Code):
    """Blockwise block-cycling isometry on the ambient coordinates."""
    return _block_diagonal(coxeter_nu(code.p), code.d)


@lru_cache(maxsize=None)
def _nu_pairing(code: Code):
    """(s, nu·g), g = s·G the ambient's cleared Gram: <x, x·nu> = x(nu·g)x^T/s."""
    amb = ambient_lattice(code)
    return amb._scale, int_mat_mul(nu_ambient_matrix(code), amb._int_gram)


def classify_word(code: Code, word: Bits) -> str:
    """Type of a weight-4 word in the p=5, d=4 configuration."""
    if (code.p, code.d) != (5, 4):
        raise ValueError("classification is defined for p=5, d=4")
    minima = sorted(_block_min(code.p, b) for b in code.blocks(word))
    if sum(minima) != 8:
        raise ValueError("classification applies to weight-4 words")
    s, form = _nu_pairing(code)
    nz = [(i, x) for i, x in enumerate(word) if x]
    pairing = sum(x * y * form[i][j] for i, x in nz for j, y in nz)
    key = (tuple(m // 2 for m in minima), Q(pairing, s))
    if (kind := _TYPE_KEYS.get(key)) is None:
        raise ValueError(f"unclassifiable weight-4 word {word}: invariant {key}")
    return kind


@dataclass(frozen=True)
class ClassificationReport:
    counts: tuple[tuple[str, int], ...]
    by_type: tuple[tuple[str, tuple[Bits, ...]], ...]


@lru_cache(maxsize=None)
def _weight4(code: Code) -> dict[int, Bits]:
    """The weight-4 codewords, packed, with their bits."""
    words = _packed(code)[1].items()
    return {w: b for w, b in words if codeword_weight(code, b) == 4}


def classify_weight4(code: Code) -> ClassificationReport:
    """Classify every weight-4 word by the invariant pair."""
    buckets: dict[str, list[Bits]] = {"I": [], "II": [], "III": [], "IV": []}
    for w in _weight4(code).values():
        buckets[classify_word(code, w)].append(w)
    return _classification(buckets)


def _classification(buckets: dict[str, list[Bits]]) -> ClassificationReport:
    """Counts and sorted words per type, types in sorted order."""
    items = sorted(buckets.items())
    return ClassificationReport(
        counts=tuple((t, len(v)) for t, v in items),
        by_type=tuple((t, tuple(sorted(v))) for t, v in items),
    )


def _alt4() -> list[tuple[int, ...]]:
    """The even permutations of the four blocks: even inversion count."""
    return [
        p for p in permutations(range(4))
        if sum(a > b for a, b in combinations(p, 2)) % 2 == 0
    ]


def orbit_classification(code: Code) -> ClassificationReport:
    """Independent oracle: orbits of weight-4 words under the even block
    permutations times the powers of nu.  nu^a acts alike on every block,
    so it commutes with the permutations and the 60 maps form a group:
    the orbit of w is its 60 images, taken in one pass."""
    if (code.p, code.d) != (5, 4):
        raise ValueError("orbit oracle is defined for p=5, d=4")
    words = _weight4(code)
    group = [(perm, a) for perm in _alt4() for a in range(code.p)]
    seen: set[int] = set()
    buckets: dict[str, list[Bits]] = {"I": [], "II": [], "III": [], "IV": []}
    for w in words:
        if w in seen:
            continue
        orbit = {_act(code, perm, a, w) for perm, a in group}
        if not orbit <= words.keys():
            raise AssertionError("group action leaves the code")
        seen |= orbit
        types = {classify_word(code, words[x]) for x in orbit}
        if len(types) != 1:
            raise AssertionError("orbit spans multiple types")
        buckets[types.pop()].extend(words[x] for x in orbit)
    return _classification(buckets)


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


@lru_cache(maxsize=None)
def _basis_inverse(built: BuiltLattice):
    """(s, s·B^{-1}) for B the glued lattice's basis over the ambient coordinates."""
    return cleared_inverse(built.basis)


def _in_lattice(built: BuiltLattice, rows):
    """Ambient ``int`` rows in the glued lattice's own coordinates, rows·B^{-1};
    the integral entries are ``int``s."""
    s, b_inv = _basis_inverse(built)
    m = int_mat_mul(rows, b_inv)
    return tuple(tuple(Q(e, s) if e % s else e // s for e in row) for row in m)


@lru_cache(maxsize=None)
def _nu_coords(built: BuiltLattice):
    """B·nu·B^{-1}, over ``int``: nu in the glued lattice's own coordinates."""
    m = _in_lattice(built, int_mat_mul(built.basis, nu_ambient_matrix(built.code)))
    if any(e.denominator != 1 for row in m for e in row):
        raise ValueError("code is not invariant: nu does not preserve the lattice")
    return m


@lru_cache(maxsize=None)
def nu_in_lattice(built: BuiltLattice):
    """The block-cycling isometry in the glued lattice's own coordinates, as
    ``int`` rows, checked to preserve its form."""
    return Isometry(_nu_coords(built), built.lattice)._int_matrix


def shell_count_by_cosets(code: Code, norm) -> int:
    """Number of vectors of the given norm in the glued lattice, by
    convolving per-block counts of doubled coset norms, all ``int``s, over
    all codewords."""
    twice = 2 * Q(norm)
    bound = int(twice)  # no sum of doubled norms hits a non-integral twice
    total = 0
    for w in span(code):
        poly = {0: 1}
        for b in code.blocks(w):
            counts = _block_norm_counts(code.p, b, bound).items()
            nxt: dict[int, int] = {}
            for acc, c1 in poly.items():
                for block_norm, c2 in counts:
                    s = acc + block_norm
                    if s <= bound:
                        nxt[s] = nxt.get(s, 0) + c1 * c2
            poly = nxt
        total += poly.get(twice, 0)
    return total


def shell4_count_by_cosets(code: Code) -> int:
    """Number of norm-4 vectors of the glued lattice, by coset convolution."""
    return shell_count_by_cosets(code, 4)


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
    vectors: dual membership, the mod-p pairing matrix, and q-values.
    The glue vector r·B^{-1} pairs with the lattice's basis by r·G·B^T and
    with r'·B^{-1} by r·G·r'^T, G the ambient Gram: no inverse is taken."""
    p = built.code.p
    t, r = clear_denominators(glue_vector_rows(built.code))
    rg = int_mat_mul(r, built.ambient._int_gram)
    scale = t * built.ambient._scale  # r·G·x^T = rg·x^T / scale for rows x
    if any(e % scale for row in int_mat_mul(rg, transpose(built.basis)) for e in row):
        raise AssertionError("glue vector is not in the dual lattice")
    disc = discriminant_group(built.lattice)
    f_rows = []
    q_vals = []
    q2_vals = []
    for i, row in enumerate(int_mat_mul(rg, transpose(r))):
        f_rows.append(tuple(Q(p * e, t * scale) for e in row))
        qv = Q(p * row[i], 2 * t * scale)
        q2 = Q(p * 4 * row[i], 2 * t * scale)  # 2r: four times the norm
        if qv.denominator != 1 or q2.denominator != 1:
            raise AssertionError("q-values must be integral")
        q_vals.append(int(qv) % p)
        q2_vals.append(int(q2) % p)
    expected_f = mat_scale(int_identity(built.code.d), 8)
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
    """Whether (1 - nu) maps the dual lattice onto the lattice itself: the
    dual has basis G^{-1}, so whether G^{-1}(1 - nu) is unimodular, that
    is whether s(1 - nu)^T and g = sG have one row lattice (one HNF)."""
    lat = built.lattice
    one_minus_nu = mat_sub(int_identity(lat.rank), _nu_coords(built))
    return hnf(mat_scale(transpose(one_minus_nu), lat._scale)) == hnf(lat._int_gram)


def nu_orbit_sublattice(built: BuiltLattice, word: Bits) -> Lattice:
    """Sublattice spanned by the block-cycling orbit of a codeword vector."""
    nu = nu_ambient_matrix(built.code)
    rows = [row_mul(word, mat_pow(nu, a)) for a in range(built.code.p - 1)]
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
    patterns = ("gggg", "dddd", ("g", "d", "gd", "0"), ("d", "gd", "g", "0"))
    return tuple(tuple(b for key in p for b in blocks[key]) for p in patterns)


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
    nu = nu_ambient_matrix(code)
    mprime_rows = hnf(int_mat_mul(int_mat_mul(m_rows, nu), nu))

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
    ham_basis = f2_echelon(map(f2_pack, hamming))
    if len(ham_basis) != 4:
        failures.append(f"glue code dimension {len(ham_basis)} != 4")
    enum = Counter(w.bit_count() for w in f2_span(ham_basis))
    if enum != {0: 1, 4: 14, 8: 1}:
        failures.append(f"glue code weight enumerator {sorted(enum.items())}")
    if any((u & v).bit_count() & 1 for u in ham_basis for v in ham_basis):
        failures.append("glue code not self-orthogonal")

    if not same_lattice(
        tuple(m_rows) + tuple(mprime_rows), built.basis
    ):
        failures.append("M + M' != glued lattice")
    inter = lattice_intersection(m_rows, mprime_rows)
    if len(inter) != 0:
        failures.append("M intersect M' nonzero")

    # Involutions: coordinates of M and M' over the glued lattice.
    m_in_lc, mp_in_lc = _in_lattice(built, m_rows), _in_lattice(built, mprime_rows)
    for rows in (m_in_lc, mp_in_lc):
        if any(e.denominator != 1 for r in rows for e in r):
            failures.append("E8 member not inside the glued lattice")
    t_m = rssd_involution(built.lattice, m_in_lc)._int_matrix
    t_mp = rssd_involution(built.lattice, mp_in_lc)._int_matrix
    if int_mat_mul(t_mp, t_m) != nu_in_lattice(built):
        failures.append("t_M t_M' != nu")

    return EE8Report(
        passed=not failures,
        m_rows=tuple(m_rows),
        mprime_rows=tuple(mprime_rows),
        hamming_rows=tuple(f2_unpack(r, 8) for r in ham_basis),
        weight_enumerator=tuple(sorted(enum.items())),
        failures=tuple(failures),
    )


def load_code(payload: dict) -> Code:
    try:
        return Code(
            p=payload["p"],
            d=payload["d"],
            generators=payload["generators"],
        )
    except KeyError as exc:
        raise ValueError(f"code JSON missing field {exc}") from exc


def builtin_code(name: str = "5B") -> Code:
    if name != "5B":
        raise ValueError(f"unknown builtin code {name!r}")
    data = resources.files("parafusion").joinpath("golden/code_5b.json")
    return load_code(json.loads(data.read_text()))
