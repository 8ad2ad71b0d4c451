"""Exact linear algebra over the rationals and integers.

Everything operates on immutable tuples of tuples; entries are
``fractions.Fraction`` (rational routines) or ``int`` (integer lattice
routines: Hermite and Smith normal forms, saturated kernels).  No
floating point anywhere.

The rational routines run on one integer kernel: ``clear_denominators``
scales rational rows to integer rows once (all-``int`` rows pass through
after one type scan, as in ``int_mat``).  ``int_mat_mul`` is the ``int``
entry point: a product through the nonzero entries of the left factor,
with no type scan, for callers that hold ``int`` rows; ``mat_mul`` and
``row_mul`` clear each operand once and call it (``int`` operands give
``int``, any other ``Fraction``).  Every product raises ``ValueError`` on
a left width that is not the right height.  ``cleared_inverse`` (the
``int`` pair (s, s·m^-1)), ``mat_inv``, ``det``, ``solve_left`` and
``rank`` read off ``_gauss_jordan``, a fraction-free (Bareiss)
elimination over Z.  Z's other elimination is
``_hermite_with_transform``: ``hnf``, ``integer_row_kernel`` (the rows of
the transform whose Hermite rows are zero) and ``snf`` (invariant factors
and discriminant generators), which alternates it on rows and columns.
F2 has ``f2_echelon``, on rows packed into ``int``s (bit i is coordinate
i) by ``f2_pack``, with ``f2_unpack``, the XOR product ``f2_row_mul`` and
``f2_span`` (mask order).

Symmetric Grams have one elimination, ``ldl``: the same fraction-free
loop on the cleared Gram (``int_ldl`` on an ``int`` one), kept symmetric,
whose pivots are the leading minors.  It is the definiteness check and
the determinant of every ``Lattice``, and its
integer levels, kept once per Gram, drive ``enumerate_quadratic``,
``shell_vectors`` and ``coset_minimum``: one flat branch-and-bound loop
over ``int``s, with no special case for an empty Gram, a zero norm or a
negative bound, which at a zero centre searches in one descent only the
vectors with a positive leading coordinate and mirrors them by x -> -x.
``shell_vectors`` compares the level sums as ``int``s; the norms the
others report are exact ``Fraction``s.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

Mat = tuple[tuple[Fraction, ...], ...]
IntMat = tuple[tuple[int, ...], ...]
Vec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# construction / basic ops


def mat(rows: Iterable[Iterable]) -> Mat:
    """Coerce nested iterables of ints/Fractions/strings to a rational matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def int_mat(rows: Iterable[Iterable]) -> IntMat:
    rows = tuple(map(tuple, rows))
    if _is_int_mat(rows):
        return rows
    out = []
    for row in rows:
        converted = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError(f"entry {x} is not an integer")
            converted.append(f.numerator)
        out.append(tuple(converted))
    return tuple(out)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def int_identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def _is_int_mat(m: Sequence[Sequence]) -> bool:
    return {type(x) for row in m for x in row} <= {int}


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMat:
    """a·b for ``int`` rows, with no type scan: row r sums v·b[c] over the
    nonzero v = a[r][c], in O(nnz(a)·width).  Raises ``ValueError`` unless
    every row of a is as wide as b is high."""
    if any(len(row) != len(b) for row in a):
        raise ValueError(f"left rows must have width {len(b)}, the right height")
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = None
        for v, b_row in zip(row, b):
            if v and acc is None:
                acc = b_row if v == 1 else [v * y for y in b_row]
            elif v:
                acc = [x + v * y for x, y in zip(acc, b_row)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """a·b: ``int_mat_mul`` on the operands cleared with one type scan each,
    rescaled; ``int`` operands give ``int``, any other ``Fraction``."""
    (int_a, sa, a), (int_b, sb, b) = _cleared(a), _cleared(b)
    out = int_mat_mul(a, b)
    if int_a and int_b:
        return out
    return tuple(tuple(Fraction(x, sa * sb) for x in row) for row in out)


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scale(a, c) -> tuple:
    return tuple(tuple(c * x for x in row) for row in a)


def row_mul(x: Sequence, m: Sequence[Sequence]) -> tuple:
    """Row vector times matrix, typed as ``mat_mul``."""
    return mat_mul((x,), m)[0]


def dot(x: Sequence, y: Sequence):
    return sum(a * b for a, b in zip(x, y))


def is_symmetric(m: Sequence[Sequence]) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s)) for r, s in zip(a, b)
    )


def mat_pow(m: Mat, e: int) -> Mat:
    """m^e, by squaring over ``int`` on m cleared once; a matrix of ``int``s
    stays ``int`` for e >= 0."""
    if e < 0:
        return mat_pow(mat_inv(m), -e)
    int_m, s, base = _cleared(m)
    result, scale = int_identity(len(base)), s**e
    while e:
        if e & 1:
            result = int_mat_mul(result, base)
        base = int_mat_mul(base, base)
        e >>= 1
    return result if int_m else mat_scale(result, Fraction(1, scale))


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination over Z


def _gauss_jordan(rows: list[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan on the integer ``rows``, in
    place, on the first ``ncols`` columns; later columns ride along.

    At each pivot p every other row becomes (p·row − f·pivot_row) // prev,
    f its pivot-column entry and prev the previous pivot; each division is
    exact, and each row ends as the last pivot times the row a rational
    elimination leaves.  Returns the pivot columns and the signed last
    pivot: the determinant, when those columns are square and nonsingular.
    """
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
        pivots.append(c)
    return pivots, sign * prev


def cleared_inverse(m: Sequence[Sequence]) -> tuple[int, IntMat]:
    """(s, s·m^{-1}) in lowest terms, s > 0, with no ``Fraction``: elimination
    on [t·m | I] leaves every row d·[e_i | (t·m)^{-1} row i], d the last pivot,
    so m^{-1} = t·(right block)/d.  Raises on a singular matrix."""
    n = len(m)
    t, big_m = clear_denominators(m)
    aug = [row + e for row, e in zip(big_m, int_identity(n))]
    pivots, _ = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    d = aug[0][0] if n else 1
    c = gcd(d, *(t * x for r in aug for x in r[n:])) * (1 if d > 0 else -1)
    return d // c, tuple(tuple(t * x // c for x in r[n:]) for r in aug)


def mat_inv(m: Sequence[Sequence]) -> Mat:
    """Inverse as ``Fraction``s, read off ``cleared_inverse``."""
    s, inv = cleared_inverse(m)
    return tuple(tuple(Fraction(x, s) for x in row) for row in inv)


def det(m: Sequence[Sequence]) -> Fraction:
    s, big_m = clear_denominators(m)
    pivots, d = _gauss_jordan(list(big_m), len(m))
    return Fraction(d, s ** len(m)) if len(pivots) == len(m) else Fraction(0)


def solve_left(basis: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Solve y · basis = target exactly; None if inconsistent.

    ``basis`` rows need not be square but must be linearly independent.
    """
    rows = len(basis)
    cols = len(basis[0]) if rows else len(target)
    # Eliminate on the transposed system (cols x rows | target).
    system = ([basis[r][c] for r in range(rows)] + [target[c]] for c in range(cols))
    aug = list(clear_denominators(system)[1])
    pivots, _ = _gauss_jordan(aug, rows)
    # Inconsistency: a cleared row with nonzero rhs.
    if any(aug[r][rows] != 0 for r in range(len(pivots), cols)):
        return None
    y = [Fraction(0)] * rows
    for r, c in enumerate(pivots):
        y[c] = Fraction(aug[r][rows], aug[r][c])
    # Independent basis rows assumed; verify to be safe.
    if row_mul(y, basis) != tuple(Fraction(t) for t in target):
        return None
    return tuple(y)


def rank(m: Sequence[Sequence]) -> int:
    _, big_m = clear_denominators(m)
    return len(_gauss_jordan(list(big_m), len(big_m[0]) if big_m else 0)[0])


# ---------------------------------------------------------------------------
# integer normal forms


def hnf(m: Sequence[Sequence[int]]) -> IntMat:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); the row space over Z is preserved, so equal row lattices
    have equal HNFs.
    """
    return tuple(tuple(row) for row in _hermite_with_transform(m)[0] if any(row))


def clear_denominators(m: Iterable[Iterable]) -> tuple[int, IntMat]:
    """(s, s·m) with s the lcm of the denominators of the entries of m;
    ``int`` and ``Fraction`` entries are read as they are."""
    return _cleared(m)[1:]


def _cleared(m: Iterable[Iterable]) -> tuple[bool, int, IntMat]:
    """(whether every entry is an ``int``, s, s·m); all-``int`` rows pass as they are."""
    rows = tuple(map(tuple, m))
    if _is_int_mat(rows):
        return True, 1, rows
    rows = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return False, scale, tuple(
        tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows
    )


def _hermite_with_transform(m: Sequence[Sequence[int]]):
    """Row HNF keeping zero rows, plus the unimodular row transform.

    Returns (h, u) with h = u·m, pivots positive, entries above each
    pivot reduced into [0, pivot), zero rows at the bottom.
    """
    work = [list(row) for row in m]
    nrows = len(work)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ncols = len(work[0]) if nrows else 0
    pivot_row = 0
    for col in range(ncols):
        r = pivot_row
        while True:
            nz = [i for i in range(r, nrows) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(work[i][col]))
            work[r], work[i_min] = work[i_min], work[r]
            u[r], u[i_min] = u[i_min], u[r]
            if work[r][col] < 0:
                work[r] = [-x for x in work[r]]
                u[r] = [-x for x in u[r]]
            done = True
            for i in range(r + 1, nrows):
                if work[i][col] != 0:
                    q = work[i][col] // work[r][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if r < nrows and work[r][col] != 0:
            for i in range(r):
                q = work[i][col] // work[r][col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            pivot_row += 1
    return work, u


def _egcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b == gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def snf(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (D, U, V) with U·m·V = D.

    D is diagonal (rectangular allowed) with d1 | d2 | ...; U, V are
    unimodular.  Diagonalizes by alternating row and column Hermite
    reductions, which keeps intermediate entries reduced; the naive
    single-pivot elimination blows up already around rank 13.
    """
    a = [[int(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def off_diagonal_zero(m_):
        return all(x == 0 for i, row in enumerate(m_) for j, x in enumerate(row) if i != j)

    if nrows and ncols:
        for _ in range(1000):
            h, p = _hermite_with_transform(a)
            a = h
            u = list(int_mat_mul(p, u))
            if off_diagonal_zero(a):
                break
            ht, q = _hermite_with_transform(transpose(a))
            a = [list(row) for row in transpose(ht)]
            v = [list(row) for row in int_mat_mul(v, transpose(q))]
            if off_diagonal_zero(a):
                break
        else:
            raise AssertionError("Smith reduction did not converge")

    rank_ = sum(1 for i in range(min(nrows, ncols)) if a[i][i] != 0)
    if any(a[i][i] != 0 for i in range(rank_, min(nrows, ncols))):
        raise AssertionError("nonzero diagonal entries are not a prefix")

    def fix_pair(i, j):
        # diag(ai, aj) -> diag(gcd, lcm) via an embedded 2x2 transform.
        ai, aj = a[i][i], a[j][j]
        g = gcd(ai, aj)
        x, y = _egcd(ai, aj)
        u_i = [x * p + y * q for p, q in zip(u[i], u[j])]
        u_j = [(-aj // g) * p + (ai // g) * q for p, q in zip(u[i], u[j])]
        u[i], u[j] = u_i, u_j
        for row in v:
            ci, cj = row[i], row[j]
            row[i] = ci + cj
            row[j] = (-y * aj // g) * ci + (x * ai // g) * cj
        a[i][i] = g
        a[j][j] = ai // g * aj

    while True:
        fixed = False
        for i in range(rank_):
            for j in range(i + 1, rank_):
                if a[j][j] % a[i][i] != 0:
                    fix_pair(i, j)
                    fixed = True
        if not fixed:
            break

    return tuple(tuple(map(tuple, x)) for x in (a, u, v))


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, zero entries dropped."""
    d, _, _ = snf(m)
    out = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return tuple(x for x in out if x != 0)


def integer_row_kernel(m: Sequence[Sequence[int]]) -> IntMat:
    """Saturated basis of {x in Z^rows : x · m = 0}: the rows of the
    unimodular U whose Hermite row U·m is zero."""
    h, u = _hermite_with_transform(m)
    return tuple(tuple(u_row) for h_row, u_row in zip(h, u) if not any(h_row))


# ---------------------------------------------------------------------------
# F2 on packed bit rows (bit i of an int is coordinate i)


def f2_pack(bits: Iterable) -> int:
    """Pack an integer row, reduced mod 2, into one int."""
    return sum((int(b) & 1) << i for i, b in enumerate(bits))


def f2_unpack(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> i) & 1 for i in range(n))


def f2_row_mul(x: int, rows: Sequence[int]) -> int:
    """Row x times the matrix with the given packed rows: the XOR of the
    rows at the set bits of x."""
    out = 0
    for i, r in enumerate(rows):
        if x >> i & 1:
            out ^= r
    return out


def f2_echelon(rows: Iterable[int]) -> list[int]:
    """Forward echelon over F2, in input order.

    Each row is reduced by the rows kept before it, at their pivots (a
    kept row's pivot is its lowest set bit), and kept when nonzero.  The
    kept rows are independent, have distinct pivots and span the input.
    """
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r & b & -b:
                r ^= b
        if r:
            basis.append(r)
    return basis


def f2_span(basis: Sequence[int]) -> list[int]:
    """All 2^len(basis) sums of the rows in mask order: entry m is the
    XOR of basis[i] over the set bits i of m."""
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return words


# ---------------------------------------------------------------------------
# quadratic form enumeration (Fincke-Pohst on fraction-free LDL^T levels)


def ldl(gram: Sequence[Sequence]) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """Fraction-free LDL^T: (s, D, B) with, D[-1] read as 1,

        s·Q(x) = sum_i (sum_{j>=i} B[i][j] x_j)^2 / (D[i-1]·D[i]).

    Bareiss's elimination (1968) on the cleared Gram s·gram: D[i] is the
    (i+1)-th leading minor, B[i] is row i (zero left of i) as it becomes
    the pivot row, and each division is exact.  The eliminated matrix
    stays symmetric, so only the upper triangle is updated and a[i][k] is
    read as a[k][i].  Raises unless every leading minor is positive
    (Sylvester's criterion for definiteness).
    """
    s, cleared = clear_denominators(gram)
    return (s, *int_ldl(cleared))


def int_ldl(gram: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """(D, B) of ``ldl`` for an ``int`` Gram, with no type scan."""
    a = [list(row) for row in gram]
    d, b, prev = [], [], 1
    for k, row_k in enumerate(a):
        pivot = row_k[k]
        if pivot <= 0:
            raise ValueError("gram matrix is not positive definite")
        for i in range(k + 1, len(a)):
            f = row_k[i]
            a[i][i:] = [(x * pivot - f * y) // prev for x, y in zip(a[i][i:], row_k[i:])]
        d.append(pivot)
        b.append((0,) * k + tuple(row_k[k:]))
        prev = pivot
    return d, b


@lru_cache(maxsize=64)
def _gram_levels(gram: tuple) -> tuple:
    """The centre-free part of ``_levels``, once per Gram: (s·L, D, w, tails)
    with w_i = L/(D[i-1]·D[i]) and tails[i] = B[i][i+1:]."""
    s, d, b = ldl(gram)
    pairs = [p * q for p, q in zip([1] + d, d)]
    big_l = lcm(*pairs)
    tails = tuple(row[i + 1 :] for i, row in enumerate(b))
    return s * big_l, tuple(d), tuple(big_l // p for p in pairs), tails


def _levels(gram: Sequence[Sequence], center: Sequence | None):
    """The ``ldl`` levels of a Gram on integers, for a centre t.

    With T the lcm of the denominators of t, L the lcm of the D[i-1]·D[i],
    w_i = L/(D[i-1]·D[i]), y_j = T(x_j + t_j) and U_i = sum_{j>=i} B[i][j]·y_j,
    s·L·T^2·Q(x + t) = sum_i w_i U_i^2.  Returns (s·L·T^2, T, rows) with
    rows[i] = (w_i, D[i]·T, D[i]·T·t_i, T·t_i, B[i][i+1:]).
    """
    scale, d, w, tails = _gram_levels(tuple(map(tuple, gram)))
    t_scale, (big_t,) = clear_denominators([center]) if center else (1, ((0,) * len(d),))
    rows = [
        (wi, di * t_scale, di * ti, ti, tail)
        for wi, di, ti, tail in zip(w, d, big_t, tails)
    ]
    return scale * t_scale * t_scale, t_scale, rows


def _descend(t_scale: int, rows: list, budget: int, half: bool):
    """Branch and bound from the deepest level down, as one loop over
    explicit stacks.  With ``half``, only the x whose deepest nonzero
    coordinate is positive: while the deeper levels are all zero, x_i
    starts at 0, and at 1 on level 0."""
    n = len(rows)
    x = [0] * n
    y, off, hi = x[:], x[:], x[:]  # y_j = T·(x_j + t_j) once chosen
    part = x + [0]  # part[i]: sum of w_j U_j^2 over the chosen levels j >= i
    i, enter = n - 1, True
    while 0 <= i < n:
        w, step, base, ti, tail = rows[i]
        if enter:
            o = base + sum(map(mul, tail, y[i + 1 :]))
            r = isqrt((budget - part[i + 1]) // w)
            xi = (0 if i else 1) if half and not part[i + 1] else -((o + r) // step)
            if not i:
                for xi in range(xi, (r - o) // step + 1):
                    u = step * xi + o
                    x[0] = xi
                    yield tuple(x), part[1] + w * u * u
                i, enter = 1, False
                continue
            off[i], hi[i] = o, (r - o) // step
        else:
            xi = x[i] + 1
        if xi > hi[i]:
            i, enter = i + 1, False
            continue
        u = step * xi + off[i]
        x[i], y[i] = xi, t_scale * xi + ti
        part[i] = part[i + 1] + w * u * u
        i, enter = i - 1, True


def _branch_and_bound(t_scale: int, rows: list, budget: int) -> Iterable:
    """Every (x, sum_i w_i U_i^2) within the integer ``budget`` on the
    ``_levels`` rows, deepest coordinate first, each coordinate ascending:
    level i admits exactly the x_i with w_i·U_i^2 <= budget - partial, the
    deeper levels' sum.  At a zero centre Q(-x) = Q(x) and negation
    reverses that order, so only the half of x whose deepest nonzero
    coordinate is positive is searched, and mirrored."""
    if budget < 0:
        return
    if any(ti for _, _, _, ti, _ in rows):
        yield from _descend(t_scale, rows, budget, False)
        return
    half = list(_descend(t_scale, rows, budget, True))
    for x, q in reversed(half):
        yield tuple([-c for c in x]), q
    yield (0,) * len(rows), 0
    yield from half


def enumerate_quadratic(
    gram: Mat,
    bound: Fraction,
    center: Vec | None = None,
) -> Iterable[tuple[tuple[int, ...], Fraction]]:
    """Yield (x, Q(x + center)) over integer x with Q(x + center) <= bound.

    Q is the quadratic form of ``gram``; branch and bound on its integer
    levels with the budget floor(s·L·T^2·bound) (``_levels``).  The
    reported Q(x + center) is the exact ``Fraction`` of the scaled sum.
    """
    scale, t_scale, rows = _levels(gram, center)
    budget = floor(Fraction(bound) * scale)
    for x, q in _branch_and_bound(t_scale, rows, budget):
        yield x, Fraction(q, scale)


def shell_vectors(gram: Mat, norm: Fraction) -> list[tuple[int, ...]]:
    """All integer coordinate vectors x with x·gram·x^T exactly ``norm``,
    kept where the scaled level sum equals norm·s·L as an ``int``."""
    scale, t_scale, rows = _levels(gram, None)
    target = Fraction(norm) * scale
    if target.denominator != 1:
        return []
    target = target.numerator
    return [x for x, q in _branch_and_bound(t_scale, rows, target) if q == target]


def coset_minimum(gram: Mat, shift: Vec) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Exact min of Q(x + shift) over integer x, with the minimizing x's.

    A greedy nearest-plane descent supplies the initial bound; the full
    branch and bound then certifies the minimum; both on integer levels.
    """
    n = len(gram)
    scale, t_scale, rows = _levels(gram, shift)
    # Greedy rounding pass for an upper bound.
    y = [0] * n
    upper = 0
    for i in range(n - 1, -1, -1):
        w, step, base, ti, tail = rows[i]
        off = base + sum(map(mul, tail, y[i + 1 :]))
        xi = -(off // step)
        best = min((xi - 1, xi, xi + 1), key=lambda cand: abs(step * cand + off))
        y[i] = t_scale * best + ti
        upper += w * (step * best + off) ** 2
    best_norm = upper
    best_vecs: list[tuple[int, ...]] = []
    for x, q in _branch_and_bound(t_scale, rows, upper):
        if q < best_norm:
            best_norm = q
            best_vecs = [x]
        elif q == best_norm:
            best_vecs.append(x)
    return Fraction(best_norm, scale), best_vecs


def size_reduce_basis(gram: Mat) -> tuple[Mat, IntMat]:
    """``int_size_reduce_basis`` on the cleared Gram, as scaling changes no
    rounding or comparison; new_gram is typed as ``mat_mul``."""
    int_in, s, cleared = _cleared(gram)
    g2, u2 = int_size_reduce_basis(cleared)
    return (g2 if int_in else mat_scale(g2, Fraction(1, s))), u2


def int_size_reduce_basis(gram: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Greedy pairwise size reduction of an ``int`` Gram; returns (new_gram, U)
    with U rows expressing the new basis in the old one.  Enough to tame
    HNF bases before enumeration; not LLL."""
    n = len(gram)
    g = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def apply(i, j, q):  # b_i -= q b_j
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        for kk in range(n):
            g[i][kk] -= q * g[j][kk]
        for kk in range(n):
            g[kk][i] -= q * g[kk][j]

    changed = True
    sweeps = 0
    while changed and sweeps < 64:
        changed = False
        sweeps += 1
        for i in range(n):
            for j in range(n):
                if i == j or g[j][j] == 0:
                    continue
                q = (2 * g[i][j] + g[j][j]) // (2 * g[j][j])
                if q == 0:
                    continue
                new_norm = g[i][i] - 2 * q * g[i][j] + q * q * g[j][j]
                if new_norm < g[i][i]:
                    apply(i, j, q)
                    changed = True
        # Reorder by ascending norm for better enumeration pivots.
    order = sorted(range(n), key=lambda i: g[i][i])
    g2 = tuple(tuple(g[i][j] for j in order) for i in order)
    return g2, tuple(tuple(u[i]) for i in order)
