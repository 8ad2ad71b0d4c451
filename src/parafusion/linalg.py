"""Exact linear algebra over the rationals and integers.

Everything operates on immutable tuples of tuples; entries are
``fractions.Fraction`` (rational routines) or ``int`` (integer lattice
routines: Hermite and Smith normal forms, saturated kernels).  No
floating point anywhere.

Each ring has one elimination routine: ``_gauss_jordan`` over Q behind
``mat_inv``, ``det``, ``solve_left`` and ``rank``, and
``_hermite_with_transform`` over Z behind ``hnf`` and ``snf``.
``clear_denominators`` takes rational rows to integer rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Sequence

Mat = tuple[tuple[Fraction, ...], ...]
IntMat = tuple[tuple[int, ...], ...]
Vec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# construction / basic ops


def mat(rows: Iterable[Iterable]) -> Mat:
    """Coerce nested iterables of ints/Fractions/strings to a rational matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def int_mat(rows: Iterable[Iterable]) -> IntMat:
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
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def int_identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Mat:
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scale(a, c) -> tuple:
    return tuple(tuple(c * x for x in row) for row in a)


def row_mul(x: Sequence, m: Sequence[Sequence]) -> tuple:
    """Row vector times matrix."""
    return tuple(sum(xi * m[i][j] for i, xi in enumerate(x)) for j in range(len(m[0])))


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
    if e < 0:
        return mat_pow(mat_inv(m), -e)
    result = identity(len(m))
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Q


def _gauss_jordan(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Reduce ``rows`` in place to reduced row echelon form on the first
    ``ncols`` columns; any later columns ride along.

    Returns the pivot columns in order and the signed product of the
    pivots, which is the determinant when the first ``ncols`` columns
    form a nonsingular square matrix.
    """
    pivots: list[int] = []
    pivot_product = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            pivot_product = -pivot_product
        pivot_product *= rows[r][c]
        inv_p = 1 / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, pivot_product


def mat_inv(m: Sequence[Sequence]) -> Mat:
    """Inverse by Gauss-Jordan elimination; raises on a singular matrix."""
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    pivots, _ = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def det(m: Sequence[Sequence]) -> Fraction:
    n = len(m)
    pivots, pivot_product = _gauss_jordan([list(map(Fraction, row)) for row in m], n)
    return pivot_product if len(pivots) == n else Fraction(0)


def solve_left(basis: Sequence[Sequence], target: Sequence) -> Vec | None:
    """Solve y · basis = target exactly; None if inconsistent.

    ``basis`` rows need not be square but must be linearly independent.
    """
    rows = len(basis)
    cols = len(basis[0]) if rows else len(target)
    # Eliminate on the transposed system (cols x rows | target).
    aug = [[Fraction(basis[r][c]) for r in range(rows)] + [Fraction(target[c])]
           for c in range(cols)]
    pivots, _ = _gauss_jordan(aug, rows)
    # Inconsistency: a cleared row with nonzero rhs.
    if any(aug[r][rows] != 0 for r in range(len(pivots), cols)):
        return None
    y = [Fraction(0)] * rows
    for r, c in enumerate(pivots):
        y[c] = aug[r][rows]
    # Independent basis rows assumed; verify to be safe.
    if tuple(row_mul(y, mat(basis))) != tuple(Fraction(t) for t in target):
        return None
    return tuple(y)


def rank(m: Sequence[Sequence]) -> int:
    work = [list(map(Fraction, row)) for row in m]
    return len(_gauss_jordan(work, len(work[0]) if work else 0)[0])


# ---------------------------------------------------------------------------
# integer normal forms


def hnf(m: Sequence[Sequence[int]]) -> IntMat:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); the row space over Z is preserved, so equal row lattices
    have equal HNFs.
    """
    return tuple(tuple(row) for row in _hermite_with_transform(m)[0] if any(row))


def clear_denominators(m: Sequence[Sequence]) -> tuple[int, IntMat]:
    """(s, s·m) with s the lcm of the denominators of the entries of m."""
    rows = mat(m)
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, tuple(tuple(int(x * scale) for x in row) for row in rows)


def rational_hnf(m: Sequence[Sequence]) -> Mat:
    """Canonical form of the row lattice of a rational matrix.

    Scales by the lcm of denominators, takes the integer HNF, scales
    back.  Two rational row sets generate the same lattice iff their
    canonical forms are equal.
    """
    scale, scaled = clear_denominators(m)
    return tuple(tuple(Fraction(x, scale) for x in row) for row in hnf(scaled))


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

    def off_diagonal_zero(mat_):
        return all(
            mat_[i][j] == 0
            for i in range(len(mat_))
            for j in range(ncols)
            if i != j
        )

    if nrows and ncols:
        for _ in range(1000):
            h, p = _hermite_with_transform(a)
            a = h
            u = list(mat_mul(p, u))
            if off_diagonal_zero(a):
                break
            ht, q = _hermite_with_transform(transpose(a))
            a = [list(row) for row in transpose(ht)]
            v = [list(row) for row in mat_mul(v, transpose(q))]
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

    return (
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, zero entries dropped."""
    d, _, _ = snf(m)
    out = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return tuple(x for x in out if x != 0)


def integer_row_kernel(m: Sequence[Sequence[int]]) -> IntMat:
    """Saturated basis of {x in Z^rows : x · m = 0}."""
    d, u, _ = snf(m)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    return tuple(u[i] for i in range(r, nrows))


# ---------------------------------------------------------------------------
# quadratic form enumeration (Fincke-Pohst with exact LDL^T bounds)


def ldl(gram: Mat) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose Q(x) = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2.

    Requires positive definiteness; raises otherwise.
    """
    n = len(gram)
    q = [list(map(Fraction, row)) for row in gram]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        d[i] = q[i][i]
        for j in range(i + 1, n):
            c[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                q[r][s] -= q[r][i] * q[i][s] / q[i][i]
    return d, c


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for x >= 0, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    return isqrt(x.numerator * x.denominator) // x.denominator


def enumerate_quadratic(
    gram: Mat,
    bound: Fraction,
    center: Vec | None = None,
) -> Iterable[tuple[tuple[int, ...], Fraction]]:
    """Yield (x, Q(x + center)) over integer x with Q(x + center) <= bound.

    Q is the quadratic form of ``gram``.  Branch and bound on the exact
    LDL^T levels, deepest coordinate first.
    """
    n = len(gram)
    if n == 0:
        yield (), Fraction(0)
        return
    d, c = ldl(gram)
    t = [Fraction(0)] * n if center is None else [Fraction(x) for x in center]
    x = [0] * n
    y = [Fraction(0)] * n  # y_i = x_i + t_i once chosen

    def offsets(i: int) -> Fraction:
        return t[i] + sum(c[i][j] * y[j] for j in range(i + 1, n))

    def recurse(i: int, partial: Fraction):
        if i < 0:
            yield tuple(x), partial
            return
        off = offsets(i)
        remaining = bound - partial
        if remaining < 0:
            return
        limit = remaining / d[i]
        f = _floor_sqrt(limit)
        lo = -off - f
        lo_int = lo.numerator // lo.denominator  # floor
        hi = -off + f
        hi_int = -((-hi.numerator) // hi.denominator)  # ceil
        for xi in range(lo_int - 1, hi_int + 2):
            step = d[i] * (xi + off) ** 2
            if step > remaining:
                continue
            x[i] = xi
            y[i] = xi + t[i]
            yield from recurse(i - 1, partial + step)
        x[i] = 0
        y[i] = Fraction(0)

    yield from recurse(n - 1, Fraction(0))


def shell_vectors(gram: Mat, norm: Fraction) -> list[tuple[int, ...]]:
    """All integer coordinate vectors x with x·gram·x^T exactly ``norm``."""
    norm = Fraction(norm)
    if norm < 0:
        return []
    if norm == 0:
        return [tuple([0] * len(gram))]
    out = []
    for x, q in enumerate_quadratic(gram, norm):
        if q == norm and any(x):
            out.append(x)
    return out


def coset_minimum(gram: Mat, shift: Vec) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Exact min of Q(x + shift) over integer x, with the minimizing x's.

    A greedy nearest-plane descent supplies the initial bound; the full
    branch and bound then certifies the minimum.
    """
    n = len(gram)
    shift = vec(shift)
    if n == 0:
        return Fraction(0), [()]
    d, c = ldl(gram)
    # Greedy rounding pass for an upper bound.
    y = [Fraction(0)] * n
    x0 = [0] * n
    upper = Fraction(0)
    for i in range(n - 1, -1, -1):
        off = shift[i] + sum(c[i][j] * y[j] for j in range(i + 1, n))
        xi = -(off.numerator // off.denominator)  # -floor(off)
        best = min((xi - 1, xi, xi + 1), key=lambda cand: d[i] * (cand + off) ** 2)
        x0[i] = best
        y[i] = best + shift[i]
        upper += d[i] * (best + off) ** 2
    best_norm = upper
    best_vecs: list[tuple[int, ...]] = []
    for x, q in enumerate_quadratic(gram, upper, center=shift):
        if q < best_norm:
            best_norm = q
            best_vecs = [x]
        elif q == best_norm:
            best_vecs.append(x)
    return best_norm, best_vecs


def size_reduce_basis(gram: Mat) -> tuple[Mat, IntMat]:
    """Greedy pairwise size reduction; returns (new_gram, U) with U rows
    expressing the new basis in the old one.

    Enough to tame HNF bases before enumeration; not LLL.
    """
    n = len(gram)
    g = [list(map(Fraction, row)) for row in gram]
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
                mu = g[i][j] / g[j][j]
                q = (2 * mu.numerator + mu.denominator) // (2 * mu.denominator)
                if q == 0:
                    continue
                new_norm = g[i][i] - 2 * q * g[i][j] + q * q * g[j][j]
                if new_norm < g[i][i]:
                    apply(i, j, q)
                    changed = True
        # Reorder by ascending norm for better enumeration pivots.
    order = sorted(range(n), key=lambda i: g[i][i])
    g2 = tuple(tuple(g[i][j] for j in order) for i in order)
    u2 = tuple(tuple(u[i]) for i in order)
    return g2, u2
