"""The nine-module fusion algebra extending the level-5 pair ring.

Pairs of level-5 irreducibles that are neutral for the diagonal current
grading (45 of the 225) fall into nine orbits of size five under the
current pair action; each orbit is one irreducible of the extension.
Products are computed componentwise in the pair ring and pushed through
the induction map, then checked against the golden tables, which ship
as reviewable JSON data, and as a based ring by ``fusion``'s shared check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

from .fusion import (
    IrrLabel,
    Report,
    all_labels,
    canonical_label,
    conformal_weight,
    fuse,
    simple_current,
    theta_dual,
    verify_based_ring,
)

Q = Fraction
LEVEL = 5


@dataclass(frozen=True, order=True)
class PairLabel:
    """Canonical pair of level-5 irreducibles."""

    left: IrrLabel
    right: IrrLabel

    def __post_init__(self):
        if self.left.k != LEVEL or self.right.k != LEVEL:
            raise ValueError("both components must live at level 5")
        # Hashed once: pairs key every dict of the induction.
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"[{self.left.i},{self.left.j};{self.right.i},{self.right.j}]"
        )


def pair(i1: int, j1: int, i2: int, j2: int) -> PairLabel:
    return PairLabel(
        canonical_label(i1, j1, LEVEL), canonical_label(i2, j2, LEVEL)
    )


def b_pairing(p: int, q: int, x: PairLabel) -> Fraction:
    """Monodromy pairing of the (p, q) current pair with x, in [0, 1)."""
    if not (0 <= p <= 4 and 0 <= q <= 4):
        raise ValueError(f"current exponents ({p},{q}) outside [0,4]")
    val = Q(
        p * (x.left.i - 2 * x.left.j) + q * (x.right.i - 2 * x.right.j), LEVEL
    )
    return val - val.__floor__()


def all_pairs() -> list[PairLabel]:
    labels = all_labels(LEVEL)
    return [PairLabel(a, b) for a in labels for b in labels]


def irr0_list() -> list[PairLabel]:
    """The 45 pairs neutral for every diagonal current (p, 2p)."""
    return [
        x
        for x in all_pairs()
        if all(b_pairing(p, (2 * p) % 5, x) == 0 for p in range(5))
    ]


def current_pair(j: int) -> PairLabel:
    """The j-th diagonal current pair (current^j, current^{2j})."""
    return PairLabel(
        simple_current(j % 5, LEVEL), simple_current((2 * j) % 5, LEVEL)
    )


def pair_fuse(x: PairLabel, y: PairLabel) -> dict[PairLabel, int]:
    """Componentwise product in the level-5 pair ring."""
    out: dict[PairLabel, int] = {}
    for l, ml in fuse(x.left, y.left):
        for r, mr in fuse(x.right, y.right):
            key = PairLabel(l, r)
            out[key] = out.get(key, 0) + ml * mr
    return out


def orbit_of(x: PairLabel) -> frozenset:
    """Size-5 orbit of x under the diagonal current pairs."""
    orbit = set()
    for j in range(5):
        prod = pair_fuse(current_pair(j), x)
        if len(prod) != 1 or set(prod.values()) != {1}:
            raise AssertionError(f"current action on {x} is not a permutation")
        orbit.add(next(iter(prod)))
    if len(orbit) != 5:
        raise AssertionError(f"orbit of {x} has size {len(orbit)}, expected 5")
    return frozenset(orbit)


class GoldenDataError(ValueError):
    """A golden file is missing or malformed."""


def _load_golden(name: str, golden_dir: Optional[str], parse) -> tuple:
    """``parse`` applied to one golden file's JSON; a file that cannot be
    read or parsed raises GoldenDataError naming it."""
    base = resources.files("parafusion") / "golden"
    base = base if golden_dir is None else Path(golden_dir)
    try:
        return parse(json.loads((base / name).read_text()))
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise GoldenDataError(f"{base / name}: {type(exc).__name__}: {exc}") from None


def _nine(entries) -> tuple:
    entries = tuple(entries)
    if len(entries) != 9:
        raise ValueError(f"expected 9 entries, got {len(entries)}")
    return entries


def golden_rows(golden_dir: Optional[str] = None) -> tuple:
    return _load_golden("u5a_orbits.json", golden_dir, lambda p: _nine(
        tuple(pair(*entry) for entry in row) for row in p["rows"]
    ))


def _weight_row(w, d) -> tuple:
    if type(w) in (int, str) and type(d) is int:
        return Q(w), d
    raise ValueError(f"expected an int or str weight and an int dimension: {w!r}, {d!r}")


def golden_weight_table(golden_dir: Optional[str] = None) -> tuple:
    return _load_golden("u5a_weights.json", golden_dir, lambda p: _nine(
        _weight_row(w, d) for w, d in zip(p["weights"], p["dimensions"], strict=True)
    ))


def golden_fusion_table(golden_dir: Optional[str] = None) -> tuple:
    return _load_golden("u5a_fusion.json", golden_dir, lambda p: _nine(
        _nine(tuple(cell) for cell in row) for row in p["table"]
    ))


def derive_orbits() -> list[frozenset]:
    """Partition of the computed neutral pairs into current orbits,
    derived with no reference to the golden rows."""
    remaining = set(irr0_list())
    orbits = []
    while remaining:
        x = min(remaining)
        orb = orbit_of(x)
        if not orb <= remaining:
            raise AssertionError("orbits do not partition the neutral set")
        remaining -= orb
        orbits.append(orb)
    return orbits


def induce(x: PairLabel, rows: tuple) -> int:
    """Index of the unique golden row whose orbit contains x."""
    orb = orbit_of(x)
    matches = [i for i, row in enumerate(rows) if frozenset(row) == orb]
    if len(matches) != 1:
        raise ValueError(f"{x} does not induce onto a unique row: {matches}")
    return matches[0]


def induction_index(rows: tuple) -> dict[PairLabel, Optional[int]]:
    """Row of each neutral pair whose orbit is one golden row, else None."""
    sets = [frozenset(row) for row in rows]
    orbits = {x: orbit_of(x) for x in irr0_list()}
    return {x: sets.index(o) if sets.count(o) == 1 else None for x, o in orbits.items()}


def u_weight_dim(i: int, rows: tuple) -> tuple[Fraction, int]:
    """Minimal summand weight of row i and the number of summands attaining it."""
    if not (0 <= i <= 8):
        raise ValueError(f"index {i} outside [0,8]")
    weights = [
        conformal_weight(x.left) + conformal_weight(x.right) for x in rows[i]
    ]
    w = min(weights)
    return w, weights.count(w)


def u_fuse(
    i: int,
    j: int,
    rows: tuple,
    reps: Optional[tuple[PairLabel, PairLabel]] = None,
    index: Optional[dict] = None,
) -> tuple[int, ...]:
    """Product row indices of rows i and j, via componentwise fusion of
    representatives and induction (through ``index`` where it gives the
    pair's row, else ``induce``); multiplicity-free."""
    x, y = reps if reps is not None else (rows[i][0], rows[j][0])
    counts: dict[int, int] = {}
    for z, m in pair_fuse(x, y).items():
        idx = index.get(z) if index else None
        idx = induce(z, rows) if idx is None else idx
        counts[idx] = counts.get(idx, 0) + m
    if any(m != 1 for m in counts.values()):
        raise AssertionError(f"fusion {i} x {j} is not multiplicity-free: {counts}")
    return tuple(sorted(counts))


def contragredient(i: int, rows: tuple) -> int:
    """Row index of the componentwise dual of row i's representative."""
    x = rows[i][0]
    dual_pair = PairLabel(theta_dual(x.left), theta_dual(x.right))
    return induce(dual_pair, rows)


def verify_induction_tables(golden_dir: Optional[str] = None) -> Report:
    """Re-derive everything and diff against the golden tables.

    Covers: the 45-count, orbit partition vs golden rows, weight and
    dimension table, the fusion table cell-for-cell, the based-ring axioms
    with Light's test on rows 1 and 3 ("symmetry" as "fusion_symmetry"),
    and independence from representative choice over all 25 pairs per cell.
    """
    failures: list[tuple] = []
    rows = golden_rows(golden_dir)

    index = induction_index(rows)  # every neutral pair
    if len(index) != 45:
        failures.append(("irr0_count", len(index), 45))

    derived = {frozenset(o) for o in derive_orbits()}
    golden_sets = {frozenset(row) for row in rows}
    if derived != golden_sets:
        failures.append(("orbit_partition", tuple(sorted(map(sorted, derived - golden_sets)))))
    failures += [("row_distinctness", i) for i, row in enumerate(rows) if len(set(row)) != 5]

    gold = golden_weight_table(golden_dir)
    weights = [u_weight_dim(i, rows) for i in range(9)]
    failures += [("weight_dim", i, w, gold[i]) for i, w in enumerate(weights) if w != gold[i]]

    failures.extend(("induction", x) for x in index if index[x] is None)

    def cell(i, j, reps=None):  # None where a term has no row
        try:
            return u_fuse(i, j, rows, reps, index)
        except ValueError:
            return None

    table = golden_fusion_table(golden_dir)
    computed = {(i, j): cell(i, j) for i in range(9) for j in range(9)}
    failures += [("fusion_cell", i, j, got, table[i][j]) for (i, j), got in computed.items()
                 if got is not None and got != table[i][j]]
    if None not in computed.values():  # else the "induction" failures name the gap
        cells = [[tuple((z, 1) for z in computed[i, j]) for j in range(9)] for i in range(9)]
        ring = verify_based_ring(cells, 9, (1, 3)).failures
        failures += [("fusion_symmetry", *f[1:]) if f[0] == "symmetry" else f for f in ring]

    for i in range(9):
        for j in range(i, 9):
            expected = computed[(i, j)]
            for x in rows[i]:
                for y in rows[j]:
                    got = cell(i, j, (x, y))
                    if None not in (got, expected) and got != expected:
                        failures.append(("representative_dependence", i, j, x, y, got))
    return Report(tuple(failures))
