"""Pair-ring induction at level 5: orbits, weights, the 9x9 table."""
import json
import shutil
from fractions import Fraction as Q
from importlib import resources

import pytest

import parafusion.u5a as u5a_mod
from parafusion.fusion import verify_based_ring
from parafusion.u5a import (
    all_pairs,
    b_pairing,
    contragredient,
    current_pair,
    derive_orbits,
    golden_fusion_table,
    golden_rows,
    golden_weight_table,
    induce,
    irr0_list,
    orbit_of,
    pair,
    pair_fuse,
    u_fuse,
    u_weight_dim,
    verify_induction_tables,
)


def test_pair_count():
    assert len(all_pairs()) == 15 * 15


def test_b_pairing_values():
    x = pair(1, 0, 1, 0)
    assert b_pairing(1, 0, x) == Q(1, 5)
    assert b_pairing(0, 1, x) == Q(1, 5)
    assert b_pairing(1, 2, x) == Q(3, 5)
    assert b_pairing(0, 0, x) == 0
    vac = pair(0, 0, 0, 0)
    for p in range(5):
        for q in range(5):
            assert b_pairing(p, q, vac) == 0
    with pytest.raises(ValueError):
        b_pairing(5, 0, x)
    with pytest.raises(ValueError):
        b_pairing(0, -1, x)


def test_neutral_pair_count():
    neutral = irr0_list()
    assert len(neutral) == 45
    for x in neutral:
        for p in range(5):
            assert b_pairing(p, (2 * p) % 5, x) == 0


def test_current_pairs_form_orbit_group():
    seen = {current_pair(j) for j in range(5)}
    assert len(seen) == 5
    assert current_pair(0) == pair(0, 0, 0, 0)
    assert current_pair(5) == current_pair(0)


def test_orbit_of_size_five():
    for x in irr0_list():
        orb = orbit_of(x)
        assert len(orb) == 5
        assert x in orb


def test_derived_orbits_partition():
    orbits = derive_orbits()
    assert len(orbits) == 9
    assert sum(len(o) for o in orbits) == 45
    union = set()
    for o in orbits:
        assert not (union & o)
        union |= o
    assert union == set(irr0_list())


def test_derived_orbits_match_golden_rows():
    derived = {frozenset(o) for o in derive_orbits()}
    golden = {frozenset(row) for row in golden_rows()}
    assert derived == golden


def test_induce_known_and_errors():
    rows = golden_rows()
    assert induce(pair(0, 0, 0, 0), rows) == 0
    for i, row in enumerate(rows):
        for x in row:
            assert induce(x, rows) == i
    with pytest.raises(ValueError):
        induce(pair(1, 0, 0, 0), rows)  # not neutral: in no orbit row


def test_weight_dimension_table():
    expected = [
        (Q(0), 1),
        (Q(6, 7), 3),
        (Q(2, 7), 1),
        (Q(2, 7), 1),
        (Q(1, 7), 2),
        (Q(4, 7), 5),
        (Q(6, 7), 3),
        (Q(5, 7), 4),
        (Q(1, 7), 2),
    ]
    rows = golden_rows()
    for i in range(9):
        assert u_weight_dim(i, rows) == expected[i]
    assert golden_weight_table() == tuple(expected)
    with pytest.raises(ValueError):
        u_weight_dim(9, rows)


def test_fusion_cells_frozen():
    rows = golden_rows()
    assert u_fuse(1, 3, rows) == (4,)
    assert u_fuse(6, 6, rows) == (0, 3)
    assert u_fuse(3, 3, rows) == (0, 3, 6)
    assert u_fuse(4, 4, rows) == (0, 2, 3, 5, 6, 8)
    assert u_fuse(8, 8, rows) == (0, 1, 2, 3, 4, 5)
    assert u_fuse(5, 5, rows) == tuple(range(9))
    assert u_fuse(0, 7, rows) == (7,)


def test_fusion_identity_row_and_symmetry():
    rows = golden_rows()
    for i in range(9):
        assert u_fuse(0, i, rows) == (i,)
        for j in range(i, 9):
            assert u_fuse(i, j, rows) == u_fuse(j, i, rows)


def test_contragredient_pairs_with_vacuum():
    rows = golden_rows()
    for i in range(9):
        ci = contragredient(i, rows)
        assert contragredient(ci, rows) == i
        cell = u_fuse(i, ci, rows)
        assert 0 in cell
        # the vacuum appears against the contragredient only
        for j in range(9):
            if j != ci:
                assert 0 not in u_fuse(i, j, rows)


def test_pair_fuse_multiplicities():
    x = pair(1, 0, 1, 0)
    out = pair_fuse(x, x)
    assert sum(out.values()) == 4  # two terms each side
    assert all(m == 1 for m in out.values())


def test_verify_induction_tables_passes():
    report = verify_induction_tables()
    assert report.passed
    assert report.failures == ()


def copy_goldens(tmp_path):
    for name in ("u5a_orbits.json", "u5a_weights.json", "u5a_fusion.json"):
        data = resources.files("parafusion").joinpath(f"golden/{name}").read_text()
        (tmp_path / name).write_text(data)


def test_verify_induction_tables_flags_bad_fusion_cell(tmp_path):
    copy_goldens(tmp_path)
    path = tmp_path / "u5a_fusion.json"
    payload = json.loads(path.read_text())
    assert payload["table"][1][3] == [4]
    payload["table"][1][3] = [5]
    path.write_text(json.dumps(payload))
    report = verify_induction_tables(golden_dir=str(tmp_path))
    assert not report.passed
    cells = [f for f in report.failures if f[0] == "fusion_cell"]
    assert len(cells) == 1
    assert cells[0][:3] == ("fusion_cell", 1, 3)
    assert cells[0][3] == (4,)  # computed value is unaffected
    assert cells[0][4] == (5,)


def test_verify_induction_tables_flags_bad_weight(tmp_path):
    copy_goldens(tmp_path)
    path = tmp_path / "u5a_weights.json"
    payload = json.loads(path.read_text())
    payload["weights"][4] = "3/7"
    path.write_text(json.dumps(payload))
    report = verify_induction_tables(golden_dir=str(tmp_path))
    assert not report.passed
    kinds = {f[0] for f in report.failures}
    assert kinds == {"weight_dim"}
    (fail,) = report.failures
    assert fail[1] == 4
    assert fail[2] == (Q(1, 7), 2)


def test_golden_tables_well_formed():
    rows = golden_rows()
    assert len(rows) == 9
    assert all(len(row) == 5 for row in rows)
    table = golden_fusion_table()
    assert len(table) == 9
    for row in table:
        assert len(row) == 9
        for cell in row:
            assert all(0 <= idx <= 8 for idx in cell)
            assert list(cell) == sorted(set(cell))
    for i in range(9):
        for j in range(9):
            assert table[i][j] == table[j][i]


def u_cells():
    """U's induced 9×9 table as index cells, built from ``u_fuse``."""
    rows = golden_rows()
    return [[tuple((z, 1) for z in u_fuse(i, j, rows)) for j in range(9)] for i in range(9)]


def test_light_test_on_u():
    cells = u_cells()
    assert verify_based_ring(cells, 9, (1, 3)).passed
    for gens in ((1,), (3,)):
        assert verify_based_ring(cells, 9, gens).failures == (("generators_span", 3, 9),)


def renamed(failures):
    return tuple(("fusion_symmetry", *f[1:]) if f[0] == "symmetry" else f for f in failures)


@pytest.mark.parametrize("i, j, cell, expected", [
    (4, 4, ((0, 1), (2, 1), (3, -1), (5, 1), (6, 1), (8, 1)), ("nonnegativity", 4, 4)),
    (1, 3, ((5, 1),), ("fusion_symmetry", 1, 3)),
    (0, 7, ((7, 2),), ("identity", 7)),
], ids=["nonnegativity", "symmetry", "identity"])
def test_induced_table_reports_the_shared_ring_failures(monkeypatch, i, j, cell, expected):
    # One induced cell is changed on its way into the shared check.
    real, seen = verify_based_ring, []

    def mutated(cells, n, gens):
        cells = [list(row) for row in cells]
        assert cells[i][j] != cell
        cells[i][j] = cell
        seen.append(real(cells, n, gens))
        return seen[-1]

    monkeypatch.setattr(u5a_mod, "verify_based_ring", mutated)
    report = verify_induction_tables()
    assert expected in report.failures
    assert report.failures == renamed(seen[0].failures)


def test_a_changed_u_fuse_cell_is_a_fusion_symmetry_failure(monkeypatch):
    real = u5a_mod.u_fuse

    def u_fuse_with_1x3_moved(i, j, rows, reps=None, index=None):
        return (5,) if (i, j) == (1, 3) else real(i, j, rows, reps, index)

    monkeypatch.setattr(u5a_mod, "u_fuse", u_fuse_with_1x3_moved)
    report = verify_induction_tables()
    assert report.failures[:3] == (
        ("fusion_cell", 1, 3, (5,), (4,)),
        ("fusion_symmetry", 1, 3),
        ("fusion_symmetry", 3, 1),
    )
    # Light's test, new to U, sees the moved cell too.
    assert {f[0] for f in report.failures[3:]} == {"associativity"}
