"""Command-line interface: output formats and exit-code contract."""
import json
import subprocess
import sys
from importlib import resources

import pytest

from parafusion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuse_text(capsys):
    code, out, err = run(capsys, "fuse", "-k", "5", "1,0", "1,0")
    assert code == 0
    assert out.strip() == "M[5,4] + M[2,0]"
    assert err == ""


def test_fuse_json_round_trip(capsys):
    code, out, _ = run(capsys, "fuse", "--format", "json", "-k", "5", "1,0", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "k": 5,
        "terms": [
            {"i": 5, "j": 4, "mult": 1},
            {"i": 2, "j": 0, "mult": 1},
        ],
    }
    # stable under re-serialization
    assert json.loads(json.dumps(payload)) == payload


def test_fuse_multiplicity_formatting(capsys):
    # all products here are multiplicity-free; the repr never shows 1*
    code, out, _ = run(capsys, "fuse", "-k", "3", "1,0", "1,1")
    assert code == 0
    assert "*" not in out


def test_weights_json(capsys):
    code, out, _ = run(capsys, "weights", "--format", "json", "-k", "5", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == [{"i": 2, "j": 1, "h": "2/7"}]


def test_weights_all_labels(capsys):
    code, out, _ = run(capsys, "weights", "--format", "json", "-k", "4")
    assert code == 0
    assert len(json.loads(out)["weights"]) == 10  # k(k+1)/2


def test_weights_text(capsys):
    code, out, _ = run(capsys, "weights", "-k", "5", "2,1")
    assert code == 0
    assert "h = 2/7" in out


def test_zk_check(capsys):
    code, out, _ = run(capsys, "zk-check", "--format", "json", "-k", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["violations"] == []


def test_orbifold_table_corrected_cell(capsys):
    code, out, _ = run(capsys, "orbifold-table", "-k", "3")
    assert code == 0
    assert "W[1,0] * W[1,1] = W[0,1] + W[1,0]" in out


def test_sigma_check(capsys):
    code, out, _ = run(capsys, "sigma-check", "--format", "json", "-k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign_grading"] is True
    assert payload["collapse"] is True


def a4_gram_file(tmp_path):
    gram = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    path = tmp_path / "a4.json"
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


def test_lattice_info(capsys, tmp_path):
    code, out, _ = run(
        capsys, "lattice-info", "--format", "json", a4_gram_file(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["det"] == "5"
    assert payload["integral"] is True
    assert payload["even"] is True
    assert payload["discriminant_invariants"] == [5]
    assert payload["discriminant_order"] == 5
    assert payload["q_values"] == [2]


def test_lattice_info_sublattice_payload(capsys, tmp_path):
    payload_in = {
        "basis": [[1, 1]],
        "parent": {"gram": [[2, -1], [-1, 2]]},
    }
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(payload_in))
    code, out, _ = run(capsys, "lattice-info", "--format", "json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["det"] == "2"


def test_lattice_info_rational_entries(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"gram": [["1/2", 0], [0, "1/2"]]}))
    code, out, _ = run(capsys, "lattice-info", "--format", "json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "1/4"
    assert payload["integral"] is False
    assert "discriminant_invariants" not in payload  # undefined here


def rssd_file(tmp_path, basis):
    path = tmp_path / "rssd.json"
    path.write_text(
        json.dumps({"basis": basis, "parent": {"gram": [[2, -1], [-1, 2]]}})
    )
    return str(path)


def test_rssd_positive(capsys, tmp_path):
    code, out, _ = run(
        capsys, "rssd", "--format", "json", rssd_file(tmp_path, [[1, 0]])
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rssd"] is True
    assert payload["involution"] == [["-1", "0"], ["1", "1"]]


def test_rssd_text(capsys, tmp_path):
    code, out, _ = run(capsys, "rssd", rssd_file(tmp_path, [[1, 0]]))
    assert code == 0
    assert "rssd: True" in out
    assert "[-1, 0]" in out
    assert "[1, 1]" in out


def test_rssd_negative_exit_one(capsys, tmp_path):
    code, out, _ = run(
        capsys, "rssd", "--format", "json", rssd_file(tmp_path, [[3, 0]])
    )
    assert code == 1
    assert json.loads(out)["rssd"] is False


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", "--format", "json", "-k", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"] == [1, 1, 1, 5]
    assert payload["order"] == 5
    assert payload["dual_order"] == 5


def test_lift_order(capsys):
    code, out, _ = run(capsys, "lift-order", "--format", "json", "-k", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu_lift_order"] == 6
    assert payload["theta_lift_order"] == 2


def test_lc_verify_builtin(capsys):
    code, out, _ = run(capsys, "lc-verify", "--format", "json", "--builtin", "5B")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["size"] == 256
    assert payload["dimension"] == 8
    assert payload["weight_distribution"] == {"0": 1, "4": 130, "6": 120, "8": 5}
    assert payload["type_counts"] == {"I": 5, "II": 5, "III": 60, "IV": 60}
    assert all(payload["checks"].values())
    for name in (
        "self_dual",
        "totally_isotropic",
        "nu_invariant",
        "lattice_integral",
        "lattice_even",
        "glue_form",
        "one_minus_nu_dual",
        "classification_agreement",
        "ee8_pair",
        "weight_distribution",
        "type_counts",
    ):
        assert name in payload["checks"]


def test_lc_verify_usage_errors(capsys):
    code, _, err = run(capsys, "lc-verify")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "lc-verify", "--builtin", "9Z")
    assert code == 2
    assert "9Z" in err


def test_u5a_table(capsys):
    code, out, _ = run(capsys, "u5a", "table")
    assert code == 0
    assert "U5 x U5 = U0 + U1 + U2 + U3 + U4 + U5 + U6 + U7 + U8" in out
    assert "U1 x U3 = U4" in out


def test_u5a_verify(capsys):
    code, out, _ = run(capsys, "u5a", "verify", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_u5a_verify_perturbed_golden(capsys, tmp_path):
    for name in ("u5a_orbits.json", "u5a_weights.json", "u5a_fusion.json"):
        data = resources.files("parafusion").joinpath(f"golden/{name}").read_text()
        (tmp_path / name).write_text(data)
    path = tmp_path / "u5a_fusion.json"
    payload = json.loads(path.read_text())
    payload["table"][1][3] = [5]
    path.write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "u5a", "verify", "--golden-dir", str(tmp_path), "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_bad_label_exit_two(capsys):
    code, _, err = run(capsys, "fuse", "-k", "5", "1", "2,0")
    assert code == 2
    assert "label" in err
    code, _, err = run(capsys, "fuse", "-k", "5", "a,b", "2,0")
    assert code == 2


def test_label_out_of_range_exit_two(capsys):
    code, _, err = run(capsys, "fuse", "-k", "5", "7,0", "1,0")
    assert code == 2


def test_missing_level_exit_two(capsys):
    code = main(["fuse", "1,0", "1,0"])
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand_exit_two(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_malformed_json_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert "malformed JSON" in err


def test_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "lattice-info", str(tmp_path / "absent.json"))
    assert code == 2


def test_asymmetric_gram_names_cell(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"gram": [[2, 1], [0, 2]]}))
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert "gram/1/0" in err


def test_indefinite_gram_exit_two(capsys, tmp_path):
    path = tmp_path / "indef.json"
    path.write_text(json.dumps({"gram": [[1, 0], [0, -1]]}))
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2


def test_bad_entry_named(capsys, tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"gram": [[2, True], [True, 2]]}))
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert "gram/0/1" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "parafusion.cli", "fuse", "-k", "5", "1,0", "1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "M[5,4] + M[2,0]"


def test_rssd_fractional_basis_exit_two(capsys, tmp_path):
    path = rssd_file(tmp_path, [["1/2", 0]])
    code, out, err = run(capsys, "rssd", path)
    assert code == 2
    assert out == ""
    assert f"{path}/basis/0/0" in err


def test_lc_verify_rejects_bits_other_than_zero_and_one(capsys, tmp_path):
    data = json.loads(
        resources.files("parafusion").joinpath("golden/code_5b.json").read_text()
    )
    data["generators"] = [[2 if b == 0 else b for b in g] for g in data["generators"]]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lc-verify", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err and "generator 0 position 1" in err
