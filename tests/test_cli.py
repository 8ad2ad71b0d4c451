"""Command-line interface: output formats and exit-code contract."""
import hashlib
import json
import subprocess
import sys
from fractions import Fraction as Q
from importlib import resources

import pytest

import parafusion.cli as cli_mod
import parafusion.codes as codes_mod
import parafusion.orbifold as orbifold_mod
from parafusion.cli import main


def _encode(obj):
    """The payload as plain JSON data, Fractions as "a/b": the deep copy the
    CLI made before ``json.dumps`` took a ``default`` for Fractions."""
    if isinstance(obj, Q):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def keys(obj):
    """Every dict key in a payload, at any depth."""
    if isinstance(obj, dict):
        yield from obj
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from keys(v)


def run(capsys, *argv):
    # Keep what the handler returns, so a JSON run can be checked against
    # the _encode copy of its payload.
    parser, results = cli_mod.build_parser(), []
    parse_args = parser.parse_args

    def keeping_results(args=None):
        ns = parse_args(args)
        handler = ns.handler
        ns.handler = lambda a: results.append(handler(a)) or results[-1]
        return ns

    parser.parse_args = keeping_results
    try:
        code = main(list(argv))
    finally:
        del parser.parse_args
    captured = capsys.readouterr()
    if "json" in argv and captured.out:
        (_, payload, _), = results
        assert all(isinstance(key, str) for key in keys(payload))
        assert captured.out == json.dumps(_encode(payload), indent=2, sort_keys=True) + "\n"
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


def orbifold_table_by_products(k):
    """The orbifold-table text lines and JSON payload built pair by pair
    through ``table.product``, the route the CLI took before it read cells."""
    table = orbifold_mod.derive_full_table(k)
    lines, cells = [], []
    for s, x in enumerate(table.basis):
        for y in table.basis[s:]:
            terms = list(table.product(x, y))
            lines.append(f"{x!r} * {y!r} = " + " + ".join(
                f"{m}*{z!r}" if m != 1 else repr(z) for z, m in terms))
            cells.append({"left": [x.j, x.eps], "right": [y.j, y.eps],
                          "terms": [{"j": z.j, "eps": z.eps, "mult": m} for z, m in terms]})
    return lines, {"k": k, "cells": cells}


def test_orbifold_table_matches_the_product_route(capsys):
    for k in range(3, 25):
        lines, payload = orbifold_table_by_products(k)
        text = "".join(line + "\n" for line in lines)
        assert run(capsys, "orbifold-table", "-k", str(k)) == (0, text, ""), k
        assert run(capsys, "orbifold-table", "-k", str(k), "--format", "json") == (
            0, json.dumps(payload, indent=2, sort_keys=True) + "\n", ""), k


def test_sigma_check(capsys):
    code, out, _ = run(capsys, "sigma-check", "--format", "json", "-k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign_grading"] is True
    assert payload["collapse"] is True


def test_sigma_check_grades_the_table_once(capsys, monkeypatch):
    calls = []
    real = orbifold_mod.verify_sigma_grading
    # Wrapped on the CLI too, so a call through an imported name counts.
    for owner in (orbifold_mod, cli_mod):
        monkeypatch.setattr(
            owner,
            "verify_sigma_grading",
            lambda t: calls.append(1) or real(t),
            raising=False,
        )
    code, out, _ = run(capsys, "sigma-check", "-k", "8")
    assert code == 0 and "sign grading k=8: pass" in out
    assert calls == [1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sigma_check_fails_on_a_cell_moved_in_j(capsys, monkeypatch, fmt):
    # W[1,0]·W[1,0] = W[0,0] + W[1,1] + W[2,0] loses W[2,0] (index 4) to
    # W[1,0] (index 2) after the derivation's own checks have passed.
    real = orbifold_mod.derive_full_table

    def derive_with_a_moved_cell(k):
        table = real(k)
        assert table.cells[2][2] == ((0, 1), (3, 1), (4, 1))
        table.cells[2][2] = ((0, 1), (2, 1), (3, 1))
        return table

    monkeypatch.setattr(cli_mod, "derive_full_table", derive_with_a_moved_cell)
    code, out, err = run(capsys, "sigma-check", "-k", "8", "--format", fmt)
    assert code == 1 and err == ""
    if fmt == "text":
        assert "collapse consistency k=8: FAIL" in out.splitlines()
    else:
        payload = json.loads(out)
        assert payload["collapse"] is False and payload["failures"]


def test_sigma_check_sign_grading_failure_is_a_verification_failure(
    capsys, monkeypatch
):
    # derive_full_table raises when the sign grading fails, so the CLI
    # never prints a FAIL line for it.
    real = orbifold_mod.sign_character
    flipped = orbifold_mod.OrbLabel(1, 0, 8)
    monkeypatch.setattr(
        orbifold_mod, "sign_character", lambda x: -real(x) if x == flipped else real(x)
    )
    code, out, err = run(capsys, "sigma-check", "-k", "8")
    assert code == 1 and out == ""
    assert err.startswith(
        "verification failure: derived table at level 8 fails self-checks"
    )


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


def test_rssd_output_is_pinned_byte_for_byte(capsys, tmp_path):
    # The CLI reads the involution through the Fraction view
    # Isometry.matrix, so JSON entries stay strings such as "-1".
    path = rssd_file(tmp_path, [[1, 0]])
    assert run(capsys, "rssd", "--format", "json", path) == (
        0,
        '{\n  "involution": [\n    [\n      "-1",\n      "0"\n    ],\n'
        '    [\n      "1",\n      "1"\n    ]\n  ],\n  "rssd": true\n}\n',
        "",
    )
    assert run(capsys, "rssd", path) == (
        0, "rssd: True\ninvolution rows (parent basis):\n  [-1, 0]\n  [1, 1]\n", ""
    )


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


def test_u5a_table_induces_each_neutral_pair_once(capsys, monkeypatch):
    from parafusion import u5a

    seen = []
    real = u5a.orbit_of
    monkeypatch.setattr(u5a, "orbit_of", lambda x: seen.append(x) or real(x))
    code, out, _ = run(capsys, "u5a", "table", "--format", "json")
    assert code == 0
    assert len(seen) == len(set(seen)) == len(u5a.irr0_list()) == 45
    rows = u5a.golden_rows()
    expected = [[list(u5a.u_fuse(i, j, rows)) for j in range(9)] for i in range(9)]
    assert json.loads(out)["table"] == expected


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


def test_gram_with_a_non_list_row_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"gram": [5]}))
    code, out, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert out == ""
    assert f"error: {path}/gram/0: expected a row" in err


def test_rssd_parent_gram_with_a_non_list_row_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "flat_parent.json"
    path.write_text(json.dumps({"basis": [[1]], "parent": {"gram": [5]}}))
    code, out, err = run(capsys, "rssd", str(path))
    assert code == 2
    assert out == ""
    assert f"error: {path}/parent/gram/0: expected a row" in err


@pytest.mark.parametrize(
    "command, payload, code, prefix",
    [
        ("lattice-info", {"gram": [["1/0"]]}, 2, "error: {path}/gram/0/0: bad"),
        ("lattice-info", {"gram": []}, 2, "error: {path}/gram: expected a non-empty"),
        ("lattice-info", {"gram": [[2, 1], [1]]}, 2, "error: {path}/gram/1: expected"),
        ("lattice-info", {"basis": [[1]]}, 2, "error: {path}/parent: missing"),
        ("lattice-info", {"basis": [[1]], "parent": 5}, 2, "error: {path}/parent: expected"),
        ("lattice-info", [1], 2, "error: {path}: expected a JSON object"),
        ("lattice-info", {"basis": [[0]], "parent": {"gram": [[2]]}}, 2, "error: {path}/basis"),
        ("lattice-info", {}, 2, "error: {path}/gram: missing"),
        ("lattice-info", {"gram": [[1, 0]]}, 2, "error: {path}/gram: matrix is not"),
        ("lc-verify", [1], 2, "error: {path}: expected a JSON object"),
        ("lc-verify", {"p": 5, "d": 4}, 2, "error: {path}/generators: missing"),
        ("rssd", {"gram": [[2]]}, 2, "error: {path}: expected a sublattice object"),
        ("lc-verify", {"p": 3, "d": 1, "generators": [[1, 0]]}, 1, "verification failure:"),
    ],
)
def test_input_errors_name_their_path_and_exit_code(
    capsys, tmp_path, command, payload, code, prefix
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    got, out, err = run(capsys, command, str(path))
    assert (got, out) == (code, "")
    assert err.startswith(prefix.format(path=path))


def test_lattice_info_parent_given_as_a_path(capsys, tmp_path):
    parent = tmp_path / "a2.json"
    parent.write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"basis": [[1, 1]], "parent": str(parent)}))
    code, out, _ = run(capsys, "lattice-info", "--format", "json", str(path))
    assert code == 0
    assert json.loads(out)["det"] == "2"


def test_a_relative_parent_path_is_read_beside_the_file_that_names_it(
    capsys, tmp_path, monkeypatch
):
    # sub/s.json names a2.json, which sits beside it in sub/; the run
    # starts from sub/'s parent directory, where no a2.json exists.
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a2.json").write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
    path = tmp_path / "sub" / "s.json"
    path.write_text(json.dumps({"basis": [[1, 1]], "parent": "a2.json"}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "lattice-info", "--format", "json", "sub/s.json")
    assert (code, err) == (0, "")
    assert json.loads(out)["det"] == "2"
    code, out, err = run(capsys, "rssd", "--format", "json", "sub/s.json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"rssd": True, "involution": [["0", "-1"], ["-1", "0"]]}
    # A parent that is missing beside its file is named as written.
    path.write_text(json.dumps({"basis": [[1, 1]], "parent": "missing.json"}))
    assert run(capsys, "lattice-info", "sub/s.json") == (
        2, "", "error: missing.json: [Errno 2] No such file or directory: 'missing.json'\n"
    )


@pytest.mark.parametrize("command", ["lattice-info", "rssd"])
def test_a_parent_chain_that_returns_to_its_file_is_a_usage_error(
    capsys, tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    for name, parent in [("self", "self"), ("a", "b"), ("b", "a")]:
        payload = {"basis": [[1]], "parent": f"{parent}.json"}
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    for path, message in [
        ("self.json", "error: self.json/parent: self.json is its own ancestor\n"),
        ("a.json", "error: b.json/parent: a.json is its own ancestor\n"),
    ]:
        assert run(capsys, command, path) == (2, "", message)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "parafusion.cli", "fuse", "-k", "5", "1,0", "1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "M[5,4] + M[2,0]"


def test_one_parser_serves_every_call_in_a_process(capsys):
    # A usage error, a success and another subcommand, run in one process
    # on the one cached parser, print what separate processes print.
    argvs = [
        ["lift-order", "-k", "200"],
        ["lift-order", "-k", "5", "--format", "json"],
        ["fuse", "-k", "5", "1,0", "1,0"],
    ]
    in_process = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    for argv, got in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "parafusion.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr)
    assert cli_mod.build_parser() is cli_mod.build_parser()


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


@pytest.mark.parametrize(
    "payload, where",
    [
        ({"p": 5, "d": 4, "generators": [5]}, "/generators/0"),
        ({"p": None, "d": 4, "generators": []}, "/p"),
        ({"p": 5, "d": 4.5, "generators": []}, "/d"),
        ({"p": 5, "d": 4, "generators": 7}, "/generators"),
    ],
)
def test_lc_verify_malformed_code_fields_exit_two(capsys, tmp_path, payload, where):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lc-verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}{where}:")


CAP_P, CAP_D, CAP_GENS = codes_mod.MAX_P, codes_mod.MAX_D, codes_mod.MAX_GENERATORS


@pytest.mark.parametrize(
    "payload, where, message",
    [
        ({"p": CAP_P + 2, "d": 1, "generators": []}, "/p",
         f"must be <= {CAP_P}, got {CAP_P + 2}"),
        ({"p": 3, "d": CAP_D + 1, "generators": []}, "/d",
         f"must be <= {CAP_D}, got {CAP_D + 1}"),
        ({"p": 3, "d": 1, "generators": [[0, 0]] * (CAP_GENS + 1)}, "/generators",
         f"at most {CAP_GENS} rows, got {CAP_GENS + 1}"),
    ],
)
def test_lc_verify_code_past_a_cap_exit_two_before_any_work(
    capsys, tmp_path, monkeypatch, payload, where, message
):
    # Nothing may be built, not even the Code: its span and Grams come later.
    def refuse(*args, **kwargs):
        raise AssertionError("built a code past its cap")

    for name in ("Code", "code_properties", "build_lattice"):
        monkeypatch.setattr(codes_mod, name, refuse)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "lc-verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}{where}: {message}\n"


def test_load_code_accepts_a_code_at_every_cap(tmp_path):
    row = [0] * ((CAP_P - 1) * CAP_D)
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"p": CAP_P, "d": CAP_D, "generators": [row] * CAP_GENS}))
    code = cli_mod.load_code(str(path))
    assert (code.p, code.d, len(code.generators)) == (CAP_P, CAP_D, CAP_GENS)


@pytest.mark.parametrize(
    "argv, minimum",
    [
        (["zk-check", "-k", "0"], 2),
        (["weights", "-k", "-2"], 2),
        (["zk-check", "-k", "1"], 2),
        (["weights", "-k", "1"], 2),
        (["fuse", "-k", "1", "0,0", "0,0"], 2),
        (["orbifold-table", "-k", "2"], 3),
        (["sigma-check", "-k", "2"], 3),
        (["quotient", "-k", "2"], 3),
        (["lift-order", "-k", "2"], 3),
    ],
)
def test_level_below_minimum_exit_two(capsys, argv, minimum):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"level {argv[2]}: need k >= {minimum}" in err


@pytest.mark.parametrize("command", ["lift-order", "quotient"])
def test_lattice_level_above_maximum_exit_two(capsys, monkeypatch, command):
    # Nothing may be built: a run that got past parsing would fail here.
    def refuse(n):
        raise AssertionError(f"built sqrt2_a({n}) for an out-of-range level")

    monkeypatch.setattr(cli_mod, "sqrt2_a", refuse)
    code, out, err = run(capsys, command, "-k", "129")
    assert code == 2
    assert out == ""
    assert "level 129: need k <= 128" in err
    with pytest.raises(SystemExit):
        cli_mod.build_parser().parse_args([command, "--help"])
    assert "at most 128" in capsys.readouterr().out
    args = cli_mod.build_parser().parse_args([command, "-k", "128"])
    assert args.level == 128


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["orbifold-table", "-k", "20"],
         "f6d6342add383660d37d941c3d84a213aee66a1a09ee4c1f98df26c4940f9966"),
        (["orbifold-table", "-k", "20", "--format", "json"],
         "cec008daa88ec3fb63e814439beb88c341ffc1a2622dceb2f751f96ca8299489"),
        (["orbifold-table", "-k", "21"],
         "8f0fe8a0bdd4e4ea51867553644e934545ff38a766e618513cc3505365f351a6"),
        (["orbifold-table", "-k", "21", "--format", "json"],
         "222249b98685e0dc32dae33108cc38eda05c171fd00a2bda2cf6c4b1f7fa5d5a"),
        (["sigma-check", "-k", "24", "--format", "json"],
         "139486b6857b79a4acba9d0e2ddc00280f1cb98d42cadab9ebe403ad02a69857"),
        (["zk-check", "-k", "20", "--format", "json"],
         "64c974ba772dcdc7c580ce5e9beafde22f58beb5ed03592f54326b3a82a80cf9"),
        (["lc-verify", "--builtin", "5B"],
         "36ded5d4b2adbc992951a53dc4b131da9c458b9509678f19f9e680334027a565"),
        (["lc-verify", "--builtin", "5B", "--format", "json"],
         "c47f4315e48311c126b3cd9c70dc1b57ffb6b3c9b58b6d350fcfd49e8f516e0c"),
        (["lc-verify", str(resources.files("parafusion") / "golden/code_5b.json"),
          "--format", "json"],
         "5870b44900909514a66ff4c99dd24420c3d388b3289a3fb7a15cf48ca9b4d6eb"),
    ],
)
def test_output_bytes_pinned(capsys, argv, digest):
    # Orbifold terms print in repr order: at k >= 20, W[10,0] sorts before
    # W[8,0] and M[10,.] before M[2,.], unlike the integer order of the
    # basis.  The lc-verify runs pin the 5B battery's report.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, cap",
    [("zk-check", cli_mod.MAX_ZK_LEVEL), ("orbifold-table", cli_mod.MAX_LEVEL),
     ("sigma-check", cli_mod.MAX_LEVEL)],
)
def test_ring_level_cap_by_parsing_only(capsys, command, cap):
    assert cap >= {"zk-check": 32, "orbifold-table": 64, "sigma-check": 64}[command]
    args = cli_mod.build_parser().parse_args([command, "-k", str(cap)])
    assert args.level == cap
    with pytest.raises(SystemExit) as exc:
        cli_mod.build_parser().parse_args([command, "-k", str(cap + 1)])
    assert exc.value.code == 2
    assert f"level {cap + 1}: need k <= {cap}" in capsys.readouterr().err


class Built(Exception):
    """Raised by a stub that stands in for building a lattice."""


@pytest.mark.parametrize(
    "field, stubbed",
    [("gram", "Lattice"), ("basis", "sublattice")],
)
def test_lattice_json_rank_cap_by_parsing_only(
    capsys, tmp_path, monkeypatch, field, stubbed
):
    # At the cap the file parses and reaches the stub; one row past it is a
    # usage error before any lattice of that rank is built.
    def refuse(*args):
        raise Built

    monkeypatch.setattr(cli_mod, stubbed, refuse)
    cap = cli_mod.MAX_RANK
    path = tmp_path / "lattice.json"
    for rows in (cap, cap + 1):
        if field == "gram":
            payload = {"gram": [[2 * (i == j) for j in range(rows)] for i in range(rows)]}
        else:
            payload = {"parent": {"gram": [[2, -1], [-1, 2]]}, "basis": [[1, 0]] * rows}
        path.write_text(json.dumps(payload))
        if rows == cap:
            with pytest.raises(Built):
                main(["lattice-info", str(path)])
        else:
            code, out, err = run(capsys, "lattice-info", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: {path}/{field}: at most {cap} rows, got {cap + 1}\n"


def golden_dir_with(tmp_path, name, edit):
    """A copy of the u5a golden files in which ``edit`` rewrites ``name``."""
    for f in ("u5a_orbits.json", "u5a_weights.json", "u5a_fusion.json"):
        data = resources.files("parafusion").joinpath(f"golden/{f}").read_text()
        (tmp_path / f).write_text(data)
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return tmp_path


@pytest.mark.parametrize("action", ["verify", "table"])
def test_u5a_missing_golden_dir_exit_two(capsys, tmp_path, action):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "u5a", action, "--golden-dir", str(missing))
    assert code == 2
    assert out == ""
    assert f"{missing / 'u5a_orbits.json'}:" in err


def test_u5a_fusion_table_not_a_list_exit_two(capsys, tmp_path):
    golden = golden_dir_with(tmp_path, "u5a_fusion.json", lambda p: {"table": 5})
    code, out, err = run(capsys, "u5a", "verify", "--golden-dir", str(golden))
    assert code == 2
    assert out == ""
    assert f"{golden / 'u5a_fusion.json'}:" in err


def test_u5a_one_orbit_row_exit_two(capsys, tmp_path):
    golden = golden_dir_with(
        tmp_path, "u5a_orbits.json", lambda p: {**p, "rows": p["rows"][:1]}
    )
    code, out, err = run(capsys, "u5a", "verify", "--golden-dir", str(golden))
    assert code == 2
    assert out == ""
    assert f"{golden / 'u5a_orbits.json'}: ValueError: expected 9 entries, got 1" in err


@pytest.mark.parametrize(
    "field, index, value",
    [("dimensions", 0, 1.9), ("dimensions", 3, True), ("weights", 1, 0.5)],
)
def test_u5a_non_integer_dimension_or_float_weight_exit_two(
    capsys, tmp_path, field, index, value
):
    def edit(payload):
        payload[field][index] = value
        return payload

    golden = golden_dir_with(tmp_path, "u5a_weights.json", edit)
    code, out, err = run(capsys, "u5a", "verify", "--golden-dir", str(golden))
    assert code == 2
    assert out == ""
    assert f"{golden / 'u5a_weights.json'}: ValueError: expected an int or str weight" in err


def test_u5a_rows_that_are_not_orbits_are_reported(capsys, tmp_path):
    def swap(payload):
        rows = payload["rows"]
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
        return payload

    golden = golden_dir_with(tmp_path, "u5a_orbits.json", swap)
    code, out, _ = run(
        capsys, "u5a", "verify", "--golden-dir", str(golden), "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["failures"][0].startswith("('orbit_partition', ")
    assert "('induction', [5,0;4,2])" in payload["failures"]
