"""Command-line front end over the library modules.

Exit codes: 0 on pass/success, 1 on verification failure, 2 on usage
error. Every subcommand honors --format json|text; rationals serialize
as strings "a/b" in lowest terms.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import prod
from pathlib import Path

from . import codes as codes_mod
from . import u5a as u5a_mod
from .central import lift, lift_order, standard_epsilon, theta_lift
from .fusion import (
    all_labels,
    canonical_label,
    conformal_weight,
    fuse,
    verify_zk_grading,
)
from .lattices import (
    Lattice,
    coxeter_nu,
    discriminant_group,
    dual_quotient_invariants,
    is_rssd,
    quotient_invariants,
    rssd_involution,
    sqrt2_a,
    sublattice,
)
from .linalg import int_identity, mat_sub
from .orbifold import derive_full_table, verify_collapse

Q = Fraction


class UsageError(Exception):
    """Bad input from the user: malformed JSON, a bad label or entry."""


def _json_default(obj):
    """JSON for the one non-JSON type a payload holds: a Fraction as "a/b"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _parse_label(text: str, k: int):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"label {text!r}: expected \"i,j\"")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"label {text!r}: entries must be integers") from None
    try:
        return canonical_label(i, j, k)
    except ValueError as exc:
        raise UsageError(f"label {text!r}: {exc}") from None


def _read_json(path: str, source: Path | None = None):
    """The JSON in the file ``source`` (by default ``path``); errors name ``path``."""
    try:
        return json.loads(Path(source or path).read_text())
    except OSError as exc:
        exc.filename = path
        raise UsageError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON ({exc})") from None


def _parse_entry(x, where: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise UsageError(f"{where}: expected an integer or \"a/b\" string")
    try:
        return Q(x)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{where}: bad rational {x!r}") from None


def _parse_matrix(rows, where: str, width: int | None = None):
    if not isinstance(rows, list) or not rows:
        raise UsageError(f"{where}: expected a non-empty list of rows")
    if len(rows) > MAX_RANK:
        raise UsageError(f"{where}: at most {MAX_RANK} rows, got {len(rows)}")
    if width is None and not isinstance(rows[0], list):
        raise UsageError(f"{where}/0: expected a row (a list of entries)")
    n = width if width is not None else len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise UsageError(f"{where}/{i}: expected a row of length {n}")
        out.append(
            tuple(_parse_entry(x, f"{where}/{i}/{j}") for j, x in enumerate(row))
        )
    return tuple(out)


def _parent_from_payload(payload: dict, where: str, chain: tuple) -> Lattice:
    """The parent lattice; ``chain`` holds the resolved paths of the files
    being loaded, so a file that is its own ancestor is a usage error, and
    a relative ``parent`` path is read from the directory of the last."""
    parent_field = payload.get("parent")
    if parent_field is None:
        raise UsageError(f"{where}/parent: missing")
    if isinstance(parent_field, dict):
        return _lattice_from_payload(parent_field, f"{where}/parent", chain)
    if isinstance(parent_field, str):
        path = (chain[-1].parent / parent_field).resolve()
        if path in chain:
            raise UsageError(f"{where}/parent: {parent_field} is its own ancestor")
        chain += (path,)
        return _lattice_from_payload(_read_json(parent_field, path), parent_field, chain)
    raise UsageError(f"{where}/parent: expected a path or object")


def _lattice_from_payload(payload, where: str, chain: tuple) -> Lattice:
    if not isinstance(payload, dict):
        raise UsageError(f"{where}: expected a JSON object")
    if "basis" in payload:
        parent = _parent_from_payload(payload, where, chain)
        rows = _parse_matrix(payload["basis"], f"{where}/basis", parent.rank)
        try:
            return sublattice(parent, rows)
        except (ValueError, AssertionError) as exc:
            raise UsageError(f"{where}/basis: {exc}") from None
    gram_field = payload.get("gram")
    if gram_field is None:
        raise UsageError(f"{where}/gram: missing")
    gram = _parse_matrix(gram_field, f"{where}/gram")
    if len(gram) != len(gram[0]):
        raise UsageError(f"{where}/gram: matrix is not square")
    n = len(gram)
    for i in range(n):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise UsageError(
                    f"{where}/gram/{i}/{j}: not symmetric "
                    f"({gram[i][j]} != {gram[j][i]})"
                )
    try:
        return Lattice(gram)
    except (ValueError, AssertionError) as exc:
        raise UsageError(f"{where}/gram: {exc}") from None


def load_lattice(path: str) -> Lattice:
    """Load and validate a lattice or sublattice JSON file."""
    return _lattice_from_payload(_read_json(path), path, (Path(path).resolve(),))


def load_code(path: str):
    """Load and validate a code JSON file."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: expected a JSON object")
    for field in ("p", "d", "generators"):
        if field not in payload:
            raise UsageError(f"{path}/{field}: missing")
    for field, cap in (("p", codes_mod.MAX_P), ("d", codes_mod.MAX_D)):
        if type(payload[field]) is not int:
            raise UsageError(f"{path}/{field}: expected an integer, got {payload[field]!r}")
        if payload[field] > cap:
            raise UsageError(f"{path}/{field}: must be <= {cap}, got {payload[field]}")
    if not isinstance(payload["generators"], list):
        raise UsageError(f"{path}/generators: expected a list of bit rows")
    if len(payload["generators"]) > codes_mod.MAX_GENERATORS:
        raise UsageError(
            f"{path}/generators: at most {codes_mod.MAX_GENERATORS} rows,"
            f" got {len(payload['generators'])}"
        )
    for i, g in enumerate(payload["generators"]):
        if not isinstance(g, list):
            raise UsageError(f"{path}/generators/{i}: expected a list of bits, got {g!r}")
    try:
        return codes_mod.load_code(payload)
    except (ValueError, AssertionError) as exc:
        raise UsageError(f"{path}: {exc}") from None


# Levels past these bounds are usage errors rather than runs of minutes or
# a MemoryError.  On a 2-core x86 host: lift-order takes up to k sparse
# (k-1)x(k-1) products, 0.4 s at k = 128; at k = 128 sigma-check takes 0.8-0.9 s
# and 45 MB, orbifold-table 1.3-1.7 s and 85 MB (text) or 3.0-3.3 s and 248 MB
# (JSON); zk-check makes k^3 rule calls, ~k^4 terms, 0.8-1.3 s at k = 64.  Codes
# are capped in ``codes`` at p <= 13, d <= 16 and 16 generators: lc-verify
# on 16 random generators takes 0.9 s at p = 13, d = 1, 1.4 s and 77 MB at
# d = 8, and 2.4 s and 132 MB at d = 16, but 8.3 s at p = 17, d = 1 (coset
# minima in dimension 16); each generator past 16 doubles the codewords.
# A lattice JSON gram or basis has at most 64 rows: lattice-info takes 0.6 s
# on a dense rank-64 Gram B·B^T + I (B in [-3, 3]), 1.4 s on a sublattice of
# it, and 6.7 s and 23 s at rank 96.
MAX_LEVEL = 128
MAX_RANK = 64
MAX_ZK_LEVEL = 64


class _Level(argparse.Action):
    """Stores -k; a level outside ``const`` = (lowest, highest or None)
    is a usage error (exit 2)."""

    def __call__(self, parser, namespace, k, option_string=None):
        lowest, highest = self.const
        if k < lowest:
            parser.error(f"level {k}: need k >= {lowest}")
        if highest is not None and k > highest:
            parser.error(f"level {k}: need k <= {highest}")
        setattr(namespace, self.dest, k)


def _fusion_sort_key(label):
    return (-label.i, label.j)


def cmd_fuse(args):
    a = _parse_label(args.labels[0], args.level)
    b = _parse_label(args.labels[1], args.level)
    terms = sorted(fuse(a, b), key=lambda lm: _fusion_sort_key(lm[0]))
    text = " + ".join(
        (f"{m}*{lab!r}" if m != 1 else repr(lab)) for lab, m in terms
    )
    payload = {
        "k": args.level,
        "terms": [{"i": lab.i, "j": lab.j, "mult": m} for lab, m in terms],
    }
    return True, payload, [text]


def cmd_weights(args):
    k = args.level
    labels = (
        [_parse_label(t, k) for t in args.labels] if args.labels else all_labels(k)
    )
    rows = [(lab, conformal_weight(lab)) for lab in labels]
    lines = [f"{lab!r}  h = {h}" for lab, h in rows]
    payload = {
        "k": k,
        "weights": [{"i": lab.i, "j": lab.j, "h": h} for lab, h in rows],
    }
    return True, payload, lines


def cmd_zk_check(args):
    report = verify_zk_grading(args.level)
    status = "pass" if report.passed else "FAIL"
    lines = [f"grading check k={args.level}: {status}"]
    lines += [f"  violation: {v}" for v in report.failures]
    payload = {
        "k": args.level,
        "passed": report.passed,
        "violations": [list(map(repr, v)) for v in report.failures],
    }
    return report.passed, payload, lines


def cmd_orbifold_table(args):
    k = args.level
    table = derive_full_table(k)
    # Terms print in repr order, as a FusionVector sorts them: at k >= 20
    # W[10,0] sorts before W[2,0], unlike the basis indices.
    names = [repr(x) for x in table.basis]
    rank = {z: r for r, z in enumerate(sorted(range(len(names)), key=names.__getitem__))}
    pairs = [(x, y, sorted(table.cells[x][y], key=lambda t: rank[t[0]]))
             for x in range(len(names)) for y in range(x, len(names))]
    if args.format == "json":
        return True, {"k": k, "cells": [
            {"left": [x // 2, x % 2], "right": [y // 2, y % 2],
             "terms": [{"j": z // 2, "eps": z % 2, "mult": m} for z, m in terms]}
            for x, y, terms in pairs
        ]}, []
    return True, None, [
        f"{names[x]} * {names[y]} = "
        + " + ".join(f"{m}*{names[z]}" if m != 1 else names[z] for z, m in terms)
        for x, y, terms in pairs
    ]


def cmd_sigma_check(args):
    k = args.level
    table = derive_full_table(k)  # raises unless the sign grading passed
    collapse = verify_collapse(table)
    lines = [
        f"sign grading k={k}: pass",
        f"collapse consistency k={k}: {'pass' if collapse.passed else 'FAIL'}",
    ]
    lines += [f"  {f}" for f in collapse.failures]
    payload = {
        "k": k,
        "sign_grading": True,
        "collapse": collapse.passed,
        "failures": [repr(f) for f in collapse.failures],
    }
    return collapse.passed, payload, lines


def cmd_lattice_info(args):
    lat = load_lattice(args.path)
    payload = {
        "rank": lat.rank,
        "det": lat.det(),
        "integral": lat.is_integral(),
        "even": lat.is_even(),
    }
    lines = [
        f"rank {lat.rank}, det {lat.det()}",
        f"integral: {lat.is_integral()}, even: {lat.is_even()}",
    ]
    if lat.is_integral():
        disc = discriminant_group(lat)
        payload["discriminant_invariants"] = list(disc.invariant_factors)
        payload["discriminant_order"] = disc.order
        payload["q_values"] = (
            list(disc.q_values) if disc.q_values is not None else None
        )
        lines.append(
            f"discriminant group invariants: {list(disc.invariant_factors)}"
            f" (order {disc.order})"
        )
        if disc.q_values is not None:
            lines.append(f"q on generators: {list(disc.q_values)}")
    return True, payload, lines


def cmd_rssd(args):
    payload_in = _read_json(args.path)
    if not isinstance(payload_in, dict) or "basis" not in payload_in:
        raise UsageError(f"{args.path}: expected a sublattice object with basis")
    parent = _parent_from_payload(payload_in, args.path, (Path(args.path).resolve(),))
    rows = _parse_matrix(payload_in["basis"], f"{args.path}/basis", parent.rank)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x.denominator != 1:
                raise UsageError(
                    f"{args.path}/basis/{i}/{j}: expected an integer, got {x}"
                )
    ok = is_rssd(parent, rows)
    payload = {"rssd": ok}
    lines = [f"rssd: {ok}"]
    if ok:
        invol = rssd_involution(parent, rows)
        payload["involution"] = [list(row) for row in invol.matrix]
        lines.append("involution rows (parent basis):")
        lines += [
            "  [" + ", ".join(str(x) for x in row) + "]" for row in invol.matrix
        ]
    return ok, payload, lines


def cmd_quotient(args):
    k = args.level
    lat = sqrt2_a(k - 1)
    s = mat_sub(int_identity(k - 1), coxeter_nu(k))
    invs = quotient_invariants(lat, s)
    dual_invs = dual_quotient_invariants(lat, s)
    order, dual_order = prod(invs), prod(dual_invs)
    ok = order == k and dual_order == k
    payload = {
        "k": k,
        "invariants": list(invs),
        "order": order,
        "dual_invariants": list(dual_invs),
        "dual_order": dual_order,
    }
    lines = [
        f"quotient by (1-nu): invariants {list(invs)}, order {order}",
        f"dual-side quotient: invariants {list(dual_invs)}, order {dual_order}",
        f"both orders equal k={k}: {'pass' if ok else 'FAIL'}",
    ]
    return ok, payload, lines


def cmd_lift_order(args):
    k = args.level
    lat = sqrt2_a(k - 1)
    eps = standard_epsilon(lat)
    nu_hat = lift(coxeter_nu(k), lat, eps)
    nu_ord = lift_order(nu_hat)
    theta_ord = lift_order(theta_lift(lat, eps))
    ok = nu_ord == k and theta_ord == 2
    payload = {
        "k": k,
        "nu_lift_order": nu_ord,
        "theta_lift_order": theta_ord,
    }
    lines = [
        f"lifted Coxeter isometry order: {nu_ord} (expected {k})",
        f"lifted -1 order: {theta_ord} (expected 2)",
        f"{'pass' if ok else 'FAIL'}",
    ]
    return ok, payload, lines


def cmd_lc_verify(args):
    if args.builtin is not None:
        try:
            code = codes_mod.builtin_code(args.builtin)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.path is not None:
        code = load_code(args.path)
    else:
        raise UsageError("lc-verify: provide a code path or --builtin NAME")

    rep = codes_mod.code_properties(code)
    checks = [
        ("self_dual", rep.self_dual),
        ("totally_isotropic", rep.totally_isotropic),
        ("nu_invariant", rep.nu_invariant),
    ]
    built = codes_mod.build_lattice(code)
    checks.append(("lattice_integral", built.integral))
    checks.append(("lattice_even", built.even))
    glue = codes_mod.glue_form_report(built)
    checks.append(("glue_form", glue.passed))
    checks.append(
        ("one_minus_nu_dual", codes_mod.one_minus_nu_dual_equals_lattice(built))
    )
    type_counts = None
    if code.p == 5 and code.d == 4:
        cls = codes_mod.classify_weight4(code)
        orb = codes_mod.orbit_classification(code)
        type_counts = cls.counts
        checks.append(("classification_agreement", cls.counts == orb.counts))
        ee8 = codes_mod.build_ee8_pair(built)
        checks.append(("ee8_pair", ee8.passed))
    if args.builtin == "5B":
        checks.append(
            (
                "weight_distribution",
                dict(rep.weight_distribution) == {0: 1, 4: 130, 6: 120, 8: 5},
            )
        )
        checks.append(
            (
                "type_counts",
                dict(type_counts or ()) == {"I": 5, "II": 5, "III": 60, "IV": 60},
            )
        )
    ok = all(flag for _, flag in checks)
    payload = {
        "size": rep.size,
        "dimension": rep.dimension,
        "weight_distribution": {str(w): c for w, c in rep.weight_distribution},
        "type_counts": dict(type_counts) if type_counts is not None else None,
        "checks": {name: flag for name, flag in checks},
        "passed": ok,
    }
    lines = [
        f"code: size {rep.size}, dimension {rep.dimension}",
        "weight distribution "
        + "{" + ", ".join(f"{w}: {c}" for w, c in rep.weight_distribution) + "}",
    ]
    if type_counts is not None:
        lines.append(
            "weight-4 types " + ", ".join(f"{t}: {c}" for t, c in type_counts)
        )
    lines += [f"{name}: {'pass' if flag else 'FAIL'}" for name, flag in checks]
    lines.append("pass" if ok else "FAIL")
    return ok, payload, lines


def cmd_u5a(args):
    if args.action == "table":
        rows = u5a_mod.golden_rows(args.golden_dir)
        index = u5a_mod.induction_index(rows)
        table = [[list(u5a_mod.u_fuse(i, j, rows, None, index)) for j in range(9)]
                 for i in range(9)]
        lines = []
        for i in range(9):
            for j in range(i, 9):
                lines.append(
                    f"U{i} x U{j} = " + " + ".join(f"U{t}" for t in table[i][j])
                )
        return True, {"table": table}, lines
    report = u5a_mod.verify_induction_tables(golden_dir=args.golden_dir)
    lines = [f"induction-table verification: {'pass' if report.passed else 'FAIL'}"]
    lines += [f"  {f}" for f in report.failures]
    payload = {
        "passed": report.passed,
        "failures": [repr(f) for f in report.failures],
    }
    return report.passed, payload, lines


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafusion",
        description="Exact fusion-ring, lattice, and code-lattice toolkit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    bounds = {2: (2, None), "zk": (2, MAX_ZK_LEVEL), 3: (3, MAX_LEVEL)}
    level = {}
    for key, (lowest, highest) in bounds.items():
        level[key] = p = argparse.ArgumentParser(add_help=False)
        p.add_argument(
            "-k", "--level", type=int, action=_Level, const=(lowest, highest),
            required=True,
            help="level k" if highest is None else f"level k, at most {highest}",
        )

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fuse", parents=[common, level[2]], help="fuse two labels")
    p.add_argument("labels", nargs=2, metavar="i,j")
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser(
        "weights", parents=[common, level[2]], help="conformal weights"
    )
    p.add_argument("labels", nargs="*", metavar="i,j")
    p.set_defaults(handler=cmd_weights)

    p = sub.add_parser(
        "zk-check", parents=[common, level["zk"]], help="verify the cyclic grading"
    )
    p.set_defaults(handler=cmd_zk_check)

    p = sub.add_parser(
        "orbifold-table",
        parents=[common, level[3]],
        help="derive and print the orbifold fusion table",
    )
    p.set_defaults(handler=cmd_orbifold_table)

    p = sub.add_parser(
        "sigma-check",
        parents=[common, level[3]],
        help="verify sign grading and collapse consistency",
    )
    p.set_defaults(handler=cmd_sigma_check)

    p = sub.add_parser(
        "lattice-info", parents=[common], help="summarize a lattice JSON file"
    )
    p.add_argument("path")
    p.set_defaults(handler=cmd_lattice_info)

    p = sub.add_parser(
        "rssd", parents=[common], help="test a sublattice for the RSSD property"
    )
    p.add_argument("path")
    p.set_defaults(handler=cmd_rssd)

    p = sub.add_parser(
        "quotient",
        parents=[common, level[3]],
        help="quotient invariants for the Coxeter isometry",
    )
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser(
        "lift-order",
        parents=[common, level[3]],
        help="orders of standard lifts on the rescaled root lattice",
    )
    p.set_defaults(handler=cmd_lift_order)

    p = sub.add_parser(
        "lc-verify", parents=[common], help="run the code-lattice battery"
    )
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--builtin", default=None, help="builtin code name (5B)")
    p.set_defaults(handler=cmd_lc_verify)

    p = sub.add_parser(
        "u5a", parents=[common], help="nine-module algebra table / verification"
    )
    p.add_argument("action", choices=("table", "verify"))
    p.add_argument("--golden-dir", default=None, help="override golden data dir")
    p.set_defaults(handler=cmd_u5a)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        ok, payload, lines = args.handler(args)
    except (UsageError, u5a_mod.GoldenDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
