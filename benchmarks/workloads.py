"""The three benchmark workloads: seeded inputs and exactly checked operations.

``make_inputs`` runs in the benchmark's parent process and never imports
parafusion: it reads the shipped 5B code as plain JSON and draws every
random choice from the seed. The ``run_*`` functions run inside a child
interpreter, call the library through module attributes (so a traced run
sees its wrapped functions) and check every output against an exact
expected value or a second route.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("case-5B", "k-ladder", "fusion-tables")

# Input sizes. k-ladder straddles quadratic_from_values' switch from the
# exhaustive 2^n check (n = k-1 <= 12) to sampled points (k = 17).
ORDER_KS = tuple(range(3, 15)) + (17, 21)
POWER_KS = tuple(range(3, 13)) + (17,)
COMMUTING_KS = (3, 5, 7, 9, 11)
WEYL_KS = tuple(range(3, 14))
RADICAL_KS = (3, 5, 7, 9, 11, 13)
FUSION_KS = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20)
WEIGHT_ONE_KS = tuple(range(3, 31))
TRIPLE_K = 12
TRIPLES = 2000

EXPECTED = {
    "case-5B": {
        "size": 256,
        "weight_distribution": {"0": 1, "4": 130, "6": 120, "8": 5},
        "type_counts": {"I": 5, "II": 5, "III": 60, "IV": 60},
        "det": 625,
        "rank": 16,
        "shell2": 0,
        "shell4": 2640,
    },
    "k-ladder": {"theta_lift_order": 2},
    "fusion-tables": {},
}


class Context:
    """Counts attempted and failed operations; a failure never aborts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.digests: dict[str, str] = {}

    def op(self, label, call, check):
        """Run ``call()`` and ``check(result)``, which returns None when the
        output is exact, else a description of the mismatch. Returns the
        result, or None when the call raised."""
        self.attempted += 1
        result = None
        try:
            result = call()
            problem = check(result)
        except Exception as exc:  # an exception is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {problem}")
        return result

    def cli(self, argv):
        """One in-process CLI call; returns (exit code, stdout text)."""
        from parafusion import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        return rc, text


def _json_result(rc, text):
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return json.loads(text)


# --------------------------------------------------------------- inputs


def _f2_invertible(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        rows = [int("".join(map(str, r)), 2) for r in m]
        rank = 0
        for bit in reversed(range(n)):
            pivot = next((i for i in range(rank, n) if rows[i] >> bit & 1), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(n):
                if i != rank and rows[i] >> bit & 1:
                    rows[i] ^= rows[rank]
            rank += 1
        if rank == n:
            return m


def recombined_5b(root: Path, seed: int) -> dict:
    """The shipped 5B code with its generators replaced by a seeded random
    invertible F2 recombination: the same code, presented differently."""
    code = json.loads((root / "src/parafusion/golden/code_5b.json").read_text())
    gens = code["generators"]
    mix = _f2_invertible(random.Random(seed), len(gens))
    code["generators"] = [
        [sum(c * g[t] for c, g in zip(row, gens)) % 2 for t in range(len(gens[0]))]
        for row in mix
    ]
    return code


def make_inputs(workload: str, seed: int, root: Path, workdir: Path) -> Path:
    """Write the seeded inputs of one run and return the inputs file."""
    rng = random.Random(f"{workload}:{seed}")
    inputs: dict = {"workload": workload, "seed": seed}
    if workload == "case-5B":
        code_path = workdir / f"code-{workload}-{seed}.json"
        code_path.write_text(json.dumps(recombined_5b(root, seed)))
        inputs["code_path"] = str(code_path)
    elif workload == "k-ladder":
        inputs["order_ks"] = ORDER_KS
        inputs["power_ks"] = POWER_KS
        inputs["commuting_ks"] = COMMUTING_KS
        inputs["weyl_ks"] = WEYL_KS
        inputs["radical_ks"] = RADICAL_KS
        inputs["eta"] = {
            str(k): [rng.randint(0, 1) for _ in range(k - 1)]
            for k in sorted(set(POWER_KS) | set(COMMUTING_KS))
        }
    elif workload == "fusion-tables":
        inputs["fusion_ks"] = FUSION_KS
        inputs["weight_one_ks"] = WEIGHT_ONE_KS
        inputs["triple_k"] = TRIPLE_K
        n_labels = TRIPLE_K * (TRIPLE_K + 1) // 2
        inputs["triples"] = [
            [rng.randrange(n_labels) for _ in range(3)] for _ in range(TRIPLES)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = workdir / f"inputs-{workload}-{seed}.json"
    path.write_text(json.dumps(inputs))
    return path


# ------------------------------------------------------------ workloads


def run_case_5b(ctx: Context, inputs: dict, expected: dict) -> None:
    from parafusion import codes, lattices

    path = inputs["code_path"]

    def check_lc(payload):
        bad = [name for name, flag in payload["checks"].items() if not flag]
        for key in ("size", "weight_distribution", "type_counts"):
            if payload[key] != expected[key]:
                bad.append(f"{key}={payload[key]}")
        if not payload["passed"]:
            bad.append("passed=false")
        return ", ".join(bad) or None

    # classification_agreement in the payload is the orbit oracle agreeing
    # with the direct classifier; ee8_pair is the EE8 pair battery.
    ctx.op(
        "lc-verify",
        lambda: _json_result(*ctx.cli(["lc-verify", path, "--format", "json"])),
        check_lc,
    )
    code = codes.load_code(json.loads(Path(path).read_text()))
    built = ctx.op(
        "build_lattice",
        lambda: codes.build_lattice(code),
        lambda b: None
        if (b.lattice.det(), b.lattice.rank, b.even, b.integral)
        == (expected["det"], expected["rank"], True, True)
        else f"det {b.lattice.det()}, rank {b.lattice.rank}",
    )
    by_cosets = ctx.op(
        "shell4_count_by_cosets",
        lambda: codes.shell4_count_by_cosets(code),
        lambda n: None if n == expected["shell4"] else f"{n} vectors",
    )
    # Later operations on a failed build raise, so they count as failed too.
    lat = built.lattice if built is not None else None
    ctx.op(
        "shell(L,2)",
        lambda: lattices.shell(lat, 2),
        lambda v: None if len(v) == expected["shell2"] else f"{len(v)} vectors",
    )

    def check_shell4(vecs):
        if len(vecs) != expected["shell4"] or len(vecs) != by_cosets:
            return f"{len(vecs)} vectors, cosets route {by_cosets}"
        if len(set(vecs)) != len(vecs):
            return "repeated vectors"
        gram = [[int(e) for e in row] for row in lat.gram]
        for v in vecs:
            w = [sum(x * g for x, g in zip(v, col)) for col in gram]
            if sum(x * y for x, y in zip(v, w)) != 4:
                return f"vector {v} is not of norm 4"
        return None

    ctx.op("shell(L,4)", lambda: lattices.shell(lat, 4), check_shell4)


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def run_k_ladder(ctx: Context, inputs: dict, expected: dict) -> None:
    from parafusion import central, lattices, linalg

    for k in inputs["order_ks"]:
        ctx.op(
            f"lift-order -k {k}",
            lambda: _json_result(*ctx.cli(["lift-order", "-k", str(k), "--format", "json"])),
            lambda p: None
            if (p["k"], p["nu_lift_order"], p["theta_lift_order"])
            == (k, k, expected["theta_lift_order"])
            else f"orders {p['nu_lift_order']}, {p['theta_lift_order']}",
        )
    for k in inputs["order_ks"]:
        ctx.op(
            f"quotient -k {k}",
            lambda: _json_result(*ctx.cli(["quotient", "-k", str(k), "--format", "json"])),
            lambda p: None
            if (p["order"], p["dual_order"]) == (k, k)
            else f"orders {p['order']}, {p['dual_order']}",
        )

    def nu_hat(k):
        lat = lattices.sqrt2_a(k - 1)
        eps = central.standard_epsilon(lat)
        return central.lift(lattices.coxeter_nu(k), lat, eps, inputs["eta"][str(k)])

    for k in inputs["power_ks"]:
        n = k - 1

        def power():
            lf = nu_hat(k)
            return lf, central.lift_power(lf, k)

        def check_power(result):
            lf, p = result
            if not linalg.mat_eq(p.base, linalg.identity(n)):
                return "base is not the identity"
            if any(any(row) for row in p.eta.polarization.matrix):
                return "polarization is not zero"
            orbit_sums = tuple(
                central.lift_power_sign(lf, _unit(n, i), k) for i in range(n)
            )
            if p.eta.diagonal != orbit_sums:
                return f"eta diagonal {p.eta.diagonal} != orbit sums {orbit_sums}"
            return None

        ctx.op(f"lift_power k={k}", power, check_power)

    for k in inputs["commuting_ks"]:
        n = k - 1
        m = pow(2, -1, k)

        def commuting():
            g, tau = nu_hat(k), lattices.tau_isometry(k, 2)
            return g, tau, central.commuting_lift(tau, g, m)

        def check_commuting(result):
            # Second route for phi^-1 g phi = g^m: evaluate both etas on the
            # basis and on every pair of basis vectors, which fixes a
            # quadratic form, from eta values and orbit sums directly.
            g, tau, phi = result
            if not linalg.mat_eq(phi.base, linalg.mat(tau)):
                return "base is not tau"
            fbar = central.mod2_matrix(phi.base)
            gmbar = central.mod2_matrix(linalg.mat_pow(linalg.mat(g.base), m))
            points = [_unit(n, i) for i in range(n)] + [
                tuple(a ^ b for a, b in zip(_unit(n, i), _unit(n, j)))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            for x in points:
                lhs = (
                    phi.eta_value(x)
                    + g.eta_value(central.bit_apply(x, fbar))
                    + phi.eta_value(central.bit_apply(x, gmbar))
                ) % 2
                if lhs != central.lift_power_sign(g, x, m):
                    return f"conjugation relation fails at {x}"
            return None

        ctx.op(f"commuting_lift k={k}", commuting, check_commuting)

    for k in inputs["weyl_ks"]:
        ctx.op(
            f"verify_weyl k={k}",
            lambda: lattices.verify_weyl(k),
            lambda r: None
            if r.passed
            and r.pairing_row == (0,) * (k - 2) + (k,)
            and math.prod(r.dual_quotient) == k
            else f"report {r}",
        )
    for k in inputs["radical_ks"]:
        ctx.op(
            f"c_nu_radical k={k}",
            lambda: lattices.c_nu_radical(lattices.sqrt2_a(k - 1), lattices.coxeter_nu(k), k),
            lambda rad: None
            if linalg.mat_eq(linalg.mat(rad), linalg.identity(k - 1))
            else "radical is not the full lattice",
        )


def run_fusion_tables(ctx: Context, inputs: dict, expected: dict) -> None:
    from fractions import Fraction

    from parafusion import fusion

    for k in inputs["fusion_ks"]:
        ctx.op(
            f"zk-check -k {k}",
            lambda: _json_result(*ctx.cli(["zk-check", "-k", str(k), "--format", "json"])),
            lambda p: None
            if p["passed"] is True and p["violations"] == [] and p["k"] == k
            else f"passed={p['passed']}",
        )

        def orbifold_table():
            rc, text = ctx.cli(["orbifold-table", "-k", str(k), "--format", "json"])
            payload = _json_result(rc, text)
            ctx.digests[f"orbifold-table -k {k}"] = hashlib.sha256(text.encode()).hexdigest()
            return payload

        # Exactness across repetitions is checked by the parent on the digests.
        ctx.op(
            f"orbifold-table -k {k}",
            orbifold_table,
            lambda p: None if p["k"] == k and p["cells"] else "empty table",
        )
        ctx.op(
            f"sigma-check -k {k}",
            lambda: _json_result(*ctx.cli(["sigma-check", "-k", str(k), "--format", "json"])),
            lambda p: None
            if p["sign_grading"] is True and p["collapse"] is True and p["failures"] == []
            else f"sign_grading={p['sign_grading']}, collapse={p['collapse']}",
        )
    ctx.op(
        "u5a verify",
        lambda: _json_result(*ctx.cli(["u5a", "verify", "--format", "json"])),
        lambda p: None if p["passed"] is True and p["failures"] == [] else "passed=false",
    )
    for k in inputs["weight_one_ks"]:
        ctx.op(
            f"verify_weight_one_tops k={k}",
            lambda: fusion.verify_weight_one_tops(k),
            lambda r: None
            if r.passed and [p for p, _ in r.sums] == list(range(1, k))
            and all(s == Fraction(1) for _, s in r.sums)
            else f"sums {r.sums}",
        )
    labels = fusion.all_labels(inputs["triple_k"])
    single = {x: fusion.FusionVector.from_pairs([(x, 1)]) for x in labels}
    for a, b, c in inputs["triples"]:
        x, y, z = labels[a], labels[b], labels[c]
        ctx.op(
            f"associativity {a},{b},{c}",
            lambda: (
                fusion.fuse_vectors(fusion.fuse(x, y), single[z]),
                fusion.fuse_vectors(single[x], fusion.fuse(y, z)),
            ),
            lambda lr: None if lr[0] == lr[1] else "(xy)z != x(yz)",
        )


RUNNERS = {
    "case-5B": run_case_5b,
    "k-ladder": run_k_ladder,
    "fusion-tables": run_fusion_tables,
}
