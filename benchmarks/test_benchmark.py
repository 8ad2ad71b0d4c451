"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_LADDER = {
    "order_ks": [3, 4],
    "power_ks": [3, 4],
    "commuting_ks": [5],
    "weyl_ks": [3],
    "radical_ks": [3],
    "eta": {"3": [1, 0], "4": [0, 1, 1], "5": [1, 1, 0, 1]},
}


def test_seeds_change_the_presentation_not_the_lc_verify_payload(tmp_path):
    outputs = []
    for seed in (1, 2):
        path = workloads.make_inputs("case-5B", seed, ROOT, tmp_path)
        (tmp_path / "again").mkdir(exist_ok=True)
        again = workloads.make_inputs("case-5B", seed, ROOT, tmp_path / "again")
        assert json.loads(path.read_text())["seed"] == seed
        code_again = json.loads(again.read_text())["code_path"]
        assert Path(code_again).read_bytes() == Path(
            json.loads(path.read_text())["code_path"]
        ).read_bytes()
        code_path = json.loads(path.read_text())["code_path"]
        outputs.append((json.loads(Path(code_path).read_text()), code_path))
    (code1, path1), (code2, path2) = outputs
    assert code1["generators"] != code2["generators"]
    ctx = workloads.Context()
    rc1, text1 = ctx.cli(["lc-verify", path1, "--format", "json"])
    rc2, text2 = ctx.cli(["lc-verify", path2, "--format", "json"])
    assert rc1 == rc2 == 0
    assert text1 == text2
    assert json.loads(text1)["passed"] is True


def test_wrong_expected_value_counts_as_failure():
    ctx = workloads.Context()
    workloads.run_k_ladder(ctx, SMALL_LADDER, workloads.EXPECTED["k-ladder"])
    assert (ctx.attempted, ctx.failed) == (9, 0), ctx.failures
    ctx = workloads.Context()
    workloads.run_k_ladder(ctx, SMALL_LADDER, {"theta_lift_order": 3})
    assert (ctx.attempted, ctx.failed) == (9, 2)
    assert ctx.failures[0].startswith("lift-order -k 3")


def test_exception_counts_as_failure_and_does_not_abort():
    ctx = workloads.Context()
    ctx.op("raises", lambda: 1 / 0, lambda r: None)
    ctx.op("passes", lambda: 1, lambda r: None)
    assert (ctx.attempted, ctx.failed) == (2, 1)
    assert ctx.failures == ["raises: ZeroDivisionError: division by zero"]


def test_output_differing_across_repetitions_is_a_failure():
    reps = [{"digests": {"a": "1", "b": "2"}}, {"digests": {"a": "1", "b": "3"}}, {}]
    assert run.digest_mismatches(reps) == [
        "b: output differs from the first repetition",
        "a: output differs from the first repetition",
        "b: output differs from the first repetition",
    ]


def test_traced_child_reports_spans_through_re_exported_names(tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(SMALL_LADDER))
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", "k-ladder",
         "--inputs", str(inputs), "--trace", "--spans", str(spans)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert result["failed"] == 0
    # c_nu_radical reaches hnf through the name lattices imported from linalg
    assert layers["linalg.hnf.calls"] > 0
    assert layers["central.compose.calls"] > 0
    assert layers["cli.main.calls"] == 4
    assert layers["central.quadratic_from_values.points"] > 0
    lines = spans.read_text().splitlines()
    assert len(lines) == sum(v for k, v in layers.items() if k.endswith(".calls"))


def test_benchmark_json_names_only_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= tracer.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "k-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
