"""Run one parafusion benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload case-5B --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``. Every repetition runs in a fresh interpreter, one at a time
(a closed loop with a single caller), so the caches in ``codes`` start
cold as they do for a CLI user. Repetitions continue while the next one
is predicted to end within ``--seconds``, with at least three untraced
ones (``--trace 0``) or one untraced/traced pair (``--trace 1``).

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics of BENCHMARK.json as medians over the repetitions;
``setup_s`` also takes set-up-only interpreters run between them. With ``--trace 1``
it reports the per-layer metrics of the traced repetitions, with
``trace.overhead_s`` the traced minus the untraced wall time of a pair.
The line before it gives every sample, the sample counts and the failed
operations. The exit code is nonzero, with no result printed, when the
harness itself cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
MIN_REPS = 3
SETUP_PER_REP = 3
DEADLINE_S = 170


class HarnessError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, inputs: Path, deadline: float):
        self.root = root
        self.workload = workload
        self.inputs = inputs
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def child(self, *extra: str) -> dict:
        """One fresh interpreter; returns its measurements."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("out of time")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *extra],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        src = (self.root / "src").resolve()
        if src not in Path(result["parafusion_file"]).resolve().parents:
            raise HarnessError(f"parafusion imported from {result['parafusion_file']}")
        return result

    def rep(self, trace: bool = False, spans: Path | None = None) -> dict:
        args = ["--workload", self.workload, "--inputs", str(self.inputs)]
        if trace:
            args.append("--trace")
        if spans is not None:
            args += ["--spans", str(spans)]
        return self.child(*args)


def repeat(step, minimum: int, seconds: float) -> list:
    """Call ``step`` at least ``minimum`` times, then while the next call
    is predicted (from the mean so far) to end within ``seconds``."""
    out, start = [], time.monotonic()
    while True:
        out.append(step())
        elapsed = time.monotonic() - start
        if len(out) >= minimum and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(values)[n - 11]}


def summary(samples: dict[str, list[float]]) -> dict:
    return {
        name: {"median": statistics.median(v), "n": len(v), "tail": tail(v)}
        for name, v in samples.items()
    }


def digest_mismatches(reps: list[dict]) -> list[str]:
    """Outputs (by digest) that differ from the first repetition's."""
    first = reps[0].get("digests", {})
    return [
        f"{key}: output differs from the first repetition"
        for rep in reps[1:]
        for key in sorted(set(first) | set(rep.get("digests", {})))
        if rep.get("digests", {}).get(key) != first.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src/parafusion/__init__.py").is_file():
        print("error: no src/parafusion here; run from a source checkout", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = set(units) - (tracer.metric_names() if args.trace else set(END_TO_END))
    if unknown:
        print(f"error: BENCHMARK.json names unknown metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / ".work"
    workdir.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, root, workdir)
    runner = Runner(root, args.workload, inputs, deadline)
    try:
        runner.child("--setup-only")  # compiles bytecode; not measured
        if args.trace:
            spans = workdir / f"spans-{args.workload}.jsonl"
            pairs = repeat(
                lambda: (runner.rep(), runner.rep(trace=True, spans=spans)), 1, args.seconds
            )
            reps = [rep for pair in pairs for rep in pair]
            samples = {
                name: [traced["layers"].get(name, 0) for _, traced in pairs] for name in units
            }
            samples["trace.overhead_s"] = [t["wall_s"] - u["wall_s"] for u, t in pairs]
            samples["untraced.wall_s"] = [u["wall_s"] for u, _ in pairs]
            samples["traced.wall_s"] = [t["wall_s"] for _, t in pairs]
        else:
            # Set-up-only interpreters are spread over the run, so that the
            # set-up samples see the same machine as the repetitions.
            steps = repeat(
                lambda: [runner.rep()] + [runner.child("--setup-only") for _ in range(SETUP_PER_REP)],
                MIN_REPS,
                args.seconds,
            )
            reps = [step[0] for step in steps]
            samples = {
                name: [rep[name] for rep in reps] for name in ("wall_s", "cpu_s", "peak_rss_mb")
            }
            samples["setup_s"] = [r["setup_s"] for step in steps for r in step]
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in workdir.glob(f"*-{args.workload}-{args.seed}.json"):
            path.unlink()

    mismatches = digest_mismatches(reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = min(attempted, sum(rep["failed"] for rep in reps) + len(mismatches))
    failures = [f for rep in reps for f in rep["failures"]] + mismatches
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "summary": summary(samples),
        "samples": samples,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
