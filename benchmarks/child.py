"""One repetition of a benchmark workload in a fresh interpreter.

    python3 benchmarks/child.py --workload NAME --inputs FILE [--trace] [--spans FILE]
    python3 benchmarks/child.py --setup-only

Set-up is timed first, before anything but ``time`` is imported, so that
it holds every import a user's fresh interpreter pays for: ``import
parafusion`` (every module, the CLI included) and loading the shipped
golden JSON. Then the workload's operations run once, and one JSON line
with the repetition's measurements goes to standard output.
"""
import time


def setup() -> float:
    start = time.perf_counter()
    import parafusion.cli  # noqa: F401
    from parafusion import codes, u5a

    codes.builtin_code("5B")
    u5a.golden_rows()
    u5a.golden_weight_table()
    u5a.golden_fusion_table()
    return time.perf_counter() - start


def main() -> None:
    setup_s = setup()
    import argparse
    import json
    import resource

    import parafusion
    import tracer
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--inputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = {"setup_s": setup_s, "parafusion_file": parafusion.__file__}
    if not args.setup_only:
        with open(args.inputs) as fh:
            inputs = json.load(fh)
        tr = None
        if args.trace:
            tr = tracer.Tracer()
            tr.install()
        ctx = workloads.Context()
        run = workloads.RUNNERS[args.workload]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        run(ctx, inputs, workloads.EXPECTED[args.workload])
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=ctx.attempted,
            failed=ctx.failed,
            failures=ctx.failures,
            digests=ctx.digests,
        )
        if tr is not None:
            layers = tr.layer_metrics()
            layers["cli.output_bytes"] = ctx.output_bytes
            layers["trace.unattributed_s"] = wall - tr.top_level_s()
            result["layers"] = layers
            if args.spans:
                tr.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
