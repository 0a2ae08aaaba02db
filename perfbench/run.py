"""VUG benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel_sparse --seed 17 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # the timed workloads in turn

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed query set twice, plain and then with spans around
each layer's public functions (see tracing.py), and prints the per-layer
metrics plus the tracing overhead; its spans go to
``.perfbench/traces/<workload>-seed<seed>.jsonl``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Answers are checked after the timed loop; a wrong answer or an exception
fails the run (exit code 1).  See WORKLOADS.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Workloads the timed benchmark runs; dataflow_query runs on its own only
# by name, and inside runner_batch's traced run (WORKLOADS.md explains why).
TIMED = ("kernel_sparse", "kernel_dense", "runner_batch")
# Seconds of enumeration checks per run when the seed has no reference.
VERIFY_SECONDS = 5.0

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies_ms):
    """The highest percentile with at least 10 samples beyond it:
    ``(value, percentile, samples beyond)``."""
    s = sorted(latencies_ms)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (n - 10) / n, 10


def query_latencies_ms(outcomes):
    """One latency per distinct query: the fastest of its runs in the loop.

    The loop walks its pool round and round when it outlasts it.  On a
    shared host the same query's runs differ by up to half its time with
    the load of other tenants; the fastest run is the query's own cost.
    ``queries_per_s`` still counts every run.
    """
    runs = {}
    for o in outcomes:
        runs.setdefault(o.idx, []).append(1e3 * o.latency_s)
    return [min(v) for v in runs.values()]


def check(st, outcomes, answers, seed):
    """Count wrong answers and exceptions; returns (failed, checked, how).

    With a committed reference every answer is compared with it.  Otherwise
    distinct queries are checked with the enumeration baseline (and, for the
    dataflow, with the kernel) for at most ``VERIFY_SECONDS``.
    """
    from repro.core.vug import vug_local

    failed = sum(o.error is not None for o in outcomes)
    ok = [o for o in outcomes if o.error is None]
    rows = answers.load_reference(st.spec.name, seed)
    if rows is not None:
        bad = [
            o for o in ok
            if o.idx >= len(rows)
            or not answers.matches_reference(
                rows[o.idx], st.queries[o.idx], o.edges, o.size
            )
        ]
        return failed + len(bad), len(ok), "reference"
    seen = {}
    for o in ok:
        seen.setdefault(o.idx, []).append(o)
    verified = wrong = 0
    t_end = time.perf_counter() + VERIFY_SECONDS
    for idx, group in seen.items():
        if time.perf_counter() >= t_end:
            break
        q = st.queries[idx]
        if st.spec.engine == "dataflow":
            want = vug_local(st.adj, q).edges
            if any(o.edges != want for o in group):
                wrong += len(group)
                continue
        verdict = answers.enumeration_check(st.adj, q, group[0].size, group[0].edges)
        if verdict is None:
            continue
        if len({(o.size, tuple(o.edges or ())) for o in group}) != 1 or not verdict:
            wrong += len(group)
        else:
            verified += len(group)
    how = f"enumeration ({VERIFY_SECONDS:g} s budget)"
    return failed + wrong, verified + wrong, how


def timed_run(st, args):
    import workloads

    loop = workloads.closed_loop(st, args.seconds)
    lat_ms = query_latencies_ms(loop.outcomes)
    value, pct, beyond = tail(lat_ms)
    metrics = {
        "query_p50_ms": statistics.median(lat_ms),
        "query_tail_ms": value,
        "queries_per_s": len(loop.outcomes) / loop.wall_s,
        "setup_s": st.setup_s,
    }
    notes = [
        f"queries={len(loop.outcomes)} distinct={len(lat_ms)}"
        f" requests_wall_s={loop.wall_s:.3f}",
        f"query_tail_ms is p{pct:.2f} ({beyond} queries beyond, n={len(lat_ms)})",
        "peak_rss_mb is this process only; the Spark JVM and Python workers "
        "are excluded",
    ]
    return loop.outcomes, metrics, notes


def traced_run(st, args, root):
    """Per-layer metrics from the fixed trace set, plain then traced."""
    import tracing
    import workloads
    from repro.experiments import runner
    from spark_env import spark_settings

    sections = [st]
    if st.spec.engine == "runner":
        # The dataflow phases are measured here, in the same Spark session.
        sections.append(
            workloads.set_up(
                workloads.SPECS["dataflow_query"], args.seed, root, st.spark
            )
        )
    metrics = {k: v for k, v in st.layer_s.items() if k != "edges_df_s"}
    metrics["spark.start_s"] = st.spark.start_s if st.spark else 0.0
    # Every per-layer metric is reported; layers a workload never enters read 0.
    empty = tracing.Tracer()
    metrics.update(tracing.kernel_metrics(empty, []))
    metrics.update(tracing.dataflow_metrics(empty, None, []))
    metrics.update(runner_metrics(None, [], 0))
    outcomes, plain_s, traced_s = [], 0.0, 0.0
    spans = tracing.Tracer()
    for sec in sections:
        n = sec.spec.trace_queries
        plain = workloads.fixed_loop(sec, n)
        tracer = tracing.Tracer()
        spark = sec.spark.spark if sec.spark else None
        if sec.spec.engine == "kernel":
            tracing.trace_kernel(tracer)
        elif sec.spec.engine == "dataflow":
            tracing.trace_dataflow(tracer, spark)
        else:
            tracing.tag_jobs(
                tracer, spark, runner, "run_workload_spark", "experiments.runner"
            )
        try:
            traced = workloads.fixed_loop(sec, n, tracer)
        finally:
            tracer.restore()
        qids = sorted({o.idx for o in traced.outcomes})
        if sec.spec.engine == "kernel":
            metrics.update(tracing.kernel_metrics(tracer, qids))
        elif sec.spec.engine == "dataflow":
            metrics.update(tracing.dataflow_metrics(tracer, spark, qids))
        else:
            metrics.update(
                runner_metrics(spark, traced.requests, sec.spark.cores, qids[0])
            )
        outcomes += [
            (sec, o) for o in sec.warmup.outcomes + plain.outcomes + traced.outcomes
        ]
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        spans.spans += tracer.spans
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    out_dir = os.path.join(root, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{st.spec.name}-seed{args.seed}.jsonl")
    spans.write(path)
    notes = [f"spans written to {os.path.relpath(path, root)}"]
    for sec in sections[1:]:
        notes.append(
            f"{sec.spec.name} section settings "
            + json.dumps(spark_settings(sec.spark.spark), sort_keys=True)
        )
    return outcomes, metrics, notes


def runner_metrics(spark, requests, cores, qid=None):
    from spark_env import group_counts

    wall = sum(r["wall_s"] for r in requests)
    in_task = sum(r["in_task_s"] for r in requests)
    counts = (
        group_counts(spark, f"experiments.runner#{qid}")
        if spark is not None
        else {"jobs": 0, "tasks": 0}
    )
    return {
        "experiments.runner.wall_s": wall,
        "experiments.runner.in_task_s": in_task,
        "experiments.runner.parallel_eff": in_task / (wall * cores) if wall else 0.0,
        "experiments.runner.tasks": counts["tasks"],
        "experiments.runner.jobs": counts["jobs"],
    }


def run_one(args) -> int:
    if not os.path.exists(os.path.join(SRC, "repro", "core", "vug.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import answers
    import spark_env
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    st = workloads.set_up(spec, args.seed, ROOT)
    try:
        settings = spark_env.base_settings(ROOT)
        if st.spark is not None:
            settings.update(spark_env.spark_settings(st.spark.spark))
        if args.trace:
            pairs, metrics, notes = traced_run(st, args, ROOT)
        else:
            outcomes, metrics, notes = timed_run(st, args)
            pairs = [(st, o) for o in st.warmup.outcomes + outcomes]
        failed = checked = 0
        how = []
        for sec in {id(s): s for s, _ in pairs}.values():
            f, v, h = check(sec, [o for s, o in pairs if s is sec], answers, args.seed)
            failed, checked = failed + f, checked + v
            how.append(f"{sec.spec.name}: {h}")
    finally:
        if st.spark is not None:
            spark_env.stop_spark(st.spark.spark)
        shutil.rmtree(os.path.join(ROOT, ".perfbench", "tmp"), ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    errors = [o.error for _, o in pairs if o.error is not None]
    if errors:
        print(f"{len(errors)} queries raised; the first:\n{errors[0]}", file=sys.stderr)
    attempted = len(pairs)
    print(f"# workload {spec.name} seed={args.seed} trace={args.trace}")
    print(f"# settings {json.dumps(settings, sort_keys=True)}")
    for line in notes:
        print(f"# {line}")
    print(
        f"# answers checked by {'; '.join(how)}: checked {checked}/{attempted}"
        f" ({100.0 * checked / attempted:.1f} %), failed {failed}"
    )
    print(f"failed_frac = {failed / attempted:.6g} (of {attempted} attempted)")
    units = END_TO_END_UNITS if not args.trace else {}
    for k in sorted(metrics):
        print(f"{k} = {metrics[k]:.6g} {units.get(k, '')}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units.get(k) or layer_unit(k)}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms", "ms_p50")):
        return "ms"
    if name.endswith(("_s", ".s", "s_p50")):
        return "s"
    if name.endswith(("ratio", "_eff", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in TIMED:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
