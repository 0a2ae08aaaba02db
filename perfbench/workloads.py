"""The four workloads: set-up, warm-up and one closed loop with one client.

Every workload draws its queries from ``workload.generate_queries`` with the
run's seed.  Set-up generates a fixed pool of queries; the first query (or
batch) of the pool is the untimed warm-up, and the timed loop walks the
rest of the pool, wrapping around if a run outlasts it.  Nothing is
dropped, capped or timed out.
"""
from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import vug
from repro.experiments import runner
from repro.graph import schema
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.workload import generate_queries

import spark_env

# Set-up is repeated this many times per run; set-up metrics are medians.
SETUP_REPS = 3
# Queries per run_workload_spark call.
BATCH = 200
# D8 at 9.9 k edges.  At bench scale (40 k) D8 latencies are spread so
# flat around their median that a 20 s run's p50 moves by ~25 % from seed
# to seed; at this scale a run holds ~800 queries and every phase, EEV's
# escalation path included, still works (WORKLOADS.md).
DENSE_SCALE = 0.0003


@dataclass(frozen=True)
class Spec:
    name: str
    dataset: str
    scale: object  # a scale tier or an explicit scale factor
    engine: str  # "kernel", "dataflow" or "runner"
    pool: int  # queries generated at set-up
    trace_queries: int  # fixed query count of a traced run

    @property
    def theta(self) -> int:
        return DATASETS[self.dataset].theta

    @property
    def unit(self) -> int:
        """Queries per request: one, or one runner batch."""
        return BATCH if self.engine == "runner" else 1


# Why each workload exists: BENCHMARK.json and WORKLOADS.md.
SPECS: Dict[str, Spec] = {
    s.name: s
    for s in [
        Spec("kernel_sparse", "D2", "bench", "kernel", pool=300, trace_queries=200),
        Spec("kernel_dense", "D8", DENSE_SCALE, "kernel", pool=1200, trace_queries=100),
        Spec("dataflow_query", "D8", "test", "dataflow", pool=6, trace_queries=1),
        Spec(
            "runner_batch", "D7", "bench", "runner", pool=6 * BATCH,
            trace_queries=BATCH,
        ),
    ]
}


@dataclass
class Setup:
    spec: Spec
    pdf: object
    adj: TemporalAdjacency
    queries: list
    layer_s: Dict[str, float]  # set-up layer medians
    spark: Optional[spark_env.SparkRun] = None
    edges_df: object = None
    warmup: Optional["LoopResult"] = None
    warmup_s: float = 0.0

    @property
    def setup_s(self) -> float:
        data = sum(
            self.layer_s[k]
            for k in (
                "graph.datasets.make_dataset_s",
                "graph.adjacency.build_s",
                "workload.generate_queries_s",
            )
        )
        start = self.spark.start_s if self.spark else 0.0
        return data + start + self.layer_s.get("edges_df_s", 0.0) + self.warmup_s


@dataclass
class Outcome:
    """One query's answer; ``edges`` is None when only its size is known."""

    idx: int  # position in the query pool
    latency_s: float
    size: int = -1
    edges: Optional[list] = None
    error: Optional[str] = None


@dataclass
class LoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    wall_s: float = 0.0  # client-side wall over all requests
    requests: List[dict] = field(default_factory=list)  # runner batches


def set_up(
    spec: Spec, seed: int, root: str, spark: Optional[spark_env.SparkRun] = None
) -> Setup:
    """Build the inputs ``SETUP_REPS`` times, start Spark (unless ``spark``
    is given) and run one untimed warm-up request."""
    times: Dict[str, List[float]] = {}
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pdf = make_dataset(spec.dataset, scale=spec.scale, seed=0)
        t1 = time.perf_counter()
        adj = TemporalAdjacency(schema.pdf_to_edge_list(pdf))
        t2 = time.perf_counter()
        queries = generate_queries(
            adj, theta=spec.theta, n_queries=spec.pool, seed=seed
        )
        t3 = time.perf_counter()
        for k, v in (
            ("graph.datasets.make_dataset_s", t1 - t0),
            ("graph.adjacency.build_s", t2 - t1),
            ("workload.generate_queries_s", t3 - t2),
        ):
            times.setdefault(k, []).append(v)
    layer_s = {k: statistics.median(v) for k, v in times.items()}
    st = Setup(spec, pdf, adj, queries, layer_s, spark)
    try:
        _start(st, root)
    except BaseException:
        if st.spark is not None and spark is None:
            spark_env.stop_spark(st.spark.spark)
        raise
    return st


def _start(st: Setup, root: str) -> None:
    """Start Spark if the workload needs it and none was given, then warm up."""
    spec, spark = st.spec, st.spark
    if spec.engine == "dataflow":
        if spark is None:
            st.spark = spark_env.start_spark(
                root, spark_env.DATAFLOW_SHUFFLE_PARTITIONS
            )
        st.spark.spark.conf.set(
            "spark.sql.shuffle.partitions", spark_env.DATAFLOW_SHUFFLE_PARTITIONS
        )
        t0 = time.perf_counter()
        st.edges_df = schema.edges_to_spark(st.spark.spark, st.pdf).coalesce(1).cache()
        st.edges_df.count()
        st.layer_s["edges_df_s"] = time.perf_counter() - t0
    elif spec.engine == "runner" and spark is None:
        st.spark = spark_env.start_spark(root, spark_env.RUNNER_SHUFFLE_PARTITIONS)
    t0 = time.perf_counter()
    st.warmup = run_request(st, 0)
    st.warmup_s = time.perf_counter() - t0


def run_request(st: Setup, start: int) -> LoopResult:
    """One client request: a query, or a runner batch, from pool index
    ``start`` (wrapping around the pool)."""
    spec, pool = st.spec, st.queries
    out = LoopResult()
    if spec.engine == "runner":
        idx = [(start + i) % len(pool) for i in range(BATCH)]
        t0 = time.perf_counter()
        try:
            m = runner.run_workload_spark(
                st.spark.spark, st.pdf, [pool[i] for i in idx], ["VUG"]
            )
        except Exception:  # a failed batch fails each of its queries
            out.wall_s = time.perf_counter() - t0
            err = traceback.format_exc()
            out.outcomes = [Outcome(i, out.wall_s, error=err) for i in idx]
            return out
        out.wall_s = time.perf_counter() - t0
        by_qid = m.set_index("qid")
        for qid, i in enumerate(idx):
            row = by_qid.loc[qid]
            out.outcomes.append(
                Outcome(i, float(row["total_s"]), size=int(row["n_tspg"]))
            )
        in_task_s = float(m["total_s"].sum())
        out.requests.append({"wall_s": out.wall_s, "in_task_s": in_task_s})
        return out
    i = start % len(pool)
    q = pool[i]
    t0 = time.perf_counter()
    try:
        if spec.engine == "kernel":
            edges = vug.vug_local(st.adj, q).edges
        else:
            edges = schema.spark_edges_to_list(
                vug.vug_dataflow(st.spark.spark, st.edges_df, q)
            )
    except Exception:  # a failed query is counted, not fatal
        out.wall_s = time.perf_counter() - t0
        out.outcomes.append(Outcome(i, out.wall_s, error=traceback.format_exc()))
        return out
    out.wall_s = time.perf_counter() - t0
    out.outcomes.append(Outcome(i, out.wall_s, len(edges), edges))
    return out


def closed_loop(st: Setup, seconds: float) -> LoopResult:
    """Send requests back to back, starting after the warm-up, until
    ``seconds`` have elapsed (at least one request)."""
    unit = st.spec.unit
    total = LoopResult()
    t_end = time.perf_counter() + seconds
    start = unit
    while True:
        r = run_request(st, start)
        total.outcomes += r.outcomes
        total.requests += r.requests
        total.wall_s += r.wall_s
        start += unit
        if time.perf_counter() >= t_end:
            return total


def fixed_loop(st: Setup, n_queries: int, tracer=None) -> LoopResult:
    """The first ``n_queries`` after the warm-up (traced runs).  Spans are
    tagged with the pool index of the request's first query."""
    unit = st.spec.unit
    total = LoopResult()
    for start in range(unit, unit + n_queries, unit):
        if tracer is not None:
            tracer.qid = start % len(st.queries)
        r = run_request(st, start)
        total.outcomes += r.outcomes
        total.requests += r.requests
        total.wall_s += r.wall_s
    return total
