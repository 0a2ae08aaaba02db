"""Per-query metric collection and workload runners.

``query_metrics`` runs one algorithm for one query on a local adjacency and
returns a flat metric dict (wide schema shared by all algorithms, unused
fields NaN/-1).  ``run_workload_local`` loops in-process;
``run_workload_spark`` repartitions the (query × algorithm) grid into
``max(2, defaultParallelism)`` tasks and runs them with ``mapInPandas``,
broadcasting the edge list and measuring phase times inside the tasks — the
paper's "total query time over 1000 queries" is then the sum of in-task
times.  A repartition by number is never coalesced by adaptive execution, so
the tasks really run in parallel.  Each task freezes the garbage collector's
view of its heap while it times queries (see ``run_workload_spark``).
``make_workload`` builds one experiment cell's dataset and queries, and
``cells`` runs the grid of every cell of a (dataset, θ) sweep on whichever
of the two runners is given.
"""
from __future__ import annotations

import gc
import math
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.enumeration import (
    EnumerationBudgetExceeded,
    count_paths,
    tspg_by_enumeration,
)
from repro.baselines.ep import EP_VARIANTS, ep_run
from repro.baselines.reductions import dt_tsg, es_tsg, tg_tsg
from repro.core.vug import VugLocalResult, vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASET_KEYS, DATASETS, make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries, queries_to_pdf

METRIC_SPARK_SCHEMA = (
    "qid long, algo string, inf long, total_s double, quick_s double,"
    " tight_s double, eev_s double, ub_s double, enum_s double, tg_s double,"
    " n_ub long, n_gq long, n_gt long, n_tspg long, n_paths long,"
    " paths_capped long, n_dt long, n_es long, n_tg long"
)

GRID_SPARK_SCHEMA = "qid long, s long, t long, tb long, te long, algo string"

_METRIC_DEFAULTS: Dict[str, object] = {
    "inf": 0,
    "total_s": math.nan,
    "quick_s": math.nan,
    "tight_s": math.nan,
    "eev_s": math.nan,
    "ub_s": math.nan,
    "enum_s": math.nan,
    "tg_s": math.nan,
    "n_ub": -1,
    "n_gq": -1,
    "n_gt": -1,
    "n_tspg": -1,
    "n_paths": -1,
    "paths_capped": 0,
    "n_dt": -1,
    "n_es": -1,
    "n_tg": -1,
}

# Enumeration budgets standing in for the paper's 12-hour INF cutoff
# (~1-2 s of Python DFS per capped query at bench scale).
DEFAULT_MAX_EXPANSIONS = 500_000
DEFAULT_MAX_PATHS = 500_000


def _vug_fields(res: VugLocalResult) -> Dict[str, object]:
    """The metric fields of one ``vug_local`` run: phase times and sizes."""
    return dict(
        quick_s=res.timings["quick"],
        tight_s=res.timings["tight"],
        eev_s=res.timings["eev"],
        total_s=sum(res.timings.values()),
        n_gq=res.sizes["gq"],
        n_gt=res.sizes["gt"],
        n_tspg=res.sizes["tspg"],
    )


def query_metrics(
    adj: TemporalAdjacency,
    q: Query,
    algo: str,
    *,
    max_expansions: int = DEFAULT_MAX_EXPANSIONS,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> Dict[str, object]:
    """Run ``algo`` for one query; see module docstring for the schema."""
    row = dict(_METRIC_DEFAULTS)
    row["algo"] = algo
    if algo == "VUG":
        row.update(_vug_fields(vug_local(adj, q)))
    elif algo in EP_VARIANTS:
        res = ep_run(algo, adj, q, max_expansions=max_expansions)
        row.update(
            inf=int(res.inf),
            ub_s=res.ub_seconds,
            enum_s=res.enum_seconds,
            total_s=res.seconds,
            n_ub=res.n_ub,
            n_tspg=len(res.edges),
            n_paths=res.n_paths,
        )
    elif algo == "RATIOS":
        # Sizes of the five upper-bound graphs plus the exact tspG; also
        # times tgTSG against VUG's QuickUBG phase (Exp-5).
        t0 = time.perf_counter()
        tg = tg_tsg(adj, q.s, q.t, q.tb, q.te)
        row["tg_s"] = time.perf_counter() - t0
        row.update(
            _vug_fields(vug_local(adj, q)),
            n_dt=dt_tsg(adj, q.tb, q.te).m,
            n_es=es_tsg(adj, q.s, q.t, q.tb, q.te).m,
            n_tg=tg.m,
        )
    elif algo == "EXP6":
        # EEV vs enumeration, both applied to the same Gt (paper Exp-6).
        res = vug_local(adj, q)
        row.update(_vug_fields(res))
        t0 = time.perf_counter()
        try:
            tspg_by_enumeration(
                res.gt, q.s, q.t, q.tb, q.te, max_expansions=max_expansions
            )
        except EnumerationBudgetExceeded:
            row["inf"] = 1
        row["enum_s"] = time.perf_counter() - t0
    elif algo == "COUNT":
        # tspG size and (capped) simple-path count (paper Exp-7), counted on
        # the tspG itself — every enumerated path lies inside it.
        res = vug_local(adj, q)
        n_paths, capped = count_paths(
            TemporalAdjacency(res.edges), q.s, q.t, q.tb, q.te,
            max_paths=max_paths,
        )
        row.update(
            _vug_fields(res), n_paths=n_paths, paths_capped=int(capped)
        )
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return row


def run_workload_local(
    adj: TemporalAdjacency,
    queries: Sequence[Query],
    algos: Sequence[str],
    **caps,
) -> pd.DataFrame:
    """Run the (query × algorithm) grid sequentially in-process."""
    rows = []
    for qid, q in enumerate(queries):
        for algo in algos:
            row = query_metrics(adj, q, algo, **caps)
            row["qid"] = qid
            rows.append(row)
    return pd.DataFrame(rows)


def run_workload_spark(
    spark: SparkSession,
    edges_pdf: pd.DataFrame,
    queries: Sequence[Query],
    algos: Sequence[str],
    **caps,
) -> pd.DataFrame:
    """Distribute the (query × algorithm) grid across the cluster.

    The grid is split round-robin into ``max(2, defaultParallelism)``
    tasks.  Each non-empty task rebuilds the adjacency once from the
    broadcast edge list, then runs its cells, so per-phase timings are
    measured in-task and summable like the paper's totals.
    """
    n_tasks = max(2, spark.sparkContext.defaultParallelism)
    qpdf = queries_to_pdf(list(queries))
    grid = qpdf.merge(pd.DataFrame({"algo": list(algos)}), how="cross")
    edges_bc = spark.sparkContext.broadcast(
        (
            edges_pdf["src"].to_numpy("int64"),
            edges_pdf["dst"].to_numpy("int64"),
            edges_pdf["ts"].to_numpy("int64"),
        )
    )
    columns = [f.split()[0] for f in METRIC_SPARK_SCHEMA.split(", ")]

    def run_part(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        cells = [rec for pdf in batches for rec in pdf.itertuples(index=False)]
        if not cells:
            return
        src, dst, ts = edges_bc.value
        adj = TemporalAdjacency(zip(src.tolist(), dst.tolist(), ts.tolist()))
        # Full collections skip frozen objects: no walk of this heap mid-query.
        gc.freeze()
        try:
            rows = []
            for rec in cells:
                q = Query(int(rec.s), int(rec.t), int(rec.tb), int(rec.te))
                row = query_metrics(adj, q, str(rec.algo), **caps)
                row["qid"] = int(rec.qid)
                rows.append(row)
        finally:
            gc.unfreeze()  # a reused worker's collector is left as it was
        yield pd.DataFrame(rows)[columns]

    sdf = spark.createDataFrame(grid, GRID_SPARK_SCHEMA)
    return (
        sdf.repartition(n_tasks)
        .mapInPandas(run_part, METRIC_SPARK_SCHEMA)
        .toPandas()
    )


def make_workload(
    key: str,
    *,
    scale,
    n_queries: int,
    theta: Optional[int] = None,
    seed: int = 0,
) -> Tuple[pd.DataFrame, TemporalAdjacency, List[Query]]:
    """One experiment cell's inputs: dataset ``key`` as edges and adjacency,
    and ``n_queries`` queries at ``theta`` (the dataset's own by default)."""
    pdf = make_dataset(key, scale=scale, seed=seed)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    queries = generate_queries(
        adj,
        theta=theta or DATASETS[key].theta,
        n_queries=n_queries,
        seed=seed + 17,
    )
    return pdf, adj, queries


Sweep = Mapping[str, Sequence[Optional[int]]]

# Every dataset at its own θ: the plan of TABLE II and Exp-1, 4 and 5.
DEFAULT_THETAS: Sweep = {key: [None] for key in DATASET_KEYS}


def cells(
    spark: Optional[SparkSession],
    sweeps: Sweep,
    algos: Sequence[str],
    *,
    keys: Optional[Sequence[str]] = None,
    scale,
    n_queries: int,
    seed: int = 0,
    **caps,
) -> Iterator[Tuple[str, int, int, pd.DataFrame]]:
    """Run the (query × algorithm) grid of each experiment cell.

    ``sweeps`` maps a dataset key to its window spans θ, ``None`` standing
    for the dataset's own.  ``keys`` restricts the sweep to those datasets,
    in that order; a key the sweep does not hold raises ``ValueError``.
    Yields ``(key, θ, number of queries, metrics)`` per cell; the grid runs
    on Spark when ``spark`` is given, in-process otherwise.
    """
    unknown = [key for key in keys or () if key not in sweeps]
    if unknown:
        raise ValueError(
            f"keys {unknown} are not in this sweep; it holds {list(sweeps)}"
        )
    for key in keys or sweeps:
        for theta in sweeps[key]:
            theta = DATASETS[key].theta if theta is None else theta
            pdf, adj, queries = make_workload(
                key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
            )
            if spark is not None:
                m = run_workload_spark(spark, pdf, queries, algos, **caps)
            else:
                m = run_workload_local(adj, queries, algos, **caps)
            yield key, theta, len(queries), m
