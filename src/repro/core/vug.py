"""VUG orchestration (paper Alg. 1): QuickUBG → TightUBG → EEV.

``vug_local`` is the exact per-query kernel with per-phase wall timings —
the unit of work that the evaluation harness parallelizes across queries.
``vug_dataflow`` is the per-query Spark pipeline (DataFrame in, tspG-edge
DataFrame out).  Catalyst runs only the phase that touches the whole graph:
the window projection, the polarity fixpoints and the Lemma-1 filter.  Gq
is small (paper TABLE II), so it is collected and TightUBG runs the kernel
on it; EEV pre-verifies the collected Gt with the kernel and searches its
escaped edges in parallel ``mapInPandas`` tasks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from pyspark.sql import DataFrame, SparkSession

from repro.core.eev import eev, eev_df
from repro.core.polarity import arrival_times_df, departure_times_df
from repro.core.quick_ubg import quick_ubg_df, quick_ubg_window
from repro.core.tcv import tcv_from_source, tcv_to_target
from repro.core.tight_ubg import tight_ubg
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    Edge,
    edges_to_pdf,
    edges_to_spark,
    spark_edges_to_list,
)
from repro.workload import Query

# Unused here since QuickUBG runs as ``quick_ubg_window``, but kept bound:
# ``perfbench/tracing.py`` wraps ``vug.polarity_times`` and
# ``vug.quick_ubg_edges`` by name, and a missing attribute fails
# ``perfbench/run.py --trace 1``.  Their spans read 0.
from repro.core.polarity import polarity_times  # noqa: E402,F401
from repro.core.quick_ubg import quick_ubg_edges  # noqa: E402,F401


@dataclass
class VugLocalResult:
    """Exact tspG for one query, the Gt it was verified on, plus phase
    timings and intermediate sizes."""

    edges: List[Edge]
    gt: TemporalAdjacency
    timings: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def vertices(self) -> Set[int]:
        vs: Set[int] = set()
        for u, v, _ in self.edges:
            vs.add(u)
            vs.add(v)
        return vs


def vug_local(adj: TemporalAdjacency, q: Query) -> VugLocalResult:
    """Run the full VUG kernel for one query on a local adjacency."""
    t0 = time.perf_counter()
    gq = TemporalAdjacency(
        quick_ubg_window(adj.slice(q.tb, q.te), q.s, q.t, q.tb, q.te)
    )
    t1 = time.perf_counter()
    tcv_s = tcv_from_source(gq, q.s, q.t)
    tcv_t = tcv_to_target(gq, q.s, q.t)
    gt = tight_ubg(gq, q.s, q.t, tcv_s, tcv_t)
    t2 = time.perf_counter()
    edges = eev(gt, q.s, q.t, q.tb, q.te)
    t3 = time.perf_counter()
    return VugLocalResult(
        edges=edges,
        gt=gt,
        timings={"quick": t1 - t0, "tight": t2 - t1, "eev": t3 - t2},
        sizes={"gq": gq.m, "gt": gt.m, "tspg": len(edges)},
    )


def quick_ubg_dataflow(
    spark: SparkSession, edges: DataFrame, q: Query
) -> DataFrame:
    """Distributed QuickUBG: polarity fixpoints + Lemma-1 edge filter."""
    arrival = arrival_times_df(spark, edges, q.s, q.t, q.tb, q.te)
    departure = departure_times_df(spark, edges, q.s, q.t, q.tb, q.te)
    return quick_ubg_df(edges, arrival, departure)


def tight_ubg_dataflow(
    spark: SparkSession, gq: DataFrame, q: Query
) -> DataFrame:
    """TightUBG on the collected Gq: the kernel's TCV sweeps + Lemma-9
    filter."""
    gt = tight_ubg(TemporalAdjacency(spark_edges_to_list(gq)), q.s, q.t)
    return edges_to_spark(spark, edges_to_pdf(gt.edges))


def vug_dataflow(
    spark: SparkSession, edges: DataFrame, q: Query
) -> DataFrame:
    """Full distributed VUG pipeline; returns the tspG edge DataFrame."""
    gq = quick_ubg_dataflow(spark, edges, q)
    gt = tight_ubg_dataflow(spark, gq, q)
    return eev_df(spark, gt, q.s, q.t, q.tb, q.te)
