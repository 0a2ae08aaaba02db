"""VUG orchestration (paper Alg. 1): QuickUBG → TightUBG → EEV.

``vug_local`` is the exact per-query kernel with per-phase wall timings —
the unit of work that the evaluation harness parallelizes across queries.
``vug_dataflow`` is the per-query Spark pipeline (DataFrame in, tspG-edge
DataFrame out).  Spark does the one step that touches the whole graph: it
projects the edge DataFrame onto the query window, and the driver collects
that slice in one job.  The kernel's QuickUBG, TightUBG and EEV run on it
on the driver, and the tspG is lifted into a DataFrame once, at the end.
QuickUBG is one O(n+m) scan that the kernel does in milliseconds; as
Catalyst label rounds it takes up to θ Spark rounds and seconds per query.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from pyspark.sql import DataFrame, SparkSession

from repro.core.eev import eev
from repro.core.quick_ubg import quick_ubg, quick_ubg_window
from repro.core.tcv import tcv_from_source, tcv_to_target
from repro.core.tight_ubg import tight_ubg
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    Edge,
    edges_to_pdf,
    edges_to_spark,
    project_window_df,
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


# The dataflow's timestamp domain: int64 less two values at each end, where
# a Catalyst polarity fixpoint's sentinels τb − 1, τe + 1 and −τb + 1 fitted.
# The kernel needs no such margin.
TS_MIN, TS_MAX = -(2**63) + 2, 2**63 - 2


def _check_int64_window(tb: int, te: int) -> None:
    if min(tb, te) < TS_MIN or max(tb, te) > TS_MAX:
        raise ValueError(
            f"window [{tb}, {te}] leaves the dataflow's "
            f"timestamp domain [{TS_MIN}, {TS_MAX}]"
        )


def quick_ubg_dataflow(
    spark: SparkSession, edges: DataFrame, q: Query
) -> TemporalAdjacency:
    """QuickUBG on the collected window: Spark projects ``edges`` onto
    ``[τb, τe]`` and the driver collects the slice in one job, then runs
    the kernel's two-pass QuickUBG on it.  Returns the kernel's Gq.  A
    window outside ``[TS_MIN, TS_MAX]`` is refused before any job."""
    _check_int64_window(q.tb, q.te)
    window = spark_edges_to_list(project_window_df(edges, q.tb, q.te))
    return quick_ubg(TemporalAdjacency(window), q.s, q.t, q.tb, q.te)


def tight_ubg_dataflow(
    spark: SparkSession, gq: TemporalAdjacency, q: Query
) -> TemporalAdjacency:
    """TightUBG on the dataflow's Gq: the kernel's TCV sweeps + Lemma-9
    filter.  Returns the kernel's Gt."""
    return tight_ubg(gq, q.s, q.t)


def eev_df(
    spark: SparkSession,
    gt: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
) -> DataFrame:
    """The kernel's EEV on the driver's Gt, its tspG lifted into a
    DataFrame."""
    return edges_to_spark(spark, edges_to_pdf(eev(gt, s, t, tb, te)))


def vug_dataflow(
    spark: SparkSession, edges: DataFrame, q: Query
) -> DataFrame:
    """Full VUG pipeline: the window collected once, the kernel's QuickUBG,
    TightUBG and EEV on the driver, the tspG lifted once.  Returns the tspG
    edge DataFrame."""
    gq = quick_ubg_dataflow(spark, edges, q)
    gt = tight_ubg_dataflow(spark, gq, q)
    return eev_df(spark, gt, q.s, q.t, q.tb, q.te)
