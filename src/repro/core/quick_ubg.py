"""Quick upper-bound graph generation (paper Alg. 2).

Keep edge ``e(u, v, τ)`` iff ``A(u) < τ < D(v)`` (Lemma 1): the edge lies on
at least one *temporal* (not necessarily simple) path from ``s`` to ``t``
within ``[τb, τe]``.  With the conventions ``A(s)=τb-1`` and ``D(t)=τe+1``
this uniformly covers all four cases of Observation 1.  Vertices missing
from A/D are unreachable (±∞ in the paper) and their edges drop out — in the
dataflow version simply because the inner joins find no label row.
"""
from __future__ import annotations

from typing import Dict, Iterable, List

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import EDGE_COLUMNS, Edge
from repro.core.polarity import polarity_times


def quick_ubg_edges(
    edges: Iterable[Edge], A: Dict[int, int], D: Dict[int, int]
) -> List[Edge]:
    """Filter an edge list by Lemma 1 given precomputed polarity maps.

    Kept edges are the input's own tuples, in input order.  An unlabeled
    endpoint defaults to τ, which fails the strict test.
    """
    out = []
    for e in edges:
        u, v, ts = e
        if A.get(u, ts) < ts < D.get(v, ts):
            out.append(e)
    return out


def quick_ubg(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> TemporalAdjacency:
    """QuickUBG for one query: polarity times (Alg. 3) + Lemma-1 filter.

    ``A(u) ≥ τb-1`` and ``D(v) ≤ τe+1``, so only the window slice can pass.
    """
    A, D = polarity_times(adj, s, t, tb, te)
    return TemporalAdjacency(quick_ubg_edges(adj.slice(tb, te), A, D))


def quick_ubg_df(
    edges: DataFrame, arrival: DataFrame, departure: DataFrame
) -> DataFrame:
    """Distributed Lemma-1 filter.

    ``arrival``/``departure`` are the outputs of
    :func:`repro.core.polarity.arrival_times_df` /
    :func:`~repro.core.polarity.departure_times_df`.  Inner joins drop edges
    whose endpoint has no label (unreachable), matching the ±∞ convention.
    """
    a = arrival.select(F.col("v").alias("_au"), F.col("arrival"))
    d = departure.select(F.col("v").alias("_dv"), F.col("departure"))
    return (
        edges.join(a, edges.src == a._au)
        .join(d, edges.dst == d._dv)
        .where((F.col("ts") > F.col("arrival")) & (F.col("ts") < F.col("departure")))
        .select(*EDGE_COLUMNS)
    )
