"""Polarity time computation (paper Alg. 3) — local kernel and dataflow.

``A(u)`` (earliest arrival) is the smallest arrival timestamp over temporal
paths ``s → u`` within ``[τb, τe]`` that do not pass through ``t``;
``D(u)`` (latest departure) is the largest departure timestamp over temporal
paths ``u → t`` within the window that do not pass through ``s``.
Conventions: ``A(s) = τb - 1``, ``D(t) = τe + 1``; unreachable vertices are
absent from the returned maps (paper: +∞ / −∞).

Local kernel: the one-pass earliest-arrival scan (Wu et al., *Path
Problems in Temporal Graphs*, PVLDB 2014) over the window slice of the
adjacency's τ-sorted edge list — each in-window edge is read once, the
paper's O(n+m) bound.  ``D`` is ``−A`` of the time-reversed graph with
``s`` and ``t`` swapped: the same scan over the window slice of the
adjacency's stored Gᴿ stream (``rev_slice``).

Dataflow: a min-fixpoint label propagation expressed as iterative
DataFrame joins.  Arrival strictly increases along a path, so the fixpoint
is reached in at most θ rounds; we also stop as soon as a round changes
nothing.  ``D`` is again the fixpoint on the reversed edge DataFrame.  Both
refuse a window outside ``[TS_MIN, TS_MAX]`` with ``ValueError`` before any
Spark job: beyond it a sentinel literal overflows int64.
"""
from __future__ import annotations

from typing import Dict, Iterable, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge, project_window_df, reverse_df


def _earliest_arrival(
    stream: Iterable[Edge], s: int, t: int, start: int, blocked: frozenset
) -> Dict[int, int]:
    """One pass over τ-ascending edges: the first ``(u, v, τ)`` with
    ``A(u) < τ`` sets ``A(v)``.  Every path into ``u`` before τ uses earlier
    edges, so ``A(u)`` is final when such an edge is read; the strict
    ``<`` keeps equal-τ edges from chaining."""
    A: Dict[int, int] = {s: start}
    for u, v, ts in stream:
        if v not in A and v != t and v not in blocked and A.get(u, ts) < ts:
            A[v] = ts
    return A


def arrival_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Earliest arrival A(·) from ``s`` avoiding ``t`` — paper Alg. 3.

    Returns ``{u: A(u)}`` for every reachable ``u`` (including ``A(s)=τb-1``);
    ``t`` never receives a label (paths must not pass through it, Alg. 3 L6).
    ``blocked`` vertices are treated as absent (EEV uses this to bound
    reachability around a partially claimed path).
    """
    return _earliest_arrival(adj.slice(tb, te), s, t, tb - 1, blocked)


def departure_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Latest departure D(·) toward ``t`` avoiding ``s`` — Alg. 3 on Gᴿ.

    ``D(t) = τe+1``; same ``blocked`` semantics as :func:`arrival_times`.
    """
    A_rev = _earliest_arrival(adj.rev_slice(tb, te), t, s, -(te + 1), blocked)
    return {v: -a for v, a in A_rev.items()}


def polarity_times(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Both polarity maps (paper Alg. 3)."""
    return (
        arrival_times(adj, s, t, tb, te),
        departure_times(adj, s, t, tb, te),
    )


def _theta(tb: int, te: int) -> int:
    return te - tb + 1


# The widest window whose int64 sentinels fit: τb − 1 and τe + 1 on G,
# −τe − 1 and −τb + 1 on Gᴿ.
TS_MIN, TS_MAX = -(2**63) + 2, 2**63 - 2


def _check_int64_window(tb: int, te: int) -> None:
    if min(tb, te) < TS_MIN or max(tb, te) > TS_MAX:
        raise ValueError(
            f"window [{tb}, {te}] leaves the dataflow's "
            f"timestamp domain [{TS_MIN}, {TS_MAX}]"
        )


def arrival_times_df(
    spark: SparkSession, edges: DataFrame, s: int, t: int, tb: int, te: int
) -> DataFrame:
    """Distributed A(·): columns ``(v, arrival)``, one row per reachable vertex.

    Each round relaxes every edge whose source already has a label:
    ``A(v) ← min(A(v), min{τ : e(u,v,τ), A(u) < τ ≤ τe, u ≠ t, v ≠ t})``.
    A temporal path makes one strict timestamp step per hop, so θ rounds
    suffice; the loop exits early at the first unchanged round.
    """
    _check_int64_window(tb, te)
    win = edges.where(
        (F.col("ts") >= F.lit(int(tb))) & (F.col("ts") <= F.lit(int(te)))
    )
    win = win.where((F.col("src") != F.lit(int(t))) & (F.col("dst") != F.lit(int(t))))
    labels = spark.createDataFrame([(int(s), int(tb) - 1)], "v long, arrival long")
    labels = labels.localCheckpoint(eager=True)
    for _ in range(_theta(tb, te)):
        cand = (
            win.join(labels, win.src == labels.v)
            .where(F.col("ts") > F.col("arrival"))
            .groupBy(F.col("dst").alias("v"))
            .agg(F.min("ts").alias("cand"))
        )
        # A vertex changed when it is new or its candidate beats its label.
        merged = (
            labels.join(cand, "v", "full_outer")
            .select(
                "v",
                F.least(
                    F.coalesce("arrival", F.lit(int(te) + 1)),
                    F.coalesce("cand", F.lit(int(te) + 1)),
                ).alias("arrival"),
                F.coalesce(
                    F.col("cand") < F.col("arrival"), F.col("arrival").isNull()
                ).alias("_changed"),
            )
            .localCheckpoint(eager=True)
        )
        labels = merged.drop("_changed")
        if merged.where("_changed").isEmpty():
            break
    return labels


def departure_times_df(
    spark: SparkSession, edges: DataFrame, s: int, t: int, tb: int, te: int
) -> DataFrame:
    """Distributed D(·): columns ``(v, departure)`` — arrival on Gᴿ.

    Only in-window edges are reversed: negating ``τ = −2^63`` overflows.
    """
    _check_int64_window(tb, te)
    rev = reverse_df(project_window_df(edges, tb, te))
    arrival = arrival_times_df(spark, rev, t, s, -te, -tb)
    return arrival.select("v", (-F.col("arrival")).alias("departure"))
