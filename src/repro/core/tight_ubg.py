"""Tight upper-bound graph generation (paper Alg. 5, Lemmas 8–9).

An edge ``e(u,v,τ)`` of ``Gq`` survives into ``Gt`` iff

* ``u = s`` or ``v = t`` (Lemma 2 — such edges are certainly in the tspG), or
* ``TCV_τl(s,u) ∩ TCV_τr(v,t) = ∅`` where ``τl`` is the largest in-timestamp
  of ``u`` below τ and ``τr`` the smallest out-timestamp of ``v`` above τ
  (Lemma 8 shows this single intersection dominates all (τi, τj) choices).

Both lookups always succeed on a genuine ``Gq``: ``u``'s in-edge at
``A(u) < τ`` and ``v``'s out-edge at ``D(v) > τ`` are themselves in ``Gq``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import EDGE_COLUMNS
from repro.core.tcv import (
    TcvEntries,
    lookup_source,
    lookup_target,
    tcv_from_source,
    tcv_to_target,
)


def tight_ubg(
    gq: TemporalAdjacency,
    s: int,
    t: int,
    tcv_s: TcvEntries = None,
    tcv_t: TcvEntries = None,
) -> TemporalAdjacency:
    """Local TightUBG; computes the TCV tables if not supplied."""
    if tcv_s is None:
        tcv_s = tcv_from_source(gq, s, t)
    if tcv_t is None:
        tcv_t = tcv_to_target(gq, s, t)
    keep = []
    for e in gq.edges:
        u, v, ts = e
        if u == s or v == t:
            keep.append(e)
            continue
        su = lookup_source(tcv_s, s, u, ts - 1)
        tv = lookup_target(tcv_t, t, v, ts + 1)
        if su is None or tv is None:
            raise AssertionError(
                f"missing TCV entry for Gq edge ({u},{v},{ts}) — input not a Gq"
            )
        if not (su & tv):
            keep.append(e)
    return TemporalAdjacency(keep)


def tight_ubg_df(
    gq: DataFrame, tcv_s: DataFrame, tcv_t: DataFrame, s: int, t: int
) -> DataFrame:
    """Distributed TightUBG filter over Gq given distributed TCV tables."""
    special = gq.where(
        (F.col("src") == F.lit(int(s))) | (F.col("dst") == F.lit(int(t)))
    )
    inner = gq.where(
        (F.col("src") != F.lit(int(s))) & (F.col("dst") != F.lit(int(t)))
    )
    ls = tcv_s.select(
        F.col("u").alias("_su"), F.col("ts").alias("_sts"), F.col("vset").alias("_sv")
    )
    lt = tcv_t.select(
        F.col("u").alias("_tu"), F.col("ts").alias("_tts"), F.col("vset").alias("_tv")
    )
    with_s = (
        inner.join(ls, (inner.src == ls._su) & (ls._sts < inner.ts))
        .groupBy(*EDGE_COLUMNS)
        .agg(F.max_by("_sv", "_sts").alias("sset"))
    )
    with_t = (
        with_s.join(lt, (with_s.dst == lt._tu) & (lt._tts > with_s.ts))
        .groupBy(*EDGE_COLUMNS, "sset")
        .agg(F.min_by("_tv", "_tts").alias("tset"))
    )
    kept = with_t.where(
        F.size(F.array_intersect("sset", "tset")) == 0
    ).select(*EDGE_COLUMNS)
    return special.select(*EDGE_COLUMNS).unionByName(kept)
