"""Canonical temporal edge representation.

A directed temporal graph is a set of edges ``e(u, v, τ)``.  Everywhere in
this repo an edge table has exactly three int64 columns:

    src : source vertex id
    dst : destination vertex id
    ts  : integer interaction timestamp

Edges are a *set*: duplicate ``(src, dst, ts)`` rows are meaningless (the
paper's model has no parallel identical edges) and are dropped at ingest.
Local kernels operate on a list of ``(src, dst, ts)`` int tuples; Spark
dataflow operates on a DataFrame with this schema.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

Edge = Tuple[int, int, int]

EDGE_COLUMNS = ["src", "dst", "ts"]

EDGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("dst", LongType(), False),
        StructField("ts", LongType(), False),
    ]
)


def canonical_edges_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize an edge table: int64 dtypes, no duplicates, no self-loops,
    deterministic (src, dst, ts) order."""
    out = pdf[EDGE_COLUMNS].astype("int64")
    out = out[out["src"] != out["dst"]]
    out = out.drop_duplicates()
    return out.sort_values(EDGE_COLUMNS).reset_index(drop=True)


def edges_to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Lift a canonical pandas edge table into a Spark DataFrame."""
    return spark.createDataFrame(canonical_edges_pdf(pdf), schema=EDGE_SCHEMA)


def edges_to_pdf(edges: Iterable[Edge]) -> pd.DataFrame:
    """Materialize a kernel edge list as a canonical pandas edge table."""
    rows = list(edges)
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in EDGE_COLUMNS})
    return canonical_edges_pdf(pd.DataFrame(rows, columns=EDGE_COLUMNS))


def pdf_to_edge_list(pdf: pd.DataFrame) -> List[Edge]:
    """Kernel-side view of an edge table as python int tuples."""
    return list(
        zip(
            pdf["src"].astype("int64").tolist(),
            pdf["dst"].astype("int64").tolist(),
            pdf["ts"].astype("int64").tolist(),
        )
    )


def spark_edges_to_list(df: DataFrame) -> List[Edge]:
    """Collect a Spark edge DataFrame into a sorted kernel edge list."""
    pdf = df.select(*EDGE_COLUMNS).toPandas()
    return pdf_to_edge_list(canonical_edges_pdf(pdf))


def project_window_df(edges: DataFrame, tb: int, te: int) -> DataFrame:
    """Projected graph of ``edges`` within ``[tb, te]`` (dtTSG, Sec. III-A)."""
    return edges.where((F.col("ts") >= F.lit(int(tb))) & (F.col("ts") <= F.lit(int(te))))


def project_window(edges: Iterable[Edge], tb: int, te: int) -> List[Edge]:
    """Kernel-side interval projection (dtTSG)."""
    return [e for e in edges if tb <= e[2] <= te]


# Time reversal maps G to Gᴿ = {(v, u, −τ)}.  A temporal path s → t in G
# within [τb, τe] is a path t → s in Gᴿ within [−τe, −τb], so every
# backward phase (latest departure, TCV toward t) is its forward twin run
# on Gᴿ with s and t swapped and τ negated back.  The kernel's
# TemporalAdjacency stores Gᴿ of its edge stream once (``rev_by_ts``) and
# bisects it per window.  On the int64 dataflow columns −(−2^63)
# overflows, so the dataflow reverses only in-window edges, and its window
# sentinels bound the query interval (:data:`repro.core.polarity.TS_MIN`,
# :data:`~repro.core.polarity.TS_MAX`).


def reverse_edges(by_ts: Sequence[Edge]) -> List[Edge]:
    """Gᴿ of a τ-ascending edge list, again τ-ascending."""
    return [(v, u, -ts) for u, v, ts in reversed(by_ts)]


def reverse_df(edges: DataFrame) -> DataFrame:
    """Gᴿ of an edge DataFrame: ``dst → src, src → dst, −ts``."""
    return edges.select(
        F.col("dst").alias("src"),
        F.col("src").alias("dst"),
        (-F.col("ts")).alias("ts"),
    )
