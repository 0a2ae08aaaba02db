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

import numpy as np
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


I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def _is_int64(v) -> bool:
    """Whether ``v`` is an integer value in int64's range; ``bool`` is not."""
    if isinstance(v, np.generic):
        v = v.item()
    try:
        return bool(
            not isinstance(v, bool) and I64_MIN <= v <= I64_MAX and int(v) == v
        )
    except (TypeError, ValueError):
        return False


def _int64_column(pdf: pd.DataFrame, name: str) -> pd.Series:
    """Column ``name`` as int64.  Refuses a bool column and any value that
    the cast would change (2.5, NaN, 2^63, "3")."""
    col = pdf[name]
    if col.dtype == np.int64:
        return col
    if pd.api.types.is_bool_dtype(col.dtype):
        raise ValueError(f"edge column {name} is bool, not int64")
    for v in col.unique():
        if not _is_int64(v):
            raise ValueError(f"edge column {name} holds {v!r}, not an int64")
    return col.astype("int64")


def canonical_edges_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize an edge table: int64 dtypes, no duplicates, no self-loops,
    deterministic (src, dst, ts) order.  A value that is not an int64 is
    refused with ``ValueError``, never truncated."""
    out = pd.DataFrame({c: _int64_column(pdf, c) for c in EDGE_COLUMNS})
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
# bisects it per window.  Its timestamps are Python ints, so −(−2^63) does
# not overflow; no int64 column is ever reversed.


def reverse_edges(by_ts: Sequence[Edge]) -> List[Edge]:
    """Gᴿ of a τ-ascending edge list, again τ-ascending."""
    return [(v, u, -ts) for u, v, ts in reversed(by_ts)]

