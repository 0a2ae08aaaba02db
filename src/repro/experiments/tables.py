"""TABLE I and TABLE II harnesses.

Each function returns a list of row dicts pairing the paper's reported
value with our measured value; jobs print them and EXPERIMENTS.md records a
full run.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.paper_numbers import PAPER_TABLE2
from repro.experiments.runner import make_workload, run_workload
from repro.graph.datasets import DATASET_KEYS, DATASETS, make_dataset, measured_stats

TABLE1_COLUMNS = [
    "key", "name", "paper_n", "paper_m", "paper_T", "paper_d", "theta",
    "our_n", "our_m", "our_T", "our_d",
]

TABLE2_COLUMNS = [
    "key", "n_queries",
    "dt_ours", "dt_paper", "es_ours", "es_paper", "tg_ours", "tg_paper",
    "quick_ours", "quick_paper", "tight_ours", "tight_paper",
]


def table1_rows(
    *, scale="bench", seed: int = 0, keys: Optional[Sequence[str]] = None
) -> List[dict]:
    """TABLE I: paper dataset statistics vs our scaled synthetic stand-ins."""
    rows = []
    for key in keys or DATASET_KEYS:
        spec = DATASETS[key]
        stats = measured_stats(make_dataset(key, scale=scale, seed=seed))
        rows.append(
            {
                "key": key,
                "name": spec.name,
                "paper_n": spec.n,
                "paper_m": spec.m,
                "paper_T": spec.n_ts,
                "paper_d": spec.d,
                "theta": spec.theta,
                "our_n": stats["n"],
                "our_m": stats["m"],
                "our_T": stats["n_ts"],
                "our_d": stats["d"],
            }
        )
    return rows


def _ratio(metrics: pd.DataFrame, ub_col: str) -> float:
    """Average upper-bound ratio % over queries (paper TABLE II metric)."""
    ub = metrics[ub_col].astype(float)
    tspg = metrics["n_tspg"].astype(float)
    ok = (ub > 0) & (tspg >= 0)
    if not ok.any():
        return float("nan")
    return float((tspg[ok] / ub[ok] * 100.0).mean())


def table2_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    theta: Optional[int] = None,
) -> List[dict]:
    """TABLE II: average upper-bound ratio of the five reduction methods.

    Runs the RATIOS workload (all five upper-bound graphs + exact tspG per
    query) on each dataset; distributed across queries when ``spark`` is
    given, sequential otherwise.
    """
    rows = []
    for key in keys or DATASET_KEYS:
        pdf, adj, queries = make_workload(
            key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
        )
        metrics = run_workload(spark, pdf, adj, queries, ["RATIOS"])
        p = {m: PAPER_TABLE2[m].get(key) for m in PAPER_TABLE2}
        rows.append(
            {
                "key": key,
                "n_queries": len(queries),
                "dt_ours": _ratio(metrics, "n_dt"),
                "dt_paper": p["dtTSG"],
                "es_ours": _ratio(metrics, "n_es"),
                "es_paper": p["esTSG"],
                "tg_ours": _ratio(metrics, "n_tg"),
                "tg_paper": p["tgTSG"],
                "quick_ours": _ratio(metrics, "n_gq"),
                "quick_paper": p["QuickUBG"],
                "tight_ours": _ratio(metrics, "n_gt"),
                "tight_paper": p["TightUBG"],
            }
        )
    return rows
