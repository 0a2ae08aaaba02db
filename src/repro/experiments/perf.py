"""Harnesses for the figure experiments' quoted numbers (Exp-1..Exp-7).

Figures themselves are out of scope; each function reproduces the rows /
headline numbers the paper's text reports, in table form.  Totals follow
the paper's convention: the summed per-query time of an algorithm over the
workload, with INF when any query exhausts the enumeration budget (the
stand-in for the 12-hour cutoff, DESIGN.md §3).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.runner import make_workload, run_workload
from repro.graph.datasets import DATASET_KEYS, DATASETS

EXP1_COLUMNS = ["key", "theta", "n_queries", "EPdtTSG_s", "EPesTSG_s",
                "EPtgTSG_s", "VUG_s", "paper_note"]
EXP2_COLUMNS = ["key", "theta", "EPdtTSG_s", "EPesTSG_s", "EPtgTSG_s", "VUG_s"]
EXP3_COLUMNS = ["key", "algo", "min_peak_kb", "max_peak_kb", "spread",
                "inf_queries"]
EXP4_COLUMNS = ["key", "quick_s", "tight_s", "eev_s", "total_s", "eev_pct"]
EXP5_COLUMNS = ["key", "theta", "tgTSG_s", "QuickUBG_s", "speedup",
                "quick_ratio", "tight_ratio"]
EXP6_COLUMNS = ["key", "theta", "enum_on_gt_s", "eev_s", "speedup", "enum_inf"]
EXP7_COLUMNS = ["key", "theta", "tspg_edges", "tspg_paths", "paths_capped"]


def _total(metrics: pd.DataFrame, algo: str, col: str = "total_s"):
    """Summed time for one algorithm, or ``"INF(k/n)"`` when k of the n
    queries exhausted the enumeration budget (the paper's 12-hour cutoff)."""
    sub = metrics[metrics["algo"] == algo]
    if sub.empty:
        return None
    n_inf = int(sub["inf"].sum())
    if n_inf > 0:
        return f"INF({n_inf}/{len(sub)})"
    return float(sub[col].sum())


def exp1_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    **caps,
) -> List[dict]:
    """Exp-1 (Fig 5): total response time of the 4 algorithms per dataset."""
    algos = ["EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"]
    rows = []
    for key in keys or DATASET_KEYS:
        spec = DATASETS[key]
        pdf, adj, queries = make_workload(
            key, scale=scale, n_queries=n_queries, theta=None, seed=seed
        )
        m = run_workload(spark, pdf, adj, queries, algos, **caps)
        rows.append(
            {
                "key": key,
                "theta": spec.theta,
                "n_queries": len(queries),
                "EPdtTSG_s": _total(m, "EPdtTSG"),
                "EPesTSG_s": _total(m, "EPesTSG"),
                "EPtgTSG_s": _total(m, "EPtgTSG"),
                "VUG_s": _total(m, "VUG"),
                "paper_note": (
                    "paper: baselines INF, VUG 78s" if key == "D8"
                    else "paper: baselines INF, VUG 208s" if key == "D9"
                    else ""
                ),
            }
        )
    return rows


def exp2_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 15,
    seed: int = 0,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    **caps,
) -> List[dict]:
    """Exp-2 (Fig 6/14): total response time varying θ (default D1, D9)."""
    algos = ["EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"]
    if sweeps is None:
        sweeps = {"D1": [6, 8, 10, 12], "D9": [16, 18, 20, 22, 24]}
    rows = []
    for key, thetas in sweeps.items():
        for theta in thetas:
            pdf, adj, queries = make_workload(
                key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
            )
            m = run_workload(spark, pdf, adj, queries, algos, **caps)
            rows.append(
                {
                    "key": key,
                    "theta": theta,
                    "EPdtTSG_s": _total(m, "EPdtTSG"),
                    "EPesTSG_s": _total(m, "EPesTSG"),
                    "EPtgTSG_s": _total(m, "EPtgTSG"),
                    "VUG_s": _total(m, "VUG"),
                }
            )
    return rows


def exp3_rows(
    *,
    scale="bench",
    n_queries: int = 10,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    algos: Sequence[str] = ("VUG", "EPdtTSG"),
    max_expansions: int = 200_000,
) -> List[dict]:
    """Exp-3 (Fig 7): per-query peak memory, max and min over the workload.

    Measured with :mod:`tracemalloc` in-process (hence no Spark variant —
    allocation tracking must wrap the exact kernel run).  The paper's shape:
    VUG's peak is stable across queries (linear in n+m), while enumeration
    baselines swing exponentially between their min and max query.
    """
    import tracemalloc

    from repro.baselines.ep import ep_run
    from repro.core.vug import vug_local

    rows = []
    for key in keys or DATASET_KEYS:
        pdf, adj, queries = make_workload(
            key, scale=scale, n_queries=n_queries, theta=None, seed=seed
        )
        for algo in algos:
            peaks, n_inf = [], 0
            for q in queries:
                tracemalloc.start()
                try:
                    if algo == "VUG":
                        vug_local(adj, q)
                    else:
                        res = ep_run(algo, adj, q, max_expansions=max_expansions)
                        n_inf += int(res.inf)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            rows.append(
                {
                    "key": key,
                    "algo": algo,
                    "min_peak_kb": min(peaks) / 1024.0,
                    "max_peak_kb": max(peaks) / 1024.0,
                    "spread": max(peaks) / max(1, min(peaks)),
                    "inf_queries": n_inf,
                }
            )
    return rows


def exp4_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    **caps,
) -> List[dict]:
    """Exp-4 (Fig 8): per-phase VUG time (QuickUBG / TightUBG / EEV)."""
    rows = []
    for key in keys or DATASET_KEYS:
        pdf, adj, queries = make_workload(
            key, scale=scale, n_queries=n_queries, theta=None, seed=seed
        )
        m = run_workload(spark, pdf, adj, queries, ["VUG"], **caps)
        quick = float(m["quick_s"].sum())
        tight = float(m["tight_s"].sum())
        ev = float(m["eev_s"].sum())
        total = quick + tight + ev
        rows.append(
            {
                "key": key,
                "quick_s": quick,
                "tight_s": tight,
                "eev_s": ev,
                "total_s": total,
                "eev_pct": 100.0 * ev / total if total else float("nan"),
            }
        )
    return rows


def exp5_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    thetas: Optional[Dict[str, Sequence[int]]] = None,
    **caps,
) -> List[dict]:
    """Exp-5 (Fig 9/10): tgTSG vs QuickUBG time; UB ratio under θ.

    With ``thetas`` given (e.g. ``{"D9": [16, 20, 24]}``) produces the
    θ-sweep rows of Fig 10/15; otherwise one default-θ row per dataset.
    """
    plan = (
        [(k, None) for k in (keys or DATASET_KEYS)]
        if thetas is None
        else [(k, th) for k, ths in thetas.items() for th in ths]
    )
    rows = []
    for key, theta in plan:
        spec = DATASETS[key]
        pdf, adj, queries = make_workload(
            key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
        )
        m = run_workload(spark, pdf, adj, queries, ["RATIOS"], **caps)
        tg_s = float(m["tg_s"].sum())
        quick_s = float(m["quick_s"].sum())
        ok = m["n_gq"] > 0
        quick_ratio = float(
            (m.loc[ok, "n_tspg"] / m.loc[ok, "n_gq"] * 100).mean()
        )
        okt = m["n_gt"] > 0
        tight_ratio = float(
            (m.loc[okt, "n_tspg"] / m.loc[okt, "n_gt"] * 100).mean()
        )
        rows.append(
            {
                "key": key,
                "theta": theta or spec.theta,
                "tgTSG_s": tg_s,
                "QuickUBG_s": quick_s,
                "speedup": tg_s / quick_s if quick_s else float("nan"),
                "quick_ratio": quick_ratio,
                "tight_ratio": tight_ratio,
            }
        )
    return rows


def exp6_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    **caps,
) -> List[dict]:
    """Exp-6 (Fig 11/16): EEV vs path enumeration, both on Gt."""
    if sweeps is None:
        sweeps = {"D1": [DATASETS["D1"].theta], "D8": [8, 10, 12]}
    rows = []
    for key, thetas in sweeps.items():
        for theta in thetas:
            pdf, adj, queries = make_workload(
                key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
            )
            m = run_workload(spark, pdf, adj, queries, ["EXP6"], **caps)
            enum_s = float(m["enum_s"].sum())
            eev_s = float(m["eev_s"].sum())
            rows.append(
                {
                    "key": key,
                    "theta": theta,
                    "enum_on_gt_s": enum_s,
                    "eev_s": eev_s,
                    "speedup": enum_s / eev_s if eev_s else float("nan"),
                    "enum_inf": int(m["inf"].sum()),
                }
            )
    return rows


def exp7_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    **caps,
) -> List[dict]:
    """Exp-7 (Fig 12/17): #edges vs #temporal simple paths in the tspG."""
    if sweeps is None:
        sweeps = {"D1": [6, 8, 10], "D8": [8, 10, 12]}
    rows = []
    for key, thetas in sweeps.items():
        for theta in thetas:
            pdf, adj, queries = make_workload(
                key, scale=scale, n_queries=n_queries, theta=theta, seed=seed
            )
            m = run_workload(spark, pdf, adj, queries, ["COUNT"], **caps)
            rows.append(
                {
                    "key": key,
                    "theta": theta,
                    "tspg_edges": int(m["n_tspg"].sum()),
                    "tspg_paths": int(m["n_paths"].sum()),
                    "paths_capped": int(m["paths_capped"].sum()),
                }
            )
    return rows
