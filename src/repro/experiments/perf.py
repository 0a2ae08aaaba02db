"""Harnesses for the figure experiments' quoted numbers (Exp-1..Exp-7).

Figures themselves are out of scope; each function reproduces the rows /
headline numbers the paper's text reports, in table form.  Totals follow
the paper's convention: the summed per-query time of an algorithm over the
workload, with INF when any query exhausts the enumeration budget (the
stand-in for the 12-hour cutoff, DESIGN.md §3).  Every harness but Exp-3
reads the cells of one (dataset, θ) sweep through ``runner.cells``; its
paper default sweep is a module constant, and ``keys`` picks datasets of it.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.runner import DEFAULT_THETAS, Sweep, cells, make_workload
from repro.experiments.tables import _ratio
from repro.graph.datasets import DATASET_KEYS

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

EP_AND_VUG = ["EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"]

EXP1_NOTES = {
    "D8": "paper: baselines INF, VUG 78s",
    "D9": "paper: baselines INF, VUG 208s",
}
EXP2_SWEEPS: Sweep = {"D1": [6, 8, 10, 12], "D9": [16, 18, 20, 22, 24]}
# Fig 10/15: the upper-bound ratios of two large datasets under θ.
EXP5_THETA_SWEEPS: Sweep = {"D9": [16, 20, 24], "D10": [23, 25, 27]}
EXP6_SWEEPS: Sweep = {"D1": [None], "D8": [8, 10, 12]}
EXP7_SWEEPS: Sweep = {"D1": [6, 8, 10], "D8": [8, 10, 12]}


def _total(metrics: pd.DataFrame, algo: str):
    """Summed time for one algorithm, or ``"INF(k/n)"`` when k of the n
    queries exhausted the enumeration budget (the paper's 12-hour cutoff)."""
    sub = metrics[metrics["algo"] == algo]
    if sub.empty:
        return None
    n_inf = int(sub["inf"].sum())
    if n_inf > 0:
        return f"INF({n_inf}/{len(sub)})"
    return float(sub["total_s"].sum())


def _totals(metrics: pd.DataFrame) -> dict:
    """The ``<algo>_s`` total of each of the four Exp-1/Exp-2 algorithms."""
    return {f"{algo}_s": _total(metrics, algo) for algo in EP_AND_VUG}


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
    return [
        {
            "key": key,
            "theta": theta,
            "n_queries": n,
            **_totals(m),
            "paper_note": EXP1_NOTES.get(key, ""),
        }
        for key, theta, n, m in cells(
            spark, DEFAULT_THETAS, EP_AND_VUG, keys=keys, scale=scale,
            n_queries=n_queries, seed=seed, **caps,
        )
    ]


def exp2_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 15,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    sweeps: Sweep = EXP2_SWEEPS,
    **caps,
) -> List[dict]:
    """Exp-2 (Fig 6/14): total response time varying θ (default D1, D9)."""
    return [
        {"key": key, "theta": theta, **_totals(m)}
        for key, theta, _, m in cells(
            spark, sweeps, EP_AND_VUG, keys=keys, scale=scale,
            n_queries=n_queries, seed=seed, **caps,
        )
    ]


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
    import gc
    import tracemalloc

    from repro.baselines.ep import ep_run
    from repro.core.vug import vug_local

    # A cyclic collection inside a traced query frees part of its garbage
    # early and lowers its peak, so peaks would depend on where collections
    # happen to fall: collect once, then keep the collector off.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    rows = []
    try:
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
                            res = ep_run(
                                algo, adj, q, max_expansions=max_expansions
                            )
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
    finally:
        if was_enabled:
            gc.enable()
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
    for key, _, _, m in cells(
        spark, DEFAULT_THETAS, ["VUG"], keys=keys, scale=scale,
        n_queries=n_queries, seed=seed, **caps,
    ):
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
    sweeps: Sweep = DEFAULT_THETAS,
    **caps,
) -> List[dict]:
    """Exp-5 (Fig 9/10): tgTSG vs QuickUBG time; UB ratio under θ.

    One default-θ row per dataset by default; ``sweeps=EXP5_THETA_SWEEPS``
    gives the θ-sweep rows of Fig 10/15.  The ratios are TABLE II's.
    """
    rows = []
    for key, theta, _, m in cells(
        spark, sweeps, ["RATIOS"], keys=keys, scale=scale,
        n_queries=n_queries, seed=seed, **caps,
    ):
        tg_s = float(m["tg_s"].sum())
        quick_s = float(m["quick_s"].sum())
        rows.append(
            {
                "key": key,
                "theta": theta,
                "tgTSG_s": tg_s,
                "QuickUBG_s": quick_s,
                "speedup": tg_s / quick_s if quick_s else float("nan"),
                "quick_ratio": _ratio(m, "n_gq"),
                "tight_ratio": _ratio(m, "n_gt"),
            }
        )
    return rows


def exp6_rows(
    spark: Optional[SparkSession] = None,
    *,
    scale="bench",
    n_queries: int = 25,
    seed: int = 0,
    keys: Optional[Sequence[str]] = None,
    sweeps: Sweep = EXP6_SWEEPS,
    **caps,
) -> List[dict]:
    """Exp-6 (Fig 11/16): EEV vs path enumeration, both on Gt."""
    rows = []
    for key, theta, _, m in cells(
        spark, sweeps, ["EXP6"], keys=keys, scale=scale,
        n_queries=n_queries, seed=seed, **caps,
    ):
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
    keys: Optional[Sequence[str]] = None,
    sweeps: Sweep = EXP7_SWEEPS,
    **caps,
) -> List[dict]:
    """Exp-7 (Fig 12/17): #edges vs #temporal simple paths in the tspG."""
    return [
        {
            "key": key,
            "theta": theta,
            "tspg_edges": int(m["n_tspg"].sum()),
            "tspg_paths": int(m["n_paths"].sum()),
            "paths_capped": int(m["paths_capped"].sum()),
        }
        for key, theta, _, m in cells(
            spark, sweeps, ["COUNT"], keys=keys, scale=scale,
            n_queries=n_queries, seed=seed, **caps,
        )
    ]
