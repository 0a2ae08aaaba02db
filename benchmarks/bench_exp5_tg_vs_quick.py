"""Exp-5 benchmark: tgTSG (heap) vs QuickUBG (two window passes) reduction time."""
from benchmarks._bench_common import bench_queries, bench_scale, one_shot

from repro.experiments.io import save_results
from repro.experiments.perf import EXP5_COLUMNS, exp5_rows


def test_exp5_tg_vs_quick(benchmark, spark):
    rows = one_shot(
        benchmark,
        exp5_rows,
        spark,
        scale=bench_scale(),
        n_queries=bench_queries(),
    )
    save_results("bench_exp5", rows, EXP5_COLUMNS)
    assert len(rows) == 10
    # Paper: QuickUBG strictly beats tgTSG (same graph, no heap factor).
    # In Python the margin is small (see EXPERIMENTS.md), so allow noise on
    # a few datasets at reduced query counts.
    faster = sum(1 for r in rows if r["QuickUBG_s"] <= r["tgTSG_s"])
    assert faster >= 7, f"QuickUBG faster on only {faster}/10 datasets"
    for r in rows:
        assert r["quick_ratio"] <= r["tight_ratio"] + 1e-9
