"""Metric runner and experiment harnesses at test scale."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro.core.vug import vug_local
from repro.experiments.io import fmt_markdown_table
from repro.experiments.paper_numbers import PAPER_QUOTES, PAPER_TABLE2
from repro.experiments.perf import (
    EXP2_SWEEPS,
    EXP6_SWEEPS,
    EXP7_SWEEPS,
    exp1_rows,
    exp2_rows,
    exp4_rows,
    exp5_rows,
    exp6_rows,
    exp7_rows,
)
from repro.experiments.runner import (
    DEFAULT_THETAS,
    METRIC_SPARK_SCHEMA,
    query_metrics,
    run_workload_local,
    run_workload_spark,
)
from repro.experiments.tables import table1_rows, table2_rows
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import generate_queries

ALL_ALGOS = ["VUG", "EPdtTSG", "EPesTSG", "EPtgTSG", "RATIOS", "EXP6", "COUNT"]

ROOT = Path(__file__).resolve().parents[1]

# Two Exp-3 calls with cyclic garbage made between them, the collector on or
# off as ``%``-formatted in; prints both calls' (min, max) peaks.
EXP3_GC_SCRIPT = """
import gc, json
from repro.experiments.perf import exp3_rows

enabled = %s
(gc.enable if enabled else gc.disable)()

def peaks():
    rows = exp3_rows(scale="test", n_queries=3, keys=["D1"],
                     max_expansions=50_000)
    assert gc.isenabled() == enabled
    return [[r["min_peak_kb"], r["max_peak_kb"]] for r in rows]

# The first calls in a process allocate a little more while the
# interpreter's caches warm up.
peaks()
peaks()
first = peaks()
for _ in range(1001):
    cycle = []
    cycle.append(cycle)
del cycle
print(json.dumps([first, peaks()]))
"""


def _env_with_src(**extra):
    """The environment with the checkout's src/ first on ``PYTHONPATH``."""
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        **extra,
    )


# Every harness on the sweep cell loop, with its default sweep.
SWEEP_HARNESSES = [
    (exp1_rows, DEFAULT_THETAS),
    (exp2_rows, EXP2_SWEEPS),
    (exp4_rows, DEFAULT_THETAS),
    (exp5_rows, DEFAULT_THETAS),
    (exp6_rows, EXP6_SWEEPS),
    (exp7_rows, EXP7_SWEEPS),
    (table2_rows, DEFAULT_THETAS),
]


@pytest.fixture(scope="module")
def d1():
    pdf = make_dataset("D1", scale="test", seed=0)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    queries = generate_queries(adj, theta=10, n_queries=4, seed=7)
    return pdf, adj, queries


class TestQueryMetrics:
    def test_vug_metrics(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "VUG")
        assert row["n_gq"] >= row["n_gt"] >= row["n_tspg"] >= 1
        assert row["total_s"] > 0

    def test_ep_agrees_with_vug_size(self, d1):
        _, adj, queries = d1
        for q in queries:
            v = query_metrics(adj, q, "VUG")
            for algo in ("EPdtTSG", "EPesTSG", "EPtgTSG"):
                e = query_metrics(adj, q, algo)
                assert e["inf"] == 0
                assert e["n_tspg"] == v["n_tspg"], algo

    def test_ratios_ordering(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "RATIOS")
        assert (
            row["n_dt"] >= row["n_es"] >= row["n_tg"] == row["n_gq"]
            >= row["n_gt"] >= row["n_tspg"]
        )

    def test_exp6_consistency(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "EXP6")
        assert row["eev_s"] > 0 and row["enum_s"] > 0
        assert row["n_tspg"] <= row["n_gt"]

    def test_count_paths_at_least_edges_nonzero(self, d1):
        _, adj, queries = d1
        row = query_metrics(adj, queries[0], "COUNT")
        assert row["n_paths"] >= 1
        assert row["n_tspg"] >= 1

    @pytest.mark.parametrize("i", range(4))
    def test_vug_runs_agree(self, d1, i):
        """Every algorithm that runs VUG reports the same one run."""
        _, adj, queries = d1
        q = queries[i]
        sizes = ["n_gq", "n_gt", "n_tspg"]
        vug = query_metrics(adj, q, "VUG")
        for algo in ("RATIOS", "EXP6"):
            row = query_metrics(adj, q, algo)
            assert [row[k] for k in sizes] == [vug[k] for k in sizes], algo
        assert query_metrics(adj, q, "COUNT")["n_tspg"] == vug["n_tspg"]
        res = vug_local(adj, q)
        assert res.gt.m == res.sizes["gt"] == vug["n_gt"]
        assert set(res.edges) <= set(res.gt.edges)

    def test_unknown_algo_raises(self, d1):
        _, adj, queries = d1
        with pytest.raises(ValueError):
            query_metrics(adj, queries[0], "nope")

    def test_inf_flag_with_tiny_budget(self, d1):
        _, adj, queries = d1
        rows = [
            query_metrics(adj, q, "EPdtTSG", max_expansions=1) for q in queries
        ]
        assert any(r["inf"] == 1 for r in rows)


class TestWorkloadRunners:
    def test_local_grid_shape(self, d1):
        _, adj, queries = d1
        m = run_workload_local(adj, queries, ["VUG", "EPdtTSG"])
        assert len(m) == len(queries) * 2
        assert set(m["algo"]) == {"VUG", "EPdtTSG"}

    def test_spark_matches_local_sizes(self, spark, d1):
        pdf, adj, queries = d1
        loc = run_workload_local(adj, queries, ["VUG"])
        dist = run_workload_spark(spark, pdf, queries, ["VUG"])
        lo = loc.sort_values("qid")[["qid", "n_gq", "n_gt", "n_tspg"]]
        di = dist.sort_values("qid")[["qid", "n_gq", "n_gt", "n_tspg"]]
        pd.testing.assert_frame_equal(
            lo.reset_index(drop=True), di.reset_index(drop=True),
            check_dtype=False,
        )

    def test_spark_grid_complete(self, spark, d1):
        pdf, _, queries = d1
        dist = run_workload_spark(spark, pdf, queries, ["VUG", "RATIOS"])
        assert len(dist) == 2 * len(queries)
        assert sorted(dist["qid"].unique()) == list(range(len(queries)))

    def test_spark_no_queries(self, spark, d1):
        pdf, _, _ = d1
        dist = run_workload_spark(spark, pdf, [], ["VUG"])
        assert len(dist) == 0
        assert list(dist.columns) == [
            f.split()[0] for f in METRIC_SPARK_SCHEMA.split(", ")
        ]

    def test_spark_fewer_cells_than_tasks(self, spark, d1):
        pdf, _, queries = d1
        dist = run_workload_spark(spark, pdf, queries[:1], ["VUG"])
        assert list(dist["qid"]) == [0]

    def test_spark_grid_runs_in_parallel_tasks(self, spark, d1):
        """The stage running the grid keeps max(2, defaultParallelism)
        tasks: adaptive execution must not coalesce it into one."""
        pdf, _, queries = d1
        sc = spark.sparkContext
        group = "test_spark_grid_runs_in_parallel_tasks"
        prev = sc.getLocalProperty("spark.jobGroup.id")
        sc.setJobGroup(group, group)
        try:
            run_workload_spark(spark, pdf, queries, ["VUG", "RATIOS"])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", prev)
        st = sc.statusTracker()
        stages = [
            sid
            for j in st.getJobIdsForGroup(group)
            for sid in st.getJobInfo(j).stageIds
        ]
        # The grid runs in the last stage: it reads the grid's shuffle.
        grid_stage = st.getStageInfo(max(stages))
        n_tasks = max(2, sc.defaultParallelism)
        assert grid_stage.numTasks == n_tasks
        assert grid_stage.numCompletedTasks == n_tasks


class TestTables:
    def test_table1_rows(self):
        rows = table1_rows(scale="test", keys=["D1", "D2"])
        assert [r["key"] for r in rows] == ["D1", "D2"]
        r = rows[0]
        assert r["paper_n"] == 1005 and r["our_m"] > 200
        assert r["theta"] == 10

    def test_table2_rows_local(self):
        rows = table2_rows(None, scale="test", n_queries=3, keys=["D1"])
        r = rows[0]
        # measured ratio ordering mirrors the paper's
        assert r["dt_ours"] <= r["es_ours"] + 1e-9
        assert r["es_ours"] <= r["tg_ours"] + 1e-9
        assert r["tg_ours"] == pytest.approx(r["quick_ours"])
        assert r["quick_ours"] <= r["tight_ours"] + 1e-9
        assert r["tight_ours"] <= 100.0 + 1e-9
        assert r["tight_paper"] == PAPER_TABLE2["TightUBG"]["D1"]
        # Exp-5 reads TABLE II's ratios on the same cells.
        e = exp5_rows(scale="test", n_queries=3, keys=["D1"])[0]
        assert (e["quick_ratio"], e["tight_ratio"]) == (
            r["quick_ours"], r["tight_ours"]
        )

    def test_table2_rows_spark(self, spark):
        rows = table2_rows(spark, scale="test", n_queries=2, keys=["D8"])
        assert rows[0]["key"] == "D8"
        assert rows[0]["n_queries"] == 2


class TestPerfHarnesses:
    def test_exp1(self):
        rows = exp1_rows(scale="test", n_queries=2, keys=["D1"])
        r = rows[0]
        assert r["VUG_s"] and r["VUG_s"] > 0
        assert r["theta"] == DATASETS["D1"].theta

    def test_exp2(self):
        rows = exp2_rows(
            scale="test", n_queries=2, sweeps={"D1": [4, 6]}
        )
        assert [r["theta"] for r in rows] == [4, 6]

    def test_exp3(self):
        from repro.experiments.perf import exp3_rows

        rows = exp3_rows(scale="test", n_queries=3, keys=["D1"],
                         max_expansions=50_000)
        assert {r["algo"] for r in rows} == {"VUG", "EPdtTSG"}
        for r in rows:
            assert r["max_peak_kb"] >= r["min_peak_kb"] > 0
            assert r["spread"] >= 1

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_exp3_peaks_ignore_collector_timing(self, enabled):
        """Cyclic garbage made between two calls moves no peak, and the
        collector's state is restored.

        Runs in a fresh interpreter: the Spark session of other tests keeps
        Python threads that allocate while a query is traced.
        """
        proc = subprocess.run(
            [sys.executable, "-c", EXP3_GC_SCRIPT % enabled],
            env=_env_with_src(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        first, second = json.loads(proc.stdout)
        assert second == first

    def test_exp4(self):
        rows = exp4_rows(scale="test", n_queries=2, keys=["D1"])
        r = rows[0]
        assert r["total_s"] == pytest.approx(
            r["quick_s"] + r["tight_s"] + r["eev_s"]
        )
        assert 0 <= r["eev_pct"] <= 100

    def test_exp5_default(self):
        rows = exp5_rows(scale="test", n_queries=2, keys=["D1"])
        r = rows[0]
        assert r["tgTSG_s"] > 0 and r["QuickUBG_s"] > 0
        assert 0 < r["quick_ratio"] <= r["tight_ratio"] + 1e-9 <= 100 + 1e-9

    def test_exp5_sweep(self):
        rows = exp5_rows(scale="test", n_queries=2, sweeps={"D1": [6, 8]})
        assert [r["theta"] for r in rows] == [6, 8]

    def test_exp6(self):
        rows = exp6_rows(scale="test", n_queries=2, sweeps={"D1": [8]})
        assert rows[0]["eev_s"] > 0 and rows[0]["enum_on_gt_s"] > 0

    def test_exp7(self):
        n = 2
        rows = exp7_rows(scale="test", n_queries=n, sweeps={"D1": [8]})
        r = rows[0]
        # Every generated query has a strict path: a path and an edge each.
        assert r["tspg_paths"] >= n and r["tspg_edges"] >= n
        assert r["paths_capped"] == 0

    @pytest.mark.parametrize(
        "harness, sweep",
        SWEEP_HARNESSES,
        ids=[h.__name__ for h, _ in SWEEP_HARNESSES],
    )
    def test_keys_restrict_the_sweep(self, harness, sweep):
        rows = harness(scale="test", n_queries=1, keys=["D1"])
        assert rows and {r["key"] for r in rows} == {"D1"}
        outside = next((k for k in DATASETS if k not in sweep), "D11")
        with pytest.raises(ValueError) as err:
            harness(scale="test", n_queries=1, keys=["D1", outside])
        assert str(list(sweep)) in str(err.value)


class TestJobs:
    @pytest.mark.parametrize(
        "job", ["exp2_vary_theta", "exp6_eev_vs_enum", "exp7_paths_edges"]
    )
    def test_keys_reach_the_harness(self, job, tmp_path):
        """``--keys D1`` saves only D1 rows, not the sweep's other datasets."""
        env = _env_with_src(REPRO_RESULTS_DIR=str(tmp_path))
        proc = subprocess.run(
            [
                sys.executable, str(ROOT / "jobs" / f"{job}.py"), "--local",
                "--scale", "test", "--queries", "2", "--keys", "D1",
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rows = json.loads((tmp_path / f"{job}.json").read_text())
        assert rows and {r["key"] for r in rows} == {"D1"}

    def test_job_imports_repro_from_outside_the_repo(self, tmp_path):
        """A job finds ``repro`` under src/ with no install and no
        ``PYTHONPATH``, whatever the working directory."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "jobs" / "exp8_case_study.py"),
             "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestIO:
    def test_markdown_table(self):
        md = fmt_markdown_table(
            [{"a": 1, "b": None}, {"a": 2.5, "b": "x"}], ["a", "b"]
        )
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert "| 1 | - |" in md and "| 2.5 | x |" in md

    def test_paper_quotes_present(self):
        assert set(PAPER_QUOTES) == {f"exp{i}" for i in (1, 2, 3, 4, 5, 6, 7)}
