"""Spark VUG pipeline benchmark (``vug_dataflow``, one query).

Uses D8 at test scale, the dataset of the ``dataflow_query`` workload: its
Gq holds enough edges that TightUBG prunes and EEV has escaped edges to
search, so every phase of the dataflow does work.
"""
from repro.core.vug import vug_dataflow, vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import edges_to_spark, pdf_to_edge_list, spark_edges_to_list
from repro.workload import generate_queries


def one_shot(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def test_vug_dataflow_single_query(benchmark, spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    try:
        pdf = make_dataset("D8", scale="test", seed=0)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        q = generate_queries(
            adj, theta=DATASETS["D8"].theta, n_queries=1, seed=17
        )[0]
        edf = edges_to_spark(spark, pdf).cache()
        edf.count()

        def run():
            return spark_edges_to_list(vug_dataflow(spark, edf, q))

        got = one_shot(benchmark, run)
        assert got == vug_local(adj, q).edges
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


def test_spark_workload_parallel_vug(benchmark, spark):
    """Query-parallel workload runner: 24 VUG queries across the cluster."""
    from repro.experiments.runner import run_workload_spark

    pdf = make_dataset("D7", scale="bench", seed=0)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    queries = generate_queries(
        adj, theta=DATASETS["D7"].theta, n_queries=24, seed=17
    )

    def run():
        return run_workload_spark(spark, pdf, queries, ["VUG"])

    m = one_shot(benchmark, run)
    assert len(m) == 24 and (m["n_tspg"] >= 1).all()
