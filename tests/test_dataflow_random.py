"""Dataflow vs local kernel on random small graphs, plus DuckDB
recursive-CTE oracle checks of the end-to-end tspG."""
import numpy as np
import pytest

from repro.core.quick_ubg import quick_ubg
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import quick_ubg_dataflow, tight_ubg_dataflow, vug_dataflow, vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.duck_oracle import tspg_sql
from repro.graph.generators import random_small_graph
from repro.graph.schema import edges_to_spark, pdf_to_edge_list, spark_edges_to_list
from repro.oracle import assert_equivalent
from repro.workload import Query, generate_queries

SEEDS = [3, 11, 27, 42, 55, 68]


@pytest.fixture(scope="module", autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


def _case(seed):
    g = np.random.default_rng(seed)
    pdf = random_small_graph(
        n=int(g.integers(6, 12)), m=int(g.integers(14, 30)),
        n_ts=int(g.integers(4, 7)), seed=seed,
    )
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    try:
        q = generate_queries(adj, theta=int(g.integers(3, 6)), n_queries=1,
                             seed=seed, max_tries=200)[0]
    except RuntimeError:
        pytest.skip("no reachable query on this seed")
    return pdf, adj, q


@pytest.mark.parametrize("seed", SEEDS)
def test_quick_and_tight_dataflow_equal_kernel(spark, seed):
    pdf, adj, q = _case(seed)
    edf = edges_to_spark(spark, pdf)
    gq_flow = quick_ubg_dataflow(spark, edf, q)
    gq = quick_ubg(adj, q.s, q.t, q.tb, q.te)
    assert gq_flow.edges == gq.edges
    gt = tight_ubg_dataflow(spark, gq_flow, q)
    assert gt.edges == tight_ubg(gq, q.s, q.t).edges


@pytest.mark.parametrize("seed", SEEDS)
def test_vug_dataflow_equals_kernel_and_oracle(spark, seed):
    pdf, adj, q = _case(seed)
    edf = edges_to_spark(spark, pdf)
    tspg_df = vug_dataflow(spark, edf, q).localCheckpoint(eager=True)
    assert spark_edges_to_list(tspg_df) == vug_local(adj, q).edges
    assert_equivalent(
        tspg_df, tspg_sql(q.s, q.t, q.tb, q.te), edges=pdf
    )
