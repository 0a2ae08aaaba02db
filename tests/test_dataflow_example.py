"""Distributed dataflow phases on the paper's running example, cross-checked
against the hand-derived expectations and the DuckDB recursive-CTE oracle."""
import pytest

from repro.core.eev import eev_df
from repro.core.polarity import arrival_times_df, departure_times_df
from repro.core.quick_ubg import quick_ubg_df
from repro.core.vug import (
    quick_ubg_dataflow,
    tight_ubg_dataflow,
    vug_dataflow,
    vug_local,
)
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.duck_oracle import arrival_sql, departure_sql, tspg_sql
from repro.graph.schema import (
    edges_to_pdf,
    edges_to_spark,
    project_window_df,
    spark_edges_to_list,
)
from repro.oracle import assert_equivalent
from repro.workload import Query

from tests.example_graph import (
    EDGES,
    EXPECTED_ARRIVAL,
    EXPECTED_DEPARTURE,
    EXPECTED_GQ,
    EXPECTED_GT,
    EXPECTED_TSPG,
    S,
    T,
    TB,
    TE,
)

Q = Query(S, T, TB, TE)
# The widest window whose sentinels τb − 1, τe + 1, −τe − 1, −τb + 1 fit
# in int64.
TS_MIN, TS_MAX = -(2**63) + 2, 2**63 - 2


@pytest.fixture(scope="module", autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


@pytest.fixture(scope="module")
def edges_df(spark):
    return edges_to_spark(spark, edges_to_pdf(EDGES)).cache()


@pytest.fixture(scope="module")
def gq_df(spark, edges_df):
    return quick_ubg_dataflow(spark, edges_df, Q).localCheckpoint(eager=True)


def test_arrival_df_matches_fig3a(spark, edges_df):
    got = {
        int(r.v): int(r.arrival)
        for r in arrival_times_df(spark, edges_df, S, T, TB, TE).collect()
    }
    assert got == EXPECTED_ARRIVAL


def test_departure_df_matches_fig3b(spark, edges_df):
    got = {
        int(r.v): int(r.departure)
        for r in departure_times_df(spark, edges_df, S, T, TB, TE).collect()
    }
    assert got == EXPECTED_DEPARTURE


def test_arrival_df_vs_duckdb_oracle(spark, edges_df):
    df = arrival_times_df(spark, edges_df, S, T, TB, TE)
    assert_equivalent(
        df, arrival_sql(S, T, TB, TE), edges=edges_to_pdf(EDGES)
    )


def test_departure_df_vs_duckdb_oracle(spark, edges_df):
    df = departure_times_df(spark, edges_df, S, T, TB, TE)
    assert_equivalent(
        df, departure_sql(S, T, TB, TE), edges=edges_to_pdf(EDGES)
    )


def test_projection_vs_duckdb_oracle(spark, edges_df):
    df = project_window_df(edges_df, TB, TE)
    assert_equivalent(
        df,
        f"SELECT src, dst, ts FROM edges WHERE ts BETWEEN {TB} AND {TE}",
        edges=edges_to_pdf(EDGES),
    )


def test_quick_ubg_df_matches_fig3c(gq_df):
    assert spark_edges_to_list(gq_df) == EXPECTED_GQ


def test_quick_ubg_df_filter_semantics(spark, edges_df):
    # Same result when A/D are fed in as plain label tables.
    a = spark.createDataFrame(
        [(k, v) for k, v in EXPECTED_ARRIVAL.items()], "v long, arrival long"
    )
    d = spark.createDataFrame(
        [(k, v) for k, v in EXPECTED_DEPARTURE.items()], "v long, departure long"
    )
    assert spark_edges_to_list(quick_ubg_df(edges_df, a, d)) == EXPECTED_GQ


def test_tight_ubg_dataflow_matches_fig4c(spark, gq_df):
    gt = tight_ubg_dataflow(spark, gq_df, Q)
    assert spark_edges_to_list(gt) == EXPECTED_GT


def test_eev_df_matches_fig1c(spark, gq_df):
    gt = tight_ubg_dataflow(spark, gq_df, Q)
    tspg = eev_df(spark, gt, S, T, TB, TE)
    assert spark_edges_to_list(tspg) == EXPECTED_TSPG


def test_vug_dataflow_end_to_end(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert spark_edges_to_list(tspg) == EXPECTED_TSPG


@pytest.mark.parametrize(
    "edges, q",
    [
        (EDGES, Query(T, S, TB, TE)),  # t reaches nothing: empty Gq
        (EDGES, Query(10**6, T, TB, TE)),  # unknown source: empty Gq
        (EDGES, Query(S, T, TB, TB)),  # one-timestamp window
        # Both Gt edges are Lemma-2 pre-verified: no edge escapes.
        ([(0, 1, 1), (1, 2, 2)], Query(0, 2, 1, 2)),
        # An out-of-window edge at the int64 floor must not be negated.
        ([(5, 6, -(2**63)), (0, 1, 1), (1, 2, 2)], Query(0, 2, 1, 2)),
        # The widest window whose sentinels all fit in int64.
        (
            [(5, 6, -(2**63)), (0, 1, TS_MIN), (1, 2, TS_MAX),
             (5, 6, 2**63 - 1)],
            Query(0, 2, TS_MIN, TS_MAX),
        ),
    ],
    ids=[
        "t-to-s", "unknown-source", "one-timestamp", "no-escaped-edge",
        "int64-floor-edge", "int64-widest-window",
    ],
)
def test_vug_dataflow_degenerate_equals_kernel(spark, edges, q):
    df = edges_to_spark(spark, edges_to_pdf(edges))
    want = vug_local(TemporalAdjacency(edges), q).edges
    assert spark_edges_to_list(vug_dataflow(spark, df, q)) == want


@pytest.mark.parametrize("bad", [(0, 0, 1, 2), (0, 1, 2, 1)])
def test_vug_dataflow_refuses_bad_query(spark, bad):
    # s = t would ask for cycles (here 0→1→0); τb > τe is an empty window.
    df = edges_to_spark(spark, edges_to_pdf([(0, 1, 1), (1, 0, 2)]))
    with pytest.raises(ValueError):
        vug_dataflow(spark, df, Query(*bad))


@pytest.mark.parametrize(
    "q", [Query(0, 2, TS_MIN - 1, 2), Query(0, 2, 1, TS_MAX + 1)],
    ids=["tb-below", "te-above"],
)
def test_vug_dataflow_refuses_window_beyond_int64(spark, q):
    # τb − 1, τe + 1 and, on Gᴿ, −τb + 1 are int64 literals in the plan.
    df = edges_to_spark(spark, edges_to_pdf([(0, 1, 1), (1, 2, 2)]))
    _assert_refused_without_jobs(
        spark, "int64-window", lambda: vug_dataflow(spark, df, q)
    )


@pytest.mark.parametrize(
    "polarity_df", [arrival_times_df, departure_times_df],
    ids=["arrival", "departure"],
)
@pytest.mark.parametrize(
    "tb, te", [(-(2**63), 2), (1, 2**63 - 1)], ids=["tb-int64-min", "te-int64-max"]
)
def test_polarity_df_refuses_window_beyond_int64(spark, polarity_df, tb, te):
    df = edges_to_spark(spark, edges_to_pdf([(0, 1, 1), (1, 2, 2)]))
    _assert_refused_without_jobs(
        spark,
        f"int64-window-{polarity_df.__name__}-{tb}-{te}",
        lambda: polarity_df(spark, df, 0, 2, tb, te),
    )


def _assert_refused_without_jobs(spark, group, call):
    """``call`` raises ``ValueError`` before running any Spark job."""
    spark.sparkContext.setJobGroup(group, group)
    try:
        with pytest.raises(ValueError):
            call()
    finally:
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
    assert spark.sparkContext.statusTracker().getJobIdsForGroup(group) == []


def test_vug_dataflow_vs_duckdb_oracle(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert_equivalent(
        tspg, tspg_sql(S, T, TB, TE), edges=edges_to_pdf(EDGES)
    )
