"""Dataflow phases on the paper's running example, cross-checked against the
hand-derived expectations and the DuckDB recursive-CTE oracle."""
import pytest

from repro.core.vug import (
    eev_df,
    quick_ubg_dataflow,
    tight_ubg_dataflow,
    vug_dataflow,
    vug_local,
)
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.duck_oracle import tspg_sql
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
    EXPECTED_GQ,
    EXPECTED_GT,
    EXPECTED_TSPG,
    S,
    T,
    TB,
    TE,
)

Q = Query(S, T, TB, TE)
# The dataflow's timestamp domain, restated so that a change to it fails here.
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
def gq(spark, edges_df):
    """The dataflow's Gq: the kernel's, on the collected window."""
    return quick_ubg_dataflow(spark, edges_df, Q)


def test_projection_vs_duckdb_oracle(spark, edges_df):
    df = project_window_df(edges_df, TB, TE)
    assert_equivalent(
        df,
        f"SELECT src, dst, ts FROM edges WHERE ts BETWEEN {TB} AND {TE}",
        edges=edges_to_pdf(EDGES),
    )


def test_quick_ubg_dataflow_matches_fig3c(gq):
    assert gq.edges == EXPECTED_GQ


def test_quick_ubg_dataflow_starts_one_job(spark, edges_df):
    # Spark only projects the window; the driver collects it in one job and
    # runs the kernel's QuickUBG on it.
    gq, jobs = _in_group(
        spark, "quick-ubg-jobs", lambda: quick_ubg_dataflow(spark, edges_df, Q)
    )
    assert gq.edges == EXPECTED_GQ and len(jobs) == 1


def test_tight_ubg_dataflow_matches_fig4c(spark, gq):
    gt = tight_ubg_dataflow(spark, gq, Q)
    assert gt.edges == EXPECTED_GT


def test_eev_df_matches_fig1c(spark, gq):
    gt = tight_ubg_dataflow(spark, gq, Q)
    tspg = eev_df(spark, gt, S, T, TB, TE)
    assert spark_edges_to_list(tspg) == EXPECTED_TSPG


def test_vug_dataflow_end_to_end(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert spark_edges_to_list(tspg) == EXPECTED_TSPG


def test_eev_df_starts_no_job(spark, gq):
    # EEV runs on the driver's Gt; its tspG is lifted, not computed, by Spark.
    gt = tight_ubg_dataflow(spark, gq, Q)
    _, jobs = _in_group(
        spark, "eev-df-jobs", lambda: eev_df(spark, gt, S, T, TB, TE)
    )
    assert jobs == []


def test_vug_dataflow_result_collects_in_one_job(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    got, jobs = _in_group(
        spark, "vug-collect-jobs", lambda: spark_edges_to_list(tspg)
    )
    assert got == EXPECTED_TSPG and len(jobs) == 1


@pytest.mark.parametrize(
    "edges, q",
    [
        (EDGES, Query(T, S, TB, TE)),  # t reaches nothing: empty Gq
        (EDGES, Query(10**6, T, TB, TE)),  # unknown source: empty Gq
        (EDGES, Query(S, T, TB, TB)),  # one-timestamp window
        # Both Gt edges are Lemma-2 pre-verified: no edge escapes.
        ([(0, 1, 1), (1, 2, 2)], Query(0, 2, 1, 2)),
        # An out-of-window edge at the int64 floor stays out of the window.
        ([(5, 6, -(2**63)), (0, 1, 1), (1, 2, 2)], Query(0, 2, 1, 2)),
        # The widest window the dataflow accepts.
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


@pytest.mark.parametrize(
    "bad", [(0, 0, 1, 2), (0, 1, 2, 1), (0, 1, float("nan"), 2)]
)
def test_vug_dataflow_refuses_bad_query(spark, bad):
    # s = t would ask for cycles (here 0→1→0); τb > τe is an empty window;
    # a NaN bound is not an integer.
    df = edges_to_spark(spark, edges_to_pdf([(0, 1, 1), (1, 0, 2)]))
    with pytest.raises(ValueError):
        vug_dataflow(spark, df, Query(*bad))


@pytest.mark.parametrize(
    "q", [Query(0, 2, TS_MIN - 1, 2), Query(0, 2, 1, TS_MAX + 1)],
    ids=["tb-below", "te-above"],
)
def test_vug_dataflow_refuses_window_beyond_int64(spark, q):
    df = edges_to_spark(spark, edges_to_pdf([(0, 1, 1), (1, 2, 2)]))
    _assert_refused_without_jobs(
        spark, "int64-window", lambda: vug_dataflow(spark, df, q)
    )


def _in_group(spark, group, call):
    """Run ``call`` in the Spark job group ``group``; returns its result and
    the ids of the jobs it started."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        # Job starts reach the status tracker through an asynchronous
        # listener bus.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, sc.statusTracker().getJobIdsForGroup(group)


def _assert_refused_without_jobs(spark, group, call):
    """``call`` raises ``ValueError`` before running any Spark job."""
    with pytest.raises(ValueError):
        _in_group(spark, group, call)
    assert spark.sparkContext.statusTracker().getJobIdsForGroup(group) == []


def test_vug_dataflow_vs_duckdb_oracle(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert_equivalent(
        tspg, tspg_sql(S, T, TB, TE), edges=edges_to_pdf(EDGES)
    )
