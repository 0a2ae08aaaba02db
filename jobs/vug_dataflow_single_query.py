"""Run one tspG query through the Spark VUG pipeline.

Demonstrates the dataflow path (Spark projects the edge DataFrame onto the
query window and the driver collects it in one job, then the kernel's
QuickUBG, TightUBG and EEV run on that slice) on a bench dataset and
cross-checks it against the local kernel.
"""
from _common import get_spark, make_parser, run

from repro.core.vug import vug_dataflow, vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import edges_to_spark, pdf_to_edge_list, spark_edges_to_list
from repro.workload import generate_queries

COLUMNS = ["key", "s", "t", "tb", "te", "tspg_edges", "matches_kernel"]


def dataflow_rows(*, scale, seed: int, keys):
    """One query per dataset of ``keys`` (D1 by default), on the dataflow."""
    spark = get_spark("vug-dataflow")
    rows = []
    for key in keys or ["D1"]:
        pdf = make_dataset(key, scale=scale, seed=seed)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        q = generate_queries(
            adj, theta=DATASETS[key].theta, n_queries=1, seed=seed + 17
        )[0]
        got = spark_edges_to_list(
            vug_dataflow(spark, edges_to_spark(spark, pdf), q)
        )
        want = vug_local(adj, q).edges
        rows.append(
            {
                "key": key,
                "s": q.s,
                "t": q.t,
                "tb": q.tb,
                "te": q.te,
                "tspg_edges": len(got),
                "matches_kernel": got == want,
            }
        )
    return rows


def main() -> None:
    run(
        make_parser(__doc__, ["--scale", "--seed", "--keys"]).parse_args(),
        dataflow_rows,
        "vug_dataflow_single_query",
        "Distributed VUG pipeline — single query per dataset",
        COLUMNS,
    )


if __name__ == "__main__":
    main()
