"""Run one tspG query through the Spark VUG pipeline.

Demonstrates the dataflow path (polarity fixpoint joins → QuickUBG filter
in Catalyst, then TightUBG on the collected Gq and EEV with parallel
escaped-edge searches) on a bench dataset and cross-checks it against the
local kernel.
"""
from _common import emit, get_spark, make_parser, parse_scale

from repro.core.vug import vug_dataflow, vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import edges_to_spark, pdf_to_edge_list, spark_edges_to_list
from repro.workload import generate_queries

COLUMNS = ["key", "s", "t", "tb", "te", "tspg_edges", "matches_kernel"]


def main() -> None:
    p = make_parser(__doc__)
    args = p.parse_args()
    spark = get_spark("vug-dataflow")
    rows = []
    for key in args.keys or ["D1"]:
        pdf = make_dataset(key, scale=parse_scale(args.scale), seed=args.seed)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        q = generate_queries(
            adj, theta=DATASETS[key].theta, n_queries=1, seed=args.seed + 17
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
    emit(
        "vug_dataflow_single_query",
        "Distributed VUG pipeline — single query per dataset",
        rows,
        COLUMNS,
    )


if __name__ == "__main__":
    main()
