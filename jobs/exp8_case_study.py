"""Exp-8 (Fig 13): case study on a synthetic transit schedule.

The paper queries SFMTA GTFS data ("Silver Ave" -> "30th St", [9:20, 9:30])
and reports a tspG of 8 stops / 17 trips.  We run the same mechanics on the
synthetic schedule: one morning query per seed, printing stops/trips of the
resulting tspG.
"""
from _common import make_parser, run

from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.generators import transit_schedule_pdf
from repro.graph.schema import pdf_to_edge_list
from repro.workload import generate_queries

COLUMNS = ["seed", "s", "t", "window", "stops", "trips"]


def case_study_rows(*, seed: int):
    """One morning query on the schedule for each of five seeds from ``seed``."""
    rows = []
    for seed in range(seed, seed + 5):
        adj = TemporalAdjacency(
            pdf_to_edge_list(transit_schedule_pdf(seed=7))
        )
        q = generate_queries(adj, theta=11, n_queries=1, seed=seed)[0]
        res = vug_local(adj, q)
        rows.append(
            {
                "seed": seed,
                "s": q.s,
                "t": q.t,
                "window": f"[{q.tb // 60}:{q.tb % 60:02d},"
                f" {q.te // 60}:{q.te % 60:02d}]",
                "stops": len(res.vertices),
                "trips": len(res.edges),
            }
        )
    return rows


def main() -> None:
    run(
        make_parser(__doc__, ["--seed"]).parse_args(),
        case_study_rows,
        "exp8_case_study",
        "Exp-8 — transit case study (synthetic schedule)",
        COLUMNS,
        [
            "paper (SFMTA GTFS): query ('Silver Ave','30th St',[9:20,9:30])"
            " -> tspG with 8 stops and 17 trips",
        ],
    )


if __name__ == "__main__":
    main()
