"""Exp-7 (Fig 12/17): number of edges vs temporal simple paths in tspG."""
from _common import check, emit, get_spark, make_parser, parse_scale

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP7_COLUMNS, exp7_rows


def main() -> None:
    args = make_parser(__doc__).parse_args()
    spark = None if args.local else get_spark("exp7")
    rows = exp7_rows(
        spark,
        scale=parse_scale(args.scale),
        n_queries=args.queries,
        seed=args.seed,
    )
    emit(
        "exp7_paths_edges",
        "Exp-7 — #edges vs #paths in tspG",
        rows,
        EXP7_COLUMNS,
        paper_notes=PAPER_QUOTES["exp7"],
    )
    # Paper shape: the number of paths far exceeds the number of edges on
    # the dense settings (D1/D8 at their largest swept θ).
    tops = [
        r for r in rows
        if r["theta"] == max(x["theta"] for x in rows if x["key"] == r["key"])
    ]
    check(
        any(
            r["paths_capped"] > 0 or r["tspg_paths"] > 5 * r["tspg_edges"]
            for r in tops
        ),
        "paths dominate edges at the top θ",
    )


if __name__ == "__main__":
    main()
