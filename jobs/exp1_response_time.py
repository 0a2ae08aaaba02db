"""Exp-1 (Fig 5): total response time of EPdtTSG/EPesTSG/EPtgTSG/VUG."""
from _common import check, emit, get_spark, make_parser, parse_scale

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP1_COLUMNS, exp1_rows


def main() -> None:
    args = make_parser(__doc__).parse_args()
    spark = None if args.local else get_spark("exp1")
    rows = exp1_rows(
        spark,
        scale=parse_scale(args.scale),
        n_queries=args.queries,
        seed=args.seed,
        keys=args.keys,
    )
    emit(
        "exp1_response_time",
        "Exp-1 — total response time (s)",
        rows,
        EXP1_COLUMNS,
        paper_notes=PAPER_QUOTES["exp1"],
    )
    for r in rows:
        vug = r["VUG_s"]
        check(isinstance(vug, float), f"{r['key']}: VUG never INF")
        for algo in ("EPdtTSG_s", "EPesTSG_s", "EPtgTSG_s"):
            if isinstance(r[algo], float):
                check(
                    vug <= r[algo] * 5,
                    f"{r['key']}: VUG within 5x of a finished {algo[:-2]}",
                )


if __name__ == "__main__":
    main()
