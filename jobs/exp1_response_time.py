"""Exp-1 (Fig 5): total response time of EPdtTSG/EPesTSG/EPtgTSG/VUG."""
from _common import check, make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP1_COLUMNS, exp1_rows


def main() -> None:
    rows = run(
        make_parser(__doc__).parse_args(),
        exp1_rows,
        "exp1_response_time",
        "Exp-1 — total response time (s)",
        EXP1_COLUMNS,
        PAPER_QUOTES["exp1"],
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
