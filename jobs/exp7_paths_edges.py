"""Exp-7 (Fig 12/17): number of edges vs temporal simple paths in tspG."""
from _common import check, make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP7_COLUMNS, EXP7_SWEEPS, exp7_rows


def main() -> None:
    rows = run(
        make_parser(__doc__).parse_args(),
        exp7_rows,
        "exp7_paths_edges",
        "Exp-7 — #edges vs #paths in tspG",
        EXP7_COLUMNS,
        PAPER_QUOTES["exp7"],
    )
    # Paper shape: the number of paths far exceeds the number of edges on
    # the dense settings (D1/D8 at their largest swept θ).  Some dataset
    # must show it, so the check reads every dataset's top row.
    tops = [
        r for r in rows
        if r["theta"] == max(x["theta"] for x in rows if x["key"] == r["key"])
    ]
    check(
        any(
            r["paths_capped"] > 0 or r["tspg_paths"] > 5 * r["tspg_edges"]
            for r in tops
        )
        if {r["key"] for r in tops} == set(EXP7_SWEEPS) else None,
        "paths dominate edges at the top θ",
    )


if __name__ == "__main__":
    main()
