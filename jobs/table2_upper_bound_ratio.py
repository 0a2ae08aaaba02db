"""TABLE II: average upper-bound ratio (%) of the five reduction methods."""
import math

from _common import check, make_parser, run

from repro.experiments.tables import TABLE2_COLUMNS, table2_rows


def main() -> None:
    rows = run(
        make_parser(__doc__).parse_args(),
        table2_rows,
        "table2_upper_bound_ratio",
        "TABLE II — average upper-bound ratio (%)",
        TABLE2_COLUMNS,
        [
            "paper: dtTSG and esTSG < 0.1% everywhere; tgTSG = QuickUBG;"
            " TightUBG > 90% on 8 of 10 datasets",
        ],
    )
    for r in rows:
        # Paper ordering: dt ≤ es ≤ tg = quick ≤ tight (tight is tightest).
        check(
            r["dt_ours"] <= r["es_ours"] + 1e-9
            and r["es_ours"] <= r["quick_ours"] + 1e-9
            and math.isclose(r["tg_ours"], r["quick_ours"], rel_tol=0, abs_tol=1e-9)
            and r["quick_ours"] <= r["tight_ours"] + 1e-9,
            f"{r['key']}: dt ≤ es ≤ tg = quick ≤ tight",
        )


if __name__ == "__main__":
    main()
