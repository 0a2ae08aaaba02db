"""Exp-6 (Fig 11/16): EEV vs path enumeration, both on the tight graph."""
from _common import check, make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP6_COLUMNS, exp6_rows


def main() -> None:
    rows = run(
        make_parser(__doc__).parse_args(),
        exp6_rows,
        "exp6_eev_vs_enum",
        "Exp-6 — EEV vs enumeration on Gt (s)",
        EXP6_COLUMNS,
        PAPER_QUOTES["exp6"],
    )
    # Paper shape: EEV beats enumeration by an order of magnitude on dense
    # settings; D8 at θ ≥ 10 has to show a clear (≥ 3×) advantage or
    # exhaust the enumeration budget.
    dense = [r for r in rows if r["key"] == "D8" and r["theta"] >= 10]
    check(
        any(r["enum_inf"] > 0 or r["speedup"] >= 3 for r in dense)
        if dense else None,
        "a dense D8 setting shows the EEV advantage",
    )


if __name__ == "__main__":
    main()
