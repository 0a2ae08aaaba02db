"""Exp-5 (Fig 9/10): tgTSG vs QuickUBG time, UB ratios under θ."""
from _common import check, make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP5_COLUMNS, EXP5_THETA_SWEEPS, exp5_rows
from repro.experiments.runner import DEFAULT_THETAS


def main() -> None:
    p = make_parser(__doc__)
    p.add_argument(
        "--sweep", dest="sweeps", action="store_const",
        const=EXP5_THETA_SWEEPS, default=DEFAULT_THETAS,
        help="sweep θ on D9/D10 (Fig 10) instead of one default-θ row per"
        " dataset",
    )
    args = p.parse_args()
    rows = run(
        args,
        exp5_rows,
        "exp5_tgtsg_vs_quickubg"
        + ("_sweep" if args.sweeps is EXP5_THETA_SWEEPS else ""),
        "Exp-5 — tgTSG vs QuickUBG (s) and upper-bound ratios (%)",
        EXP5_COLUMNS,
        PAPER_QUOTES["exp5"],
    )
    # Paper: QuickUBG strictly beats tgTSG (same graph, no heap factor).  In
    # Python the margin is small (EXPERIMENTS.md), so allow noise on a few
    # datasets: 7 of 10.
    faster = sum(1 for r in rows if r["QuickUBG_s"] <= r["tgTSG_s"])
    check(
        faster >= 0.7 * len(rows),
        f"QuickUBG faster than tgTSG on {faster}/{len(rows)} rows (≥ 70 %)",
    )


if __name__ == "__main__":
    main()
