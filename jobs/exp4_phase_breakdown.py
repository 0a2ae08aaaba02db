"""Exp-4 (Fig 8): per-phase response time of VUG."""
from _common import make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP4_COLUMNS, exp4_rows


def main() -> None:
    run(
        make_parser(__doc__).parse_args(),
        exp4_rows,
        "exp4_phase_breakdown",
        "Exp-4 — per-phase time of VUG (s)",
        EXP4_COLUMNS,
        PAPER_QUOTES["exp4"],
    )


if __name__ == "__main__":
    main()
