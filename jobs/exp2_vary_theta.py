"""Exp-2 (Fig 6/14): total response time varying the window span θ."""
from _common import make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP2_COLUMNS, exp2_rows


def main() -> None:
    run(
        make_parser(__doc__).parse_args(),
        exp2_rows,
        "exp2_vary_theta",
        "Exp-2 — response time (s) varying θ (D1, D9)",
        EXP2_COLUMNS,
        PAPER_QUOTES["exp2"],
    )


if __name__ == "__main__":
    main()
