"""Exp-3 (Fig 7): per-query peak memory of VUG vs an enumeration baseline."""
from _common import make_parser, run

from repro.experiments.paper_numbers import PAPER_QUOTES
from repro.experiments.perf import EXP3_COLUMNS, exp3_rows


def main() -> None:
    run(
        make_parser(
            __doc__, ["--scale", "--queries", "--seed", "--keys"]
        ).parse_args(),
        exp3_rows,
        "exp3_space",
        "Exp-3 — per-query peak memory (tracemalloc, KiB)",
        EXP3_COLUMNS,
        PAPER_QUOTES["exp3"],
    )


if __name__ == "__main__":
    main()
