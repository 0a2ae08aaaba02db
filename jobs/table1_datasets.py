"""TABLE I: paper dataset statistics vs our scaled synthetic stand-ins."""
from _common import check, make_parser, run

from repro.experiments.tables import TABLE1_COLUMNS, table1_rows


def main() -> None:
    rows = run(
        make_parser(__doc__, ["--scale", "--seed", "--keys"]).parse_args(),
        table1_rows,
        "table1_datasets",
        "TABLE I — dataset statistics",
        TABLE1_COLUMNS,
    )
    for r in rows:
        check(
            r["our_m"] >= 200 and r["our_n"] >= 60,
            f"{r['key']}: at least 200 edges and 60 vertices",
        )


if __name__ == "__main__":
    main()
