"""TABLE I: paper dataset statistics vs our scaled synthetic stand-ins."""
from _common import check, emit, make_parser, parse_scale

from repro.experiments.tables import TABLE1_COLUMNS, table1_rows


def main() -> None:
    args = make_parser(__doc__).parse_args()
    rows = table1_rows(
        scale=parse_scale(args.scale), seed=args.seed, keys=args.keys
    )
    emit("table1_datasets", "TABLE I — dataset statistics", rows, TABLE1_COLUMNS)
    for r in rows:
        check(
            r["our_m"] >= 200 and r["our_n"] >= 60,
            f"{r['key']}: at least 200 edges and 60 vertices",
        )


if __name__ == "__main__":
    main()
