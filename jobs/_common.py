"""Shared plumbing for spark-submit entrypoints.

Each job builds (or reuses) a local SparkSession, runs one experiment
harness, prints the paper-vs-measured markdown table, and persists rows
under results/.  Jobs that reproduce a qualitative shape of the paper then
``check`` it on the rows and exit non-zero when a check fails.  Run as e.g.::

    spark-submit jobs/table2_upper_bound_ratio.py --scale bench --queries 25
    python jobs/exp1_response_time.py --local        # no Spark parallelism
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from pyspark.sql import SparkSession

from repro.experiments.io import fmt_markdown_table, save_results


def make_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", default="bench", help="test | bench | explicit sf")
    p.add_argument("--queries", type=int, default=25, help="queries per dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--local", action="store_true",
        help="run the workload in-process instead of on Spark",
    )
    p.add_argument("--keys", nargs="*", default=None, help="subset of D1..D10")
    return p


def parse_scale(v: str):
    return v if v in ("test", "bench") else float(v)


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def emit(name: str, title: str, rows, columns, paper_notes=None) -> None:
    print(f"\n## {title}\n")
    print(fmt_markdown_table(rows, columns))
    if paper_notes:
        print("\nPaper reference points:")
        for note in paper_notes:
            print(f"  - {note}")
    path = save_results(name, rows, columns)
    print(f"\n[saved {path}]")


def check(ok: bool, what: str) -> None:
    """A paper-shape check on the saved rows; a failure exits non-zero."""
    if not ok:
        raise SystemExit(f"check failed: {what}")
    print(f"[check passed: {what}]")
