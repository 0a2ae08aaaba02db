"""Shared plumbing for spark-submit entrypoints.

Each job offers the options its harness reads, builds (or reuses) a local
SparkSession unless run with ``--local``, runs the harness, prints the
paper-vs-measured markdown table, and persists rows under results/.  Jobs
that reproduce a qualitative shape of the paper then ``check`` it on the
rows and exit non-zero when a check fails.  Run as e.g.::

    spark-submit jobs/table2_upper_bound_ratio.py --scale bench --queries 25
    python jobs/exp1_response_time.py --local        # no Spark parallelism
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

# ``repro`` lives under the checkout's src/: import it from there, here and
# (see ``get_spark``) in Spark's Python workers.
SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from pyspark.sql import SparkSession

from repro.experiments.io import fmt_markdown_table, save_results


def parse_scale(v: str):
    return v if v in ("test", "bench") else float(v)


# Each option's ``dest`` is the harness keyword it fills; ``--local`` picks
# the runner instead.
OPTIONS = {
    "--scale": dict(
        type=parse_scale, default="bench", help="test | bench | explicit sf"
    ),
    "--queries": dict(
        dest="n_queries", metavar="N", type=int, default=25,
        help="queries per dataset",
    ),
    "--seed": dict(type=int, default=0),
    "--local": dict(
        action="store_true",
        help="run the workload in-process instead of on Spark",
    ),
    "--keys": dict(nargs="*", default=None, help="subset of D1..D10"),
}


def make_parser(desc: str, options=tuple(OPTIONS)) -> argparse.ArgumentParser:
    """A parser offering ``options`` (all of ``OPTIONS`` by default)."""
    p = argparse.ArgumentParser(description=desc)
    for flag in options:
        p.add_argument(flag, **OPTIONS[flag])
    return p


def get_spark(app: str) -> SparkSession:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
    )
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


def run(
    args: argparse.Namespace, harness, name: str, title: str, columns,
    paper_notes=None,
):
    """Pass each of the job's parsed options to ``harness``, print the
    paper-vs-measured table, save the rows under results/ and return them.

    A job offering ``--local`` runs its harness's grid on Spark unless the
    option is given; other harnesses take no session.
    """
    kwargs = dict(vars(args))
    if "local" in kwargs:
        local = kwargs.pop("local")
        rows = harness(None if local else get_spark(name), **kwargs)
    else:
        rows = harness(**kwargs)
    print(f"\n## {title}\n")
    print(fmt_markdown_table(rows, columns))
    if paper_notes:
        print("\nPaper reference points:")
        for note in paper_notes:
            print(f"  - {note}")
    path = save_results(name, rows, columns)
    print(f"\n[saved {path}]")
    return rows


def check(ok: Optional[bool], what: str) -> None:
    """A paper-shape check on the saved rows; a failure exits non-zero.

    ``ok`` is None when the rows the check reads were not requested
    (``--keys``): the check then neither passes nor fails.
    """
    if ok is None:
        print(f"[check not run: {what} (its rows were not requested)]")
        return
    if not ok:
        raise SystemExit(f"check failed: {what}")
    print(f"[check passed: {what}]")
