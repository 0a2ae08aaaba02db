"""Paired benchmark runs of two checkouts, appended to ``BENCH_vug.json``.

Runs ``python3 perfbench/run.py`` in a parent checkout and a change
checkout, alternately, ``--runs`` times each.  Odd pairs run the parent
first and even pairs the change first, so a drift in machine speed falls on
both sides.  The last stdout line of each run is its JSON result.  One entry
goes to the trajectory file: both SHAs, the core count, the command, the
answers' check, and per metric every run, the median, the quartiles and
how many pairs the change won.  Stdlib only; run from anywhere::

    git archive <parent-sha> | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --parent-sha <parent-sha> \\
        --change . --workload kernel_dense --seed 17 --runs 10 --seconds 20

A checkout that is a git work tree gives its own SHA (``HEAD``); an
exported tree needs ``--parent-sha`` / ``--change-sha``.  A run that
prints no JSON stops the tool with its stderr; a run whose answers fail is
recorded (``answers``) and counted, not dropped.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--parent-sha")
    p.add_argument("--change-sha")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--runs", type=int, default=10, help="runs per side")
    p.add_argument("--seconds", type=float, default=20.0, help="length of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--out", default=os.path.join(ROOT, "BENCH_vug.json"),
        help="trajectory file (a JSON list of entries)",
    )
    args = p.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        p.error("--runs must be at least 1 and --seconds positive")
    return args


def sha_of(checkout: str, given) -> str:
    if given:
        return given
    try:
        return subprocess.run(
            ["git", "-C", checkout, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"{checkout} is not a git work tree: give its SHA")


def run_once(checkout: str, argv) -> dict:
    proc = subprocess.run(
        ["python3", "perfbench/run.py", *argv],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"no JSON result from {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-3000:]}"
        )


def directions(checkout: str) -> dict:
    """Metric name → "lower" or "higher", from the checkout's BENCHMARK.json."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError:
        return {}
    return {
        m["name"]: m["better"]
        for m in bench.get("end_to_end", []) + bench.get("per_layer", [])
    }


def summary(values) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def entry(args, results, better) -> dict:
    metrics = {}
    for name in results["parent"][0]["metrics"]:
        runs = {
            side: [r["metrics"][name]["value"] for r in results[side]]
            for side in SIDES
        }
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(
            sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])
        )
        metrics[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "change_wins": wins,
        }
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "parent_sha": sha_of(args.parent, args.parent_sha),
        "change_sha": sha_of(args.change, args.change_sha),
        "cores": os.cpu_count(),
        "command": "python3 perfbench/run.py " + " ".join(run_argv(args)),
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.runs,
        "order": "odd pairs run the parent first",
        "answers": {
            side: {
                "attempted": sum(r["attempted"] for r in results[side]),
                "failed": sum(r["failed"] for r in results[side]),
                "correct": all(r["correct"] for r in results[side]),
            }
            for side in SIDES
        },
        "metrics": metrics,
    }


def run_argv(args):
    return [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
    ]


def report(e: dict) -> str:
    lines = [f"{e['workload']} seed {e['seed']}, {e['pairs']} pairs, parent → change"]
    for name, m in e["metrics"].items():
        p, c = m["parent"], m["change"]
        spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
        lines.append(
            f"  {name}: median {p['median']:.4g} ({p['q1']:.4g}–{p['q3']:.4g})"
            f" → {c['median']:.4g} ({c['q1']:.4g}–{c['q3']:.4g}), change better"
            f" in {m['change_wins']}/{e['pairs']}, parent quartile spread"
            f" {spread:.2f} of its median"
        )
    for side in SIDES:
        a = e["answers"][side]
        lines.append(
            f"  {side} answers: {a['attempted']} attempted, correct"
            f" {a['correct']}, {a['failed']} failed"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    checkouts = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(checkouts[side], run_argv(args)))
            print(f"pair {i + 1}/{args.runs}: {side} done", file=sys.stderr, flush=True)
    e = entry(args, results, directions(args.change))
    trajectory = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    trajectory.append(e)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(report(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
