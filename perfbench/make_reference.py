"""Write the committed answer references, cross-checked by independent routes.

For each workload's default seed this generates the query pool exactly as a
run does, answers every query with ``vug_local`` and only writes
``reference/<workload>.json`` when all of these agree:

* the ``EPtgTSG`` enumeration baseline, on every query it finishes within
  ``ENUM_EXPANSIONS`` expansions;
* the containment chain tspG ⊆ Gt ⊆ Gq ⊆ window projection, on every query,
  with Gq and Gt rebuilt from the public phase functions;
* ``vug_dataflow``, on every query of ``dataflow_query``.

Run from the root of a checkout (minutes; the dataflow check starts Spark)::

    python3 perfbench/make_reference.py [workload ...]
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import answers  # noqa: E402
import spark_env  # noqa: E402
import workloads  # noqa: E402
from repro.baselines.ep import ep_run  # noqa: E402
from repro.core.polarity import polarity_times  # noqa: E402
from repro.core.quick_ubg import quick_ubg_edges  # noqa: E402
from repro.core.tight_ubg import tight_ubg  # noqa: E402
from repro.core.vug import vug_dataflow, vug_local  # noqa: E402
from repro.graph import schema  # noqa: E402
from repro.graph.adjacency import TemporalAdjacency  # noqa: E402
from repro.graph.datasets import make_dataset  # noqa: E402
from repro.workload import generate_queries  # noqa: E402

ENUM_EXPANSIONS = 200_000


def containment_ok(adj, q, tspg) -> bool:
    A, D = polarity_times(adj, q.s, q.t, q.tb, q.te)
    gq = TemporalAdjacency(quick_ubg_edges(adj.edges, A, D))
    gt = tight_ubg(gq, q.s, q.t)
    window = set(schema.project_window(adj.edges, q.tb, q.te))
    return set(tspg) <= set(gt.edges) <= set(gq.edges) <= window


def build(name: str) -> dict:
    spec = workloads.SPECS[name]
    seed = answers.DEFAULT_SEED
    pdf = make_dataset(spec.dataset, scale=spec.scale, seed=0)
    adj = TemporalAdjacency(schema.pdf_to_edge_list(pdf))
    queries = generate_queries(
        adj, theta=spec.theta, n_queries=spec.pool, seed=seed
    )
    rows, enum_ok, enum_inf = [], 0, 0
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        tspg = vug_local(adj, q).edges
        if not containment_ok(adj, q, tspg):
            raise SystemExit(f"{name} query {i}: containment chain broken")
        ep = ep_run("EPtgTSG", adj, q, max_expansions=ENUM_EXPANSIONS)
        if ep.inf:
            enum_inf += 1
        elif ep.edges != tspg:
            raise SystemExit(f"{name} query {i}: enumeration disagrees")
        else:
            enum_ok += 1
        rows.append([q.s, q.t, q.tb, q.te, len(tspg), answers.digest(tspg)])
        if i % 100 == 99:
            print(f"{name}: {i + 1}/{len(queries)} {time.perf_counter() - t0:.0f}s",
                  flush=True)
    checks = {
        "containment_chain": len(queries),
        "enumeration_agreed": enum_ok,
        "enumeration_over_budget": enum_inf,
        "enumeration_expansions": ENUM_EXPANSIONS,
    }
    if spec.engine == "dataflow":
        run = spark_env.start_spark(ROOT, spark_env.DATAFLOW_SHUFFLE_PARTITIONS)
        try:
            edf = schema.edges_to_spark(run.spark, pdf).coalesce(1).cache()
            for i, q in enumerate(queries):
                got = schema.spark_edges_to_list(vug_dataflow(run.spark, edf, q))
                if answers.digest(got) != rows[i][5] or len(got) != rows[i][4]:
                    raise SystemExit(f"{name} query {i}: dataflow disagrees")
        finally:
            spark_env.stop_spark(run.spark)
        checks["dataflow_agreed"] = len(queries)
    return {
        "workload": name,
        "dataset": spec.dataset,
        "scale": spec.scale,
        "theta": spec.theta,
        "seed": seed,
        "checks": checks,
        "columns": ["s", "t", "tb", "te", "tspg_size", "tspg_digest"],
        "rows": rows,
    }


def main(names) -> None:
    os.makedirs(answers.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.SPECS):
        ref = build(name)
        # One row per line keeps diffs readable.
        body = ",\n".join("  " + json.dumps(r) for r in ref["rows"])
        head = json.dumps({k: v for k, v in ref.items() if k != "rows"}, indent=1)
        with open(answers.reference_path(name), "w") as f:
            f.write(head[:-2] + ',\n "rows": [\n' + body + "\n ]\n}\n")
        print(f"{name}: {ref['checks']}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
