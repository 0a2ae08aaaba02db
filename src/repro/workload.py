"""Query workload generation (paper Sec. VI-A).

The paper evaluates 1000 random queries per dataset, each a tuple
``(s, t, [τb, τe])`` with span θ where ``s`` can temporally reach ``t``
within the window.  ``generate_queries`` reproduces that: pick a random
window of span θ, pick the source of a random in-window edge as ``s``,
compute strict temporal reachability from ``s`` in the window, and pick a
random reachable ``t``.  Deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import pandas as pd

from repro.core.polarity import arrival_times
from repro.graph.adjacency import TemporalAdjacency


@dataclass(frozen=True)
class Query:
    """One tspG query: source, target, inclusive time interval.

    ``s = t`` is refused (a path back to ``s`` is a cycle, not a simple
    path), and so is an empty interval ``τb > τe``.
    """

    s: int
    t: int
    tb: int
    te: int

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError(f"query source and target are both {self.s}")
        if self.tb > self.te:
            raise ValueError(f"empty query interval [{self.tb}, {self.te}]")

    @property
    def theta(self) -> int:
        return self.te - self.tb + 1


def generate_queries(
    adj: TemporalAdjacency,
    *,
    theta: int,
    n_queries: int,
    seed: int = 0,
    max_tries: int = 2000,
) -> List[Query]:
    """Random reachability-guaranteed queries with span ``theta``."""
    if not adj.edges:
        raise ValueError("empty graph")
    g = np.random.default_rng(seed)
    ts_all = np.array([e[2] for e in adj.edges], dtype="int64")
    ts_min, ts_max = int(ts_all.min()), int(ts_all.max())
    lo, hi = ts_min, max(ts_min, ts_max - theta + 1)
    out: List[Query] = []
    tries = 0
    while len(out) < n_queries:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not find {n_queries} reachable queries in {max_tries} tries"
            )
        tb = int(g.integers(lo, hi + 1))
        te = tb + theta - 1
        in_win = np.nonzero((ts_all >= tb) & (ts_all <= te))[0]
        if len(in_win) == 0:
            continue
        s = adj.edges[int(g.choice(in_win))][0]
        # Strict reachability from s in the window; -1 is a non-vertex, so no
        # via-t exclusion applies while scouting targets.
        arr = arrival_times(adj, s, -1, tb, te)
        reachable = [v for v in arr if v != s]
        if not reachable:
            continue
        t = int(g.choice(np.array(sorted(reachable), dtype="int64")))
        out.append(Query(int(s), t, tb, te))
    return out


def queries_to_pdf(queries: List[Query]) -> pd.DataFrame:
    """Queries as a pandas table (qid, s, t, tb, te) for Spark workloads."""
    return pd.DataFrame(
        {
            "qid": np.arange(len(queries), dtype="int64"),
            "s": [q.s for q in queries],
            "t": [q.t for q in queries],
            "tb": [q.tb for q in queries],
            "te": [q.te for q in queries],
        }
    ).astype("int64")
