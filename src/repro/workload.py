"""Query workload generation (paper Sec. VI-A).

The paper evaluates 1000 random queries per dataset, each a tuple
``(s, t, [τb, τe])`` with span θ where ``s`` can temporally reach ``t``
within the window.  ``generate_queries`` reproduces that: pick a random
window of span θ, pick the source of a random in-window edge as ``s``,
compute strict temporal reachability from ``s`` in the window, and pick a
random reachable ``t``.  Deterministic in ``seed``.

Reachability runs as whole-array rounds (the label rounds of MS-BFS, Then
et al., PVLDB 2014), one per distinct timestamp in the window.  Once per
call the edges become int64 arrays sorted by τ, over dense vertex
positions, cut at the start of each distinct τ (its *rank*).  Per try the
window is a rank range found by bisecting the distinct timestamps, so no
θ, however wide, allocates by its span.  Round ``r`` marks the heads of
rank-``r`` edges whose tails were reached before it.  A boolean per vertex
is the whole label: no timestamp or sentinel is stored, so none can
collide with an int64 timestamp.

The stream equals that of the earliest-arrival scan this replaced (kept as
``tests/reference.py``'s oracle): the same RNG calls in the same order on
the same arrays.  ``integers(lo, hi + 1)`` draws ``τb``; ``choice`` draws
from the in-window edges' positions in ``adj.edges`` order, and then from
the reachable vertices in ascending order.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from typing import List

import numpy as np
import pandas as pd

from repro.graph.adjacency import TemporalAdjacency


@dataclass(frozen=True)
class Query:
    """One tspG query: source, target, inclusive time interval.

    Every field must be an integer (numpy integers included); ``None``,
    floats (NaN too) and ``bool`` are refused, since a vertex or timestamp
    given as ``True`` is a mistake, not the id 1.  ``s = t`` is refused (a
    path back to ``s`` is a cycle, not a simple path), and so is an empty
    interval ``τb > τe``.
    """

    s: int
    t: int
    tb: int
    te: int

    def __post_init__(self):
        for name in ("s", "t", "tb", "te"):
            v = getattr(self, name)
            if not isinstance(v, Integral) or isinstance(v, bool):
                raise ValueError(f"query field {name} is not an integer: {v!r}")
        if self.s == self.t:
            raise ValueError(f"query source and target are both {self.s}")
        if self.tb > self.te:
            raise ValueError(f"empty query interval [{self.tb}, {self.te}]")

    @property
    def theta(self) -> int:
        return self.te - self.tb + 1


def _check_argument(name: str, value, least: int) -> None:
    """Refuse a non-integer (``bool`` included, as :class:`Query` does) or a
    value below ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} is not an integer: {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}: {value!r}")


def generate_queries(
    adj: TemporalAdjacency,
    *,
    theta: int,
    n_queries: int,
    seed: int = 0,
    max_tries: int = 2000,
) -> List[Query]:
    """Random reachability-guaranteed queries with span ``theta``.

    Vertex ids and timestamps must fit int64 (``OverflowError`` otherwise);
    ``theta``, ``max_tries`` ≥ 1 and ``n_queries`` ≥ 0 must be integers.
    """
    _check_argument("theta", theta, 1)
    _check_argument("n_queries", n_queries, 0)
    _check_argument("max_tries", max_tries, 1)
    theta = int(theta)
    if not adj.edges:
        raise ValueError("empty graph")
    g = np.random.default_rng(seed)
    m = len(adj.edges)
    e = np.fromiter(chain.from_iterable(adj.edges), np.int64, 3 * m).reshape(m, 3)
    ts = e[:, 2]
    verts = np.unique(e[:, :2])
    pos = np.searchsorted(verts, e[:, :2])
    order = np.argsort(ts, kind="stable")
    src = pos[order, 0]
    dst = pos[order, 1]
    ts_sorted = ts[order]
    starts = np.flatnonzero(np.r_[True, ts_sorted[1:] != ts_sorted[:-1]])
    times = ts_sorted[starts].tolist()  # distinct τ; rank r is times[r]
    bounds = starts.tolist() + [m]  # rank r's edges: bounds[r] .. bounds[r+1]
    lo = times[0]
    hi = max(lo, times[-1] - theta + 1)
    reached = np.empty(len(verts), dtype=bool)
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
        ra = bisect_left(times, tb)
        rb = bisect_right(times, te, ra)
        if ra == rb:
            continue
        # The in-window edges' positions in adj.edges order, as the scan drew.
        in_win = np.sort(order[bounds[ra] : bounds[rb]])
        sp = pos[int(g.choice(in_win)), 0]
        reached.fill(False)
        reached[sp] = True
        for r in range(ra, rb):
            a, b = bounds[r], bounds[r + 1]
            # numpy reads the whole index before it writes, so an edge only
            # leaves a vertex reached before τ rank r: equal τ never chain.
            reached[dst[a:b][reached[src[a:b]]]] = True
        reached[sp] = False
        reachable = verts[reached]  # ascending, as verts is
        if not len(reachable):
            continue
        t = int(g.choice(reachable))
        out.append(Query(int(verts[sp]), t, tb, te))
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
