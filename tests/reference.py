"""Independent brute-force reference implementations for cross-checking.

Deliberately written with different machinery than ``src/repro`` (state-set
fixpoints and plain recursive enumeration, no pointers/heaps/TCV) so that a
bug in the kernel is unlikely to be mirrored here.  ``scan_generate_queries``
is the query generator as a per-try earliest-arrival scan: the vectorised
``repro.workload.generate_queries`` must repeat its query stream.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.polarity import arrival_times
from repro.graph.adjacency import TemporalAdjacency
from repro.workload import Query

Edge = Tuple[int, int, int]


def brute_paths(
    edges: Sequence[Edge], s: int, t: int, tb: int, te: int
) -> List[List[Edge]]:
    """All strict, vertex-simple temporal paths s -> t within [tb, te]."""
    out: List[List[Edge]] = []

    def rec(cur: int, tcur: int, vis: Set[int], acc: List[Edge]):
        if cur == t:
            out.append(list(acc))
            return
        for (u, v, ts) in edges:
            if u == cur and tcur < ts <= te and v not in vis:
                rec(v, ts, vis | {v}, acc + [(u, v, ts)])

    rec(s, tb - 1, {s}, [])
    return out


def brute_tspg(
    edges: Sequence[Edge], s: int, t: int, tb: int, te: int
) -> List[Edge]:
    """tspG edge set by exhaustive enumeration."""
    es: Set[Edge] = set()
    for p in brute_paths(edges, s, t, tb, te):
        es.update(p)
    return sorted(es)


def brute_arrival(
    edges: Sequence[Edge], s: int, t: int, tb: int, te: int
) -> Dict[int, int]:
    """Earliest strict arrival avoiding t, via a state-set fixpoint."""
    states: Set[Tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for (u, v, ts) in edges:
            if not (tb <= ts <= te) or v == t or u == t:
                continue
            ok = u == s or any(w == u and pt < ts for (w, pt) in states)
            if ok and (v, ts) not in states:
                states.add((v, ts))
                changed = True
    A: Dict[int, int] = {s: tb - 1}
    for v, ts in states:
        A[v] = min(A.get(v, ts), ts)
    return A


def brute_departure(
    edges: Sequence[Edge], s: int, t: int, tb: int, te: int
) -> Dict[int, int]:
    """Latest strict departure avoiding s, via a state-set fixpoint."""
    states: Set[Tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for (u, v, ts) in edges:
            if not (tb <= ts <= te) or u == s or v == s:
                continue
            ok = v == t or any(w == v and pt > ts for (w, pt) in states)
            if ok and (u, ts) not in states:
                states.add((u, ts))
                changed = True
    D: Dict[int, int] = {t: te + 1}
    for v, ts in states:
        D[v] = max(D.get(v, ts), ts)
    return D


def brute_tcv_source(
    gq_edges: Sequence[Edge], s: int, t: int, u: int, tb: int, tau: int
) -> Optional[FrozenSet[int]]:
    """Def. 5: intersect vertex sets of all simple paths s->u (avoiding t)
    within [tb, tau] **in Gq**; None when no such path exists."""
    paths = [
        p
        for p in brute_paths(gq_edges, s, u, tb, tau)
        if all(t not in (a, b) for (a, b, _) in p)
    ]
    if not paths:
        return None
    sets = [frozenset(v for e in p for v in e[:2]) - {s} for p in paths]
    out = sets[0]
    for x in sets[1:]:
        out &= x
    return out


def brute_tcv_target(
    gq_edges: Sequence[Edge], s: int, t: int, u: int, tau: int, te: int
) -> Optional[FrozenSet[int]]:
    """Def. 5 mirror: all simple paths u->t (avoiding s) within [tau, te]."""
    paths = [
        p
        for p in brute_paths(gq_edges, u, t, tau - 1 + 1, te)
        if all(s not in (a, b) for (a, b, _) in p)
    ]
    # brute_paths starts strictly after tb-1; departing >= tau means the
    # first edge timestamp is in [tau, te].
    paths = [p for p in paths if p and p[0][2] >= tau]
    if not paths:
        return None
    sets = [frozenset(v for e in p for v in e[:2]) - {t} for p in paths]
    out = sets[0]
    for x in sets[1:]:
        out &= x
    return out


def scan_generate_queries(
    adj: TemporalAdjacency,
    *,
    theta: int,
    n_queries: int,
    seed: int = 0,
    max_tries: int = 2000,
) -> List[Query]:
    """The query generator as a per-try earliest-arrival scan: the oracle
    whose query stream ``repro.workload.generate_queries`` must repeat."""
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
