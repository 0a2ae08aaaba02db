"""Escaped Edges Verification (paper Alg. 6) + BiDirSearch (Alg. 7).

EEV turns the tight upper-bound graph ``Gt`` into the exact tspG without
enumerating all temporal simple paths:

1. Pre-verify every ``s``-out and ``t``-in edge (Lemma 2) and every edge one
   hop after an earlier ``s``-out edge / one hop before a later ``t``-in edge
   (Lemma 10).
2. For each remaining ("escaped") unverified edge, run a bidirectional DFS
   for one temporal simple path through it.  If found, confirm every edge of
   the path plus every timestamp-substitutable parallel edge between
   consecutive interior path vertices (Lemma 11); if not found, the edge is
   not in the tspG.

BiDirSearch carries both paper optimizations: the longer half-window is
searched first (so its vertex claims constrain the cheaper half), and
neighbors are explored latest-first forward / earliest-first backward,
biasing toward short paths.

Implementation note beyond the paper: the DFS additionally prunes with
*Gt-local polarity times* — a forward step to ``w`` at τ is skipped when no
temporal path ``w → t`` departs after τ inside ``Gt`` (``D_gt(w) ≤ τ``),
and symmetrically backward with ``A_gt``.  The bound ignores the visited
set, so it is admissible: it only removes provably dead branches and the
returned result is unchanged (property-tested against brute force); on
dense tight graphs it removes almost all backtracking.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Set

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.polarity import arrival_times, departure_times
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    EDGE_SCHEMA,
    Edge,
    edges_to_pdf,
    edges_to_spark,
    pdf_to_edge_list,
    spark_edges_to_list,
)

_Polarity = Optional[dict]


class _HardFail(Exception):
    """Second search half failed without ever being blocked by a vertex the
    first half claimed — no first-half alternative can change that tree, so
    the whole bidirectional search fails (conflict-directed backjumping)."""


class _Budget(Exception):
    """Second-half attempt exceeded its expansion budget; the caller retries
    with claim-aware polarity pruning (same result, far smaller tree)."""


# Expansions a second-half attempt may spend before the search escalates to
# claim-aware pruning (recomputing a polarity map over Gt minus the first
# half's claimed vertices, O(window edges)).
_PHASE2_BUDGET = 2000


def bidir_search(
    edge: Edge,
    gt: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    arrival: _Polarity = None,
    departure: _Polarity = None,
) -> Optional[List[Edge]]:
    """Find one temporal simple path ``s → t`` through ``edge`` (Alg. 7).

    Returns the path as an edge list, or ``None`` when no such path exists.
    ``arrival``/``departure`` are optional Gt-local polarity maps used as
    admissible dead-branch pruning (see module docstring); the result is
    identical with or without them.
    """
    u0, v0, ts0 = edge
    visited: Set[int] = {u0, v0}
    f_edges: List[Edge] = []
    b_edges: List[Edge] = []
    dep = departure if departure is not None else {}
    arr = arrival if arrival is not None else {}
    prune_f = departure is not None
    prune_b = arrival is not None
    # Conflict tracking for the second phase: ``p2[0]`` holds the vertices
    # claimed before the second half started, ``p2[1]`` flips to True when
    # the second half is blocked by one of them.  ``None`` in phase one.
    p2: list = [None, False]
    # Remaining expansion budget of the current second-half attempt (None =
    # unbudgeted, i.e. phase one or an escalated re-run).
    budget: list = [None]

    def _phase2(run_second, forward_is_second: bool) -> bool:
        nonlocal dep, arr, prune_f, prune_b
        snapshot = frozenset(visited)
        len_f, len_b = len(f_edges), len(b_edges)
        p2[0], p2[1] = snapshot, False
        budget[0] = _PHASE2_BUDGET
        try:
            try:
                ok = run_second()
            except _Budget:
                # Unwind the aborted attempt and escalate: recompute the
                # second direction's polarity map with the first half's
                # claims removed, then re-run unbudgeted.  The tighter map
                # absorbs claim conflicts, so hard-fail no longer applies.
                del f_edges[len_f:]
                del b_edges[len_b:]
                visited.clear()
                visited.update(snapshot)
                p2[1] = True
                budget[0] = None
                saved = (dep, arr, prune_f, prune_b)
                try:
                    if forward_is_second:
                        dep = departure_times(gt, s, t, tb, te, snapshot)
                        prune_f = True
                    else:
                        arr = arrival_times(gt, s, t, tb, te, snapshot)
                        prune_b = True
                    ok = run_second()
                finally:
                    dep, arr, prune_f, prune_b = saved
            if ok:
                return True
            if not p2[1]:
                raise _HardFail  # failure independent of first-half choices
            return False
        finally:
            budget[0] = None
            p2[0] = None

    def forward(cur: int, tcur: int, then_backward: bool) -> bool:
        if cur == t:
            if not then_backward:
                return True
            return _phase2(lambda: backward(u0, ts0, False), False)
        for ts, w in gt.out_edges(cur):  # non-ascending τ (optimization ii)
            if ts <= tcur:
                break
            if ts > te or w == s:
                continue
            if budget[0] is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise _Budget
            if w in visited:
                if p2[0] is not None and w != u0 and w != v0 and w in p2[0]:
                    p2[1] = True
                continue
            if w != t and prune_f and dep.get(w, tb - 1) <= ts:
                continue  # no departure w -> t after τ exists in Gt
            f_edges.append((cur, w, ts))
            if w != t:
                visited.add(w)
            if forward(w, ts, then_backward):
                return True
            if w != t:
                visited.discard(w)
            f_edges.pop()
        return False

    def backward(cur: int, tcur: int, then_forward: bool) -> bool:
        if cur == s:
            if not then_forward:
                return True
            return _phase2(lambda: forward(v0, ts0, False), True)
        for ts, w in gt.in_edges(cur):  # non-descending τ (optimization ii)
            if ts >= tcur:
                break
            if ts < tb or w == t:
                continue
            if budget[0] is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise _Budget
            if w in visited:
                if p2[0] is not None and w != u0 and w != v0 and w in p2[0]:
                    p2[1] = True
                continue
            if w != s and prune_b and arr.get(w, te + 1) >= ts:
                continue  # no arrival s -> w before τ exists in Gt
            b_edges.append((w, cur, ts))
            if w != s:
                visited.add(w)
            if backward(w, ts, then_forward):
                return True
            if w != s:
                visited.discard(w)
            b_edges.pop()
        return False

    # Optimization i): search the longer half-window first.
    try:
        if ts0 - tb > te - ts0:
            ok = forward(v0, ts0, True)
        else:
            ok = backward(u0, ts0, True)
    except _HardFail:
        return None
    if not ok:
        return None
    return list(reversed(b_edges)) + [edge] + f_edges


def confirm_path(
    path: List[Edge], gt: TemporalAdjacency, confirmed: Set[Edge]
) -> None:
    """Add a found path and its Lemma-11 substitutes to ``confirmed``.

    Edges at positions 1, 2, l-1, l are covered by the Lemma-2/10
    pre-verification; substitutes are generated for interior positions only
    (paper Alg. 6 L11-19), but the path's own edges are always added — the
    set union makes the overlap harmless.
    """
    l = len(path)
    confirmed.update(path)
    for i in range(3, l - 1):  # 1-based interior positions 3 .. l-2
        a, b, _ = path[i - 1]
        lo = path[i - 2][2]  # τ_{i-1}
        hi = path[i][2]  # τ_{i+1}
        for ts_j, w in gt.out_edges(a):
            if ts_j <= lo:
                break  # descending order: the rest are ≤ lo too
            if w == b and ts_j < hi:
                confirmed.add((a, b, ts_j))


def preverified_edges(
    gt: TemporalAdjacency, s: int, t: int
) -> Set[Edge]:
    """Lemma-2 and Lemma-10 confirmations (Alg. 6 L2-5)."""
    out: Set[Edge] = set()
    s_min = {}
    for ts, v in gt.out_edges(s):
        out.add((s, v, ts))  # Lemma 2
        s_min[v] = min(ts, s_min.get(v, ts))
    t_max = {}
    for ts, u in gt.in_edges(t):
        out.add((u, t, ts))  # Lemma 2
        t_max[u] = max(ts, t_max.get(u, ts))
    for u, tmin in s_min.items():
        for ts, v in gt.out_edges(u):
            if ts > tmin:
                out.add((u, v, ts))  # Lemma 10 i)
    for v, tmax in t_max.items():
        for ts, u in gt.in_edges(v):
            if ts < tmax:
                out.add((u, v, ts))  # Lemma 10 ii)
    return out


def eev(
    gt: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> List[Edge]:
    """Exact tspG edge set from the tight upper-bound graph (Alg. 6)."""
    confirmed = preverified_edges(gt, s, t)
    arrival = arrival_times(gt, s, t, tb, te)
    departure = departure_times(gt, s, t, tb, te)
    for edge in gt.by_ts:
        if edge in confirmed:
            continue
        path = bidir_search(edge, gt, s, t, tb, te, arrival, departure)
        if path is None:
            continue  # escaped edge proven absent from every simple path
        confirm_path(path, gt, confirmed)
    # Gt's own tuples in sorted order: confirmed ⊆ gt.edges.
    return [e for e in gt.edges if e in confirmed]


# ---------------------------------------------------------------------------
# Distributed EEV
# ---------------------------------------------------------------------------


def eev_df(
    spark: SparkSession,
    gt_df: DataFrame,
    s: int,
    t: int,
    tb: int,
    te: int,
) -> DataFrame:
    """Distributed Alg. 6 on the collected ``Gt``: the kernel's Lemma-2/10
    pre-verification, then the escaped edges verified in parallel
    ``mapInPandas`` tasks against a broadcast ``Gt``.

    Each task applies Lemma-11 batch confirmation within its partition;
    confirmations are unioned distinct, so the result set is identical to
    the sequential algorithm (only duplicate search work differs).
    """
    gt_rows = spark_edges_to_list(gt_df)
    pre = preverified_edges(TemporalAdjacency(gt_rows), s, t)
    escaped = [e for e in gt_rows if e not in pre]
    bc = spark.sparkContext.broadcast(gt_rows)
    s_, t_, tb_, te_ = int(s), int(t), int(tb), int(te)

    def verify(batches: Iterable[pd.DataFrame]):
        edges = sorted(
            (e for pdf in batches for e in pdf_to_edge_list(pdf)),
            key=lambda e: (e[2], e[0], e[1]),
        )
        if not edges:
            return
        gt_local = TemporalAdjacency(bc.value)
        arrival = arrival_times(gt_local, s_, t_, tb_, te_)
        departure = departure_times(gt_local, s_, t_, tb_, te_)
        confirmed: Set[Edge] = set()
        for edge in edges:
            if edge in confirmed:
                continue
            path = bidir_search(
                edge, gt_local, s_, t_, tb_, te_, arrival, departure
            )
            if path is not None:
                confirm_path(path, gt_local, confirmed)
        yield edges_to_pdf(confirmed)

    n_tasks = max(2, spark.sparkContext.defaultParallelism // 2)
    confirmed_df = (
        edges_to_spark(spark, edges_to_pdf(escaped))
        .repartition(n_tasks)
        .mapInPandas(verify, schema=EDGE_SCHEMA)
    )
    pre_df = edges_to_spark(spark, edges_to_pdf(pre))
    return pre_df.unionByName(confirmed_df).distinct()
