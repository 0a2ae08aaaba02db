"""Upper-bound graph reductions used by the baselines (paper Sec. III-A).

* ``dt_tsg`` — interval projection: keep edges with τ ∈ [τb, τe]. O(m).
* ``es_tsg`` — keep edges on some s→t path with **non-decreasing**
  timestamps (Jin et al. [12]): bidirectional non-strict reachability
  labels, kept when ``A≼(u) ≤ τ ≤ D≽(v)``. O(m).
* ``tg_tsg`` — keep edges on some s→t path with **strictly ascending**
  timestamps, computed with the Dijkstra-style priority-queue method of
  [12].  Produces exactly the same graph as QuickUBG (the paper notes the
  identical reduction effect) but pays the O(log n) heap factor that Exp-5
  measures QuickUBG against — so this implementation deliberately keeps the
  lazy-deletion binary heap.

All three return subgraphs of the projected window and are upper bounds of
the tspG: dt ⊇ es ⊇ tg = quick ⊇ tight ⊇ tspG.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict

from repro.core.quick_ubg import quick_ubg_edges
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import project_window


def dt_tsg(adj: TemporalAdjacency, tb: int, te: int) -> TemporalAdjacency:
    """Projected graph of the window (dtTSG)."""
    return TemporalAdjacency(project_window(adj.edges, tb, te))


def _nd_arrival(
    adj: TemporalAdjacency, s: int, tb: int, te: int
) -> Dict[int, int]:
    """Earliest non-decreasing arrival from ``s`` (A≼(s) = τb, edges τ ≥ A)."""
    from collections import deque

    A: Dict[int, int] = {s: tb}
    q = deque([s])
    in_q = {s}
    while q:
        u = q.popleft()
        in_q.discard(u)
        au = A[u]
        for ts, v in adj.out_edges(u):  # descending τ
            if ts < au:
                break
            if ts > te:
                continue
            if ts < A.get(v, te + 1):
                A[v] = ts
                if v not in in_q:
                    q.append(v)
                    in_q.add(v)
    return A


def _nd_departure(
    adj: TemporalAdjacency, t: int, tb: int, te: int
) -> Dict[int, int]:
    """Latest non-decreasing departure toward ``t`` (D≽(t) = τe)."""
    from collections import deque

    D: Dict[int, int] = {t: te}
    q = deque([t])
    in_q = {t}
    while q:
        u = q.popleft()
        in_q.discard(u)
        du = D[u]
        for ts, v in adj.in_edges(u):  # ascending τ
            if ts > du:
                break
            if ts < tb:
                continue
            if ts > D.get(v, tb - 1):
                D[v] = ts
                if v not in in_q:
                    q.append(v)
                    in_q.add(v)
    return D


def es_tsg(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> TemporalAdjacency:
    """Non-decreasing-path reduction (esTSG)."""
    A = _nd_arrival(adj, s, tb, te)
    D = _nd_departure(adj, t, tb, te)
    keep = []
    for u, v, ts in adj.edges:
        if not (tb <= ts <= te):
            continue
        au = A.get(u)
        dv = D.get(v)
        if au is not None and dv is not None and au <= ts <= dv:
            keep.append((u, v, ts))
    return TemporalAdjacency(keep)


def _dijkstra_arrival(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> Dict[int, int]:
    """Strict earliest arrival from ``s`` avoiding ``t`` — heap-based."""
    INF = te + 2
    A: Dict[int, int] = {s: tb - 1}
    heap: list = [(tb - 1, s)]
    while heap:
        a, u = heapq.heappop(heap)
        if a != A.get(u):
            continue  # stale entry (lazy deletion)
        lst = adj.out_asc(u)
        # first out-edge with τ > a
        lo = bisect_right(lst, (a, float("inf")))
        for ts, v in lst[lo:]:
            if ts > te:
                break
            if v == t:
                continue
            if ts < A.get(v, INF):
                A[v] = ts
                heapq.heappush(heap, (ts, v))
    return A


def _dijkstra_departure(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> Dict[int, int]:
    """Strict latest departure toward ``t`` avoiding ``s`` — heap-based."""
    NEG = tb - 2
    D: Dict[int, int] = {t: te + 1}
    heap: list = [(-(te + 1), t)]
    while heap:
        d, u = heapq.heappop(heap)
        d = -d
        if d != D.get(u):
            continue
        lst = adj.in_edges(u)  # ascending τ
        hi = bisect_right(lst, (d - 1, float("inf")))
        for ts, v in lst[:hi]:
            if ts < tb:
                continue
            if v == s:
                continue
            if ts > D.get(v, NEG):
                D[v] = ts
                heapq.heappush(heap, (-ts, v))
    return D


def tg_tsg(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> TemporalAdjacency:
    """Strict-ascending-path reduction via bidirectional Dijkstra (tgTSG).

    Same resulting graph as QuickUBG: the labels come from the heap, the
    keep test is QuickUBG's own Lemma-1 filter.
    """
    A = _dijkstra_arrival(adj, s, t, tb, te)
    D = _dijkstra_departure(adj, s, t, tb, te)
    return TemporalAdjacency(quick_ubg_edges(adj.edges, A, D))
