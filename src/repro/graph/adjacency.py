"""Timestamp-sorted adjacency used by the per-query local kernels.

Two views of one temporal edge set:

* ``by_ts`` — every edge in one list sorted by τ (ties in ``(u, v)``
  order).  The phases that touch the whole window are single passes over a
  slice of it: polarity times (the one-pass earliest-arrival scan of Wu et
  al., PVLDB 2014), the Lemma-1 filter, the TCV sweep and EEV's edge order.
  Their backward forms run the same pass over the time-reversed stream
  (:func:`repro.graph.schema.reverse_edges`).
* Per-vertex neighbor lists ``(τ, w)``: out-neighbors by **descending** τ
  and in-neighbors by **ascending** τ.  These are the orders the
  bidirectional DFS (Alg. 7) explores — forward latest-first, backward
  earliest-first — and what Lemma-10/11 confirmation reads.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from repro.graph.schema import Edge

_TS = itemgetter(2)


class TemporalAdjacency:
    """Immutable adjacency view of a temporal edge set."""

    def __init__(self, edges: Iterable[Edge]):
        self.edges: List[Edge] = sorted(set(edges))
        # Stable sort of the (u, v, τ)-sorted edges: (τ, u, v) order.
        self.by_ts: List[Edge] = sorted(self.edges, key=_TS)
        out: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        inc: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        verts = set()
        for u, v, ts in self.edges:
            out[u].append((ts, v))
            inc[v].append((ts, u))
            verts.add(u)
            verts.add(v)
        for u in out:
            out[u].sort(key=lambda p: (-p[0], p[1]))
        for v in inc:
            inc[v].sort()
        self.out_desc: Dict[int, List[Tuple[int, int]]] = dict(out)
        self.in_asc: Dict[int, List[Tuple[int, int]]] = dict(inc)
        # Ascending out-lists, cached: enumeration and the Dijkstra baseline
        # iterate them on every vertex visit.
        self._out_asc: Dict[int, List[Tuple[int, int]]] = {
            u: list(reversed(lst)) for u, lst in self.out_desc.items()
        }
        self.vertices = verts

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def slice(self, tb: int, te: int) -> List[Edge]:
        """Edges with ``tb ≤ τ ≤ te``, in ``by_ts`` order."""
        lo = bisect_left(self.by_ts, tb, key=_TS)
        return self.by_ts[lo : bisect_right(self.by_ts, te, lo, key=_TS)]

    def out_edges(self, u: int) -> List[Tuple[int, int]]:
        """Out-neighbors ``(τ, v)`` of ``u``, descending τ."""
        return self.out_desc.get(u, [])

    def in_edges(self, v: int) -> List[Tuple[int, int]]:
        """In-neighbors ``(τ, u)`` of ``v``, ascending τ."""
        return self.in_asc.get(v, [])

    def out_asc(self, u: int) -> List[Tuple[int, int]]:
        """Out-neighbors ``(τ, v)`` of ``u``, ascending τ (for enumeration)."""
        return self._out_asc.get(u, [])

    def max_degree(self) -> int:
        """d = max over vertices of max(in-degree, out-degree) (TABLE I)."""
        if not self.edges:
            return 0
        return max(
            max((len(l) for l in self.out_desc.values()), default=0),
            max((len(l) for l in self.in_asc.values()), default=0),
        )

    def window(self, tb: int, te: int) -> "TemporalAdjacency":
        """Adjacency of the projected graph within ``[tb, te]``."""
        return TemporalAdjacency(self.slice(tb, te))
