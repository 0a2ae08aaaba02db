"""Timestamp-sorted adjacency used by the per-query local kernels.

One τ-ordered edge stream, built with the adjacency: ``by_ts``, every edge
in one list sorted by τ (ties in ``(u, v)`` order).  The phases that touch
the whole window are single passes over a slice of it: QuickUBG (the
one-pass earliest-arrival scan of Wu et al., PVLDB 2014, then the Lemma-1
departure pass over the edges it reached), the TCV sweep and EEV's edge
order.

Views built on first read (``functools.cached_property``), since most
graphs read few of them: a query's base graph reads none, its ``Gq`` the
index and ``rev_by_ts``, and its ``Gt`` ``rev_by_ts`` and the neighbor
lists:

* ``rev_by_ts`` — the time-reversed stream Gᴿ of ``by_ts``
  (:func:`repro.graph.schema.reverse_edges`), built once so that every
  backward pass (latest departure, TCV toward ``t``) bisects it like
  ``by_ts`` instead of rebuilding it per call.
* Per-vertex neighbor lists ``(τ, w)``: out-neighbors by **descending** τ
  and in-neighbors by **ascending** τ.  These are the orders the
  bidirectional DFS (Alg. 7) explores — forward latest-first, backward
  earliest-first — and what Lemma-10/11 confirmation reads.  Ascending
  out-lists serve enumeration and the Dijkstra baseline.
* ``index``, a dense vertex numbering (TCV's bitsets), whose keys are the
  vertex set.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterable, KeysView, List, Tuple

from repro.graph.schema import Edge, reverse_edges

_TS = itemgetter(2)


class TemporalAdjacency:
    """Immutable adjacency view of a temporal edge set."""

    def __init__(self, edges: Iterable[Edge]):
        self.edges: List[Edge] = sorted(set(edges))
        # Stable sort of the (u, v, τ)-sorted edges: (τ, u, v) order.
        self.by_ts: List[Edge] = sorted(self.edges, key=_TS)

    @cached_property
    def rev_by_ts(self) -> List[Edge]:
        return reverse_edges(self.by_ts)

    @cached_property
    def out_desc(self) -> Dict[int, List[Tuple[int, int]]]:
        out: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        # A reverse sort is stable: τ descending, ties keep (u, v) order,
        # so each list is (−τ, v) ascending.
        for u, v, ts in sorted(self.by_ts, key=_TS, reverse=True):
            out[u].append((ts, v))
        return dict(out)

    @cached_property
    def in_asc(self) -> Dict[int, List[Tuple[int, int]]]:
        inc: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for u, v, ts in self.by_ts:  # (τ, u) ascending per v
            inc[v].append((ts, u))
        return dict(inc)

    @cached_property
    def _out_asc(self) -> Dict[int, List[Tuple[int, int]]]:
        return {u: lst[::-1] for u, lst in self.out_desc.items()}

    @cached_property
    def index(self) -> Dict[int, int]:
        """Dense vertex positions ``0 .. n-1``, in first-appearance order
        over ``by_ts``; iterating the dict yields vertices by position."""
        index: Dict[int, int] = {}
        for u, v, _ in self.by_ts:
            if u not in index:
                index[u] = len(index)
            if v not in index:
                index[v] = len(index)
        return index

    @property
    def vertices(self) -> KeysView[int]:
        return self.index.keys()

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

    def rev_slice(self, tb: int, te: int) -> List[Edge]:
        """Gᴿ of :meth:`slice`: reversed edges with ``−te ≤ −τ ≤ −tb``, in
        ``rev_by_ts`` order."""
        lo = bisect_left(self.rev_by_ts, -te, key=_TS)
        return self.rev_by_ts[lo : bisect_right(self.rev_by_ts, -tb, lo, key=_TS)]

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
