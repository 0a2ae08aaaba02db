"""Quick upper-bound graph generation (paper Alg. 2).

Keep edge ``e(u, v, τ)`` iff ``A(u) < τ < D(v)`` (Lemma 1): the edge lies on
at least one *temporal* (not necessarily simple) path from ``s`` to ``t``
within ``[τb, τe]``.  With the conventions ``A(s)=τb-1`` and ``D(t)=τe+1``
this uniformly covers all four cases of Observation 1.  Vertices missing
from A/D are unreachable (±∞ in the paper) and their edges drop out.

:func:`quick_ubg_window` decides Lemma 1 in two passes over the window
slice, the second reading only the edges the first reached:

1. The earliest-arrival scan (Wu et al., PVLDB 2014) over the τ-ascending
   slice, with ``A(s) = τb−1`` and ``t`` never labelled, collects every edge
   with ``A(u) < τ`` — the edges a path from ``s`` can leave in time.
2. The latest-departure scan over that list alone, latest τ first, with
   ``D(t) = τe+1`` and ``s`` never labelled, keeps an edge iff ``τ < D(v)``.

Pass 2 reads ``D`` exactly where Lemma 1 needs it.  Take a pass-1 edge
``(·, v, τ)``: ``A(v) ≤ τ``, so every edge of a ``v → t`` path that departs
after τ and avoids ``s`` has a source that ``s`` reaches earlier than that
edge's τ, and is itself in pass 1's list.  The latest such path is thus
seen whole by pass 2, and ``D(v)`` over the list equals ``D(v)`` over the
window.  :func:`quick_ubg_edges` stays the definition: Lemma 1 given both
polarity maps (:func:`repro.core.polarity.polarity_times`).  The dataflow
has no QuickUBG of its own: it collects the window slice and runs
:func:`quick_ubg` on it (:func:`repro.core.vug.quick_ubg_dataflow`).
"""
from __future__ import annotations

from typing import Dict, Iterable, List

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge


def quick_ubg_edges(
    edges: Iterable[Edge], A: Dict[int, int], D: Dict[int, int]
) -> List[Edge]:
    """Filter an edge list by Lemma 1 given precomputed polarity maps.

    Kept edges are the input's own tuples, in input order.  An unlabeled
    endpoint defaults to τ, which fails the strict test.
    """
    out = []
    for e in edges:
        u, v, ts = e
        if A.get(u, ts) < ts < D.get(v, ts):
            out.append(e)
    return out


def quick_ubg_window(
    window: Iterable[Edge], s: int, t: int, tb: int, te: int
) -> List[Edge]:
    """Lemma 1 over a τ-ascending window slice, in two passes.

    Equal to ``quick_ubg_edges(window, *polarity_times(adj, s, t, tb, te))``
    for ``window = adj.slice(tb, te)``: the input's own tuples, in input
    order.  The strict ``<`` of both passes keeps equal-τ edges from
    chaining, as in :func:`repro.core.polarity._earliest_arrival`.
    """
    A = {s: tb - 1}
    leave = []
    for e in window:
        u, v, ts = e
        if A.get(u, ts) < ts:
            leave.append(e)
            if v not in A and v != t:
                A[v] = ts
    D = {t: te + 1}
    kept = []
    for e in reversed(leave):
        u, v, ts = e
        if ts < D.get(v, ts):
            kept.append(e)
            if u not in D and u != s:
                D[u] = ts
    kept.reverse()
    return kept


def quick_ubg(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> TemporalAdjacency:
    """QuickUBG for one query: Gq over the window slice.

    ``A(u) ≥ τb-1`` and ``D(v) ≤ τe+1``, so only the window slice can pass.
    """
    return TemporalAdjacency(quick_ubg_window(adj.slice(tb, te), s, t, tb, te))

