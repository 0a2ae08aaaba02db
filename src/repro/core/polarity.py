"""Polarity time computation (paper Alg. 3).

``A(u)`` (earliest arrival) is the smallest arrival timestamp over temporal
paths ``s → u`` within ``[τb, τe]`` that do not pass through ``t``;
``D(u)`` (latest departure) is the largest departure timestamp over temporal
paths ``u → t`` within the window that do not pass through ``s``.
Conventions: ``A(s) = τb - 1``, ``D(t) = τe + 1``; unreachable vertices are
absent from the returned maps (paper: +∞ / −∞).

``A`` is the one-pass earliest-arrival scan (Wu et al., *Path Problems in
Temporal Graphs*, PVLDB 2014) over the window slice of the adjacency's
τ-sorted edge list: each in-window edge is read once, the paper's O(n+m)
bound.  ``D`` is ``−A`` of the time-reversed graph with ``s`` and ``t``
swapped: the same scan over the window slice of the adjacency's Gᴿ stream
(``rev_slice``).  EEV calls these on Gt.  QuickUBG runs both scans inside
:func:`repro.core.quick_ubg.quick_ubg_window`, its ``D`` scan over only the
edges its ``A`` scan can leave; the dataflow runs that kernel on the window
slice it collects.
"""
from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge


def _earliest_arrival(
    stream: Iterable[Edge], s: int, t: int, start: int, blocked: frozenset
) -> Dict[int, int]:
    """One pass over τ-ascending edges: the first ``(u, v, τ)`` with
    ``A(u) < τ`` sets ``A(v)``.  Every path into ``u`` before τ uses earlier
    edges, so ``A(u)`` is final when such an edge is read; the strict
    ``<`` keeps equal-τ edges from chaining."""
    A: Dict[int, int] = {s: start}
    for u, v, ts in stream:
        if v not in A and v != t and v not in blocked and A.get(u, ts) < ts:
            A[v] = ts
    return A


def arrival_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Earliest arrival A(·) from ``s`` avoiding ``t`` — paper Alg. 3.

    Returns ``{u: A(u)}`` for every reachable ``u`` (including ``A(s)=τb-1``);
    ``t`` never receives a label (paths must not pass through it, Alg. 3 L6).
    ``blocked`` vertices are treated as absent (EEV uses this to bound
    reachability around a partially claimed path).
    """
    return _earliest_arrival(adj.slice(tb, te), s, t, tb - 1, blocked)


def departure_times(
    adj: TemporalAdjacency,
    s: int,
    t: int,
    tb: int,
    te: int,
    blocked: frozenset = frozenset(),
) -> Dict[int, int]:
    """Latest departure D(·) toward ``t`` avoiding ``s`` — Alg. 3 on Gᴿ.

    ``D(t) = τe+1``; same ``blocked`` semantics as :func:`arrival_times`.
    """
    A_rev = _earliest_arrival(adj.rev_slice(tb, te), t, s, -(te + 1), blocked)
    return {v: -a for v, a in A_rev.items()}


def polarity_times(
    adj: TemporalAdjacency, s: int, t: int, tb: int, te: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Both polarity maps (paper Alg. 3)."""
    return (
        arrival_times(adj, s, t, tb, te),
        departure_times(adj, s, t, tb, te),
    )

