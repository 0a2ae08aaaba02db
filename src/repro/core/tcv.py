"""Time-stream common vertices (paper Def. 5, Alg. 4).

``TCV_τ(s,u)`` is the set of vertices (except ``s``) shared by *all*
temporal simple paths ``s → u`` arriving by τ that avoid ``t``;
``TCV_τ(u,t)`` mirrors it for paths ``u → t`` departing at/after τ that
avoid ``s``.  By Lemma 6 they can be computed over temporal *walks*, which
admits the recursive sweep of Alg. 4:

    TCV_τ(s,u) = ∩ over in-edges (v,τ') of u with τ' ≤ τ of
                 (TCV_{τ'-1}(s,v) ∪ {u}),     TCV_.(s,s) = ∅.

Entries are stored only at the timestamps in ``T_in(u, Gq)`` (resp.
``T_out(u, Gq)``); Lemma 5 makes other timestamps a floor/ceiling lookup.
The sweep reads ``Gq.by_ts`` in ascending τ, so every looked-up entry is
already final, and applies the Lemma-7 pruning: once an entry collapses to
``{u}`` the vertex is *completed* — all later entries would equal ``{u}``,
and the floor lookup finding the stored ``{u}`` entry keeps lookups
transparent to the pruning.  ``TCV_.(·, t)`` is the same sweep over Gq's
stored time-reversed stream ``Gq.rev_by_ts`` with ``s`` and ``t`` swapped,
τ negated back.

Vertex sets are int bitsets over Gq's dense vertex index ``Gq.index``
(vertex at position ``i`` ↦ bit ``1 << i``): ``∪`` is ``|``, ``∩`` is ``&``
and ``∅`` is ``0``, so copying and intersecting an entry costs machine
words, not one hash per vertex.  Both sweeps share the index, so TightUBG
intersects their entries directly; :func:`decode` turns an entry back into
its vertex set.

Entry tables map ``u -> [(τ, mask), ...]`` with τ ascending for the
source side and descending for the target side (the order the sweep appends
in).  Lists are at most θ long, so lookups scan linearly.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import Edge

TcvEntries = Dict[int, List[Tuple[int, int]]]

_EMPTY = 0


def decode(gq: TemporalAdjacency, mask: Optional[int]) -> Optional[FrozenSet[int]]:
    """The vertex set of a TCV entry of ``gq`` (``None`` stays ``None``)."""
    if mask is None:
        return None
    return frozenset(v for v, i in gq.index.items() if mask >> i & 1)


def lookup_source(
    entries: TcvEntries, s: int, u: int, tau: int
) -> Optional[int]:
    """``TCV_τ(s,u)`` via Lemma 5: the entry with the largest stored τ' ≤ τ.

    ``None`` means no temporal path ``s → u`` arrives by τ (the intersection
    over an empty path set — "no constraint" does not arise for Gq edges).
    """
    if u == s:
        return _EMPTY
    for ts, mask in reversed(entries.get(u, [])):
        if ts <= tau:
            return mask
    return None


def lookup_target(
    entries: TcvEntries, t: int, u: int, tau: int
) -> Optional[int]:
    """``TCV_τ(u,t)``: the entry with the smallest stored τ' ≥ τ."""
    if u == t:
        return _EMPTY
    for ts, mask in reversed(entries.get(u, [])):  # stored descending
        if ts >= tau:
            return mask
    return None


def _sweep(
    stream: Iterable[Edge], s: int, t: int, index: Dict[int, int]
) -> TcvEntries:
    """Alg. 4 over τ-ascending edges: entries of ``TCV_.(s, ·)``."""
    entries: TcvEntries = {}
    completed = set()
    for v, u, ts in stream:  # edge e(v, u, τ) into u
        if u == t or u == s or u in completed:
            continue
        base = lookup_source(entries, s, v, ts - 1)
        if base is None:
            # Every Gq edge's source has an in-entry at A(v) ≤ τ-1 (Lemma 4);
            # reaching here means the input was not a genuine QuickUBG.
            raise AssertionError(f"no TCV entry for {v} before {ts}")
        bit = 1 << index[u]
        cand = base | bit
        lst = entries.setdefault(u, [])
        if lst and lst[-1][0] == ts:
            lst[-1] = (ts, lst[-1][1] & cand)
        else:
            prev = lst[-1][1] if lst else None
            lst.append((ts, cand if prev is None else prev & cand))
        if lst[-1][1] == bit:
            completed.add(u)  # Lemma 7
    return entries


def tcv_from_source(gq: TemporalAdjacency, s: int, t: int) -> TcvEntries:
    """Alg. 4 forward sweep: entries of ``TCV_.(s, ·)`` keyed by T_in(·, Gq)."""
    return _sweep(gq.by_ts, s, t, gq.index)


def tcv_to_target(gq: TemporalAdjacency, s: int, t: int) -> TcvEntries:
    """Entries of ``TCV_.(·, t)`` keyed by T_out(·, Gq), τ descending: the
    forward sweep on Gᴿ from ``t``."""
    entries = _sweep(gq.rev_by_ts, t, s, gq.index)
    return {u: [(-ts, mask) for ts, mask in lst] for u, lst in entries.items()}
