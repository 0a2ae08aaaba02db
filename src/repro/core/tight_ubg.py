"""Tight upper-bound graph generation (paper Alg. 5, Lemmas 8–9).

An edge ``e(u,v,τ)`` of ``Gq`` survives into ``Gt`` iff

* ``u = s`` or ``v = t`` (Lemma 2 — such edges are certainly in the tspG), or
* ``TCV_τl(s,u) ∩ TCV_τr(v,t) = ∅`` where ``τl`` is the largest in-timestamp
  of ``u`` below τ and ``τr`` the smallest out-timestamp of ``v`` above τ
  (Lemma 8 shows this single intersection dominates all (τi, τj) choices).

Both lookups always succeed on a genuine ``Gq``: ``u``'s in-edge at
``A(u) < τ`` and ``v``'s out-edge at ``D(v) > τ`` are themselves in ``Gq``.
The entries are bitsets over ``Gq.index`` (:mod:`repro.core.tcv`), so the
intersection is one ``&``.
"""
from __future__ import annotations

from repro.graph.adjacency import TemporalAdjacency
from repro.core.tcv import (
    TcvEntries,
    lookup_source,
    lookup_target,
    tcv_from_source,
    tcv_to_target,
)


def tight_ubg(
    gq: TemporalAdjacency,
    s: int,
    t: int,
    tcv_s: TcvEntries = None,
    tcv_t: TcvEntries = None,
) -> TemporalAdjacency:
    """Local TightUBG; computes the TCV tables if not supplied."""
    if tcv_s is None:
        tcv_s = tcv_from_source(gq, s, t)
    if tcv_t is None:
        tcv_t = tcv_to_target(gq, s, t)
    keep = []
    for e in gq.edges:
        u, v, ts = e
        if u == s or v == t:
            keep.append(e)
            continue
        su = lookup_source(tcv_s, s, u, ts - 1)
        tv = lookup_target(tcv_t, t, v, ts + 1)
        if su is None or tv is None:
            raise AssertionError(
                f"missing TCV entry for Gq edge ({u},{v},{ts}) — input not a Gq"
            )
        if not (su & tv):
            keep.append(e)
    return TemporalAdjacency(keep)
