"""Paths far longer than Python's recursion limit (1 000 frames).

A chain ``(i, i+1, i+1)`` queried over its whole span: its one temporal
simple path is the chain itself.  The searches keep explicit stacks, so
path length is bounded by memory, not by the interpreter.  A 1 200-hop
chain checks the searches; a 5 000-hop one checks that TCV and TightUBG
stay fast on a long path (each TCV entry holds every vertex before it).
"""
from repro.baselines.enumeration import tspg_by_enumeration
from repro.core.eev import bidir_search
from repro.core.quick_ubg import quick_ubg
from repro.core.tcv import tcv_from_source, tcv_to_target
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.workload import Query


def _chain(hops):
    return [(i, i + 1, i + 1) for i in range(hops)], Query(0, hops, 1, hops)


HOPS = 1200
CHAIN, Q = _chain(HOPS)
LONG_HOPS = 5000
LONG_CHAIN, LONG_Q = _chain(LONG_HOPS)


def test_vug_local_keeps_whole_chain():
    assert vug_local(TemporalAdjacency(CHAIN), Q).edges == CHAIN


def test_bidir_search_middle_edge_returns_chain():
    gt = TemporalAdjacency(CHAIN)
    middle = CHAIN[HOPS // 2]
    assert bidir_search(middle, gt, Q.s, Q.t, Q.tb, Q.te) == CHAIN


def test_enumeration_finds_one_path():
    adj = TemporalAdjacency(CHAIN)
    assert tspg_by_enumeration(adj, Q.s, Q.t, Q.tb, Q.te) == (CHAIN, 1)


def test_long_chain_vug_local_keeps_whole_chain():
    assert vug_local(TemporalAdjacency(LONG_CHAIN), LONG_Q).edges == LONG_CHAIN


def test_long_chain_tcv_and_tight_ubg():
    q = LONG_Q
    gq = quick_ubg(TemporalAdjacency(LONG_CHAIN), q.s, q.t, q.tb, q.te)
    tcv_s = tcv_from_source(gq, q.s, q.t)
    tcv_t = tcv_to_target(gq, q.s, q.t)
    # One entry per interior vertex on each side.
    assert sum(map(len, tcv_s.values())) == LONG_HOPS - 1
    assert sum(map(len, tcv_t.values())) == LONG_HOPS - 1
    assert tight_ubg(gq, q.s, q.t, tcv_s, tcv_t).edges == LONG_CHAIN
