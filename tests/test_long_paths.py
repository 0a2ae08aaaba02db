"""Paths far longer than Python's recursion limit (1 000 frames).

A 1 200-hop chain ``(i, i+1, i+1)`` queried over its whole span: its one
temporal simple path is the chain itself.  The searches keep explicit
stacks, so path length is bounded by memory, not by the interpreter.
"""
from repro.baselines.enumeration import tspg_by_enumeration
from repro.core.eev import bidir_search
from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.workload import Query

HOPS = 1200
CHAIN = [(i, i + 1, i + 1) for i in range(HOPS)]
Q = Query(0, HOPS, 1, HOPS)


def test_vug_local_keeps_whole_chain():
    assert vug_local(TemporalAdjacency(CHAIN), Q).edges == CHAIN


def test_bidir_search_middle_edge_returns_chain():
    gt = TemporalAdjacency(CHAIN)
    middle = CHAIN[HOPS // 2]
    assert bidir_search(middle, gt, Q.s, Q.t, Q.tb, Q.te) == CHAIN


def test_enumeration_finds_one_path():
    adj = TemporalAdjacency(CHAIN)
    assert tspg_by_enumeration(adj, Q.s, Q.t, Q.tb, Q.te) == (CHAIN, 1)
