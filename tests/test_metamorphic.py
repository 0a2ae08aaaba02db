"""Metamorphic relations of the tspG, checked on the kernel at scale.

Brute force can only check tiny graphs.  These two relations need no
oracle, so they also run on D8 queries, where they catch an edge the kernel
dropped but should have kept:

* **Time reversal.**  Reversing every edge and negating time maps the
  temporal paths ``s → t`` within ``[τb, τe]`` one to one onto the paths
  ``t → s`` within ``[−τe, −τb]`` of Gᴿ, so tspG(G, s, t, [τb, τe]) is Gᴿ
  of tspG(Gᴿ, t, s, [−τe, −τb]).
* **Window widening.**  A path within ``[τb, τe]`` is a path within
  ``[τb − 1, τe + 1]``, so the tspG can only grow.
"""
import pytest

from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.generators import random_small_graph
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries


def _reversed(edges):
    return {(v, u, -ts) for u, v, ts in edges}


def _check_relations(adj: TemporalAdjacency, rev: TemporalAdjacency, q: Query):
    tspg = vug_local(adj, q).edges
    back = vug_local(rev, Query(q.t, q.s, -q.te, -q.tb)).edges
    assert set(tspg) == _reversed(back), q
    wider = vug_local(adj, Query(q.s, q.t, q.tb - 1, q.te + 1)).edges
    assert set(tspg) <= set(wider), q


def _pair(edges):
    return TemporalAdjacency(edges), TemporalAdjacency(_reversed(edges))


@pytest.mark.parametrize("seed", range(40))
def test_relations_on_random_graphs(seed):
    n_ts = 3 + seed % 8
    edges = pdf_to_edge_list(
        random_small_graph(n=5 + seed % 7, m=10 + seed % 25, n_ts=n_ts, seed=seed)
    )
    adj, rev = _pair(edges)
    for q in generate_queries(adj, theta=1 + seed % n_ts, n_queries=3, seed=seed):
        _check_relations(adj, rev, q)


@pytest.fixture(scope="module")
def d8():
    return _pair(pdf_to_edge_list(make_dataset("D8", scale="test")))


def test_relations_on_d8_queries(d8):
    adj, rev = d8
    queries = generate_queries(
        adj, theta=DATASETS["D8"].theta, n_queries=20, seed=17
    )
    assert sum(len(vug_local(adj, q).edges) > 1 for q in queries) >= 10
    for q in queries:
        _check_relations(adj, rev, q)
