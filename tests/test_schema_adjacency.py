"""Edge schema canonicalization and timestamp-sorted adjacency."""
import random
from collections import defaultdict

import pandas as pd
import pytest

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    EDGE_COLUMNS,
    canonical_edges_pdf,
    edges_to_pdf,
    edges_to_spark,
    pdf_to_edge_list,
    project_window,
    project_window_df,
    reverse_edges,
    spark_edges_to_list,
)

LAZY_VIEWS = ("out_desc", "in_asc", "_out_asc", "index")


class TestSchema:
    def test_canonical_drops_self_loops(self):
        pdf = pd.DataFrame({"src": [1, 2], "dst": [1, 3], "ts": [5, 6]})
        out = canonical_edges_pdf(pdf)
        assert out.values.tolist() == [[2, 3, 6]]

    def test_canonical_dedupes(self):
        pdf = pd.DataFrame({"src": [1, 1, 1], "dst": [2, 2, 2], "ts": [5, 5, 6]})
        assert len(canonical_edges_pdf(pdf)) == 2

    def test_canonical_sorts(self):
        pdf = pd.DataFrame({"src": [3, 1], "dst": [4, 2], "ts": [9, 5]})
        out = canonical_edges_pdf(pdf)
        assert out["src"].tolist() == [1, 3]

    def test_round_trip_edge_list(self):
        edges = [(1, 2, 3), (2, 3, 4)]
        assert pdf_to_edge_list(edges_to_pdf(edges)) == edges

    def test_empty_edges_to_pdf(self):
        out = edges_to_pdf([])
        assert list(out.columns) == EDGE_COLUMNS and len(out) == 0

    def test_spark_round_trip(self, spark):
        edges = [(1, 2, 3), (2, 3, 4), (5, 1, 2)]
        df = edges_to_spark(spark, edges_to_pdf(edges))
        assert spark_edges_to_list(df) == sorted(edges)

    def test_project_window(self):
        edges = [(1, 2, 3), (2, 3, 9)]
        assert project_window(edges, 1, 5) == [(1, 2, 3)]

    def test_project_window_df(self, spark):
        df = edges_to_spark(spark, edges_to_pdf([(1, 2, 3), (2, 3, 9)]))
        assert spark_edges_to_list(project_window_df(df, 1, 5)) == [(1, 2, 3)]


class TestAdjacency:
    def test_out_desc_order(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 4, 7), (1, 5, 5)])
        assert [ts for ts, _ in adj.out_edges(1)] == [7, 5, 3]

    def test_in_asc_order(self):
        adj = TemporalAdjacency([(2, 1, 3), (4, 1, 7), (5, 1, 5)])
        assert [ts for ts, _ in adj.in_edges(1)] == [3, 5, 7]

    def test_out_asc_is_reverse(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 4, 7)])
        assert [ts for ts, _ in adj.out_asc(1)] == [3, 7]

    def test_by_ts_and_slice(self):
        adj = TemporalAdjacency([(3, 1, 5), (1, 2, 5), (2, 9, 1), (0, 4, 8)])
        assert adj.by_ts == [(2, 9, 1), (1, 2, 5), (3, 1, 5), (0, 4, 8)]
        assert adj.slice(5, 7) == [(1, 2, 5), (3, 1, 5)]
        assert adj.slice(9, 12) == []

    def test_n_m_vertices(self):
        adj = TemporalAdjacency([(1, 2, 3), (2, 3, 4)])
        assert (adj.n, adj.m) == (3, 2)
        assert adj.vertices == {1, 2, 3}

    def test_dedup_in_constructor(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 2, 3)])
        assert adj.m == 1

    def test_max_degree(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 3, 4), (1, 4, 5), (9, 1, 2)])
        assert adj.max_degree() == 3

    def test_max_degree_counts_in_side(self):
        adj = TemporalAdjacency([(2, 1, 3), (3, 1, 4), (4, 1, 5)])
        assert adj.max_degree() == 3

    def test_window(self):
        adj = TemporalAdjacency([(1, 2, 3), (2, 3, 9)])
        assert adj.window(1, 5).edges == [(1, 2, 3)]

    def test_empty_graph(self):
        adj = TemporalAdjacency([])
        assert adj.n == 0 and adj.m == 0 and adj.max_degree() == 0
        assert adj.rev_by_ts == [] and adj.rev_slice(-(2**63), 2**63) == []
        assert adj.out_desc == {} and adj.in_asc == {} and adj.index == {}

    def test_neighbor_lists_built_on_first_read(self):
        adj = TemporalAdjacency([(1, 2, 3), (2, 3, 4)])
        assert not set(LAZY_VIEWS) & set(vars(adj))
        adj.out_edges(1)
        assert "out_desc" in vars(adj) and "in_asc" not in vars(adj)

    def test_missing_vertex_neighbors(self):
        adj = TemporalAdjacency([(1, 2, 3)])
        assert adj.out_edges(99) == [] and adj.in_edges(99) == []


# Timestamps drawn from a few values, so equal-τ ties are common, and
# including the int64 extremes, which Python ints negate without overflow.
_TS_POOL = [-(2**63), -5, 0, 1, 2, 3, 7, 2**63 - 1]


def _random_graph(rng):
    n = rng.randint(1, 8)
    return [
        (rng.randrange(n), rng.randrange(n), rng.choice(_TS_POOL))
        for _ in range(rng.randint(0, 30))
    ]


# Window ends inside, between and beyond the data; τb > τe gives empty
# windows.
_WINDOW_ENDS = _TS_POOL + [-(2**64), 4, 2**64]


@pytest.mark.parametrize("seed", range(40))
def test_reversed_stream_matches_reverse_edges(seed):
    rng = random.Random(seed)
    adj = TemporalAdjacency(_random_graph(rng))
    assert adj.rev_by_ts == reverse_edges(adj.by_ts)
    for _ in range(20):
        tb, te = rng.choice(_WINDOW_ENDS), rng.choice(_WINDOW_ENDS)
        assert adj.rev_slice(tb, te) == reverse_edges(adj.slice(tb, te))


@pytest.mark.parametrize("seed", range(40))
def test_lazy_views_match_reference_build(seed):
    edges = _random_graph(random.Random(seed))
    out, inc = defaultdict(list), defaultdict(list)
    for u, v, ts in set(edges):
        out[u].append((ts, v))
        inc[v].append((ts, u))
    adj = TemporalAdjacency(edges)
    assert adj.out_desc == {
        u: sorted(l, key=lambda p: (-p[0], p[1])) for u, l in out.items()
    }
    assert adj.in_asc == {v: sorted(l) for v, l in inc.items()}
    assert {u: adj.out_asc(u) for u in out} == {
        u: sorted(l, key=lambda p: (p[0], -p[1])) for u, l in out.items()
    }
    first_seen = dict.fromkeys(x for u, v, _ in adj.by_ts for x in (u, v))
    assert adj.index == {x: i for i, x in enumerate(first_seen)}
    assert adj.vertices == {x for u, v, _ in edges for x in (u, v)}
