"""Query workload generation: reachability guarantee, spans, determinism."""
import numpy as np
import pytest

from repro.core.polarity import arrival_times
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries, queries_to_pdf


@pytest.fixture(scope="module")
def d1_adj():
    return TemporalAdjacency(pdf_to_edge_list(make_dataset("D1", scale="test")))


class TestQueryDataclass:
    def test_theta(self):
        assert Query(0, 1, 5, 14).theta == 10

    def test_frozen(self):
        q = Query(0, 1, 2, 3)
        with pytest.raises(AttributeError):
            q.s = 9

    @pytest.mark.parametrize("field", ["s", "t", "tb", "te"])
    @pytest.mark.parametrize(
        "bad", [None, 2.5, float("nan"), True, np.float64(2.0), "2"],
        ids=["none", "float", "nan", "bool", "np-float", "str"],
    )
    def test_non_integer_field_refused(self, field, bad):
        args = dict(s=0, t=1, tb=2, te=3)
        args[field] = bad
        with pytest.raises(ValueError, match=f"field {field} "):
            Query(**args)

    def test_numpy_integers_accepted(self):
        q = Query(np.int64(0), np.int32(1), np.int64(2), np.uint8(3))
        assert q.theta == 2


class TestGeneration:
    def test_count_and_span(self, d1_adj):
        qs = generate_queries(d1_adj, theta=10, n_queries=8, seed=1)
        assert len(qs) == 8
        assert all(q.theta == 10 for q in qs)

    def test_reachability_guarantee(self, d1_adj):
        for q in generate_queries(d1_adj, theta=10, n_queries=8, seed=2):
            arr = arrival_times(d1_adj, q.s, -1, q.tb, q.te)
            assert q.t in arr and q.t != q.s

    def test_deterministic(self, d1_adj):
        a = generate_queries(d1_adj, theta=10, n_queries=6, seed=3)
        b = generate_queries(d1_adj, theta=10, n_queries=6, seed=3)
        assert a == b

    def test_seeds_differ(self, d1_adj):
        a = generate_queries(d1_adj, theta=10, n_queries=6, seed=3)
        b = generate_queries(d1_adj, theta=10, n_queries=6, seed=4)
        assert a != b

    def test_window_inside_timestamp_range(self, d1_adj):
        n_ts = DATASETS["D1"].n_ts
        for q in generate_queries(d1_adj, theta=10, n_queries=8, seed=5):
            assert 1 <= q.tb <= q.te <= n_ts + 10

    @pytest.mark.parametrize("key", ["D2", "D8"])
    def test_other_datasets(self, key):
        adj = TemporalAdjacency(pdf_to_edge_list(make_dataset(key, scale="test")))
        qs = generate_queries(
            adj, theta=DATASETS[key].theta, n_queries=4, seed=0
        )
        assert len(qs) == 4

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            generate_queries(TemporalAdjacency([]), theta=3, n_queries=1)

    def test_single_edge_graph_yields_its_only_query(self):
        adj = TemporalAdjacency([(1, 2, 5)])
        qs = generate_queries(adj, theta=1, n_queries=1, seed=0, max_tries=50)
        assert qs == [Query(1, 2, 5, 5)]


class TestQueriesToPdf:
    def test_schema(self, d1_adj):
        qs = generate_queries(d1_adj, theta=10, n_queries=5, seed=1)
        pdf = queries_to_pdf(qs)
        assert list(pdf.columns) == ["qid", "s", "t", "tb", "te"]
        assert len(pdf) == 5
        assert pdf["qid"].tolist() == [0, 1, 2, 3, 4]
