"""Query workload generation: reachability guarantee, spans, determinism,
argument checks, and the same query stream as the scan-based reference."""
import json
import os
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.core.polarity import arrival_times
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries, queries_to_pdf

from tests.reference import scan_generate_queries

REFERENCE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "reference",
)
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


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


class TestArguments:
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("theta", True),
            ("theta", 2.5),
            ("theta", None),
            ("theta", np.float64(3.0)),
            ("theta", 0),
            ("theta", -3),
            ("n_queries", False),
            ("n_queries", 1.5),
            ("n_queries", "2"),
            ("n_queries", -1),
            ("max_tries", True),
            ("max_tries", 2.0),
            ("max_tries", 0),
            ("max_tries", -5),
        ],
    )
    def test_bad_argument_refused(self, d1_adj, name, bad):
        args = dict(theta=10, n_queries=2, max_tries=2000)
        args[name] = bad
        with pytest.raises(ValueError, match=f"^{name} "):
            generate_queries(d1_adj, seed=1, **args)

    def test_zero_queries(self, d1_adj):
        assert generate_queries(d1_adj, theta=10, n_queries=0) == []

    def test_numpy_integer_arguments(self, d1_adj):
        a = generate_queries(
            d1_adj, theta=np.int64(10), n_queries=np.int32(3), seed=4,
            max_tries=np.int16(50),
        )
        assert a == generate_queries(d1_adj, theta=10, n_queries=3, seed=4)


@pytest.mark.parametrize(
    "workload", ["kernel_sparse", "kernel_dense", "runner_batch", "dataflow_query"]
)
def test_benchmark_query_pool(workload):
    """The benchmark's committed answers are keyed by its query pools: the
    generator must rebuild each pool, row for row."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as f:
        ref = json.load(f)
    pdf = make_dataset(ref["dataset"], scale=ref["scale"], seed=0)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    qs = generate_queries(
        adj, theta=ref["theta"], n_queries=len(ref["rows"]), seed=ref["seed"]
    )
    assert [[q.s, q.t, q.tb, q.te] for q in qs] == [r[:4] for r in ref["rows"]]


def _outcome(gen, adj, **kw):
    """The query list, or the exception's type and message."""
    try:
        return gen(adj, **kw)
    except Exception as e:  # noqa: BLE001 — compared, not swallowed
        return (type(e).__name__, str(e))


# Timestamp domains of the random instances: ties in a short range, the
# int64 ends and the values next to them, extremes mixed, and sparse
# timestamps far apart (for a θ of 10^12).
_DOMAINS = [
    list(range(0, 6)),
    list(range(-3, 4)),
    [I64_MIN + k for k in range(5)],
    [I64_MAX - k for k in range(5)],
    [I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX],
    None,  # sparse: drawn per instance from [0, 10^15]
]


def _random_instance(i: int):
    g = np.random.default_rng(10_000 + i)
    domain = _DOMAINS[i % len(_DOMAINS)]
    if domain is None:
        domain = sorted(int(x) for x in g.integers(0, 10**15, size=8))
    n = int(g.integers(2, 8))
    vertices = list(range(-2, n - 2))  # −1 and −2 included
    m = int(g.integers(1, 14))
    edges = []
    for _ in range(m):
        u = vertices[int(g.integers(len(vertices)))]
        v = u if g.random() < 0.15 else vertices[int(g.integers(len(vertices)))]
        edges.append((u, v, domain[int(g.integers(len(domain)))]))
    edges += edges[: int(g.integers(0, 3))]  # duplicate input edges
    if i % 40 == 7:  # one timestamp just past int64
        edges.append((0, 1, I64_MAX + 1 if i % 80 == 7 else I64_MIN - 1))
    span = max(e[2] for e in edges) - min(e[2] for e in edges) + 1
    theta = [1, 2, 3, span, span + 7, 10**12, 2**64][int(g.integers(7))]
    kw = dict(
        theta=theta,
        n_queries=int(g.integers(0, 5)),
        seed=i,
        max_tries=[1, 3, 20, 2000][int(g.integers(4))],
    )
    return TemporalAdjacency(edges), kw


class TestSameStreamAsScan:
    N = 300

    def test_random_instances(self):
        kinds = Counter()
        for i in range(self.N):
            adj, kw = _random_instance(i)
            new = _outcome(generate_queries, adj, **kw)
            assert new == _outcome(scan_generate_queries, adj, **kw), (i, adj.edges, kw)
            kinds[new[0] if isinstance(new, tuple) else min(len(new), 1)] += 1
        # Every kind of outcome occurs, so the comparison is not vacuous.
        assert all(kinds[k] >= 5 for k in (0, 1, "RuntimeError", "OverflowError")), kinds

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 1, 5), (2, 2, 5)],  # self loops reach nothing
            [(3, -1, 4), (-1, 2, 6)],  # −1 is never a target
            [(1, 2, 3), (2, 3, 3), (3, 4, 3)],  # equal τ do not chain
            [(1, 2, 3), (2, 1, 4), (1, 3, 5)],  # edges into s
        ],
    )
    @pytest.mark.parametrize("max_tries", [1, 5, 200])
    def test_degenerate_graphs(self, edges, max_tries):
        adj = TemporalAdjacency(edges)
        kw = dict(theta=3, n_queries=3, seed=5, max_tries=max_tries)
        assert _outcome(generate_queries, adj, **kw) == _outcome(
            scan_generate_queries, adj, **kw
        )

    def test_wide_theta_on_sparse_timestamps_allocates_by_edges(self):
        g = np.random.default_rng(3)
        edges = [
            (int(u), int(v), int(ts))
            for u, v, ts in zip(
                g.integers(0, 30, 200), g.integers(0, 30, 200),
                g.integers(0, 10**15, 200),
            )
        ]
        adj = TemporalAdjacency(edges)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            qs = generate_queries(adj, theta=10**12, n_queries=20, seed=1)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20, peak
        assert qs == scan_generate_queries(adj, theta=10**12, n_queries=20, seed=1)


class TestQueriesToPdf:
    def test_schema(self, d1_adj):
        qs = generate_queries(d1_adj, theta=10, n_queries=5, seed=1)
        pdf = queries_to_pdf(qs)
        assert list(pdf.columns) == ["qid", "s", "t", "tb", "te"]
        assert len(pdf) == 5
        assert pdf["qid"].tolist() == [0, 1, 2, 3, 4]
