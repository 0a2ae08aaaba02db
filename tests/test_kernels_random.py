"""Property tests: local kernels vs independent brute force on random graphs.

Pure-Python (no Spark) and fast; parametrized seeds give broad coverage and
Hypothesis hammers the same invariants with adversarial small graphs.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.enumeration import iter_simple_paths, tspg_by_enumeration
from repro.baselines.reductions import dt_tsg, es_tsg, tg_tsg
from repro.core.eev import eev
from repro.core.polarity import arrival_times, departure_times, polarity_times
from repro.core.quick_ubg import quick_ubg, quick_ubg_edges, quick_ubg_window
from repro.core.tcv import (
    decode,
    lookup_source,
    lookup_target,
    tcv_from_source,
    tcv_to_target,
)
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.generators import random_small_graph
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query

from tests.reference import (
    brute_arrival,
    brute_departure,
    brute_tcv_source,
    brute_tcv_target,
    brute_tspg,
)

SEEDS = list(range(30))


def _case(seed: int, prefer_reachable: bool = False):
    """A random small graph plus a query with s != t.

    With ``prefer_reachable`` the window is the full timestamp range, ``s``
    is drawn from the vertices that reach another vertex over it and ``t``
    from the vertices ``s`` reaches, so pruning phases see real work.
    """
    g = np.random.default_rng(seed + 1000)
    n = int(g.integers(5, 13))
    m = int(g.integers(8, 36))
    n_ts = int(g.integers(3, 12))
    pdf = random_small_graph(n=n, m=m, n_ts=n_ts, seed=seed)
    edges = pdf_to_edge_list(pdf)
    if not edges:
        pytest.skip("degenerate empty graph")
    adj = TemporalAdjacency(edges)
    verts = sorted(adj.vertices)
    if prefer_reachable:
        all_ts = [e[2] for e in edges]
        tb, te = min(all_ts), max(all_ts)
        reach = {
            u: [v for v in sorted(arrival_times(adj, u, -1, tb, te)) if v != u]
            for u in verts
        }
        sources = [u for u in verts if reach[u]]
        s = sources[int(g.integers(0, len(sources)))]
        t_choices = reach[s]
    else:
        s = verts[int(g.integers(0, len(verts)))]
        tb = int(g.integers(1, n_ts + 1))
        te = int(g.integers(tb, n_ts + 1))
        t_choices = [v for v in verts if v != s]
    t = t_choices[int(g.integers(0, len(t_choices)))]
    return adj, Query(s, t, tb, te)


@pytest.mark.parametrize("seed", SEEDS)
def test_vug_equals_brute_force(seed):
    adj, q = _case(seed)
    res = vug_local(adj, q)
    assert res.edges == brute_tspg(adj.edges, q.s, q.t, q.tb, q.te)


@pytest.mark.parametrize("seed", SEEDS)
def test_polarity_matches_brute(seed):
    adj, q = _case(seed)
    assert arrival_times(adj, q.s, q.t, q.tb, q.te) == brute_arrival(
        adj.edges, q.s, q.t, q.tb, q.te
    )
    assert departure_times(adj, q.s, q.t, q.tb, q.te) == brute_departure(
        adj.edges, q.s, q.t, q.tb, q.te
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_quick_equals_tg(seed):
    adj, q = _case(seed)
    assert (
        quick_ubg(adj, q.s, q.t, q.tb, q.te).edges
        == tg_tsg(adj, q.s, q.t, q.tb, q.te).edges
    )


# Timestamps from a few values, so equal-τ ties are common, including the
# int64 extremes; window ends also fall between and beyond the data, and
# τb > τe gives empty windows.
_TS_POOL = [-(2**63), -5, 0, 1, 2, 3, 7, 2**63 - 1]
_WINDOW_ENDS = _TS_POOL + [-(2**64), 4, 2**64]


def _window_case(rng):
    """Random edges (self loops and duplicates included) plus a query whose
    ``s`` has in-edges, whose ``t`` has out-edges and, sometimes, a direct
    ``s → t`` edge."""
    n = rng.randint(2, 8)
    s, t = rng.sample(range(n), 2)
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.choice(_TS_POOL))
        for _ in range(rng.randint(0, 30))
    ]
    edges += [(rng.randrange(n), s, rng.choice(_TS_POOL)),
              (t, rng.randrange(n), rng.choice(_TS_POOL))]
    if rng.random() < 0.5:
        edges.append((s, t, rng.choice(_TS_POOL)))
    edges += rng.choices(edges, k=rng.randint(0, 3))
    tb, te = rng.choice(_WINDOW_ENDS), rng.choice(_WINDOW_ENDS)
    if rng.random() < 0.7:
        tb, te = min(tb, te), max(tb, te)
    return edges, s, t, tb, te


@pytest.mark.parametrize("seed", range(50))
def test_quick_ubg_window_equals_lemma1_filter(seed):
    """The two-pass QuickUBG keeps exactly the Lemma-1 edges of the window,
    as the input's own tuples in input order; 5 windows per seed."""
    rng = random.Random(seed)
    for _ in range(5):
        edges, s, t, tb, te = _window_case(rng)
        adj = TemporalAdjacency(edges)
        A, D = polarity_times(adj, s, t, tb, te)
        raw = sorted((e for e in edges if tb <= e[2] <= te), key=lambda e: e[2])
        for window in (adj.slice(tb, te), raw):
            got = quick_ubg_window(window, s, t, tb, te)
            want = quick_ubg_edges(window, A, D)
            assert got == want, (edges, s, t, tb, te)
            assert all(g is w for g, w in zip(got, want))


@pytest.mark.parametrize("seed", SEEDS)
def test_containment_chain(seed):
    adj, q = _case(seed)
    gq = quick_ubg(adj, q.s, q.t, q.tb, q.te)
    gt = tight_ubg(gq, q.s, q.t)
    tspg = set(eev(gt, q.s, q.t, q.tb, q.te))
    dt = set(dt_tsg(adj, q.tb, q.te).edges)
    es = set(es_tsg(adj, q.s, q.t, q.tb, q.te).edges)
    assert tspg <= set(gt.edges) <= set(gq.edges) <= es <= dt <= set(adj.edges)


@pytest.mark.parametrize("seed", SEEDS)
def test_ep_baselines_equal_vug(seed):
    adj, q = _case(seed)
    expected = vug_local(adj, q).edges
    for variant in ("EPdtTSG", "EPesTSG", "EPtgTSG"):
        from repro.baselines.ep import ep_run

        assert ep_run(variant, adj, q).edges == expected, variant


@pytest.mark.parametrize("seed", SEEDS)
def test_tcv_matches_definition(seed):
    """Gq-side TCV lookups equal Def. 5 intersections computed over Gq."""
    adj, q = _case(seed, prefer_reachable=True)
    gq = quick_ubg(adj, q.s, q.t, q.tb, q.te)
    assert gq.edges  # t is reachable from s, so some simple path survives
    tcv_s = tcv_from_source(gq, q.s, q.t)
    tcv_t = tcv_to_target(gq, q.s, q.t)
    for u in sorted(gq.vertices):
        for tau in range(q.tb, q.te + 1):
            if u not in (q.s, q.t):
                got = decode(gq, lookup_source(tcv_s, q.s, u, tau))
                want = brute_tcv_source(gq.edges, q.s, q.t, u, q.tb, tau)
                assert got == want, (u, tau, "source")
                got = decode(gq, lookup_target(tcv_t, q.t, u, tau))
                want = brute_tcv_target(gq.edges, q.s, q.t, u, tau, q.te)
                assert got == want, (u, tau, "target")


@pytest.mark.parametrize("seed", SEEDS)
def test_enumeration_paths_are_valid(seed):
    adj, q = _case(seed)
    for p in iter_simple_paths(adj, q.s, q.t, q.tb, q.te, max_expansions=50_000):
        assert p[0][0] == q.s and p[-1][1] == q.t
        # strict ascent within window
        ts = [e[2] for e in p]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert q.tb <= ts[0] and ts[-1] <= q.te
        # vertex-simple
        verts = [p[0][0]] + [e[1] for e in p]
        assert len(set(verts)) == len(verts)
        # chained
        assert all(p[i][1] == p[i + 1][0] for i in range(len(p) - 1))


@pytest.mark.parametrize("seed", SEEDS)
def test_reachability_implies_nonempty_tspg(seed):
    adj, q = _case(seed)
    arr = arrival_times(adj, q.s, -1, q.tb, q.te)
    res = vug_local(adj, q)
    if q.t in arr:
        assert res.edges, "reachable target must yield a non-empty tspG"
    else:
        assert res.edges == []


_edge_strategy = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(0, 7), st.integers(1, 8)
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=120, deadline=None)
@given(edges=_edge_strategy, s=st.integers(0, 7), t=st.integers(0, 7),
       tb=st.integers(1, 8), span=st.integers(0, 7))
def test_hypothesis_vug_equals_brute(edges, s, t, tb, span):
    if s == t:
        return
    adj = TemporalAdjacency(edges)
    te = min(8, tb + span)
    q = Query(s, t, tb, te)
    assert vug_local(adj, q).edges == brute_tspg(
        adj.edges, s, t, tb, te
    )


@settings(max_examples=80, deadline=None)
@given(edges=_edge_strategy, s=st.integers(0, 7), t=st.integers(0, 7),
       tb=st.integers(1, 8), span=st.integers(0, 7))
def test_hypothesis_gq_equals_tg_and_contains_tspg(edges, s, t, tb, span):
    if s == t:
        return
    adj = TemporalAdjacency(edges)
    te = min(8, tb + span)
    gq = quick_ubg(adj, s, t, tb, te)
    assert gq.edges == tg_tsg(adj, s, t, tb, te).edges
    tspg, _ = tspg_by_enumeration(adj, s, t, tb, te)
    assert set(tspg) <= set(gq.edges)


@settings(max_examples=200, deadline=None)
@given(edges=_edge_strategy, s=st.integers(0, 7), t=st.integers(0, 7),
       tb=st.integers(1, 8), span=st.integers(0, 7),
       blocked=st.frozensets(st.integers(0, 7), max_size=4))
def test_hypothesis_polarity_with_blocked_equals_brute(edges, s, t, tb, span,
                                                       blocked):
    """A blocked vertex is absent: no edge may enter it (arrival) or leave
    it (departure); the start vertex keeps its label either way."""
    if s == t:
        return
    adj = TemporalAdjacency(edges)
    te = min(8, tb + span)
    into_free = [e for e in adj.edges if e[1] not in blocked]
    out_of_free = [e for e in adj.edges if e[0] not in blocked]
    assert arrival_times(adj, s, t, tb, te, blocked) == brute_arrival(
        into_free, s, t, tb, te
    )
    assert departure_times(adj, s, t, tb, te, blocked) == brute_departure(
        out_of_free, s, t, tb, te
    )
