"""Focused EEV / BiDirSearch unit and property tests beyond the paper example."""
import numpy as np
import pytest

import repro.core.eev as eev_module
from repro.baselines.enumeration import tspg_by_enumeration
from repro.core.eev import bidir_search, confirm_path, eev, preverified_edges
from repro.core.polarity import arrival_times, departure_times
from repro.core.quick_ubg import quick_ubg
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import vug_local
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import DATASETS, make_dataset
from repro.graph.generators import random_small_graph
from repro.graph.schema import pdf_to_edge_list
from repro.workload import Query, generate_queries

from tests.reference import brute_paths, brute_tspg


def _gt_for(edges, s, t, tb, te):
    gq = quick_ubg(TemporalAdjacency(edges), s, t, tb, te)
    return tight_ubg(gq, s, t)


class TestBiDirSearch:
    def test_path_through_middle_edge(self):
        edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]
        gt = _gt_for(edges, 0, 4, 1, 4)
        path = bidir_search((1, 2, 2), gt, 0, 4, 1, 4)
        assert path == edges

    def test_direction_priority_forward_first(self):
        # τ - τb = 4 > τe - τ = 1: forward searched first; both succeed.
        edges = [(0, 1, 1), (1, 2, 5), (2, 3, 6)]
        gt = TemporalAdjacency(edges)
        path = bidir_search((1, 2, 5), gt, 0, 3, 1, 6)
        assert path == edges

    def test_simplicity_enforced_across_halves(self):
        # The only backward path uses vertex 2, which the forward half needs:
        # no simple path through (1,3,4) exists.
        edges = [
            (0, 2, 1), (2, 1, 2),   # backward half must claim 2
            (1, 3, 4), (3, 2, 5), (2, 4, 6),  # forward half needs 2 again
        ]
        gt = TemporalAdjacency(edges)
        assert bidir_search((1, 3, 4), gt, 0, 4, 1, 6) is None

    def test_backtracking_finds_alternative(self):
        # Greedy latest-first forward hits a dead end and must backtrack.
        edges = [
            (0, 1, 1), (1, 2, 2),
            (2, 9, 6),              # latest-first tries this dead end
            (2, 3, 3), (3, 4, 4),
        ]
        gt = TemporalAdjacency(edges)
        path = bidir_search((1, 2, 2), gt, 0, 4, 1, 6)
        assert path == [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]

    def test_edge_touching_s_and_t(self):
        gt = TemporalAdjacency([(0, 1, 2)])
        assert bidir_search((0, 1, 2), gt, 0, 1, 1, 3) == [(0, 1, 2)]

    def test_window_bounds_respected(self):
        edges = [(0, 1, 1), (1, 2, 9)]
        gt = TemporalAdjacency(edges)
        assert bidir_search((0, 1, 1), gt, 0, 2, 1, 5) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_search_agrees_with_brute_per_edge(self, seed):
        """For every Gt edge: search succeeds iff the edge is in the tspG."""
        g = np.random.default_rng(seed)
        pdf = random_small_graph(
            n=int(g.integers(5, 10)), m=int(g.integers(12, 26)),
            n_ts=int(g.integers(4, 8)), seed=seed + 500,
        )
        edges = pdf_to_edge_list(pdf)
        adj = TemporalAdjacency(edges)
        verts = sorted(adj.vertices)
        s, t = verts[0], verts[-1]
        tb, te = 1, 8
        gt = _gt_for(edges, s, t, tb, te)
        expected = set(brute_tspg(edges, s, t, tb, te))
        for e in gt.edges:
            path = bidir_search(e, gt, s, t, tb, te)
            if e in expected:
                assert path is not None and e in path
                # found path must be a genuine temporal simple path
                ts = [x[2] for x in path]
                assert all(a < b for a, b in zip(ts, ts[1:]))
                verts_on = [path[0][0]] + [x[1] for x in path]
                assert len(set(verts_on)) == len(verts_on)
                assert path[0][0] == s and path[-1][1] == t
            else:
                assert path is None


class TestConfirmPath:
    def test_interior_substitutes_confirmed(self):
        # Parallel interior edges (2,3,{4,5}) both substitutable.
        base = [(0, 1, 1), (1, 2, 3), (2, 3, 4), (3, 4, 6), (4, 5, 7)]
        gt = TemporalAdjacency(base + [(2, 3, 5)])
        confirmed = set()
        confirm_path(base, gt, confirmed)
        assert (2, 3, 5) in confirmed
        assert set(base) <= confirmed

    def test_substitute_outside_bounds_not_confirmed(self):
        base = [(0, 1, 1), (1, 2, 3), (2, 3, 4), (3, 4, 6), (4, 5, 7)]
        gt = TemporalAdjacency(base + [(2, 3, 6)])  # 6 not < τ_{i+1}=6
        confirmed = set()
        confirm_path(base, gt, confirmed)
        assert (2, 3, 6) not in confirmed

    def test_short_path_no_interior(self):
        base = [(0, 1, 1), (1, 2, 2)]
        confirmed = set()
        confirm_path(base, TemporalAdjacency(base), confirmed)
        assert confirmed == set(base)


class TestPreverified:
    def test_lemma2_both_sides(self):
        gt = TemporalAdjacency([(0, 1, 1), (2, 3, 9)])
        pre = preverified_edges(gt, 0, 3)
        assert pre == {(0, 1, 1), (2, 3, 9)}

    def test_lemma10_requires_strict_order(self):
        # (1,2,1) is NOT after the s-edge (0,1,1): not pre-verified.
        gt = TemporalAdjacency([(0, 1, 1), (1, 2, 1)])
        pre = preverified_edges(gt, 0, 9)
        assert (1, 2, 1) not in pre

    def test_lemma10_uses_min_s_edge(self):
        gt = TemporalAdjacency([(0, 1, 1), (0, 1, 5), (1, 2, 3)])
        pre = preverified_edges(gt, 0, 9)
        assert (1, 2, 3) in pre  # after the τ'=1 s-edge


def _whole_graph_case(seed):
    """A random graph, ``s``/``t`` its smallest/largest vertex, window
    [1, 8], and its tight upper-bound graph."""
    g = np.random.default_rng(seed + 900)
    pdf = random_small_graph(
        n=int(g.integers(5, 11)), m=int(g.integers(12, 30)),
        n_ts=int(g.integers(3, 8)), seed=seed,
    )
    edges = pdf_to_edge_list(pdf)
    verts = sorted(TemporalAdjacency(edges).vertices)
    s, t = verts[0], verts[-1]
    tb, te = 1, 8
    return edges, s, t, tb, te, _gt_for(edges, s, t, tb, te)


class TestEEVWholeGraphs:
    @pytest.mark.parametrize("seed", range(15))
    def test_eev_on_gt_equals_brute(self, seed):
        edges, s, t, tb, te, gt = _whole_graph_case(seed)
        assert eev(gt, s, t, tb, te) == brute_tspg(edges, s, t, tb, te)

    def test_eev_empty_gt(self):
        assert eev(TemporalAdjacency([]), 0, 1, 1, 5) == []


class TestEscalation:
    """A second-half budget of 0 or 1 expansions sends nearly every second
    half through the claim-aware escalation; answers must not change."""

    @pytest.fixture
    def escalations(self, monkeypatch):
        """Count the polarity maps BiDirSearch recomputes around claims."""
        calls = []

        def counted(fn):
            def wrapper(gt, s, t, tb, te, blocked=frozenset()):
                if blocked:
                    calls.append(blocked)
                return fn(gt, s, t, tb, te, blocked)
            return wrapper

        monkeypatch.setattr(eev_module, "arrival_times", counted(arrival_times))
        monkeypatch.setattr(
            eev_module, "departure_times", counted(departure_times)
        )
        return calls

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("seed", range(15))
    def test_eev_equals_brute(self, monkeypatch, budget, seed):
        monkeypatch.setattr(eev_module, "_PHASE2_BUDGET", budget)
        edges, s, t, tb, te, gt = _whole_graph_case(seed)
        assert eev(gt, s, t, tb, te) == brute_tspg(edges, s, t, tb, te)

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("seed", range(15))
    def test_bidir_finds_path_iff_brute_does(self, monkeypatch, budget, seed):
        monkeypatch.setattr(eev_module, "_PHASE2_BUDGET", budget)
        edges, s, t, tb, te, gt = _whole_graph_case(seed)
        through = set()
        for p in brute_paths(edges, s, t, tb, te):
            through.update(p)
        arrival = arrival_times(gt, s, t, tb, te)
        departure = departure_times(gt, s, t, tb, te)
        for e in gt.edges:
            for maps in ((None, None), (arrival, departure)):
                path = bidir_search(e, gt, s, t, tb, te, *maps)
                assert (path is not None) == (e in through), (e, maps)
                if path is not None:
                    assert e in path and path[0][0] == s and path[-1][1] == t
                    assert path in brute_paths(path, s, t, tb, te)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_d8_queries_equal_enumeration(self, monkeypatch, escalations,
                                          budget):
        # The random instances above leave few escaped edges; D8's long
        # windows leave hundreds, so here the escalation really runs.
        monkeypatch.setattr(eev_module, "_PHASE2_BUDGET", budget)
        adj = TemporalAdjacency(
            pdf_to_edge_list(make_dataset("D8", scale="test", seed=0))
        )
        queries = generate_queries(
            adj, theta=DATASETS["D8"].theta, n_queries=20, seed=1
        )
        for q in queries:
            want, _ = tspg_by_enumeration(adj, q.s, q.t, q.tb, q.te)
            assert vug_local(adj, q).edges == want, q
        assert escalations

    def test_escalated_search_finds_path(self, monkeypatch, escalations):
        # Backward half first (τ0 - τb = 1 ≤ τe - τ0 = 2); the forward half
        # needs two expansions, so a budget of 1 escalates it.
        monkeypatch.setattr(eev_module, "_PHASE2_BUDGET", 1)
        edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]
        gt = TemporalAdjacency(edges)
        path = eev_module.bidir_search((1, 2, 2), gt, 0, 4, 1, 4)
        assert path == edges
        assert escalations == [frozenset({1, 2})]

    def test_escalated_search_respects_claims(self, monkeypatch, escalations):
        # Forward half first (τ0 - τb = 3 > τe - τ0 = 2); it claims 2,
        # which the only backward path needs, so the escalated re-run fails.
        monkeypatch.setattr(eev_module, "_PHASE2_BUDGET", 0)
        edges = [(0, 2, 1), (2, 1, 2), (1, 3, 4), (3, 2, 5), (2, 4, 6)]
        gt = TemporalAdjacency(edges)
        assert eev_module.bidir_search((1, 3, 4), gt, 0, 4, 1, 6) is None
        assert escalations == [frozenset({1, 2, 3})]
