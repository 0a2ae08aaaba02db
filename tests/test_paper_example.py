"""Every intermediate of the paper's running example (Figs. 1-4), checked
against the local kernels.  These are the ground-truth vectors hand-derived
from the paper text; if any of them drifts, the reproduction is wrong."""
import pytest

from repro.baselines.enumeration import tspg_by_enumeration
from repro.baselines.reductions import dt_tsg, es_tsg, tg_tsg
from repro.core.eev import bidir_search, eev, preverified_edges
from repro.core.polarity import arrival_times, departure_times
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
from repro.workload import Query

from tests.example_graph import (
    A, B, C, D, E, EDGES, EXPECTED_ARRIVAL, EXPECTED_DEPARTURE, EXPECTED_GQ,
    EXPECTED_GT, EXPECTED_PATHS, EXPECTED_TCV_S, EXPECTED_TCV_T,
    EXPECTED_TSPG, F, S, T, TB, TE, example_adjacency,
)


@pytest.fixture(scope="module")
def adj():
    return example_adjacency()


@pytest.fixture(scope="module")
def gq(adj):
    return quick_ubg(adj, S, T, TB, TE)


@pytest.fixture(scope="module")
def gt(gq):
    return tight_ubg(gq, S, T)


class TestPolarity:
    def test_arrival_matches_fig3a(self, adj):
        assert arrival_times(adj, S, T, TB, TE) == EXPECTED_ARRIVAL

    def test_departure_matches_fig3b(self, adj):
        assert departure_times(adj, S, T, TB, TE) == EXPECTED_DEPARTURE

    def test_example3_polarity_of_f(self, adj):
        # Example 3: A(f) = min{4, 5} = 4, D(f) = 5.
        assert arrival_times(adj, S, T, TB, TE)[F] == 4
        assert departure_times(adj, S, T, TB, TE)[F] == 5

    def test_target_has_no_arrival_label(self, adj):
        assert T not in arrival_times(adj, S, T, TB, TE)

    def test_source_has_no_departure_label(self, adj):
        assert S not in departure_times(adj, S, T, TB, TE)

    def test_unreachable_a_has_no_departure(self, adj):
        # a never reaches t within [2,7]: D(a) = -inf in the paper.
        assert A not in departure_times(adj, S, T, TB, TE)


class TestQuickUBG:
    def test_gq_matches_fig3c(self, gq):
        assert gq.edges == EXPECTED_GQ

    def test_example4_exclusions(self, adj):
        # e(s,a,3) excluded since D(a) = -inf; e(d,t,2) since A(d) = 3 > 2.
        A_, D_ = (
            arrival_times(adj, S, T, TB, TE),
            departure_times(adj, S, T, TB, TE),
        )
        kept = set(quick_ubg_edges(adj.edges, A_, D_))
        assert (S, A, 3) not in kept
        assert (D, T, 2) not in kept

    def test_window_passes_give_fig3c_in_slice_order(self, adj):
        window = adj.slice(TB, TE)
        got = quick_ubg_window(window, S, T, TB, TE)
        assert got == [e for e in window if e in set(EXPECTED_GQ)]
        assert sorted(got) == EXPECTED_GQ

    def test_strictness_drops_bf5(self, gq):
        # e(b,f,5) needs τ < D(f) = 5; strict comparison drops it.
        assert (B, F, 5) not in set(gq.edges)

    def test_gq_has_no_s_in_or_t_out_edges(self, gq):
        assert not gq.in_edges(S)
        assert not gq.out_edges(T)


def _decoded(gq, entries):
    """An entry table with each bitset decoded to its vertex set."""
    return {
        u: [(ts, decode(gq, mask)) for ts, mask in lst]
        for u, lst in entries.items()
    }


class TestTCV:
    def test_source_entries_match_fig4a(self, gq):
        assert _decoded(gq, tcv_from_source(gq, S, T)) == EXPECTED_TCV_S

    def test_target_entries_match_fig4b(self, gq):
        assert _decoded(gq, tcv_to_target(gq, S, T)) == EXPECTED_TCV_T

    def test_example7_tcv5_f_t(self, gq):
        # Example 7 walks TCV_5(f,t): {c,e,f} ∩ ({b} ∪ {f}) = {f}.
        entries = tcv_to_target(gq, S, T)
        assert decode(gq, lookup_target(entries, T, F, 5)) == frozenset({F})

    def test_lookup_source_floor_semantics(self, gq):
        entries = tcv_from_source(gq, S, T)
        # Lemma 5: TCV_5(s,c) = entry at τ=3.
        assert decode(gq, lookup_source(entries, S, C, 5)) == frozenset({B, C})
        # Before any entry: no path to c by time 2.
        assert lookup_source(entries, S, C, 2) is None

    def test_lookup_of_endpoints_is_empty(self, gq):
        assert decode(gq, lookup_source({}, S, S, 99)) == frozenset()
        assert decode(gq, lookup_target({}, T, T, -1)) == frozenset()


class TestTightUBG:
    def test_gt_matches_fig4c(self, gt):
        assert gt.edges == EXPECTED_GT

    def test_example8_cf4_kept(self, gt):
        # TCV_3(s,c) ∩ TCV_5(f,t) = {b,c} ∩ {f} = ∅ keeps e(c,f,4).
        assert (C, F, 4) in set(gt.edges)

    def test_limitation_edge_ec6_pruned(self, gt):
        # Sec. III-A limitation i): e(e,c,6) only rides cyclic paths.
        assert (E, C, 6) not in set(gt.edges)

    def test_fe5_fb5_pruned(self, gt):
        assert (F, E, 5) not in set(gt.edges)
        assert (F, B, 5) not in set(gt.edges)


class TestEEV:
    def test_preverified_by_lemma2_and_10(self, gt):
        pre = preverified_edges(gt, S, T)
        # Lemma 2: s-out and t-in edges; Lemma 10: (b,c,3) after (s,b,2).
        assert pre == {(S, B, 2), (B, T, 6), (C, T, 7), (B, C, 3)}

    def test_bidir_search_finds_no_path_through_cf4(self, gt):
        # cf4 is the escape edge; f has no admissible out-edges in Gt.
        assert bidir_search((C, F, 4), gt, S, T, TB, TE) is None

    def test_bidir_search_on_real_edge(self, gt):
        path = bidir_search((B, C, 3), gt, S, T, TB, TE)
        assert path == [(S, B, 2), (B, C, 3), (C, T, 7)]

    def test_eev_matches_fig1c(self, gt):
        assert eev(gt, S, T, TB, TE) == EXPECTED_TSPG


class TestEndToEnd:
    def test_vug_local_matches_fig1c(self, adj):
        res = vug_local(adj, Query(S, T, TB, TE))
        assert res.edges == EXPECTED_TSPG
        assert res.sizes == {"gq": 8, "gt": 5, "tspg": 4}

    @pytest.mark.parametrize(
        "bad", [(0, 0, 1, 2), (0, 1, 2, 1), (0, 1, float("nan"), 2)]
    )
    def test_bad_query_refused(self, bad):
        # s = t would ask for cycles (here 0→1→0); τb > τe is an empty window;
        # a NaN bound is not an integer.
        adj = TemporalAdjacency([(0, 1, 1), (1, 0, 2)])
        with pytest.raises(ValueError):
            vug_local(adj, Query(*bad))

    def test_vertices_of_tspg(self, adj):
        res = vug_local(adj, Query(S, T, TB, TE))
        assert res.vertices == {S, B, C, T}

    def test_naive_enumeration_agrees(self, adj):
        edges, n_paths = tspg_by_enumeration(adj, S, T, TB, TE)
        assert edges == EXPECTED_TSPG
        assert n_paths == len(EXPECTED_PATHS) == 2

    def test_enumerated_paths_match_fig1b(self, adj):
        from repro.baselines.enumeration import iter_simple_paths

        paths = sorted(iter_simple_paths(adj, S, T, TB, TE))
        assert paths == sorted(EXPECTED_PATHS)


class TestBaselineReductions:
    def test_dt_keeps_whole_window(self, adj):
        # All 14 example edges carry timestamps inside [2,7].
        assert dt_tsg(adj, TB, TE).m == len(EDGES)

    def test_tg_equals_quick(self, adj, gq):
        assert tg_tsg(adj, S, T, TB, TE).edges == gq.edges

    def test_es_superset_of_quick_keeps_bf5(self, adj, gq):
        es = es_tsg(adj, S, T, TB, TE)
        assert set(es.edges) >= set(gq.edges)
        # Non-strict semantics retain e(b,f,5) (f departs at 5 via fe5).
        assert (B, F, 5) in set(es.edges)

    def test_containment_chain(self, adj, gq, gt):
        dt = set(dt_tsg(adj, TB, TE).edges)
        es = set(es_tsg(adj, S, T, TB, TE).edges)
        tg = set(tg_tsg(adj, S, T, TB, TE).edges)
        assert set(EXPECTED_TSPG) <= set(gt.edges) <= set(gq.edges) == tg <= es <= dt
