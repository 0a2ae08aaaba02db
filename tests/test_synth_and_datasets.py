"""Generators and the dataset catalog."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import (
    DATASET_KEYS,
    DATASETS,
    SCALE_TARGET_M,
    make_dataset,
    measured_stats,
)
from repro.graph.generators import (
    random_small_graph,
    temporal_graph_pdf,
    transit_schedule_pdf,
)
from repro.graph.schema import EDGE_COLUMNS, pdf_to_edge_list


class TestTemporalGraphGenerator:
    def test_deterministic_in_seed(self):
        a = temporal_graph_pdf(n=50, m=400, n_ts=30, seed=5)
        b = temporal_graph_pdf(n=50, m=400, n_ts=30, seed=5)
        pd.testing.assert_frame_equal(a, b)

    def test_different_seeds_differ(self):
        a = temporal_graph_pdf(n=50, m=400, n_ts=30, seed=5)
        b = temporal_graph_pdf(n=50, m=400, n_ts=30, seed=6)
        assert not a.equals(b)

    def test_schema_and_dtypes(self):
        pdf = temporal_graph_pdf(n=40, m=300, n_ts=20, seed=1)
        assert list(pdf.columns) == EDGE_COLUMNS
        assert all(str(pdf[c].dtype) == "int64" for c in EDGE_COLUMNS)

    def test_no_self_loops_or_duplicates(self):
        pdf = temporal_graph_pdf(n=30, m=500, n_ts=10, seed=2)
        assert (pdf["src"] != pdf["dst"]).all()
        assert not pdf.duplicated().any()

    def test_size_close_to_target(self):
        pdf = temporal_graph_pdf(n=100, m=2000, n_ts=200, seed=3)
        assert 0.9 * 2000 <= len(pdf) <= 2000

    def test_timestamps_in_range(self):
        pdf = temporal_graph_pdf(n=40, m=400, n_ts=17, seed=4)
        assert pdf["ts"].between(1, 17).all()

    def test_degree_skew_present(self):
        pdf = temporal_graph_pdf(n=200, m=4000, n_ts=100, alpha=1.05, seed=0)
        deg = pdf.groupby("src").size()
        # Zipf sources: the busiest source should far exceed the median.
        assert deg.max() >= 5 * max(1, deg.median())

    def test_random_small_graph_bounds(self):
        pdf = random_small_graph(n=8, m=20, n_ts=5, seed=9)
        assert len(pdf) <= 20
        assert pdf["src"].between(0, 7).all()


class TestDatasetCatalog:
    def test_ten_datasets(self):
        assert DATASET_KEYS == [f"D{i}" for i in range(1, 11)]

    @pytest.mark.parametrize("key", DATASET_KEYS)
    def test_paper_stats_recorded(self, key):
        spec = DATASETS[key]
        assert spec.n > 0 and spec.m > spec.n / 10
        assert spec.theta in (10, 20, 25)

    @pytest.mark.parametrize("key", DATASET_KEYS)
    def test_make_dataset_test_scale(self, key):
        pdf = make_dataset(key, scale="test", seed=0)
        stats = measured_stats(pdf)
        assert stats["m"] <= SCALE_TARGET_M["test"]
        assert stats["m"] >= 200
        # |T| preserved from the paper (windows of the default θ make sense)
        assert stats["n_ts"] <= DATASETS[key].n_ts
        assert pdf["ts"].max() <= DATASETS[key].n_ts

    @pytest.mark.parametrize("key", ["D1", "D8"])
    def test_make_dataset_deterministic(self, key):
        pd.testing.assert_frame_equal(
            make_dataset(key, scale="test", seed=3),
            make_dataset(key, scale="test", seed=3),
        )

    def test_scaled_params_preserve_density_ratio(self):
        spec = DATASETS["D5"]
        p = spec.scaled("bench")
        # n and m scaled by a common factor: m/n ratio preserved (±20%).
        assert p["m"] / p["n"] == pytest.approx(spec.m / spec.n, rel=0.2)
        # |T| compressed by sf^0.45, floored at 2θ (DESIGN.md §3).
        sf = p["m"] / spec.m
        assert p["n_ts"] == max(
            2 * spec.theta, round(spec.n_ts * sf**0.45)
        )

    def test_explicit_scale_factor(self):
        p = DATASETS["D1"].scaled(0.01)
        assert p["m"] == round(DATASETS["D1"].m * 0.01)


class TestTransitSchedule:
    def test_shape_and_window(self):
        pdf = transit_schedule_pdf(seed=1)
        assert len(pdf) > 100
        assert pdf["ts"].min() >= 8 * 60

    def test_deterministic(self):
        pd.testing.assert_frame_equal(
            transit_schedule_pdf(seed=2), transit_schedule_pdf(seed=2)
        )

    def test_transfers_exist(self):
        pdf = transit_schedule_pdf(seed=1)
        adj = TemporalAdjacency(pdf_to_edge_list(pdf))
        # hub stops (ids < n_hubs) must have both in and out edges
        hubs = [h for h in range(6) if adj.out_edges(h) and adj.in_edges(h)]
        assert hubs, "expected at least one connected hub stop"

